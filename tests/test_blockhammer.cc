/**
 * @file
 * Tests for BlockHammer: configuration math (Equations 1 and 3, Table 1,
 * Table 7), the history buffer, RowBlocker, AttackThrottler, the
 * integrated mechanism, its verdict stamps, refusal lapses and
 * known-safe answers, and the flat shadow table against a hash-map
 * reference.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "analysis/security.hh"
#include "blockhammer/blockhammer.hh"
#include "blockhammer/exact_shadow.hh"
#include "common/rng.hh"

namespace bh
{
namespace
{

BlockHammerConfig
paperConfig()
{
    return BlockHammerConfig::forThreshold(32768, DramTimings::ddr4());
}

/** Small config for fast dynamic tests. */
BlockHammerConfig
tinyConfig()
{
    BlockHammerConfig cfg;
    cfg.nRH = 512;
    cfg.nBL = 128;
    cfg.tREFW = 100000;
    cfg.tCBF = 100000;
    cfg.tRC = 148;
    cfg.tFAW = 112;
    cfg.banks = 4;
    cfg.threads = 4;
    cfg.cbf.numCounters = 1024;
    cfg.cbf.counterMax = 128;
    return cfg;
}

TEST(BlockHammerConfig, Table1Values)
{
    BlockHammerConfig cfg = paperConfig();
    // Table 1: N_RH=32K, N_RH*=16K, N_BL=8K, 1K-counter CBFs.
    EXPECT_EQ(cfg.nRH, 32768u);
    EXPECT_EQ(cfg.nRHStar(), 16384u);
    EXPECT_EQ(cfg.nBL, 8192u);
    EXPECT_EQ(cfg.cbf.numCounters, 1024u);
    // tDelay = 7.7 us (paper); at 3.2 GHz that is ~24.6K cycles.
    double tdelay_us = cyclesToNs(cfg.tDelay()) / 1000.0;
    EXPECT_NEAR(tdelay_us, 7.7, 0.15);
    // History buffer: 887 entries per rank (paper, +- formula rounding).
    EXPECT_NEAR(cfg.historyEntries(), 887, 5);
}

TEST(BlockHammerConfig, Equation3WorstCase)
{
    // Section 4: r_blast=6, c_k=0.5^(k-1) gives N_RH* = 0.2539 N_RH.
    BlockHammerConfig cfg = paperConfig();
    cfg.blast = BlastModel::worstCase();
    EXPECT_NEAR(static_cast<double>(cfg.nRHStar()) / cfg.nRH, 0.2539, 0.001);
}

TEST(BlockHammerConfig, Equation3DoubleSided)
{
    BlockHammerConfig cfg = paperConfig();
    cfg.blast = BlastModel::doubleSided();
    EXPECT_EQ(cfg.nRHStar(), cfg.nRH / 2);
}

TEST(BlockHammerConfig, Table7Scaling)
{
    // Table 7: (N_RH, N_BL, CBF size).
    struct Row { std::uint32_t nrh, nbl, cbf; };
    const Row rows[] = {
        {32768, 8192, 1024}, {16384, 4096, 1024}, {8192, 2048, 1024},
        {4096, 1024, 2048}, {2048, 512, 4096}, {1024, 256, 8192},
    };
    for (const Row &r : rows) {
        auto cfg = BlockHammerConfig::forThreshold(r.nrh,
                                                   DramTimings::ddr4());
        EXPECT_EQ(cfg.nBL, r.nbl) << "nRH " << r.nrh;
        EXPECT_EQ(cfg.cbf.numCounters, r.cbf) << "nRH " << r.nrh;
        EXPECT_EQ(cfg.tCBF, cfg.tREFW);
    }
}

TEST(BlockHammerConfig, TdelayGrowsAsThresholdShrinks)
{
    Cycle prev = 0;
    for (std::uint32_t nrh : {32768u, 8192u, 2048u, 1024u}) {
        auto cfg = BlockHammerConfig::forThreshold(nrh, DramTimings::ddr4());
        EXPECT_GT(cfg.tDelay(), prev);
        prev = cfg.tDelay();
    }
}

TEST(BlockHammerConfig, HistoryGrowsAsThresholdShrinks)
{
    auto big = BlockHammerConfig::forThreshold(32768, DramTimings::ddr4());
    auto small = BlockHammerConfig::forThreshold(1024, DramTimings::ddr4());
    // Paper: 887 entries at 32K -> 27.8K entries at 1K (formula rounding
    // lands ours at ~28.5K).
    EXPECT_NEAR(small.historyEntries(), 28500, 900);
    EXPECT_GT(small.historyEntries(), 20 * big.historyEntries());
}

TEST(BlockHammerConfig, RhliDenominator)
{
    BlockHammerConfig cfg = paperConfig();
    // tCBF == tREFW: denominator = N_RH* - N_BL = 8192.
    EXPECT_DOUBLE_EQ(cfg.rhliDenominator(), 8192.0);
    EXPECT_EQ(cfg.throttlerCounterMax(), 16384u);
}

TEST(HistoryBuffer, RecentlyActivatedWithinWindow)
{
    HistoryBuffer hb(16, 100);
    hb.insert(42, 1000);
    EXPECT_TRUE(hb.recentlyActivated(42, 1050));
    EXPECT_FALSE(hb.recentlyActivated(43, 1050));
}

TEST(HistoryBuffer, ExpiresAfterDelayWindow)
{
    HistoryBuffer hb(16, 100);
    hb.insert(42, 1000);
    EXPECT_TRUE(hb.recentlyActivated(42, 1099));
    EXPECT_FALSE(hb.recentlyActivated(42, 1100));
}

TEST(HistoryBuffer, TracksMultipleEntriesOfSameRow)
{
    HistoryBuffer hb(16, 100);
    hb.insert(42, 1000);
    hb.insert(42, 1050);
    // First record expires; the second still covers the row.
    EXPECT_TRUE(hb.recentlyActivated(42, 1120));
    EXPECT_FALSE(hb.recentlyActivated(42, 1150));
}

TEST(HistoryBuffer, CapacityAndValidCount)
{
    HistoryBuffer hb(8, 1000);
    for (int i = 0; i < 8; ++i)
        hb.insert(i, i);
    EXPECT_EQ(hb.validCount(), 8u);
    EXPECT_EQ(hb.capacity(), 8u);
}

TEST(HistoryBuffer, ExpiryExactlyAtDelayBoundary)
{
    // An entry covers [t, t + tDelay): the delta == tDelay query is the
    // first one that no longer sees it.
    HistoryBuffer hb(4, 100);
    hb.insert(7, 500);
    EXPECT_TRUE(hb.recentlyActivated(7, 500));
    EXPECT_TRUE(hb.recentlyActivated(7, 599));
    hb.expire(600);
    EXPECT_EQ(hb.validCount(), 0u);
    EXPECT_FALSE(hb.recentlyActivated(7, 600));
}

TEST(HistoryBuffer, TimestampDeltasNearWindowEdge)
{
    HistoryBuffer hb(8, 100);
    hb.insert(1, 1000);
    hb.insert(2, 1001);
    // One cycle inside the edge for key 1, exactly at it for nothing yet.
    EXPECT_TRUE(hb.recentlyActivated(1, 1099));
    EXPECT_TRUE(hb.recentlyActivated(2, 1099));
    // Key 1 ages out exactly one cycle before key 2.
    EXPECT_FALSE(hb.recentlyActivated(1, 1100));
    EXPECT_TRUE(hb.recentlyActivated(2, 1100));
    EXPECT_FALSE(hb.recentlyActivated(2, 1101));
    EXPECT_EQ(hb.validCount(), 0u);
}

TEST(HistoryBuffer, LastActivationIsTheLatestLiveEntry)
{
    HistoryBuffer hb(8, 100);
    EXPECT_EQ(hb.lastActivation(42), -1);
    hb.insert(42, 1000);
    hb.insert(7, 1020);
    hb.insert(42, 1050);
    EXPECT_EQ(hb.lastActivation(42), 1050);
    EXPECT_EQ(hb.lastActivation(7), 1020);
    hb.expire(1100);    // the first entry of 42 ages out, not the second
    EXPECT_EQ(hb.lastActivation(42), 1050);
    hb.expire(1149);
    EXPECT_EQ(hb.lastActivation(42), 1050);
    hb.expire(1150);
    EXPECT_EQ(hb.lastActivation(42), -1);
    EXPECT_EQ(hb.lastActivation(7), -1);
}

TEST(HistoryBuffer, WrapsAroundWithoutStaleEntries)
{
    // Exercise head/tail wrap-around (the positional-validity bookkeeping
    // that replaced the per-slot valid flag).
    HistoryBuffer hb(4, 10);
    for (Cycle t = 0; t < 100; t += 3) {
        hb.insert(static_cast<std::uint64_t>(t), t);
        EXPECT_TRUE(hb.recentlyActivated(static_cast<std::uint64_t>(t), t));
        EXPECT_LE(hb.validCount(), 4u);
    }
    hb.expire(200);
    EXPECT_EQ(hb.validCount(), 0u);
}

TEST(HistoryBufferDeath, OverflowPanics)
{
    HistoryBuffer hb(4, 1000);
    for (int i = 0; i < 4; ++i)
        hb.insert(i, i);
    EXPECT_DEATH(hb.insert(99, 10), "overflow");
}

TEST(HistoryBuffer, ReusesSlotsAfterExpiry)
{
    HistoryBuffer hb(4, 10);
    for (int round = 0; round < 20; ++round)
        hb.insert(round, round * 20);   // every insert expires the last
    EXPECT_EQ(hb.validCount(), 1u);
}

TEST(RowBlocker, SafeUntilBlacklisted)
{
    RowBlocker rb(tinyConfig());
    Cycle now = 0;
    for (int i = 0; i < 127; ++i) {
        EXPECT_TRUE(rb.isSafe(0, 5, now));
        rb.onActivate(0, 5, now);
        now += 200;
    }
    EXPECT_FALSE(rb.isBlacklisted(0, 5));
    rb.onActivate(0, 5, now);
    EXPECT_TRUE(rb.isBlacklisted(0, 5));
    // Blacklisted + just activated => unsafe.
    EXPECT_FALSE(rb.isSafe(0, 5, now + 1));
}

TEST(RowBlocker, SafeAgainAfterDelay)
{
    BlockHammerConfig cfg = tinyConfig();
    RowBlocker rb(cfg);
    Cycle now = 0;
    for (int i = 0; i < 128; ++i) {
        rb.onActivate(0, 5, now);
        now += 200;
    }
    ASSERT_TRUE(rb.isBlacklisted(0, 5));
    EXPECT_FALSE(rb.isSafe(0, 5, now));
    EXPECT_TRUE(rb.isSafe(0, 5, now - 200 + rb.tDelay()));
}

TEST(RowBlocker, OtherRowsUnaffected)
{
    RowBlocker rb(tinyConfig());
    Cycle now = 0;
    for (int i = 0; i < 128; ++i) {
        rb.onActivate(0, 5, now);
        now += 200;
    }
    EXPECT_TRUE(rb.isSafe(0, 9999, now));
    EXPECT_TRUE(rb.isSafe(1, 5, now));      // same row id, different bank
}

TEST(RowBlocker, ActivationEstimateUpperBoundsTruth)
{
    RowBlocker rb(tinyConfig());
    for (int i = 0; i < 50; ++i)
        rb.onActivate(2, 77, i * 200);
    EXPECT_GE(rb.activationEstimate(2, 77), 50u);
}

TEST(AttackThrottler, BenignThreadsUnlimited)
{
    AttackThrottler at(tinyConfig());
    EXPECT_DOUBLE_EQ(at.rhli(0, 0), 0.0);
    EXPECT_EQ(at.quota(0, 0), -1);
}

TEST(AttackThrottler, RhliGrowsWithBlacklistedActs)
{
    BlockHammerConfig cfg = tinyConfig();
    AttackThrottler at(cfg);
    for (int i = 0; i < 10; ++i)
        at.onBlacklistedActivate(1, 2);
    EXPECT_NEAR(at.rhli(1, 2), 10.0 / cfg.rhliDenominator(), 1e-9);
    EXPECT_DOUBLE_EQ(at.rhli(1, 3), 0.0);   // other banks unaffected
    EXPECT_DOUBLE_EQ(at.rhli(2, 2), 0.0);   // other threads unaffected
}

TEST(AttackThrottler, QuotaShrinksAndReachesZero)
{
    BlockHammerConfig cfg = tinyConfig();
    AttackThrottler at(cfg);
    auto denom = static_cast<int>(cfg.rhliDenominator());
    for (int i = 0; i < denom / 2; ++i)
        at.onBlacklistedActivate(0, 0);
    int half_quota = at.quota(0, 0);
    EXPECT_GT(half_quota, 0);
    EXPECT_LT(half_quota, cfg.baseQuota);
    for (int i = 0; i < denom; ++i)
        at.onBlacklistedActivate(0, 0);
    // In isolation the counter keeps counting past the RHLI=1 point (in a
    // protected system the zero quota stops the activations instead).
    EXPECT_GE(at.rhli(0, 0), 1.0);
    EXPECT_EQ(at.quota(0, 0), 0);
}

TEST(AttackThrottler, MaxRhliAcrossBanks)
{
    AttackThrottler at(tinyConfig());
    at.onBlacklistedActivate(0, 3);
    EXPECT_GT(at.maxRhli(0), 0.0);
    EXPECT_DOUBLE_EQ(at.maxRhli(1), 0.0);
}

TEST(AttackThrottler, EpochSwapRetainsRecentHistory)
{
    BlockHammerConfig cfg = tinyConfig();
    AttackThrottler at(cfg);
    for (int i = 0; i < 20; ++i)
        at.onBlacklistedActivate(0, 0);
    double before = at.rhli(0, 0);
    at.onEpochBoundary();
    // The swapped-in counter accumulated the same history.
    EXPECT_DOUBLE_EQ(at.rhli(0, 0), before);
    at.onEpochBoundary();
    // Two quiet epochs: history fully expired.
    EXPECT_DOUBLE_EQ(at.rhli(0, 0), 0.0);
}

TEST(BlockHammerMech, BlocksOnlyBlacklistedRecentRows)
{
    BlockHammerConfig cfg = tinyConfig();
    BlockHammer bh(cfg);
    Cycle now = 0;
    for (int i = 0; i < 200; ++i) {
        bh.onActivate(0, 5, 0, now);
        now += 200;
    }
    EXPECT_FALSE(bh.isActSafe(0, 5, 0, now));
    EXPECT_TRUE(bh.isActSafe(0, 6, 0, now));
    EXPECT_GT(bh.unsafeVerdicts(), 0u);
}

TEST(BlockHammerMech, ObserveOnlyNeverBlocks)
{
    BlockHammerConfig cfg = tinyConfig();
    cfg.observeOnly = true;
    BlockHammer bh(cfg);
    Cycle now = 0;
    for (int i = 0; i < 200; ++i) {
        bh.onActivate(0, 5, 0, now);
        now += 200;
    }
    // Its queries answer "safe" and record nothing, so the controller
    // need not ask them.
    EXPECT_FALSE(bh.actQueriesObservable());
    ASSERT_FALSE(bh.rowBlocker().knownSafe(0, 5, now));
    EXPECT_TRUE(bh.isActSafe(0, 5, 0, now));
    EXPECT_EQ(bh.unsafeVerdicts(), 0u);
    EXPECT_EQ(bh.quota(0, 0), -1);
    // But it still measures.
    EXPECT_GT(bh.blacklistedActivations(), 0u);
    EXPECT_GT(bh.rhli(0, 0), 0.0);
}

TEST(BlockHammerMech, DelayHistogramRecordsPenalties)
{
    BlockHammerConfig cfg = tinyConfig();
    BlockHammer bh(cfg);
    Cycle now = 0;
    for (int i = 0; i < 128; ++i) {
        bh.onActivate(0, 5, 0, now);
        now += 200;
    }
    // Refused at `now`, issued 500 cycles later.
    EXPECT_FALSE(bh.isActSafe(0, 5, 0, now));
    bh.onActivate(0, 5, 0, now + 500);
    EXPECT_EQ(bh.delayedActivations(), 1u);
    EXPECT_EQ(bh.delayHistogram().count(), 1u);
    EXPECT_EQ(bh.delayHistogram().max(), 500);
}

TEST(BlockHammerMech, TrueAggressorIsNotAFalsePositive)
{
    BlockHammerConfig cfg = tinyConfig();
    BlockHammer bh(cfg);
    Cycle now = 0;
    for (int i = 0; i < 200; ++i) {
        bh.onActivate(0, 5, 0, now);
        now += 200;
    }
    bh.isActSafe(0, 5, 0, now);
    bh.onActivate(0, 5, 0, now + 500);
    EXPECT_EQ(bh.falsePositiveActivations(), 0u);
}

TEST(BlockHammerMech, RhliExposedPerThreadBank)
{
    BlockHammerConfig cfg = tinyConfig();
    BlockHammer bh(cfg);
    Cycle now = 0;
    for (int i = 0; i < 200; ++i) {
        bh.onActivate(1, 5, /*thread=*/2, now);
        now += 200;
    }
    EXPECT_GT(bh.rhli(2, 1), 0.0);
    EXPECT_DOUBLE_EQ(bh.rhli(0, 1), 0.0);
    EXPECT_GT(bh.maxRhli(2), 0.0);
}

TEST(BlockHammerMech, EpochTickSynchronizesComponents)
{
    BlockHammerConfig cfg = tinyConfig();
    BlockHammer bh(cfg);
    Cycle now = 0;
    for (int i = 0; i < 200; ++i) {
        bh.onActivate(0, 5, 1, now);
        now += 200;
    }
    double rhli_before = bh.rhli(1, 0);
    ASSERT_GT(rhli_before, 0.0);
    // Two full epochs with no activity: blacklist and RHLI both expire.
    bh.tick(cfg.tCBF / 2);
    bh.tick(cfg.tCBF);
    EXPECT_DOUBLE_EQ(bh.rhli(1, 0), 0.0);
    EXPECT_TRUE(bh.isActSafe(0, 5, 1, cfg.tCBF + 1));
}

TEST(BlockHammerMech, RefusalLapsesAtTheDelayEdge)
{
    BlockHammerConfig cfg = tinyConfig();
    BlockHammer bh(cfg);
    Cycle now = 0;
    for (int i = 0; i < 128; ++i) {
        bh.onActivate(0, 5, 0, now);
        now += 200;
    }
    Cycle last = now - 200;
    Cycle lapse = last + bh.rowBlocker().tDelay();
    ASSERT_LT(lapse, bh.rowBlocker().nextBoundaryAt());
    ASSERT_FALSE(bh.isActSafe(0, 5, 0, now));
    EXPECT_EQ(bh.refusalLapsesAt(0, 5, now), lapse);
    // Refused up to the edge, safe at it.
    EXPECT_FALSE(bh.isActSafe(0, 5, 0, lapse - 1));
    EXPECT_EQ(bh.refusalLapsesAt(0, 5, lapse - 1), lapse);
    EXPECT_TRUE(bh.isActSafe(0, 5, 0, lapse));

    // An entry that would outlive the epoch lapses at its boundary, where
    // the filters swap.
    Cycle boundary = bh.rowBlocker().nextBoundaryAt();
    Cycle late = boundary - bh.rowBlocker().tDelay() / 2;
    bh.onActivate(0, 5, 0, late);
    ASSERT_FALSE(bh.isActSafe(0, 5, 0, late + 1));
    EXPECT_EQ(bh.refusalLapsesAt(0, 5, late + 1), boundary);
}

TEST(BlockHammerMech, KnownSafeIsTheLiveVerdictAndRecordsNothing)
{
    // Two instances see the same seeded ACT stream and the same epoch
    // ticks; at each probe one is asked live (isActSafe) and the other
    // knownSafe, and the answers must be equal. Each round hammers one
    // row past N_BL among random rows, then probes it at the tDelay edge
    // of its last ACT (lapse - 1 refused, lapse safe); the stream
    // crosses three epoch swaps. Only ACTs age the second instance's
    // history out, so knownSafe also meets entries older than tDelay
    // that expire() has not yet dropped.
    BlockHammerConfig cfg = tinyConfig();
    BlockHammer asked(cfg), known(cfg);
    const Cycle delay = asked.rowBlocker().tDelay();
    constexpr unsigned kHotBank = 1;
    constexpr RowId kHotRow = 5;
    Rng rng(0x6b0f5afe);
    Cycle now = 0, last_hot = -1;
    Cycle boundary = asked.rowBlocker().nextBoundaryAt();
    unsigned swaps = 0, safe = 0, refused = 0, edges = 0;
    auto advance = [&](Cycle to) {
        now = to;
        // The controller ticks the mechanism at every epoch boundary.
        if (now >= boundary) {
            asked.tick(now);
            known.tick(now);
            boundary = asked.rowBlocker().nextBoundaryAt();
            ++swaps;
        }
    };
    auto probe = [&](unsigned bank, RowId row) {
        bool live = asked.isActSafe(bank, row, 0, now);
        std::uint64_t unsafe_before = known.unsafeVerdicts();
        EXPECT_EQ(known.knownSafe(bank, row, now), live)
            << "bank " << bank << " row " << row << " at " << now;
        EXPECT_EQ(known.unsafeVerdicts(), unsafe_before);
        ++(live ? safe : refused);
        return live;
    };
    auto activate = [&](unsigned bank, RowId row) {
        asked.onActivate(bank, row, 0, now);
        known.onActivate(bank, row, 0, now);
        if (bank == kHotBank && row == kHotRow)
            last_hot = now;
    };
    while (swaps < 3) {
        for (int i = 0; i < 200; ++i) {
            advance(now + 100 + static_cast<Cycle>(rng.below(100)));
            auto bank = static_cast<unsigned>(rng.below(cfg.banks));
            auto row = static_cast<RowId>(rng.below(32));
            probe(bank, row);
            probe(kHotBank, kHotRow);
            if (rng.chance(0.8))
                activate(kHotBank, kHotRow);
            else
                activate(bank, row);
        }
        for (int i = 0; i < 8; ++i) {
            // Other rows' ACTs inside the hot row's tDelay window.
            for (Cycle at = now + 100; at < last_hot + delay - 1; at += 150) {
                advance(at);
                activate(static_cast<unsigned>(rng.below(cfg.banks)),
                         static_cast<RowId>(32 + rng.below(32)));
            }
            advance(last_hot + delay - 1);
            bool before_edge = probe(kHotBank, kHotRow);
            advance(last_hot + delay);
            if (!before_edge && probe(kHotBank, kHotRow))
                ++edges;
            activate(kHotBank, kHotRow);
        }
    }
    EXPECT_GT(safe, 0u);
    EXPECT_GT(refused, 0u);
    EXPECT_GT(edges, 8u);
    // The live instance counted its refusals and closed delay episodes;
    // knownSafe stored no first refusal for an ACT to close.
    EXPECT_EQ(asked.unsafeVerdicts(), refused);
    EXPECT_GT(asked.delayedActivations(), 0u);
    EXPECT_EQ(known.unsafeVerdicts(), 0u);
    EXPECT_EQ(known.delayedActivations(), 0u);
}

TEST(BlockHammerMech, VerdictStampsMoveWithActivationsAndEpochSwaps)
{
    BlockHammerConfig cfg = tinyConfig();
    BlockHammer bh(cfg);
    const std::uint64_t *stamps = bh.verdictStamps();
    ASSERT_NE(stamps, nullptr);
    std::vector<std::uint64_t> before(stamps, stamps + cfg.banks);

    // An activation moves its own bank's stamp only.
    bh.onActivate(1, 7, 0, 100);
    for (unsigned b = 0; b < cfg.banks; ++b)
        EXPECT_EQ(stamps[b] != before[b], b == 1) << "bank " << b;

    // A tick before the boundary moves none; the swap moves all.
    before.assign(stamps, stamps + cfg.banks);
    Cycle boundary = bh.rowBlocker().nextBoundaryAt();
    bh.tick(boundary - 1);
    for (unsigned b = 0; b < cfg.banks; ++b)
        EXPECT_EQ(stamps[b], before[b]) << "bank " << b;
    bh.tick(boundary);
    for (unsigned b = 0; b < cfg.banks; ++b)
        EXPECT_NE(stamps[b], before[b]) << "bank " << b;

    // Observe-only queries have no effect: nothing to cache.
    cfg.observeOnly = true;
    EXPECT_EQ(BlockHammer(cfg).verdictStamps(), nullptr);
}

/** The node-based two-epoch shadow the flat table replaced. */
struct ReferenceShadow
{
    std::unordered_map<std::uint64_t, std::uint32_t> side[2];
    unsigned active = 0;

    void
    insert(std::uint64_t key)
    {
        ++side[0][key];
        ++side[1][key];
    }
    std::uint32_t
    count(std::uint64_t key) const
    {
        auto it = side[active].find(key);
        return it == side[active].end() ? 0 : it->second;
    }
    void
    onEpochBoundary()
    {
        side[active].clear();
        active = 1 - active;
    }
};

TEST(ExactShadow, MatchesHashMapsAcrossGrowthAndEpochClears)
{
    // Epochs of growing key counts (bank << 32 | row keys, key 0
    // included) rehash each table several times; every epoch clears one.
    ExactShadow flat;
    ReferenceShadow ref;
    Rng rng(0x5bad0);
    for (unsigned epoch = 0; epoch < 5; ++epoch) {
        std::uint64_t keys = 64u << (2 * epoch);
        for (std::uint64_t i = 0; i < 4 * keys; ++i) {
            std::uint64_t key = rng.below(16) << 32 | rng.below(keys);
            flat.insert(key);
            ref.insert(key);
            std::uint64_t probe = rng.below(16) << 32 | rng.below(2 * keys);
            ASSERT_EQ(flat.count(probe), ref.count(probe))
                << "epoch " << epoch << " key " << probe;
        }
        for (std::uint64_t row = 0; row < 2 * keys; ++row)
            for (std::uint64_t bank : {0ull, 7ull, 15ull})
                ASSERT_EQ(flat.count(bank << 32 | row),
                          ref.count(bank << 32 | row))
                    << "epoch " << epoch;
        flat.onEpochBoundary();
        ref.onEpochBoundary();
        EXPECT_EQ(flat.count(0), ref.count(0)) << "epoch " << epoch;
    }
}

} // namespace
} // namespace bh
