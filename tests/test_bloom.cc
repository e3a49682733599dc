/**
 * @file
 * Tests for the Bloom filter stack: H3 hashing, counting Bloom filter
 * properties (the no-false-negative guarantee BlockHammer's security rests
 * on), and the time-interleaved dual CBF.
 */

#include <gtest/gtest.h>

#include <map>

#include "analysis/hwcost.hh"
#include "blockhammer/config.hh"
#include "bloom/counting_bloom.hh"
#include "bloom/dual_cbf.hh"
#include "common/rng.hh"

namespace bh
{
namespace
{

TEST(H3Hash, DeterministicForKey)
{
    H3Hash h(10, 7);
    EXPECT_EQ(h.hash(12345), h.hash(12345));
}

TEST(H3Hash, OutputWithinRange)
{
    H3Hash h(10, 3);
    Rng rng(1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(h.hash(rng.next()), 1024u);
}

TEST(H3Hash, ReseedChangesMapping)
{
    H3Hash h(12, 5);
    std::vector<std::uint32_t> before;
    for (std::uint64_t k = 1; k <= 64; ++k)
        before.push_back(h.hash(k));
    h.reseed(999);
    int same = 0;
    for (std::uint64_t k = 1; k <= 64; ++k)
        same += (h.hash(k) == before[k - 1]);
    EXPECT_LT(same, 8);
}

TEST(H3Hash, ZeroKeyHashesToZero)
{
    // H3 is linear over GF(2): h(0) = 0 by construction.
    H3Hash h(10, 11);
    EXPECT_EQ(h.hash(0), 0u);
}

TEST(H3Hash, Linearity)
{
    // H3's defining property: h(a ^ b) == h(a) ^ h(b).
    H3Hash h(16, 77);
    Rng rng(2);
    for (int i = 0; i < 200; ++i) {
        std::uint64_t a = rng.next(), b = rng.next();
        EXPECT_EQ(h.hash(a ^ b), h.hash(a) ^ h.hash(b));
    }
}

TEST(H3Hash, SpreadsUniformly)
{
    H3Hash h(8, 13);
    std::map<std::uint32_t, int> buckets;
    for (std::uint64_t k = 0; k < 25600; ++k)
        ++buckets[h.hash(k * 0x9e3779b97f4a7c15ull + 1)];
    for (const auto &[idx, count] : buckets)
        EXPECT_LT(count, 400) << "bucket " << idx;
}

CbfConfig
smallCbf(unsigned counters = 256, std::uint32_t max = 4096)
{
    CbfConfig cfg;
    cfg.numCounters = counters;
    cfg.numHashes = 4;
    cfg.counterMax = max;
    return cfg;
}

TEST(CountingBloom, CountNeverUnderestimates)
{
    // The property BlockHammer's safety depends on: for any insertion
    // pattern, count(k) >= true insertion count of k.
    CountingBloomFilter cbf(smallCbf(), 42);
    Rng rng(3);
    std::map<std::uint64_t, std::uint32_t> truth;
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t key = rng.below(600);
        cbf.insert(key);
        ++truth[key];
    }
    for (const auto &[key, count] : truth)
        EXPECT_GE(cbf.count(key), count) << "key " << key;
}

TEST(CountingBloom, ExactWhenSparse)
{
    CountingBloomFilter cbf(smallCbf(4096), 1);
    for (int i = 0; i < 10; ++i)
        cbf.insert(7);
    EXPECT_EQ(cbf.count(7), 10u);
}

TEST(CountingBloom, TestAtLeastMatchesCount)
{
    CountingBloomFilter cbf(smallCbf(), 5);
    for (int i = 0; i < 20; ++i)
        cbf.insert(1);
    EXPECT_TRUE(cbf.testAtLeast(1, 20));
    EXPECT_FALSE(cbf.testAtLeast(1, cbf.count(1) + 1));
}

TEST(CountingBloom, SaturatesAtCounterMax)
{
    CountingBloomFilter cbf(smallCbf(256, 100), 9);
    for (int i = 0; i < 500; ++i)
        cbf.insert(3);
    EXPECT_EQ(cbf.count(3), 100u);
}

TEST(CountingBloom, ClearZeroesAndReseeds)
{
    CountingBloomFilter cbf(smallCbf(), 11);
    for (int i = 0; i < 50; ++i)
        cbf.insert(i);
    EXPECT_GT(cbf.occupancy(), 0.0);
    cbf.clearAndReseed(999);
    EXPECT_EQ(cbf.occupancy(), 0.0);
    EXPECT_EQ(cbf.count(1), 0u);
    EXPECT_EQ(cbf.insertions(), 0u);
}

TEST(CountingBloom, InsertionsCounted)
{
    CountingBloomFilter cbf(smallCbf(), 1);
    for (int i = 0; i < 33; ++i)
        cbf.insert(i);
    EXPECT_EQ(cbf.insertions(), 33u);
}

TEST(CountingBloom, SaturatesAtTheWidestCounter)
{
    CountingBloomFilter cbf(smallCbf(256, 65535), 13);
    for (int i = 0; i < 70000; ++i)
        cbf.insert(21);
    EXPECT_EQ(cbf.count(21), 65535u);
}

TEST(CountingBloomDeathTest, CounterMaxAbove16BitsIsFatal)
{
    EXPECT_EXIT(CountingBloomFilter(smallCbf(256, 65536), 1),
                ::testing::ExitedWithCode(1), "16-bit");
}

TEST(CountingBloom, ThresholdsInUseFitTheCounters)
{
    // forThreshold saturates the counters at N_BL. Every threshold the
    // table4, table7 and fig6 experiments size BlockHammer for must
    // build a filter and keep Table 4's counter width within 16 bits.
    // fig6's compressed thresholds are scaled by the run's window
    // multiplier, at most 32 (benchConfig).
    std::vector<std::uint32_t> thresholds = {32768, 16384, 8192,
                                             4096, 2048, 1024};
    for (std::uint32_t nrh : {4096u, 2048u, 1024u, 512u, 256u})
        for (std::uint32_t mult = 1; mult <= 32; mult *= 2)
            thresholds.push_back(nrh * mult);
    HwCostModel model;
    for (std::uint32_t nrh : thresholds) {
        auto cfg = BlockHammerConfig::forThreshold(nrh, DramTimings::ddr4());
        EXPECT_EQ(cfg.cbf.counterMax, cfg.nBL) << "N_RH " << nrh;
        EXPECT_LE(cfg.nBL, 65535u) << "N_RH " << nrh;
        // Two filters per bank, 16 banks: the model's bits per counter.
        double counter_bits = model.blockHammerDcbf(nrh).sramBits /
            (2.0 * cfg.cbf.numCounters * 16);
        EXPECT_LE(counter_bits, 16.0) << "N_RH " << nrh;
        CountingBloomFilter cbf(cfg.cbf, 1);
        EXPECT_EQ(cbf.count(7), 0u);
    }
}

/** Parameterized no-false-negative sweep across filter geometries. */
class CbfPropertyTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CbfPropertyTest, NoFalseNegativesUnderLoad)
{
    auto [counters, distinct_keys] = GetParam();
    CbfConfig cfg;
    cfg.numCounters = counters;
    cfg.numHashes = 4;
    cfg.counterMax = 65535;     // no stream of 20,000 inserts reaches it
    CountingBloomFilter cbf(cfg, counters * 7 + distinct_keys);
    Rng rng(counters);
    std::map<std::uint64_t, std::uint32_t> truth;
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t key = rng.below(distinct_keys);
        cbf.insert(key);
        ++truth[key];
    }
    for (const auto &[key, count] : truth)
        ASSERT_GE(cbf.count(key), count);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CbfPropertyTest,
    ::testing::Combine(::testing::Values(64u, 256u, 1024u, 8192u),
                       ::testing::Values(32u, 512u, 4096u)));

TEST(DualCbf, InsertVisibleImmediately)
{
    DualCbf d(smallCbf(), 1000, 1);
    for (int i = 0; i < 5; ++i)
        d.insert(77);
    EXPECT_GE(d.activeCount(77), 5u);
}

TEST(DualCbf, EpochLengthIsHalfLifetime)
{
    DualCbf d(smallCbf(), 1000, 1);
    EXPECT_EQ(d.epochLength(), 500);
}

TEST(DualCbf, BlacklistPersistsAcrossOneSwap)
{
    // Figure 3: a row that exceeded N_BL in epoch k is still blacklisted
    // in epoch k+1 because the newly-active filter kept accumulating.
    DualCbf d(smallCbf(), 1000, 1);
    for (int i = 0; i < 100; ++i)
        d.insert(5);
    EXPECT_TRUE(d.isBlacklisted(5, 100));
    EXPECT_TRUE(d.clockTick(500));      // epoch boundary
    EXPECT_TRUE(d.isBlacklisted(5, 100));
}

TEST(DualCbf, BlacklistExpiresAfterTwoQuietEpochs)
{
    DualCbf d(smallCbf(), 1000, 1);
    for (int i = 0; i < 100; ++i)
        d.insert(5);
    d.clockTick(500);
    d.clockTick(1000);
    // Both filters have been cleared since the insertions stopped.
    EXPECT_FALSE(d.isBlacklisted(5, 100));
    EXPECT_EQ(d.activeCount(5), 0u);
}

TEST(DualCbf, ClockTickReportsBoundaries)
{
    DualCbf d(smallCbf(), 1000, 1);
    EXPECT_FALSE(d.clockTick(0));
    EXPECT_FALSE(d.clockTick(499));
    EXPECT_TRUE(d.clockTick(500));
    EXPECT_FALSE(d.clockTick(501));
    EXPECT_TRUE(d.clockTick(1000));
}

TEST(DualCbf, CatchesUpSkippedEpochs)
{
    DualCbf d(smallCbf(), 1000, 1);
    for (int i = 0; i < 50; ++i)
        d.insert(9);
    EXPECT_TRUE(d.clockTick(5000));     // many epochs at once
    EXPECT_EQ(d.activeCount(9), 0u);
    EXPECT_EQ(d.epochIndex(), 10u);
}

TEST(DualCbf, RollingWindowNeverMissesHotRow)
{
    // Property: a key inserted >= threshold times within any single epoch
    // is blacklisted at the end of that epoch, regardless of alignment.
    DualCbf d(smallCbf(1024), 2000, 3);
    Cycle now = 0;
    for (int epoch = 0; epoch < 6; ++epoch) {
        for (int i = 0; i < 200; ++i) {
            d.clockTick(now);
            d.insert(123);
            now += 5;   // 200 inserts spread across the 1000-cycle epoch
        }
        d.clockTick(now);
        EXPECT_TRUE(d.isBlacklisted(123, 200))
            << "epoch " << epoch << " now " << now;
    }
}

TEST(DualCbf, ReseedingChangesAliases)
{
    // After a clear, the reseeded filter should alias the victim key with
    // a different set of rows (Section 3.1.1's repeated-false-positive
    // countermeasure). Statistically: a key colliding with a hot key
    // before the swap should usually stop colliding after two swaps.
    CbfConfig cfg = smallCbf(64);
    int collisions_before = 0, collisions_after = 0;
    for (std::uint64_t trial = 0; trial < 20; ++trial) {
        DualCbf d(cfg, 1000, trial);
        for (int i = 0; i < 50; ++i)
            d.insert(1000 + trial);
        // Find a colliding cold key.
        std::uint64_t cold = 0;
        for (std::uint64_t k = 1; k < 64; ++k) {
            if (d.activeCount(k) >= 50) {
                cold = k;
                break;
            }
        }
        if (cold == 0)
            continue;
        ++collisions_before;
        d.clockTick(500);
        d.clockTick(1000);
        for (int i = 0; i < 50; ++i)
            d.insert(1000 + trial);
        collisions_after += (d.activeCount(cold) >= 50);
    }
    if (collisions_before > 0) {
        EXPECT_LT(collisions_after, collisions_before);
    }
}

} // namespace
} // namespace bh
