/**
 * @file
 * Unit tests for the SecurityOracle's sliding-tREFW-window counting —
 * exact window arithmetic at the boundaries, the straddle case (a row
 * refreshed mid-window must NOT lose its sliding count), multi-channel
 * row aliasing — a differential check of every observable against a
 * naive reference oracle over random, ring-growth, straddle and
 * fuzzer-lap streams, plus the end-to-end assertion behind
 * bench/secsweep: BlockHammer keeps the disturbance margin below 1.0
 * where an unmitigated run exceeds it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "analysis/security_oracle.hh"
#include "common/rng.hh"
#include "dram/address_map.hh"
#include "sim/experiment.hh"
#include "workloads/fuzz_patterns.hh"

namespace bh
{
namespace
{

SecurityOracle
makeOracle(std::uint32_t n_rh = 100, Cycle window = 1000)
{
    SecurityOracleConfig cfg;
    cfg.nRH = n_rh;
    cfg.windowCycles = window;
    return SecurityOracle(DramOrg::tinyConfig(), cfg);
}

TEST(SecurityOracle, CountsActsInsideOneWindowExactly)
{
    SecurityOracle o = makeOracle(100, 1000);
    // 100 activations, 10 cycles apart: all inside the window at the
    // 100th act (cycle 990 - cycle 0 = 990 < 1000).
    for (Cycle t = 0; t < 1000; t += 10)
        o.onActivate(0, 7, t);
    EXPECT_EQ(o.maxWindowActs(), 100u);
    EXPECT_DOUBLE_EQ(o.margin(), 1.0);
    EXPECT_EQ(o.firstViolationCycle(), 990);
    EXPECT_EQ(o.violatingRows(), 1u);
    EXPECT_EQ(o.activationCount(), 100u);
    EXPECT_EQ(o.peak().row, 7u);
    EXPECT_EQ(o.peak().bank, 0u);
}

TEST(SecurityOracle, WindowBoundaryIsHalfOpen)
{
    SecurityOracle o = makeOracle(100, 1000);
    o.onActivate(2, 5, 0);
    // Exactly tREFW later: the first act has just left the window.
    o.onActivate(2, 5, 1000);
    EXPECT_EQ(o.currentWindowActs(2, 5, 1000), 1u);
    EXPECT_EQ(o.maxWindowActs(), 1u);
    // One cycle inside: both acts count. A second oracle, because
    // activation time never goes back.
    SecurityOracle p = makeOracle(100, 1000);
    p.onActivate(2, 6, 0);
    p.onActivate(2, 6, 999);
    EXPECT_EQ(p.currentWindowActs(2, 6, 999), 2u);
    EXPECT_EQ(p.maxWindowActs(), 2u);
}

TEST(SecurityOracle, OldActivationsExpire)
{
    SecurityOracle o = makeOracle(100, 1000);
    for (Cycle t = 0; t < 100; t += 10)
        o.onActivate(1, 3, t);
    EXPECT_EQ(o.currentWindowActs(1, 3, 90), 10u);
    o.onActivate(1, 3, 5000);
    EXPECT_EQ(o.currentWindowActs(1, 3, 5000), 1u);
    EXPECT_EQ(o.maxWindowActs(), 10u);      // the peak is remembered
}

TEST(SecurityOracle, RowRefreshMidWindowKeepsTheSlidingCount)
{
    // The straddle attack: hammer before the row's own refresh, then
    // after it, all inside one tREFW-length interval. Refresh-aligned
    // counters see 60 + 60; the sliding window must see 120 — that is
    // precisely why a sliding oracle is needed at tREFW boundaries. The
    // oracle has no refresh hook, so the refresh between the two bursts
    // cannot reach it.
    SecurityOracle o = makeOracle(100, 1000);
    for (Cycle t = 0; t < 300; t += 5)
        o.onActivate(0, 42, t);             // 60 acts in [0, 295]
    for (Cycle t = 500; t < 800; t += 5)
        o.onActivate(0, 42, t);             // 60 acts in [500, 795]
    EXPECT_EQ(o.maxWindowActs(), 120u);     // straddles the refresh
    EXPECT_GE(o.margin(), 1.0);
    EXPECT_NE(o.firstViolationCycle(), kNoEventCycle);
}

TEST(SecurityOracle, ViolatingRowsAreCountedDistinctly)
{
    SecurityOracle o = makeOracle(10, 1000);
    for (Cycle t = 0; t < 200; t += 10) {
        o.onActivate(0, 1, t);
        o.onActivate(0, 2, t + 1);
    }
    EXPECT_EQ(o.violatingRows(), 2u);
    EXPECT_EQ(o.firstViolationCycle(), 90);     // row 1 reaches 10 first
}

TEST(SecurityOracleDeath, RejectsDegenerateConfigs)
{
    SecurityOracleConfig cfg;
    cfg.nRH = 100;
    cfg.windowCycles = 0;
    EXPECT_DEATH(SecurityOracle(DramOrg::tinyConfig(), cfg), "window");
    // Ring records name a row by a 32-bit flat index.
    cfg.windowCycles = 1000;
    DramOrg huge = DramOrg::paperConfig();
    huge.rowsPerBank = 1u << 29;
    EXPECT_DEATH(SecurityOracle(huge, cfg), "16 banks x 536870912 rows");
}

TEST(SecurityOracleDeath, ActivationTimeNeverGoesBack)
{
    SecurityOracle o = makeOracle(100, 1000);
    o.onActivate(0, 1, 500);
    o.onActivate(3, 2, 500);                // the same cycle is fine
    EXPECT_DEATH(o.onActivate(0, 1, 499),
                 "activation at cycle 499 precedes the previous one at "
                 "cycle 500");
}

// ---- differential: the oracle against a naive reference --------------

/** One demand activation of a test stream. */
struct StreamAct
{
    unsigned bank = 0;
    RowId row = 0;
    Cycle cycle = 0;
};

/** What a stream exercised, as seen by the reference. */
struct Coverage
{
    std::uint64_t exactWindowHits = 0;  ///< same row ACTed exactly tREFW before
    std::uint64_t oneShortHits = 0;     ///< ... and tREFW - 1 before
    std::uint64_t peakTies = 0;         ///< another ACT reached the peak again
    std::uint64_t recrossings = 0;      ///< a violating row crossed N_RH again
};

/**
 * The naive reference: every activation cycle of every (bank, row),
 * kept for the whole stream. A row's window count scans all of that
 * row's activations. Nothing is pruned and nothing is shared with
 * SecurityOracle.
 */
class ReferenceOracle
{
  public:
    ReferenceOracle(std::uint32_t n_rh, Cycle window)
        : nRH(n_rh), window(window)
    {}

    void
    onActivate(unsigned bank, RowId row, Cycle now)
    {
        ++acts;
        std::vector<Cycle> &history = rows[{bank, row}];
        for (Cycle c : history) {
            if (c == now - window)
                ++cover.exactWindowHits;
            if (c == now - window + 1)
                ++cover.oneShortHits;
        }
        history.push_back(now);
        std::uint64_t n = windowActs(bank, row, now);
        if (n > peakActs) {
            peakActs = n;
            peakBank = bank;
            peakRow = row;
            peakCycle = now;
        } else if (n == peakActs
                   && (bank != peakBank || row != peakRow
                       || now != peakCycle)) {
            ++cover.peakTies;
        }
        bool was_below = lastCount[{bank, row}] < nRH;
        lastCount[{bank, row}] = n;
        if (n >= nRH) {
            if (firstViolation == kNoEventCycle)
                firstViolation = now;
            if (!violators.insert({bank, row}).second && was_below)
                ++cover.recrossings;
        }
    }

    /** Activations of (bank, row) in (now - window, now]. */
    std::uint64_t
    windowActs(unsigned bank, RowId row, Cycle now) const
    {
        auto it = rows.find({bank, row});
        if (it == rows.end())
            return 0;
        std::uint64_t n = 0;
        for (Cycle c : it->second)
            if (c > now - window && c <= now)
                ++n;
        return n;
    }

    std::uint32_t nRH;
    Cycle window;
    std::map<std::pair<unsigned, RowId>, std::vector<Cycle>> rows;
    std::map<std::pair<unsigned, RowId>, std::uint64_t> lastCount;
    std::set<std::pair<unsigned, RowId>> violators;
    std::uint64_t peakActs = 0;
    unsigned peakBank = 0;
    RowId peakRow = 0;
    Cycle peakCycle = 0;
    Cycle firstViolation = kNoEventCycle;
    std::uint64_t acts = 0;
    Coverage cover;
};

/**
 * Feed `stream` to a SecurityOracle and to the reference, comparing
 * every observable after every activation. Returns what the stream
 * covered.
 */
Coverage
expectAgreement(const std::vector<StreamAct> &stream, const DramOrg &org,
                std::uint32_t n_rh, Cycle window, const std::string &what)
{
    SecurityOracleConfig cfg;
    cfg.nRH = n_rh;
    cfg.windowCycles = window;
    SecurityOracle oracle(org, cfg);
    ReferenceOracle ref(n_rh, window);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const StreamAct &a = stream[i];
        oracle.onActivate(a.bank, a.row, a.cycle);
        ref.onActivate(a.bank, a.row, a.cycle);
        const OraclePeak &peak = oracle.peak();
        bool same =
            oracle.maxWindowActs() == ref.peakActs
            && peak.acts == ref.peakActs && peak.bank == ref.peakBank
            && peak.row == ref.peakRow && peak.cycle == ref.peakCycle
            && oracle.firstViolationCycle() == ref.firstViolation
            && oracle.violatingRows() == ref.violators.size()
            && oracle.activationCount() == ref.acts
            && oracle.currentWindowActs(a.bank, a.row, a.cycle)
                   == ref.windowActs(a.bank, a.row, a.cycle);
        if (!same) {
            ADD_FAILURE()
                << what << ": act " << i << " (bank " << a.bank << ", row "
                << a.row << ", cycle " << a.cycle << ")\n  oracle: peak "
                << peak.acts << " at bank " << peak.bank << " row "
                << peak.row << " cycle " << peak.cycle << ", first "
                << oracle.firstViolationCycle() << ", violating "
                << oracle.violatingRows() << ", acts "
                << oracle.activationCount() << ", row window "
                << oracle.currentWindowActs(a.bank, a.row, a.cycle)
                << "\n  reference: peak " << ref.peakActs << " at bank "
                << ref.peakBank << " row " << ref.peakRow << " cycle "
                << ref.peakCycle << ", first " << ref.firstViolation
                << ", violating " << ref.violators.size() << ", acts "
                << ref.acts << ", row window "
                << ref.windowActs(a.bank, a.row, a.cycle);
            break;
        }
    }
    return ref.cover;
}

/**
 * Hot rows among many cold ones. Dense and sparse phases alternate, so
 * the hot rows cross N_RH, fall back under it and cross again; some
 * steps land exactly tREFW (or one cycle short of it) after an earlier
 * activation of the same row, and some phases start after an idle gap
 * that empties the window.
 */
std::vector<StreamAct>
randomStream(std::uint64_t seed, const DramOrg &org, Cycle window,
             std::size_t length)
{
    Rng rng(seed);
    const unsigned banks = org.banksPerChannel();
    const StreamAct hot[] = {{0, 7, 0}, {1, 7, 0}, {banks - 1, 200, 0}};
    std::vector<StreamAct> s;
    std::size_t oldest = 0;     ///< first act still inside the window
    Cycle t = 0;
    bool dense = true;
    for (std::size_t i = 0; i < length; ++i) {
        if (i % 400 == 0) {
            dense = rng.chance(0.5);
            if (rng.chance(0.3))
                t += window + static_cast<Cycle>(rng.below(window));
        }
        while (oldest < s.size() && s[oldest].cycle + window < t)
            ++oldest;
        unsigned kind = static_cast<unsigned>(rng.below(100));
        if (kind < 12 && oldest < s.size()) {
            // Repeat an old in-window act's row exactly tREFW (or
            // tREFW - 1) after it.
            std::size_t pick =
                oldest + rng.below(std::min<std::size_t>(4, s.size() - oldest));
            StreamAct a = s[pick];
            a.cycle += window - (kind < 6 ? 0 : 1);
            if (a.cycle >= t) {
                t = a.cycle;
                s.push_back(a);
                continue;
            }
        }
        t += static_cast<Cycle>(rng.below(dense ? 3 : 60));
        StreamAct a;
        if (rng.chance(0.5)) {
            a = hot[rng.below(3)];
        } else {
            a.bank = static_cast<unsigned>(rng.below(banks));
            a.row = static_cast<RowId>(rng.below(org.rowsPerBank));
        }
        a.cycle = t;
        s.push_back(a);
    }
    return s;
}

TEST(SecurityOracleReference, RandomStreamsAgree)
{
    const DramOrg org = DramOrg::tinyConfig();
    Coverage total;
    std::uint64_t recrossing_streams = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        auto stream = randomStream(seed, org, 1000, 6000);
        Coverage c = expectAgreement(stream, org, 24, 1000,
                                     "seed " + std::to_string(seed));
        total.exactWindowHits += c.exactWindowHits;
        total.oneShortHits += c.oneShortHits;
        total.peakTies += c.peakTies;
        total.recrossings += c.recrossings;
        recrossing_streams += c.recrossings > 0;
    }
    // The streams reach every case the comparison must see.
    EXPECT_GT(total.exactWindowHits, 100u);
    EXPECT_GT(total.oneShortHits, 100u);
    EXPECT_GT(total.peakTies, 10u);
    EXPECT_GT(total.recrossings, 10u);
    EXPECT_EQ(recrossing_streams, 8u);
}

TEST(SecurityOracleReference, PeakTiesKeepTheFirstRow)
{
    // Two rows take identical bursts: the second ties the first's peak
    // and must not take it over; both violate, and row 3 re-crosses
    // N_RH in its second burst without counting twice.
    std::vector<StreamAct> s;
    Cycle t = 0;
    for (RowId row : {RowId{3}, RowId{4}, RowId{3}}) {
        for (int k = 0; k < 12; ++k)
            s.push_back({2, row, t += 10});
        t += 2000;
    }
    Coverage c = expectAgreement(s, DramOrg::tinyConfig(), 10, 1000, "ties");
    EXPECT_EQ(c.peakTies, 2u);
    EXPECT_EQ(c.recrossings, 1u);
}

TEST(SecurityOracleReference, RingGrowsWhileItsHeadHasWrapped)
{
    // A steady phase holds `level` acts in the window for three windows,
    // so the ring's head walks round it; a burst then triples the
    // population, forcing a growth with the head anywhere.
    const DramOrg org = DramOrg::paperConfig();
    const Cycle window = Cycle{1} << 16;
    Rng rng(99);
    std::vector<StreamAct> s;
    Cycle t = 0;
    auto act = [&](Cycle at) {
        StreamAct a;
        a.bank = static_cast<unsigned>(rng.below(org.banksPerChannel()));
        a.row = static_cast<RowId>(rng.below(64));
        a.cycle = at;
        s.push_back(a);
    };
    for (std::size_t level = 8; level <= (std::size_t{1} << 13);
         level *= 2) {
        Cycle period = window / static_cast<Cycle>(level);
        for (std::size_t k = 0; k < 3 * level; ++k)
            act(t += period);
        for (std::size_t k = 0; k < 2 * level; ++k)
            act(t += 1);
    }
    expectAgreement(s, org, 1u << 20, window, "ring growth");
}

TEST(SecurityOracleReference, BurstsStraddleRefreshWindows)
{
    // The oracle has no refresh hook; bursts around every multiple of
    // tREFW stand in for auto-refresh wraparound, and land activations
    // exactly one window apart.
    const DramOrg org = DramOrg::tinyConfig();
    const Cycle window = 1000;
    Rng rng(5);
    std::vector<StreamAct> s;
    for (Cycle k = 1; k <= 12; ++k) {
        RowId row = k % 3 == 0 ? 1 : 0;
        Cycle half = 1 + static_cast<Cycle>(rng.below(40));
        for (Cycle t = k * window - half; t <= k * window + half;
             t += 1 + static_cast<Cycle>(rng.below(3)))
            s.push_back({1, row, t});
        s.push_back({1, row, k * window});
    }
    std::sort(s.begin(), s.end(), [](const StreamAct &a, const StreamAct &b) {
        return a.cycle < b.cycle;
    });
    Coverage c = expectAgreement(s, org, 30, window, "straddle");
    EXPECT_GT(c.exactWindowHits, 0u);
    EXPECT_GT(c.recrossings, 0u);
}

TEST(SecurityOracleReference, FuzzerLapsAgree)
{
    // Each memory entry of a fuzzer lap, decoded to (bank, row), is one
    // activation a cycle after the last; a pacing entry's bubbles
    // advance time. The window spans one and a half laps and N_RH sits
    // one above the hottest row's count per lap.
    const DramOrg org = DramOrg::paperConfig();
    AddressMapper mapper(org, MapScheme::kMop);
    Rng rng(2024);
    for (int k = 0; k < 8; ++k) {
        AttackPatternSpec spec =
            fuzzPatternSpec(sampleFuzzPattern(defaultFuzzSpace(), rng));
        std::vector<TraceEntry> lap;
        compileFuzzLap(spec, mapper, AttackEnv{}, lap);
        std::map<std::pair<unsigned, RowId>, std::uint32_t> per_lap;
        std::size_t lap_acts = 0;
        Cycle lap_cycles = 0;
        for (const TraceEntry &e : lap) {
            if (e.isMem) {
                DramCoord c = mapper.decode(e.addr);
                ++per_lap[{c.flatBank(org), c.row}];
                ++lap_acts;
                lap_cycles += 1;
            } else {
                lap_cycles += e.bubbles;
            }
        }
        ASSERT_GT(lap_acts, 0u) << spec.name;
        std::uint32_t hottest = 0;
        for (const auto &kv : per_lap)
            hottest = std::max(hottest, kv.second);
        std::size_t laps = std::clamp<std::size_t>(20000 / lap_acts, 2, 20);
        std::vector<StreamAct> s;
        Cycle t = 0;
        for (std::size_t l = 0; l < laps; ++l) {
            for (const TraceEntry &e : lap) {
                if (!e.isMem) {
                    t += e.bubbles;
                    continue;
                }
                DramCoord c = mapper.decode(e.addr);
                s.push_back({c.flatBank(org), c.row, t++});
            }
        }
        expectAgreement(s, org, hottest + 1, lap_cycles + lap_cycles / 2,
                        spec.name);
    }
}

// ---- end-to-end: the secsweep claim in miniature ----------------------

ExperimentConfig
e2eConfig(const std::string &mechanism, unsigned channels = 1)
{
    ExperimentConfig cfg;
    cfg.mechanism = mechanism;
    cfg.threads = 4;
    cfg.nRH = 256;
    cfg.refwMs = 0.25;
    cfg.warmupCycles = 100'000;
    cfg.runCycles = 1'000'000;
    cfg.channels = channels;
    cfg.securityOracle = true;
    return cfg;
}

MixSpec
e2eMix(const std::string &pattern)
{
    MixSpec mix;
    mix.name = "sec-" + pattern;
    mix.apps = {attackPatternApp(pattern), "429.mcf", "462.libquantum",
                "473.astar"};
    return mix;
}

TEST(SecurityOracleEndToEnd, BlockHammerHoldsWhereBaselineViolates)
{
    RunResult base = runExperiment(e2eConfig("Baseline"),
                                   e2eMix("double-sided"));
    EXPECT_GE(base.secMargin, 1.0);
    EXPECT_NE(base.secFirstViolation, kNoEventCycle);
    EXPECT_GT(base.secViolatingRows, 0u);

    RunResult bh = runExperiment(e2eConfig("BlockHammer"),
                                 e2eMix("double-sided"));
    EXPECT_LT(bh.secMargin, 1.0);
    EXPECT_TRUE(bh.secSafe());
    EXPECT_EQ(bh.secFirstViolation, kNoEventCycle);
    EXPECT_EQ(bh.secViolatingRows, 0u);
    EXPECT_GT(bh.secMaxWindowActs, 0u);
}

TEST(SecurityOracleEndToEnd, OracleIsObservationOnly)
{
    // Attaching the oracle must not change any simulation result.
    ExperimentConfig with = e2eConfig("BlockHammer");
    ExperimentConfig without = e2eConfig("BlockHammer");
    without.securityOracle = false;
    RunResult a = runExperiment(with, e2eMix("bankpar-4"));
    RunResult b = runExperiment(without, e2eMix("bankpar-4"));
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (std::size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_DOUBLE_EQ(a.ipc[i], b.ipc[i]);
    EXPECT_DOUBLE_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.bitFlips, b.bitFlips);
    EXPECT_EQ(a.demandActs, b.demandActs);
    EXPECT_EQ(a.blockedActs, b.blockedActs);
    EXPECT_EQ(a.victimRefreshes, b.victimRefreshes);
    // ... and the oracle-less run reports the neutral verdict.
    EXPECT_DOUBLE_EQ(b.secMargin, 0.0);
    EXPECT_EQ(b.secFirstViolation, kNoEventCycle);
}

TEST(SecurityOracleEndToEnd, MultiChannelAliasesStayPerLane)
{
    // The attack addresses channel 0 only: identical (bank, row)
    // coordinates on the other lane are different physical rows and
    // must not inherit (or dilute) its counts. The merged verdict is
    // the worst lane's, not a sum over aliases.
    ExperimentConfig cfg = e2eConfig("Baseline", 2);
    MixSpec mix = e2eMix("double-sided");
    auto system = buildSystem(cfg, mix);
    system->run(cfg.warmupCycles + cfg.runCycles);
    MemSystem &mem = system->mem();
    auto *lane0 = mem.securityOracle(0);
    auto *lane1 = mem.securityOracle(1);
    ASSERT_NE(lane0, nullptr);
    ASSERT_NE(lane1, nullptr);
    EXPECT_GT(lane0->maxWindowActs(), 0u);
    EXPECT_LT(lane1->maxWindowActs(), lane0->maxWindowActs());

    RunResult res = runExperiment(cfg, mix);
    EXPECT_EQ(res.secMaxWindowActs,
              std::max(lane0->maxWindowActs(), lane1->maxWindowActs()));
    EXPECT_DOUBLE_EQ(res.secMargin,
                     std::max(lane0->margin(), lane1->margin()));
}

} // namespace
} // namespace bh
