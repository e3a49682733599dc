/**
 * @file
 * Unit tests for the SecurityOracle's sliding-tREFW-window counting —
 * exact window arithmetic at the boundaries, the straddle case (a row
 * refreshed mid-window must NOT lose its sliding count), multi-channel
 * row aliasing — plus the end-to-end assertion behind bench/secsweep:
 * BlockHammer keeps the disturbance margin below 1.0 where an
 * unmitigated run exceeds it.
 */

#include <gtest/gtest.h>

#include "analysis/security_oracle.hh"
#include "sim/experiment.hh"

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
    // One cycle inside: both acts count.
    o.onActivate(2, 6, 0);
    o.onActivate(2, 6, 999);
    EXPECT_EQ(o.currentWindowActs(2, 6, 999), 2u);
    EXPECT_EQ(o.maxWindowActs(), 2u);
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
