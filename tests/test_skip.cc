/**
 * @file
 * Event-skipping equivalence and large-organization regression tests.
 *
 * Event skipping must be bit-compatible with cycle-by-cycle simulation
 * for every registered mechanism: every RunResult field of a skipping
 * run equals the reference run, and SkipMode::kVerify (cycle-by-cycle
 * execution that asserts every skip claim) must complete without
 * tripping. The scheduler must also handle organizations with more than
 * 64 flat banks, which used to hit a stack-array panic.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>

#include "experiment_helpers.hh"

namespace bh
{
namespace
{

/**
 * Skip equivalence for every registered mechanism, at one and two
 * channels, with the security oracle on: event skipping and kVerify
 * must reproduce the cycle-by-cycle RunResult exactly. A short window makes every run cross
 * the mechanisms' time-driven boundaries: tREFW table resets (ABACuS,
 * CBT, DAPPER, Graphene), tREFW/2 throttler epochs (BlockHammer,
 * BreakHammer) and tREFI drains (DAPPER). A newly registered mechanism
 * joins this grid with no extra work.
 */
class SkipEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{
};

TEST_P(SkipEquivalence, EventSkipAndVerifyMatchCycleByCycle)
{
    const auto &[mechanism, channels] = GetParam();
    ExperimentConfig cfg = shortConfig(mechanism, channels);
    cfg.securityOracle = true;
    // tREFW = 128k cycles: one reset and three epoch swaps per run. With
    // N_RH = 256 both throttlers change a quota at some swap while the
    // system is otherwise idle.
    cfg.nRH = 256;
    cfg.refwMs = 0.04;
    Cycle half_window = cfg.timings().tREFW / 2;
    ASSERT_GE(cfg.warmupCycles + cfg.runCycles, 3 * half_window);

    cfg.skip = SkipMode::kCycleByCycle;
    RunResult ref = runExperiment(cfg, attackMix());

    cfg.skip = SkipMode::kEventSkip;
    RunResult skipping = runExperiment(cfg, attackMix());
    expectEqualResults(ref, skipping);

    // kVerify panics (aborting the test) on any wrong skip claim.
    cfg.skip = SkipMode::kVerify;
    RunResult verified = runExperiment(cfg, attackMix());
    expectEqualResults(ref, verified);
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, SkipEquivalence,
    ::testing::Combine(::testing::ValuesIn(mitigationNames()),
                       ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<SkipEquivalence::ParamType> &info) {
        std::string name = std::get<0>(info.param);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name + "_" + std::to_string(std::get<1>(info.param)) + "ch";
    });

TEST(EventSkip, BitCompatibleOnBenignGraphene)
{
    ExperimentConfig cfg = shortConfig("Graphene");
    cfg.skip = SkipMode::kCycleByCycle;
    RunResult ref = runExperiment(cfg, benignMix());
    cfg.skip = SkipMode::kEventSkip;
    expectEqualResults(ref, runExperiment(cfg, benignMix()));
}

TEST(EventSkip, ActuallySkipsOnThrottledAttack)
{
    ExperimentConfig cfg = shortConfig("BlockHammer");
    auto system = buildSystem(cfg, attackMix());
    system->run(cfg.warmupCycles + cfg.runCycles);
    EXPECT_GT(system->skippedCycles(), 0u);
}

TEST(LargeOrg, EightRankDdr4RunsWithoutPanic)
{
    // 8 ranks x 16 banks = 128 flat banks: over the old kMaxBanks=64
    // stack-array limit that panicked. The scheduler now sizes its state
    // from the device.
    SystemConfig sys_cfg;
    sys_cfg.threads = 2;
    sys_cfg.mem.org.ranks = 8;
    ASSERT_GT(sys_cfg.mem.org.banksPerChannel(), 64u);
    sys_cfg.mem.enableHammerObserver = false;

    auto system = std::make_unique<System>(
        sys_cfg, std::make_unique<NullMitigation>());
    for (unsigned t = 0; t < sys_cfg.threads; ++t) {
        auto trace = makeTrace("429.mcf", t, sys_cfg.threads,
                               system->mem().mapper(), 7, AttackParams{});
        system->setTrace(t, std::move(trace));
    }
    system->run(100'000);
    EXPECT_GT(system->core(0).retired(), 0u);
    EXPECT_GT(system->mem().controller().demandActivations(), 0u);
}

} // namespace
} // namespace bh
