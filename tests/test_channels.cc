/**
 * @file
 * Multi-channel memory-system tests: request steering into channel
 * lanes, per-channel mitigation instantiation, and the determinism
 * contract of the chunked lane driver — byte-identical results for
 * chunked (kEventSkip) vs cycle-by-cycle (kCycleByCycle) execution. The
 * per-mechanism skip-equivalence grid, two-channel runs included, lives
 * in test_skip.cc.
 */

#include <gtest/gtest.h>

#include "blockhammer/blockhammer.hh"
#include "common/rng.hh"
#include "experiment_helpers.hh"

namespace bh
{
namespace
{

/** The shared short run, measured for 200k cycles instead of 160k. */
ExperimentConfig
channelConfig(const std::string &mechanism, unsigned channels)
{
    ExperimentConfig cfg = shortConfig(mechanism, channels);
    cfg.runCycles = 200'000;
    return cfg;
}

std::vector<std::unique_ptr<Mitigation>>
nullMitigations(unsigned channels)
{
    std::vector<std::unique_ptr<Mitigation>> v;
    for (unsigned ch = 0; ch < channels; ++ch)
        v.push_back(std::make_unique<NullMitigation>());
    return v;
}

/** Encode (channel, bank 0, row, col 0) for a tiny 4-channel system. */
Addr
channelAddr(const AddressMapper &m, unsigned channel, RowId row)
{
    DramCoord c;
    c.channel = channel;
    c.row = row;
    return m.encode(c);
}

TEST(MultiChannel, SubmitRoutesToTheAddressedLane)
{
    MemSystemConfig cfg;
    cfg.org = DramOrg::tinyConfig(4);
    cfg.enableEnergy = false;
    cfg.enableHammerObserver = false;
    MemSystem mem(cfg, nullMitigations(4));

    for (unsigned ch = 0; ch < 4; ++ch) {
        for (RowId row = 0; row < ch + 1; ++row) {
            Request req;
            req.addr = channelAddr(mem.mapper(), ch, row);
            req.type = ReqType::kRead;
            req.thread = 0;
            ASSERT_EQ(mem.submit(std::move(req)), SubmitResult::kAccepted);
        }
    }
    // Lane ch holds exactly its ch+1 reads; nothing leaked across lanes.
    for (unsigned ch = 0; ch < 4; ++ch)
        EXPECT_EQ(mem.controller(ch).readQueueDepth(), ch + 1u);
}

TEST(MultiChannel, QueueFullIsPerLane)
{
    MemSystemConfig cfg;
    cfg.org = DramOrg::tinyConfig(2);
    cfg.ctrl.readQueueSize = 4;
    cfg.enableEnergy = false;
    cfg.enableHammerObserver = false;
    MemSystem mem(cfg, nullMitigations(2));

    Addr lane0 = channelAddr(mem.mapper(), 0, 1);
    Addr lane1 = channelAddr(mem.mapper(), 1, 1);
    for (unsigned i = 0; i < 4; ++i) {
        Request req;
        req.addr = channelAddr(mem.mapper(), 0, i);
        req.type = ReqType::kRead;
        ASSERT_EQ(mem.submit(std::move(req)), SubmitResult::kAccepted);
    }
    EXPECT_TRUE(mem.queueFull(ReqType::kRead, lane0));
    EXPECT_FALSE(mem.queueFull(ReqType::kRead, lane1));

    Request spill;
    spill.addr = lane1;
    spill.type = ReqType::kRead;
    EXPECT_EQ(mem.submit(std::move(spill)), SubmitResult::kAccepted);
}

TEST(MultiChannel, RequestsSpreadAcrossLanes)
{
    ExperimentConfig cfg = channelConfig("Baseline", 4);
    auto system = buildSystem(cfg, benignMix());
    system->run(cfg.runCycles);
    MemSystem &mem = system->mem();
    ASSERT_EQ(mem.channels(), 4u);
    for (unsigned ch = 0; ch < mem.channels(); ++ch) {
        EXPECT_GT(mem.controller(ch).demandActivations(), 0u)
            << "channel " << ch << " never activated a row";
    }
}

TEST(MultiChannel, PerChannelMitigationInstances)
{
    ExperimentConfig cfg = channelConfig("BlockHammer", 2);
    auto system = buildSystem(cfg, benignMix());
    MemSystem &mem = system->mem();
    ASSERT_EQ(mem.channels(), 2u);
    auto *bh0 = dynamic_cast<BlockHammer *>(&mem.mitigation(0));
    auto *bh1 = dynamic_cast<BlockHammer *>(&mem.mitigation(1));
    ASSERT_NE(bh0, nullptr);
    ASSERT_NE(bh1, nullptr);
    EXPECT_NE(bh0, bh1);
}

TEST(MultiChannel, SingleChannelAccessorFailsLoudlyOnMultiChannel)
{
    ExperimentConfig cfg = channelConfig("Baseline", 2);
    auto system = buildSystem(cfg, benignMix());
    EXPECT_DEATH((void)system->mem().controller(), "channel");
}

TEST(MultiChannel, ChunkedLaneDriverActuallyEngages)
{
    // Guard against the chunk predicate silently never holding (which
    // would leave the equivalence tests vacuous): a memory-bound attack
    // mix must spend a visible share of its cycles in lane chunks.
    ExperimentConfig cfg = channelConfig("BlockHammer", 2);
    auto system = buildSystem(cfg, attackMix());
    system->run(cfg.warmupCycles + cfg.runCycles);
    EXPECT_GT(system->chunkedCycles(), 0u);
}

TEST(MultiChannel, AttackOnOneChannelLeavesOthersUnthrottled)
{
    // The attack trace hammers channel 0 only; BlockHammer's per-channel
    // state must blacklist there without blocking the other lane.
    ExperimentConfig cfg = channelConfig("BlockHammer", 2);
    RunResult res = runExperiment(cfg, attackMix());
    EXPECT_EQ(res.bitFlips, 0u);

    auto system = buildSystem(cfg, attackMix());
    system->run(cfg.warmupCycles + cfg.runCycles);
    MemSystem &mem = system->mem();
    EXPECT_GT(mem.controller(0).blockedActQueries(), 0u);
    EXPECT_EQ(mem.controller(1).blockedActQueries(), 0u);
}

TEST(MultiChannel, RandomAttackPatternGridDifferential)
{
    // Randomized differential grid over the adversarial attack-pattern
    // catalog: each sampled (pattern, mechanism, channels) cell must be
    // byte-identical across chunked execution, cycle-by-cycle ticking,
    // and --skip verify — including the SecurityOracle's verdict, which
    // rides along in the full RunResult comparison.
    Rng rng(20260729);
    const auto &catalog = attackPatternCatalog();
    const std::vector<std::string> mechs = {"BlockHammer", "PARA",
                                            "Graphene"};
    for (int trial = 0; trial < 4; ++trial) {
        const AttackPatternSpec &spec =
            catalog[rng.below(catalog.size())];
        const std::string &mech = mechs[rng.below(mechs.size())];
        unsigned channels = rng.chance(0.5) ? 2 : 4;
        SCOPED_TRACE(spec.name + " x " + mech + " x " +
                     std::to_string(channels) + "ch");

        MixSpec mix;
        mix.name = "rand-" + spec.name;
        mix.apps = {attackPatternApp(spec.name), "429.mcf", "450.soplex",
                    "462.libquantum"};

        ExperimentConfig ref = channelConfig(mech, channels);
        ref.securityOracle = true;
        ref.skip = SkipMode::kCycleByCycle;
        RunResult a = runExperiment(ref, mix);

        ExperimentConfig fast = channelConfig(mech, channels);
        fast.securityOracle = true;
        fast.skip = SkipMode::kEventSkip;
        RunResult b = runExperiment(fast, mix);
        expectEqualResults(a, b);

        ExperimentConfig verify = channelConfig(mech, channels);
        verify.securityOracle = true;
        verify.skip = SkipMode::kVerify;
        RunResult c = runExperiment(verify, mix);
        expectEqualResults(a, c);
    }
}

// Manual diagnostics (run with --gtest_also_run_disabled_tests): how the
// driver spends simulated time on a fig5-like cell per channel count.
TEST(MultiChannel, DISABLED_TimeAdvanceBreakdown)
{
    for (unsigned channels : {1u, 4u}) {
        ExperimentConfig cfg = channelConfig("BlockHammer", channels);
        cfg.channels = channels;
        cfg.threads = 8;
        MixSpec mix;
        mix.name = "attack8";
        mix.apps = {kAttackAppName, "429.mcf", "450.soplex",
                    "462.libquantum", "444.namd", "473.astar",
                    "429.mcf", "456.hmmer"};
        auto system = buildSystem(cfg, mix);
        Cycle total = cfg.warmupCycles + cfg.runCycles;
        system->run(total);
        std::printf("channels=%u: %llu cycles, %llu skipped (%.1f%%), "
                    "%llu chunked (%.1f%%)\n", channels,
                    static_cast<unsigned long long>(total),
                    static_cast<unsigned long long>(system->skippedCycles()),
                    100.0 * system->skippedCycles() / total,
                    static_cast<unsigned long long>(system->chunkedCycles()),
                    100.0 * system->chunkedCycles() / total);
    }
}

TEST(MultiChannel, NonPowerOfTwoChannelCountFailsLoudly)
{
    EXPECT_DEATH(DramOrg::paperConfig(3), "powers of two");
    EXPECT_DEATH(DramOrg::tinyConfig(6), "powers of two");
}

} // namespace
} // namespace bh
