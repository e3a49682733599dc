/**
 * @file
 * Shared fixtures of the skip-equivalence and multi-channel tests: a
 * short experiment configuration, a 4-thread attack mix and a benign
 * mix, and a comparison of every RunResult field, per-core counters
 * included.
 */

#ifndef BH_TESTS_EXPERIMENT_HELPERS_HH
#define BH_TESTS_EXPERIMENT_HELPERS_HH

#include <gtest/gtest.h>

#include "sim/experiment.hh"

namespace bh
{

/** A 220k-cycle, 4-thread run with a compressed window. */
inline ExperimentConfig
shortConfig(const std::string &mechanism, unsigned channels = 1)
{
    ExperimentConfig cfg;
    cfg.mechanism = mechanism;
    cfg.threads = 4;
    cfg.nRH = 512;
    cfg.refwMs = 0.25;
    cfg.warmupCycles = 60'000;
    cfg.runCycles = 160'000;
    cfg.attack.numBanks = 8;
    cfg.channels = channels;
    return cfg;
}

inline MixSpec
attackMix()
{
    MixSpec mix;
    mix.name = "attack";
    mix.apps = {kAttackAppName, "429.mcf", "450.soplex", "462.libquantum"};
    return mix;
}

inline MixSpec
benignMix()
{
    MixSpec mix;
    mix.name = "benign";
    mix.apps = {"429.mcf", "462.libquantum", "444.namd", "473.astar"};
    return mix;
}

/** Every core's retired instructions, memory ops and stall cycles match. */
inline void
expectEqualCores(const std::vector<RunResult::CoreCounts> &a,
                 const std::vector<RunResult::CoreCounts> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].retired, b[i].retired) << "core " << i;
        EXPECT_EQ(a[i].memOps, b[i].memOps) << "core " << i;
        EXPECT_EQ(a[i].stallCycles, b[i].stallCycles) << "core " << i;
    }
}

/** Every field of two runs is equal, per-lane stats and cores included. */
inline void
expectEqualResults(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.mechanism, b.mechanism);
    EXPECT_EQ(a.mixName, b.mixName);
    EXPECT_EQ(a.isAttack, b.isAttack);
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (std::size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_DOUBLE_EQ(a.ipc[i], b.ipc[i]) << "thread " << i;
    EXPECT_DOUBLE_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.bitFlips, b.bitFlips);
    EXPECT_EQ(a.maxRowActs, b.maxRowActs);
    EXPECT_EQ(a.demandActs, b.demandActs);
    EXPECT_EQ(a.blockedActs, b.blockedActs);
    EXPECT_EQ(a.victimRefreshes, b.victimRefreshes);
    EXPECT_EQ(a.rowHits, b.rowHits);
    EXPECT_EQ(a.rowMisses, b.rowMisses);
    EXPECT_EQ(a.rowConflicts, b.rowConflicts);
    EXPECT_DOUBLE_EQ(a.secMargin, b.secMargin);
    EXPECT_EQ(a.secMaxWindowActs, b.secMaxWindowActs);
    EXPECT_EQ(a.secFirstViolation, b.secFirstViolation);
    EXPECT_EQ(a.secViolatingRows, b.secViolatingRows);
    EXPECT_EQ(a.stats.dump(), b.stats.dump());
    expectEqualCores(a.cores, b.cores);
}

} // namespace bh

#endif // BH_TESTS_EXPERIMENT_HELPERS_HH
