/**
 * @file
 * Tests for the parallel experiment runner and the bh_bench registry:
 *
 *  - Runner executes cells across worker counts with index-ordered,
 *    deterministic results and propagates cell exceptions.
 *  - cellSeed is a stable function of (base, cell), independent of
 *    execution order (golden values pin the algorithm).
 *  - Registered experiments produce byte-identical JSON at 1 vs N
 *    worker threads.
 *  - Regression: the bh_bench JSON fields match the values the legacy
 *    per-binary benches computed for fig4 and table1.
 */

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "bench/registry.hh"
#include "blockhammer/config.hh"
#include "common/rng.hh"
#include "sim/runner.hh"
#include "workloads/catalog.hh"

namespace bh
{
namespace
{

TEST(Runner, JobsDefaultsToAtLeastOne)
{
    Runner r(0);
    EXPECT_GE(r.jobs(), 1u);
}

TEST(Runner, MapCollectsResultsInCellOrder)
{
    Runner pool(4);
    // Cells finish intentionally out of order: later cells sleep less.
    std::vector<int> out = pool.map<int>(16, [](std::size_t i) {
        std::this_thread::sleep_for(
            std::chrono::microseconds((16 - i) * 100));
        return static_cast<int>(i * i);
    });
    ASSERT_EQ(out.size(), 16u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(Runner, OneWorkerAndManyWorkersAgree)
{
    auto work = [](std::size_t i) {
        Rng rng(Runner::cellSeed(123, i));
        std::uint64_t acc = 0;
        for (int n = 0; n < 1000; ++n)
            acc ^= rng.next();
        return acc;
    };
    Runner serial(1);
    Runner parallel(8);
    auto a = serial.map<std::uint64_t>(32, work);
    auto b = parallel.map<std::uint64_t>(32, work);
    EXPECT_EQ(a, b);
}

TEST(Runner, ForEachRunsEveryCellExactlyOnce)
{
    Runner pool(4);
    std::vector<std::atomic<int>> hits(64);
    pool.forEach(64, [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(Runner, PropagatesCellExceptions)
{
    Runner pool(4);
    EXPECT_THROW(pool.forEach(8,
                              [](std::size_t i) {
                                  if (i == 5)
                                      throw std::runtime_error("cell 5");
                              }),
                 std::runtime_error);
    // The pool survives a failed batch.
    std::vector<int> out = pool.map<int>(
        4, [](std::size_t i) { return static_cast<int>(i); });
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Runner, SerialPathRunsAllCellsDespiteException)
{
    // jobs == 1 must honor the same contract as the pooled path: every
    // cell executes, the first error is rethrown afterwards.
    Runner serial(1);
    std::vector<int> ran(8, 0);
    EXPECT_THROW(serial.forEach(8,
                                [&](std::size_t i) {
                                    ran[i] = 1;
                                    if (i == 2)
                                        throw std::runtime_error("cell 2");
                                }),
                 std::runtime_error);
    EXPECT_EQ(ran, (std::vector<int>(8, 1)));
}

TEST(Runner, CellSeedGoldenValues)
{
    // Pinned: experiment results depend on these streams, so the mix
    // function must never change silently.
    EXPECT_EQ(Runner::cellSeed(1, 0), 0x910a2dec89025cc1ull);
    EXPECT_EQ(Runner::cellSeed(1, 1), 0xbeeb8da1658eec67ull);
    EXPECT_EQ(Runner::cellSeed(42, 7), 0xccf635ee9e9e2fa4ull);
    // Stability: same inputs, same seed; different cells, different seed.
    EXPECT_EQ(Runner::cellSeed(9, 9), Runner::cellSeed(9, 9));
    EXPECT_NE(Runner::cellSeed(9, 9), Runner::cellSeed(9, 10));
}

TEST(Registry, AllExperimentsRegisteredAndFindable)
{
    EXPECT_EQ(benchRegistry().size(), 14u);
    for (const char *name : {"fig4", "fig5", "fig6", "table1", "table4",
                             "table7", "table8", "sec321", "sec5", "sec84",
                             "ablation_cbf", "micro", "secsweep", "fuzz"}) {
        const BenchInfo *info = findBench(name);
        ASSERT_NE(info, nullptr) << name;
        EXPECT_STREQ(info->name, name);
        EXPECT_NE(info->fn, nullptr);
    }
    EXPECT_EQ(findBench("nope"), nullptr);
}

/** Run one registered experiment at the given scale and worker count. */
Json
runAt(const char *name, double scale, unsigned jobs)
{
    const BenchInfo *info = findBench(name);
    EXPECT_NE(info, nullptr);
    Runner pool(jobs);
    BenchContext ctx;
    ctx.scale = scale;
    ctx.runner = &pool;
    testing::internal::CaptureStdout();
    runBench(*info, ctx);
    testing::internal::GetCapturedStdout();
    return ctx.result;
}

TEST(Registry, CellWorkIsItsRunResults)
{
    // A one-cell run's BENCH_perf.json `work` object holds the controller
    // counters of the cell's RunResult; the alone runs its metrics read
    // are left out.
    ExperimentConfig cfg;
    cfg.mechanism = "BlockHammer";
    cfg.threads = 2;
    cfg.nRH = 512;
    cfg.refwMs = 0.25;
    cfg.warmupCycles = 10'000;
    cfg.runCycles = 40'000;
    MixSpec mix;
    mix.name = "work";
    mix.apps = {kAttackAppName, "429.mcf"};
    Runner pool(1);
    BenchContext ctx;
    ctx.runner = &pool;
    RunResult res;
    ctx.runCells("work", 1, [&](std::size_t) {
        res = runExperiment(cfg, mix);
        metricsAgainstAlone(cfg, mix, res);
        return Json(1.0);
    });
    ASSERT_EQ(ctx.cellPerf.count(0), 1u);
    Json work = ctx.cellPerf.at(0).toJson()["work"];
    auto count = [](std::uint64_t n) {
        return Json(static_cast<std::int64_t>(n));
    };
    EXPECT_GT(res.ctrlActQueries, 0u);
    EXPECT_EQ(work.dump(), [&] {
        Json w = Json::object();
        w["ticks_executed"] = count(res.ctrlTicksExecuted);
        w["ticks_acted"] = count(res.ctrlTicksActed);
        w["act_queries"] = count(res.ctrlActQueries);
        w["refusals_replayed"] = count(res.ctrlRefusalsReplayed);
        w["entries_scanned"] = count(res.ctrlEntriesScanned);
        w["entries_recomputed"] = count(res.ctrlEntriesRecomputed);
        return w;
    }().dump());
}

TEST(Registry, Fig4JsonIsIdenticalAcrossWorkerCounts)
{
    Json serial = runAt("fig4", 0.1, 1);
    Json parallel = runAt("fig4", 0.1, 4);
    EXPECT_EQ(serial.dump(2), parallel.dump(2));
}

TEST(Registry, Sec5JsonIsIdenticalAcrossWorkerCounts)
{
    Json serial = runAt("sec5", 0.1, 1);
    Json parallel = runAt("sec5", 0.1, 4);
    EXPECT_EQ(serial.dump(2), parallel.dump(2));
}

/**
 * Regression vs. the legacy fig4_singlecore binary: its per-app numbers
 * were ratio(baseline IPC / mechanism IPC) and ratio(mechanism energy /
 * baseline energy) from runExperiment on the single-threaded bench
 * config. The registered experiment must report exactly those values.
 */
TEST(Regression, Fig4JsonMatchesLegacyPerBinaryOutputs)
{
    const double scale = 0.1;
    Json result = runAt("fig4", scale, 4);
    const Json *per_app = result.find("per_app");
    ASSERT_NE(per_app, nullptr);
    ASSERT_GT(per_app->size(), 0u);

    BenchContext legacy_ctx;
    legacy_ctx.scale = scale;
    ExperimentConfig cfg = benchConfig(legacy_ctx, "Baseline");
    cfg.threads = 1;

    // Spot-check the first app of the sweep under two mechanisms.
    const std::string app = appsInCategory('L').front();
    const Json *app_json = per_app->find(app);
    ASSERT_NE(app_json, nullptr) << app;

    MixSpec mix;
    mix.name = app;
    mix.apps = {app};
    RunResult base = runExperiment(cfg, mix);
    for (const std::string mech : {"BlockHammer", "PARA"}) {
        ExperimentConfig mech_cfg = cfg;
        mech_cfg.mechanism = mech;
        RunResult res = runExperiment(mech_cfg, mix);
        const Json *mech_json = app_json->find(mech);
        ASSERT_NE(mech_json, nullptr) << mech;
        EXPECT_DOUBLE_EQ(mech_json->find("time_norm")->asDouble(),
                         base.ipc[0] / res.ipc[0])
            << app << "/" << mech;
        EXPECT_DOUBLE_EQ(mech_json->find("energy_norm")->asDouble(),
                         res.energyJ / base.energyJ)
            << app << "/" << mech;
    }
}

/**
 * Regression vs. the legacy table1_config binary: every parameter it
 * printed must appear in the JSON with the same analytic value.
 */
TEST(Regression, Table1JsonMatchesLegacyPerBinaryOutputs)
{
    Json result = runAt("table1", 1.0, 1);
    const Json *params = result.find("params");
    ASSERT_NE(params, nullptr);

    auto timings = DramTimings::ddr4();
    auto cfg = BlockHammerConfig::forThreshold(32768, timings);
    EXPECT_EQ(params->find("N_RH")->asInt(), cfg.nRH);
    EXPECT_EQ(params->find("N_RH_star")->asInt(), cfg.nRHStar());
    EXPECT_DOUBLE_EQ(params->find("tREFW_ms")->asDouble(),
                     cyclesToNs(cfg.tREFW) / 1e6);
    EXPECT_DOUBLE_EQ(params->find("tRC_ns")->asDouble(),
                     cyclesToNs(cfg.tRC));
    EXPECT_EQ(params->find("N_BL")->asInt(), cfg.nBL);
    EXPECT_DOUBLE_EQ(params->find("tDelay_us")->asDouble(),
                     cyclesToNs(cfg.tDelay()) / 1e3);
    EXPECT_EQ(params->find("cbf_counters")->asInt(), cfg.cbf.numCounters);
    EXPECT_EQ(params->find("cbf_hashes")->asInt(), cfg.cbf.numHashes);
    EXPECT_EQ(params->find("history_entries")->asInt(),
              cfg.historyEntries());

    auto worst = cfg;
    worst.blast = BlastModel::worstCase();
    EXPECT_DOUBLE_EQ(result.find("worst_case_nrh_star_ratio")->asDouble(),
                     static_cast<double>(worst.nRHStar()) / worst.nRH);
}

TEST(Json, DumpIsDeterministicAndOrdered)
{
    Json j = Json::object();
    j["b"] = 1;
    j["a"] = 2.5;
    j["nested"] = Json::object();
    j["nested"]["x"] = "hi\"there";
    j["arr"].push(1).push(true);
    EXPECT_EQ(j.dump(),
              "{\"b\":1,\"a\":2.5,\"nested\":{\"x\":\"hi\\\"there\"},"
              "\"arr\":[1,true]}");
    EXPECT_EQ(j.dump(), j.dump());
}

TEST(Json, DoubleRoundTripsShortest)
{
    EXPECT_EQ(Json::formatDouble(1.0), "1");
    EXPECT_EQ(Json::formatDouble(0.5), "0.5");
    EXPECT_EQ(Json::formatDouble(1.0 / 3.0), "0.3333333333333333");
}

} // namespace
} // namespace bh
