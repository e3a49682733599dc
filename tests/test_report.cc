/**
 * @file
 * Tests for run reports and one-cell runs:
 *
 *  - the written run manifest carries the constant shard fields, the
 *    phases, the grid fingerprint and per-cell digests; a `--cell` run
 *    marks itself partial and records just its cell;
 *  - running each cell of an experiment alone and replaying its
 *    aggregation over the collected payloads reproduces the full
 *    report byte for byte (the bh_farm merge contract);
 *  - `--cell` fails loudly on a non-numeric value or a cell outside
 *    the grid, and analytic experiments run whole under it;
 *  - the structural diff honors absolute/relative tolerance and
 *    ignored subtrees;
 *  - the perf gate passes at and above its floor, fails below it, skips
 *    entries at another scale (each experiment's own, in a file that
 *    merges invocations), refuses a vacuous pass, fails on a missing
 *    experiment and honors the min-ratio override;
 *  - bh_collect's numeric flags exit 2 on any malformed value.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <tuple>

#include "bench/registry.hh"
#include "common/fsio.hh"
#include "report/perf.hh"
#include "report/report.hh"
#include "sim/runner.hh"

namespace bh
{
namespace
{

/** Run one experiment in the given mode, stdout suppressed. */
Json
runMode(const char *name, double scale, BenchContext::CellMode mode,
        std::optional<std::uint64_t> only_cell = std::nullopt,
        const Json *replay = nullptr)
{
    const BenchInfo *info = findBench(name);
    EXPECT_NE(info, nullptr) << name;
    Runner pool(2);
    BenchContext ctx;
    ctx.scale = scale;
    ctx.runner = &pool;
    ctx.mode = mode;
    ctx.onlyCell = only_cell;
    ctx.replayCells = replay;
    testing::internal::CaptureStdout();
    runBench(*info, ctx);
    testing::internal::GetCapturedStdout();
    return ctx.result;
}

/** Write a report the way bh_bench does and read its manifest back. */
Json
writtenManifest(const Json &doc, const std::string &tag)
{
    std::string path = testing::TempDir() + "bh_report_" + tag + ".json";
    atomicWriteFileOrDie(path, doc.dump(2) + "\n");
    std::string text, err;
    EXPECT_TRUE(readFile(path, text, err)) << err;
    Json parsed;
    EXPECT_TRUE(Json::parse(text, parsed, &err)) << err;
    const Json *manifest = parsed.find("manifest");
    EXPECT_NE(manifest, nullptr);
    return manifest ? *manifest : Json();
}

TEST(Manifest, StampedAndRoundTrips)
{
    Json doc = runMode("sec321", 0.1, BenchContext::CellMode::Run);
    Json m = writtenManifest(doc, "full");
    EXPECT_EQ(m["format_version"].asInt(), kBenchFormatVersion);
    EXPECT_EQ(m["experiment"].asString(), "sec321");
    EXPECT_EQ(m["scale"].asDouble(), 0.1);
    EXPECT_EQ(m["shard_index"].asInt(), 0);
    EXPECT_EQ(m["shard_count"].asInt(), 1);
    EXPECT_FALSE(m["partial"].asBool());
    // 1 mix x {observe, full} at 0.1x.
    EXPECT_EQ(m["cell_total"].asInt(), 2);
    EXPECT_EQ(m["cells_run"].asInt(), 2);
    const Json &phases = m["phases"];
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases.at(0).find("label")->asString(), "observe");
    EXPECT_EQ(phases.at(0).find("first_cell")->asInt(), 0);
    EXPECT_EQ(phases.at(0).find("count")->asInt(), 1);
    EXPECT_EQ(phases.at(1).find("label")->asString(), "full");
    EXPECT_EQ(phases.at(1).find("first_cell")->asInt(), 1);
    EXPECT_EQ(phases.at(1).find("count")->asInt(), 1);
    const std::string fingerprint = m["fingerprint"].asString();
    EXPECT_EQ(fingerprint.size(), 16u);
    const Json &digests = m["cell_digests"];
    ASSERT_EQ(digests.size(), 2u);
    for (const char *cell : {"0", "1"})
        EXPECT_EQ(digests.find(cell)->asString(),
                  cellDigest(*doc["cells"].find(cell)));

    // A --cell run is partial, records only its own cell, and keeps the
    // grid's identity.
    Json one = runMode("sec321", 0.1, BenchContext::CellMode::Run, 1);
    Json p = writtenManifest(one, "cell1");
    EXPECT_EQ(p["shard_index"].asInt(), 0);
    EXPECT_EQ(p["shard_count"].asInt(), 1);
    EXPECT_TRUE(p["partial"].asBool());
    EXPECT_EQ(p["cell_total"].asInt(), 2);
    EXPECT_EQ(p["cells_run"].asInt(), 1);
    EXPECT_EQ(p["fingerprint"].asString(), fingerprint);
    EXPECT_EQ(p["phases"].dump(), phases.dump());
    ASSERT_EQ(p["cell_digests"].size(), 1u);
    EXPECT_EQ(p["cell_digests"].find("1")->asString(),
              digests.find("1")->asString());
}

TEST(Manifest, EnumerateCountsWithoutSimulating)
{
    const BenchInfo *info = findBench("fig5");
    ASSERT_NE(info, nullptr);
    BenchContext ctx;
    ctx.scale = 1.0;
    ctx.mode = BenchContext::CellMode::Enumerate;
    Runner pool(1);
    ctx.runner = &pool;
    runBench(*info, ctx);
    // 3 mixes x (1 baseline + the comparison set) x 2 scenarios at
    // scale 1 — derived, so the count tracks the factory's zoo.
    EXPECT_EQ(ctx.nextCell,
              2 * 3 * (1 + comparisonMechanisms().size()));
    EXPECT_EQ(ctx.cellsRun, 0u);
    EXPECT_EQ(ctx.phases.size(), 2u);
}

TEST(Cell, EachCellRunAloneReplaysByteIdenticalToTheFullRun)
{
    const double scale = 0.1;
    // A partial output holds no aggregate fields: just the header, the
    // manifest and its one cell.
    const std::vector<std::string> partial_keys = {
        "experiment", "reproduces", "scale", "manifest", "cells"};
    for (const char *name : {"sec321", "sec84"}) {
        Json full = runMode(name, scale, BenchContext::CellMode::Run);
        const std::int64_t total =
            full["manifest"].find("cell_total")->asInt();
        ASSERT_GT(total, 0) << name;

        Json collected = Json::object();
        for (std::int64_t c = 0; c < total; ++c) {
            Json doc = runMode(name, scale, BenchContext::CellMode::Run,
                               static_cast<std::uint64_t>(c));
            EXPECT_TRUE(doc["manifest"].find("partial")->asBool())
                << name << " cell " << c;
            std::vector<std::string> keys;
            for (const auto &kv : doc.objectItems())
                keys.push_back(kv.first);
            EXPECT_EQ(keys, partial_keys) << name << " cell " << c;
            const Json &cells = doc["cells"];
            ASSERT_EQ(cells.size(), 1u) << name << " cell " << c;
            const std::string key = std::to_string(c);
            ASSERT_NE(cells.find(key), nullptr) << name << " cell " << c;
            collected[key] = *cells.find(key);
        }

        Json replayed = runMode(name, scale, BenchContext::CellMode::Replay,
                                std::nullopt, &collected);
        EXPECT_EQ(replayed.dump(2), full.dump(2)) << name;
    }
}

TEST(Cell, AnalyticExperimentsRunWholeUnderCell)
{
    Json full = runMode("table1", 1.0, BenchContext::CellMode::Run);
    Json one = runMode("table1", 1.0, BenchContext::CellMode::Run, 5);
    EXPECT_FALSE(one["manifest"].find("partial")->asBool());
    EXPECT_EQ(one.dump(2), full.dump(2));
}

TEST(CellDeathTest, CellOutsideTheGridFailsNamingTheGridSize)
{
    EXPECT_EXIT(runMode("sec321", 0.1, BenchContext::CellMode::Run, 2),
                testing::ExitedWithCode(1),
                "sec321: cell 2 is outside the 2-cell grid");
}

TEST(CellDeathTest, NonNumericCellIsAParseError)
{
    EXPECT_EQ(parseCellIndex("0"), 0u);
    EXPECT_EQ(parseCellIndex("183"), 183u);
    for (const char *bad : {"", "x", "12x", "-1", "+3", " 4", "0/2",
                            "99999999999999999999"})
        EXPECT_EXIT(parseCellIndex(bad), testing::ExitedWithCode(1),
                    "--cell wants a global cell index");
}

TEST(BenchFlagsDeathTest, MalformedCountsFailNamingFlagAndValue)
{
    EXPECT_EQ(parseFlagCount("--jobs", "0", 0, 4096), 0u);
    EXPECT_EQ(parseFlagCount("--jobs", "4096", 0, 4096), 4096u);
    EXPECT_EQ(parseFlagCount("--channels", "08", 1, 64), 8u);
    for (const char *bad : {"4x", "abc", "", "inf", "nan", "-1", "1e999",
                            " 4", "4 ", "4097", "99999999999999999999999"})
        EXPECT_EXIT(parseFlagCount("--jobs", bad, 0, 4096),
                    testing::ExitedWithCode(1),
                    std::string("--jobs wants a whole number in \\[0, "
                                "4096\\], got '") + bad + "'");
    EXPECT_EXIT(parseFlagCount("--jobs", "+3", 0, 4096),
                testing::ExitedWithCode(1), "--jobs wants a whole number");
    for (const char *bad : {"0", "65"})
        EXPECT_EXIT(parseFlagCount("--channels", bad, 1, 64),
                    testing::ExitedWithCode(1),
                    std::string("--channels .*got '") + bad + "'");
}

TEST(BenchFlagsDeathTest, MalformedRealsFailNamingFlagAndValue)
{
    EXPECT_EQ(parseFlagReal("--scale", "0.1", 0.1), 0.1);
    EXPECT_EQ(parseFlagReal("--scale", "4", 0.1), 4.0);
    EXPECT_EQ(parseFlagReal("--cell-budget", "0", 0.0), 0.0);
    for (const char *bad : {"4x", "abc", "", "inf", "nan", "-1", "1e999",
                            "0.05", " 1", "1 "})
        EXPECT_EXIT(parseFlagReal("--scale", bad, 0.1),
                    testing::ExitedWithCode(1),
                    std::string("--scale wants a finite number >= 0.1, "
                                "got '") + bad + "'");
    for (const char *bad : {"", "-0.5", "inf", "nan", "30s"})
        EXPECT_EXIT(parseFlagReal("--stale-after", bad, 0.0),
                    testing::ExitedWithCode(1),
                    std::string("--stale-after .*got '") + bad + "'");
}

TEST(BenchFlagsDeathTest, BhScaleParsesLikeTheScaleFlag)
{
    unsetenv("BH_SCALE");
    EXPECT_EQ(benchScale(), 1.0);
    setenv("BH_SCALE", "0.5", 1);
    EXPECT_EQ(benchScale(), 0.5);
    for (const char *bad : {"0.05", "abc", "", "inf", "nan", "2x"}) {
        setenv("BH_SCALE", bad, 1);
        EXPECT_EXIT(benchScale(), testing::ExitedWithCode(1),
                    std::string("BH_SCALE wants a finite number >= 0.1, "
                                "got '") + bad + "'");
    }
    unsetenv("BH_SCALE");
}

TEST(Diff, NumericToleranceAndIgnores)
{
    Json a = Json::object();
    a["x"] = 1.0;
    a["arr"] = Json::array().push(1).push(2.0);
    a["s"] = "same";
    a["skip"] = Json::object();
    a["skip"]["noise"] = 1.0;
    Json b = Json::object();
    b["x"] = 1.0 + 1e-9;
    b["arr"] = Json::array().push(1).push(2.0);
    b["s"] = "same";
    b["skip"] = Json::object();
    b["skip"]["noise"] = 2.0;

    DiffOptions exact;
    std::vector<std::string> diffs = structuralDiff(a, b, exact);
    EXPECT_EQ(diffs.size(), 2u);    // x drift + skip.noise

    DiffOptions tol;
    tol.relTol = 1e-6;
    tol.ignorePaths = {"skip"};
    EXPECT_TRUE(structuralDiff(a, b, tol).empty());

    DiffOptions abs_only;
    abs_only.absTol = 1e-6;
    abs_only.ignorePaths = {"skip.noise"};
    EXPECT_TRUE(structuralDiff(a, b, abs_only).empty());
}

TEST(Diff, StructuralMismatchesAreReported)
{
    Json a = Json::object();
    a["only_a"] = 1;
    a["t"] = "str";
    a["arr"] = Json::array().push(1).push(2);
    Json b = Json::object();
    b["t"] = 5;
    b["arr"] = Json::array().push(1);
    b["only_b"] = true;

    std::vector<std::string> diffs = structuralDiff(a, b, DiffOptions{});
    ASSERT_EQ(diffs.size(), 4u);
    EXPECT_NE(diffs[0].find("only in first"), std::string::npos);
    EXPECT_NE(diffs[1].find("type mismatch"), std::string::npos);
    EXPECT_NE(diffs[2].find("array length"), std::string::npos);
    EXPECT_NE(diffs[3].find("only in second"), std::string::npos);

    // Int vs Double of equal value is not a difference.
    Json c = Json::object();
    c["v"] = 2;
    Json d = Json::object();
    d["v"] = 2.0;
    EXPECT_TRUE(structuralDiff(c, d, DiffOptions{}).empty());
}

TEST(CollectFlagsDeathTest, MalformedNumbersExitTwoNamingFlagAndValue)
{
    EXPECT_EQ(parseFlagNumber("--min-ratio", "0.05", false), 0.05);
    EXPECT_EQ(parseFlagNumber("--abs-tol", "0", true), 0.0);
    EXPECT_EQ(parseFlagNumber("--rel-tol", "1e-6", true), 1e-6);
    for (const char *bad : {"abc", "-3", "", "0.05x", "0", "inf", "nan",
                            "1e999", " 0.2", "0.2 "})
        EXPECT_EXIT(parseFlagNumber("--min-ratio", bad, false),
                    testing::ExitedWithCode(2),
                    std::string("--min-ratio .*got '") + bad + "'");
    for (const char *bad : {"-1e-9", "x", "", "1.5 ", " 1e-6"})
        EXPECT_EXIT(parseFlagNumber("--rel-tol", bad, true),
                    testing::ExitedWithCode(2),
                    std::string("--rel-tol .*got '") + bad + "'");
}

/** Perf golden with one entry per (experiment, scale, ref_cps). */
Json
perfGolden(std::initializer_list<std::tuple<const char *, double, double>>
               entries)
{
    Json golden = Json::object();
    golden["entries"] = Json::array();
    for (const auto &[name, scale, ref_cps] : entries) {
        Json e = Json::object();
        e["experiment"] = std::string(name);
        e["scale"] = scale;
        e["ref_cps"] = ref_cps;
        e["min_ratio"] = 0.5;
        golden["entries"].push(std::move(e));
    }
    return golden;
}

/** BENCH_perf.json at `scale` with one 2-second experiment. */
Json
perfMeasured(double scale, const char *name, double sim_cycles)
{
    Json measured = Json::object();
    measured["scale"] = scale;
    measured["experiments"] = Json::object();
    Json m = Json::object();
    m["wall_s"] = 2.0;
    m["sim_cycles"] = sim_cycles;
    measured["experiments"][name] = std::move(m);
    return measured;
}

TEST(PerfGate, PassesAtAndAboveTheFloorFailsBelowIt)
{
    // ref 1000 cycles/s x min_ratio 0.5: the floor is 500 cycles/s.
    Json golden = perfGolden({{"fig4", 4.0, 1000.0}});
    PerfGateResult at = perfGate(golden, perfMeasured(4.0, "fig4", 1000.0));
    EXPECT_TRUE(at.pass);
    ASSERT_EQ(at.lines.size(), 1u);
    EXPECT_EQ(at.lines[0].rfind("fig4: ok", 0), 0u) << at.lines[0];
    EXPECT_TRUE(perfGate(golden, perfMeasured(4.0, "fig4", 8000.0)).pass);

    PerfGateResult below =
        perfGate(golden, perfMeasured(4.0, "fig4", 998.0));
    EXPECT_FALSE(below.pass);
    ASSERT_EQ(below.lines.size(), 1u);
    EXPECT_EQ(below.lines[0].rfind("fig4: FAIL", 0), 0u) << below.lines[0];
}

TEST(PerfGate, EntriesAtAnotherScaleAreSkipped)
{
    Json golden = perfGolden({{"secsweep", 1.0, 1e9}, {"fig4", 4.0, 1000.0}});
    PerfGateResult res = perfGate(golden, perfMeasured(4.0, "fig4", 1000.0));
    EXPECT_TRUE(res.pass);
    ASSERT_EQ(res.lines.size(), 2u);
    EXPECT_EQ(res.lines[0],
              "secsweep: skipped (golden scale 1, measured 4)");
    EXPECT_EQ(res.lines[1].rfind("fig4: ok", 0), 0u) << res.lines[1];
}

TEST(PerfGate, RefusesToPassWhenNoEntryApplies)
{
    Json golden = perfGolden({{"fig4", 4.0, 1000.0}});
    PerfGateResult res = perfGate(golden, perfMeasured(2.0, "fig4", 1e9));
    EXPECT_FALSE(res.pass);
    ASSERT_EQ(res.lines.size(), 2u);
    EXPECT_EQ(res.lines[1], "no golden entry applies at measured scale 2");
}

TEST(PerfGate, ApplicableExperimentMissingFromTheMeasurementFails)
{
    Json golden = perfGolden({{"fig4", 4.0, 1000.0}, {"fig5", 4.0, 1000.0}});
    PerfGateResult res = perfGate(golden, perfMeasured(4.0, "fig4", 1e9));
    EXPECT_FALSE(res.pass);
    ASSERT_EQ(res.lines.size(), 2u);
    EXPECT_EQ(res.lines[1], "fig5: FAIL (not in measurement)");
}

TEST(PerfGate, MinRatioOverrideReplacesEveryEntrysRatio)
{
    // 250 cycles/s: below the entry's 0.5 floor, above a 0.25 override.
    Json golden = perfGolden({{"fig4", 4.0, 1000.0}});
    Json measured = perfMeasured(4.0, "fig4", 500.0);
    EXPECT_FALSE(perfGate(golden, measured).pass);
    EXPECT_TRUE(perfGate(golden, measured, 0.25).pass);
    EXPECT_FALSE(perfGate(golden, measured, 0.3).pass);
}

/** A cell's `work` object with two of the six counts. */
Json
workCounts(std::int64_t ticks, std::int64_t queries)
{
    Json w = Json::object();
    w["ticks_executed"] = ticks;
    w["act_queries"] = queries;
    return w;
}

/**
 * A golden whose one fig5 entry at scale 4 gates the work counts summed
 * over `cells` (default: cells 1 and 2) at one channel: 30 ticks, 7
 * queries.
 */
Json
workGolden(Json cells = Json())
{
    if (cells.isNull()) {
        cells = Json::array();
        cells.push(1);
        cells.push(2);
    }
    Json e = Json::object();
    e["experiment"] = "fig5";
    e["scale"] = 4.0;
    e["ref_cps"] = 1000.0;
    e["cells"] = std::move(cells);
    e["channels"] = 1;
    e["work"] = workCounts(30, 7);
    Json golden = Json::object();
    golden["entries"] = Json::array();
    golden["entries"].push(std::move(e));
    return golden;
}

/** perfMeasured's fig5 with cells 1 and 2 of a 3-cell grid run. */
Json
workMeasured(const Json &cell1, const Json &cell2)
{
    Json measured = perfMeasured(4.0, "fig5", 1e9);
    measured["channels"] = 1;
    Json &m = measured["experiments"]["fig5"];
    m["cells_run"] = 2;
    m["cell_total"] = 3;
    m["cells"] = Json::object();
    auto add = [&](const char *cell, const Json &work) {
        Json c = Json::object();
        c["sim_cycles"] = 100;
        if (!work.isNull())
            c["work"] = work;
        m["cells"][cell] = std::move(c);
    };
    add("1", cell1);
    add("2", cell2);
    return measured;
}

TEST(PerfGate, WorkCountsThatEqualTheGoldenPass)
{
    PerfGateResult res = perfGate(
        workGolden(), workMeasured(workCounts(10, 3), workCounts(20, 4)));
    EXPECT_TRUE(res.pass);
    ASSERT_EQ(res.lines.size(), 2u);
    EXPECT_EQ(res.lines[1], "fig5: work ok (2 counts equal)");
}

TEST(PerfGate, OneWorkCountOffFailsNamingTheField)
{
    PerfGateResult res = perfGate(
        workGolden(), workMeasured(workCounts(10, 3), workCounts(20, 5)));
    EXPECT_FALSE(res.pass);
    ASSERT_EQ(res.lines.size(), 2u);
    EXPECT_EQ(res.lines[1], "fig5: work FAIL (act_queries 8, golden 7)");
}

TEST(PerfGate, MeasuredCellWithoutWorkFails)
{
    PerfGateResult res =
        perfGate(workGolden(), workMeasured(workCounts(30, 7), Json()));
    EXPECT_FALSE(res.pass);
    ASSERT_EQ(res.lines.size(), 2u);
    EXPECT_EQ(res.lines[1], "fig5: work FAIL (cell 2 has no \"work\")");
}

TEST(PerfGate, WorkOfOtherCellsOrChannelsIsSkippedNeverPassed)
{
    // Another channel count, then another cell set (cell 2 alone): the
    // counts are not compared, and with no work check left the gate
    // refuses to pass.
    Json measured = workMeasured(workCounts(10, 3), workCounts(20, 4));
    measured["channels"] = 4;
    PerfGateResult res = perfGate(workGolden(), measured);
    EXPECT_FALSE(res.pass);
    ASSERT_EQ(res.lines.size(), 3u);
    EXPECT_EQ(res.lines[1], "fig5: work skipped (golden cells [1,2] at 1 "
                            "channel(s); measured 2 of 3 cells at 4)");
    EXPECT_EQ(res.lines[2], "no golden work counts apply to the measured "
                            "cells and channels");
    // An experiment's own channel count (merged invocations) wins.
    measured["experiments"]["fig5"]["channels"] = 1;
    EXPECT_TRUE(perfGate(workGolden(), measured).pass);
    measured["channels"] = 1;
    measured["experiments"]["fig5"]["channels"] = 4;
    EXPECT_FALSE(perfGate(workGolden(), measured).pass);

    measured = workMeasured(workCounts(10, 3), workCounts(20, 4));
    Json cells = Json::object();
    cells["2"] = measured["experiments"]["fig5"]["cells"]["2"];
    measured["experiments"]["fig5"]["cells"] = std::move(cells);
    res = perfGate(workGolden(), measured);
    EXPECT_FALSE(res.pass);
    ASSERT_EQ(res.lines.size(), 3u);
    EXPECT_EQ(res.lines[1].rfind("fig5: work skipped", 0), 0u)
        << res.lines[1];

    // The whole grid, when the golden asks for "all".
    Json golden = workGolden("all");
    measured = workMeasured(workCounts(10, 3), workCounts(20, 4));
    EXPECT_FALSE(perfGate(golden, measured).pass);
    measured["experiments"]["fig5"]["cell_total"] = 2;
    EXPECT_TRUE(perfGate(golden, measured).pass);
}

/**
 * `measured` with `name` merged in from another invocation, at `scale`
 * (each experiment entry records its own), as one 2-second experiment.
 */
void
mergeExperiment(Json &measured, const char *name, double scale,
                double sim_cycles)
{
    Json m = Json::object();
    m["wall_s"] = 2.0;
    m["sim_cycles"] = sim_cycles;
    m["scale"] = scale;
    measured["experiments"][name] = std::move(m);
}

TEST(PerfGate, MergedRunsAreGatedAtEachExperimentsOwnScale)
{
    // fig5 at scale 4, then secsweep at scale 1 into one --out directory:
    // the file's scale is the last invocation's (1), and each experiment
    // entry its own, so both entries apply, fig5's work included.
    Json golden = workGolden();
    golden["entries"].push(
        perfGolden({{"secsweep", 1.0, 1000.0}})["entries"].at(0));
    Json measured = workMeasured(workCounts(10, 3), workCounts(20, 4));
    measured["experiments"]["fig5"]["scale"] = 4.0;
    measured["scale"] = 1.0;
    mergeExperiment(measured, "secsweep", 1.0, 1e9);
    PerfGateResult res = perfGate(golden, measured);
    EXPECT_TRUE(res.pass);
    ASSERT_EQ(res.lines.size(), 3u);
    EXPECT_EQ(res.lines[0].rfind("fig5: ok", 0), 0u) << res.lines[0];
    EXPECT_EQ(res.lines[1], "fig5: work ok (2 counts equal)");
    EXPECT_EQ(res.lines[2].rfind("secsweep: ok", 0), 0u) << res.lines[2];

    // So a merged fig5 whose work moved fails, as it would alone.
    measured["experiments"]["fig5"]["cells"]["2"]["work"] =
        workCounts(20, 5);
    res = perfGate(golden, measured);
    EXPECT_FALSE(res.pass);
    EXPECT_EQ(res.lines[1], "fig5: work FAIL (act_queries 8, golden 7)");
}

TEST(PerfGate, AnExperimentRunAtAnotherScaleIsStillSkipped)
{
    // fig4 at scale 4 (the file's), fig5 merged in from a scale-1 run.
    Json golden = perfGolden({{"fig4", 4.0, 1000.0}, {"fig5", 4.0, 1000.0}});
    Json measured = perfMeasured(4.0, "fig4", 1000.0);
    mergeExperiment(measured, "fig5", 1.0, 1e9);
    PerfGateResult res = perfGate(golden, measured);
    EXPECT_TRUE(res.pass);
    ASSERT_EQ(res.lines.size(), 2u);
    EXPECT_EQ(res.lines[0].rfind("fig4: ok", 0), 0u) << res.lines[0];
    EXPECT_EQ(res.lines[1], "fig5: skipped (golden scale 4, measured 1)");

    // With no entry at its own scale, a merged file refuses to pass.
    measured["experiments"]["fig4"]["scale"] = 1.0;
    res = perfGate(golden, measured);
    EXPECT_FALSE(res.pass);
    EXPECT_EQ(res.lines[0], "fig4: skipped (golden scale 4, measured 1)");
}

} // namespace
} // namespace bh
