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
 *    entries at another scale, refuses a vacuous pass, fails on a
 *    missing experiment and honors the min-ratio override;
 *  - bh_collect's numeric flags exit 2 on any malformed value.
 */

#include <gtest/gtest.h>

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
    for (const char *bad : {"", "x", "12x", "-1", "+3", " 4", "0/2"})
        EXPECT_EXIT(parseCellIndex(bad), testing::ExitedWithCode(1),
                    "--cell wants a global cell index");
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
                            "1e999"})
        EXPECT_EXIT(parseFlagNumber("--min-ratio", bad, false),
                    testing::ExitedWithCode(2),
                    std::string("--min-ratio .*got '") + bad + "'");
    for (const char *bad : {"-1e-9", "x", "", "1.5 "})
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

} // namespace
} // namespace bh
