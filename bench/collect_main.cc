/**
 * @file
 * bh_collect: the result-aggregation CLI for sharded bh_bench runs.
 *
 *   bh_collect merge [-o FILE] SHARD.json...   recombine shard outputs
 *   bh_collect diff  [tolerances] A.json B.json  structural golden diff
 *
 * `merge` validates every input's run manifest (grid fingerprint, shard
 * ownership, per-cell digests), checks that overlapping cells are
 * byte-identical across shards/machines, and — once the cell grid is
 * fully covered — replays the experiment's aggregation over the merged
 * payloads through the bench registry. The reconstructed report is
 * byte-identical to what an unsharded `bh_bench` run writes.
 *
 * `diff` compares two reports structurally with per-field numeric
 * tolerance; CI uses it to gate merged outputs against checked-in
 * golden JSON.
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <chrono>
#include <map>

#include "bench/registry.hh"
#include "common/fsio.hh"
#include "report/perf.hh"
#include "report/report.hh"

namespace
{

void
usage(std::FILE *out)
{
    std::fprintf(out,
        "usage: bh_collect merge [options] BENCH_*.json...\n"
        "       bh_collect diff [options] A.json B.json\n"
        "       bh_collect status [options] PATH...\n"
        "       bh_collect perfgate [options] GOLDEN.json BENCH_perf.json\n"
        "       bh_collect pareto [options] BENCH_*.json...\n"
        "\n"
        "merge: validate and combine N sharded bh_bench outputs of one\n"
        "experiment into a report byte-identical to an unsharded run.\n"
        "Overlapping cells must match byte-for-byte; edited cells fail\n"
        "their manifest digest; missing cells abort the merge.\n"
        "\n"
        "  -o, --out FILE   output path (default: BENCH_<experiment>.json)\n"
        "\n"
        "diff: structural comparison with numeric tolerance; exits 0 when\n"
        "the documents agree, 1 when they differ, 2 on usage/IO errors.\n"
        "\n"
        "  --abs-tol X      absolute tolerance for numeric fields\n"
        "  --rel-tol X      relative tolerance for numeric fields\n"
        "  --ignore PATH    skip a dotted subtree (repeatable), e.g.\n"
        "                   --ignore manifest.cell_digests\n"
        "\n"
        "status: scan files and directory trees for BENCH_*.json shard\n"
        "outputs and report, per experiment grid, which shards exist and\n"
        "which sweep cells are still missing — with per-shard elapsed\n"
        "time (from sibling BENCH_perf.json self-profiles) and an\n"
        "estimate of the remaining shard work. Exits 0 when every grid\n"
        "is fully covered, 1 when cells are missing, 2 on IO errors.\n"
        "\n"
        "  --stale-after SECS   flag shards of incomplete grids whose\n"
        "                       file has not changed for SECS seconds\n"
        "                       (default 3600; 0 disables)\n"
        "\n"
        "perfgate: gate a BENCH_perf.json self-profile against a golden\n"
        "of reference simulation rates (cycles/second). Exits 0 when\n"
        "every applicable entry is within its tolerance band, 1 on a\n"
        "perf regression, 2 on usage/IO errors.\n"
        "\n"
        "  --min-ratio R        override every entry's min_ratio: fail\n"
        "                       below R x the golden rate\n"
        "\n"
        "pareto: join one BENCH_fig5.json, BENCH_table4.json, and\n"
        "BENCH_secsweep.json (any order; identified by their manifests)\n"
        "into one per-mechanism slowdown x area x security-margin table\n"
        "(BENCH_pareto.json) and mark the Pareto-efficient mechanisms.\n"
        "Exits 0 on success, 2 on missing/mismatched inputs.\n"
        "\n"
        "  -o, --out FILE   output path (default: BENCH_pareto.json)\n");
}

int
cmdMerge(const std::vector<std::string> &args)
{
    using namespace bh;

    std::string out_path;
    std::vector<std::string> files;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "-o" || arg == "--out") {
            if (++i >= args.size()) {
                std::fprintf(stderr, "bh_collect: %s needs a value\n",
                             arg.c_str());
                return 2;
            }
            out_path = args[i];
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "bh_collect merge: unknown option %s\n",
                         arg.c_str());
            return 2;
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty()) {
        std::fprintf(stderr, "bh_collect merge: no input files\n");
        return 2;
    }

    std::vector<LoadedReport> inputs;
    std::string err;
    for (const std::string &file : files) {
        LoadedReport report;
        if (!loadReportFile(file, report, err)) {
            std::fprintf(stderr, "bh_collect: %s\n", err.c_str());
            return 2;
        }
        inputs.push_back(std::move(report));
    }

    MergeResult merge;
    if (!mergeReports(inputs, merge, err)) {
        std::fprintf(stderr, "bh_collect: merge failed: %s\n", err.c_str());
        return 1;
    }

    Json final_doc;
    if (merge.needsReplay) {
        const BenchInfo *info = findBench(merge.manifest.experiment);
        if (!info) {
            std::fprintf(stderr,
                         "bh_collect: unknown experiment '%s' (shards from "
                         "a newer binary?)\n",
                         merge.manifest.experiment.c_str());
            return 1;
        }
        // No cell simulates during a replay, so a single-worker pool
        // suffices for both passes below.
        Runner runner(1);

        // Enumerate this binary's cell grid first: if it diverged from
        // the grid that produced the shards, fail with the fingerprint
        // diagnostic instead of dying mid-replay on a missing cell.
        {
            BenchContext probe;
            probe.scale = merge.manifest.scale;
            probe.channels = merge.manifest.channels;
            probe.attackFilter = merge.manifest.attackFilter;
            probe.runner = &runner;
            probe.mode = BenchContext::CellMode::Enumerate;
            runBench(*info, probe);
            const Json *fp = probe.result["manifest"].find("fingerprint");
            if (!fp || fp->asString() != merge.manifest.fingerprint) {
                std::fprintf(stderr,
                             "bh_collect: this binary's grid fingerprint %s "
                             "does not match the shards' %s — its cell grid "
                             "diverged from the one that produced the "
                             "shards\n",
                             fp ? fp->asString().c_str() : "(none)",
                             merge.manifest.fingerprint.c_str());
                return 1;
            }
        }

        // Replay the experiment's aggregation over the merged payloads.
        BenchContext ctx;
        ctx.scale = merge.manifest.scale;
        ctx.channels = merge.manifest.channels;
        ctx.attackFilter = merge.manifest.attackFilter;
        ctx.runner = &runner;
        ctx.mode = BenchContext::CellMode::Replay;
        ctx.replayCells = &merge.cells;
        runBench(*info, ctx);
        final_doc = std::move(ctx.result);
    } else {
        final_doc = std::move(merge.merged);
    }

    if (out_path.empty())
        out_path = "BENCH_" + merge.manifest.experiment + ".json";
    std::string write_err;
    if (!atomicWriteFile(out_path, final_doc.dump(2) + "\n", write_err)) {
        std::fprintf(stderr, "bh_collect: %s\n", write_err.c_str());
        return 2;
    }
    std::printf("bh_collect: merged %zu input(s), %llu cell(s) -> %s%s\n",
                inputs.size(),
                static_cast<unsigned long long>(merge.manifest.cellTotal),
                out_path.c_str(),
                merge.needsReplay ? " (aggregation replayed)" : "");
    return 0;
}

int
cmdStatus(const std::vector<std::string> &args)
{
    using namespace bh;
    namespace fs = std::filesystem;

    double stale_after = 3600.0;

    // Expand directory arguments into the BENCH_*.json files they hold.
    // Quarantined files (*.corrupt, left by bh_farm when a committed
    // result was torn/mangled) are counted, not loaded.
    std::vector<std::string> files;
    std::uint64_t quarantined = 0;
    for (std::size_t ai = 0; ai < args.size(); ++ai) {
        const std::string &arg = args[ai];
        if (arg == "--stale-after") {
            if (++ai >= args.size()) {
                std::fprintf(stderr,
                             "bh_collect: --stale-after needs a value\n");
                return 2;
            }
            stale_after = std::atof(args[ai].c_str());
            continue;
        }
        if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "bh_collect status: unknown option %s\n",
                         arg.c_str());
            return 2;
        }
        std::error_code ec;
        if (fs::is_directory(arg, ec)) {
            // Non-throwing iteration: an unreadable subtree is an IO
            // error (exit 2), never a crash or a silently shorter scan —
            // under-reporting is the one failure a coverage tool must
            // not have.
            auto it = fs::recursive_directory_iterator(arg, ec);
            for (; !ec && it != fs::recursive_directory_iterator();
                 it.increment(ec)) {
                std::error_code type_ec;
                if (!it->is_regular_file(type_ec) || type_ec)
                    continue;
                std::string name = it->path().filename().string();
                if (name.rfind("BENCH_", 0) != 0)
                    continue;
                if (name.find(".corrupt") != std::string::npos) {
                    ++quarantined;
                    continue;
                }
                // BENCH_perf.json self-profiles are not shard reports;
                // they are read separately for per-shard elapsed time.
                if (name.size() > 5 &&
                    name.compare(name.size() - 5, 5, ".json") == 0 &&
                    name != "BENCH_perf.json")
                    files.push_back(it->path().string());
            }
            if (ec) {
                std::fprintf(stderr,
                             "bh_collect status: error scanning %s: %s\n",
                             arg.c_str(), ec.message().c_str());
                return 2;
            }
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty()) {
        std::fprintf(stderr,
                     "bh_collect status: no BENCH_*.json inputs found\n");
        return 2;
    }
    std::sort(files.begin(), files.end());

    // A corrupt shard file must not hide the status of the healthy ones:
    // count and report it (its cells show up as missing) instead of
    // aborting the whole scan the way merge rightly does.
    std::vector<LoadedReport> inputs;
    std::uint64_t corrupt = 0;
    std::string err;
    for (const std::string &file : files) {
        LoadedReport report;
        if (!loadReportFile(file, report, err)) {
            std::fprintf(stderr,
                         "bh_collect: corrupt input skipped: %s\n",
                         err.c_str());
            ++corrupt;
            continue;
        }
        inputs.push_back(std::move(report));
    }
    if (inputs.empty()) {
        std::fprintf(stderr,
                     "bh_collect status: no loadable BENCH_*.json inputs\n");
        return 2;
    }

    // Per-shard elapsed time comes from the BENCH_perf.json self-profile
    // bh_bench writes next to its reports; parse each directory's at
    // most once.
    std::map<std::string, Json> perf_by_dir;
    auto shardElapsed = [&](const std::string &report_path,
                            const std::string &experiment) -> double {
        std::string dir = fs::path(report_path).parent_path().string();
        auto it = perf_by_dir.find(dir);
        if (it == perf_by_dir.end()) {
            Json doc;
            std::ifstream f(dir.empty() ? "BENCH_perf.json"
                                        : dir + "/BENCH_perf.json",
                            std::ios::binary);
            if (f) {
                std::ostringstream text;
                text << f.rdbuf();
                Json::parse(text.str(), doc);
            }
            it = perf_by_dir.emplace(dir, std::move(doc)).first;
        }
        const Json *exps = it->second.find("experiments");
        const Json *e = exps ? exps->find(experiment) : nullptr;
        const Json *wall = e ? e->find("wall_s") : nullptr;
        return wall ? wall->asDouble() : -1.0;
    };

    std::map<std::string, const LoadedReport *> by_path;
    for (const LoadedReport &report : inputs)
        by_path[report.path] = &report;

    bool all_complete = true;
    std::printf("%-14s %8s %10s %12s  %s\n", "experiment", "scale",
                "shards", "cells", "status");
    for (const GridStatus &g : gridStatus(inputs)) {
        std::string shard_list;
        for (const std::string &s : g.shards)
            shard_list += (shard_list.empty() ? "" : ",") + s;
        std::printf("%-14s %8s %10s %6llu/%-5llu  %s\n",
                    g.experiment.c_str(),
                    Json::formatDouble(g.scale).c_str(),
                    shard_list.c_str(),
                    static_cast<unsigned long long>(g.cellsCovered),
                    static_cast<unsigned long long>(g.cellTotal),
                    g.complete() ? "complete" : "INCOMPLETE");

        // Per-shard detail: elapsed simulation time and, for incomplete
        // grids, how long the shard file has sat unchanged (a crashed or
        // wedged shard run never finishes its file).
        double elapsed_total = 0.0;
        for (const std::string &path : g.paths) {
            const LoadedReport *report = by_path[path];
            double elapsed = shardElapsed(path, g.experiment);
            if (elapsed > 0.0)
                elapsed_total += elapsed;
            std::string stale;
            if (!g.complete() && stale_after > 0.0) {
                std::error_code ec;
                auto mtime = fs::last_write_time(path, ec);
                if (!ec) {
                    double age = std::chrono::duration<double>(
                        decltype(mtime)::clock::now() - mtime).count();
                    if (age > stale_after)
                        stale = strfmt("  STALE (unchanged %.0f s)", age);
                }
            }
            std::printf("  shard %u/%-4u %-40s elapsed %s%s\n",
                        report ? report->manifest.shardIndex : 0,
                        report ? report->manifest.shardCount : 0,
                        path.c_str(),
                        elapsed >= 0.0 ? strfmt("%.2f s", elapsed).c_str()
                                       : "n/a",
                        stale.c_str());
        }
        if (!g.complete()) {
            all_complete = false;
            std::string missing;
            for (std::uint64_t c : g.missingCells)
                missing += (missing.empty() ? "" : " ") + std::to_string(c);
            bool truncated = g.missingCells.size() ==
                GridStatus::kMaxListedMissing &&
                g.cellsCovered + g.missingCells.size() < g.cellTotal;
            std::printf("  missing cells: %s%s\n", missing.c_str(),
                        truncated ? " ..." : "");
            // Completion estimate from the covered cells' rate: crude
            // (cells vary in cost) but enough to size a rerun.
            if (g.cellsCovered > 0 && elapsed_total > 0.0)
                std::printf("  estimated remaining: ~%.1f s of shard work "
                            "(%llu cells at %.2f s/cell)\n",
                            elapsed_total *
                                static_cast<double>(g.cellTotal -
                                                    g.cellsCovered) /
                                static_cast<double>(g.cellsCovered),
                            static_cast<unsigned long long>(
                                g.cellTotal - g.cellsCovered),
                            elapsed_total /
                                static_cast<double>(g.cellsCovered));
        }
    }
    if (corrupt > 0 || quarantined > 0)
        std::printf("corrupt inputs: %llu skipped this scan, %llu "
                    "quarantined earlier (*.corrupt)\n",
                    static_cast<unsigned long long>(corrupt),
                    static_cast<unsigned long long>(quarantined));
    return all_complete ? 0 : 1;
}

int
cmdPerfGate(const std::vector<std::string> &args)
{
    using namespace bh;

    double min_ratio = 0.0;
    std::vector<std::string> files;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--min-ratio") {
            if (++i >= args.size()) {
                std::fprintf(stderr,
                             "bh_collect: --min-ratio needs a value\n");
                return 2;
            }
            min_ratio = std::atof(args[i].c_str());
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "bh_collect perfgate: unknown option %s\n",
                         arg.c_str());
            return 2;
        } else {
            files.push_back(arg);
        }
    }
    if (files.size() != 2) {
        std::fprintf(stderr, "bh_collect perfgate: GOLDEN.json and "
                     "BENCH_perf.json required\n");
        return 2;
    }

    Json docs[2];
    for (int i = 0; i < 2; ++i) {
        std::ifstream f(files[i], std::ios::binary);
        if (!f) {
            std::fprintf(stderr, "bh_collect: cannot open %s\n",
                         files[i].c_str());
            return 2;
        }
        std::ostringstream text;
        text << f.rdbuf();
        std::string err;
        if (!Json::parse(text.str(), docs[i], &err)) {
            std::fprintf(stderr, "bh_collect: %s: JSON parse error: %s\n",
                         files[i].c_str(), err.c_str());
            return 2;
        }
    }

    PerfGateResult gate = perfGate(docs[0], docs[1], min_ratio);
    for (const std::string &line : gate.lines)
        std::printf("%s\n", line.c_str());
    std::printf("bh_collect: perfgate %s\n", gate.pass ? "passed" : "FAILED");
    return gate.pass ? 0 : 1;
}

/**
 * Join fig5 (performance under attack), table4 (area), and secsweep
 * (security margin) into one per-mechanism Pareto table. The three
 * views exist in separate reports because they come from separate
 * grids; the joined table is what a mechanism-selection decision
 * actually reads.
 */
int
cmdPareto(const std::vector<std::string> &args)
{
    using namespace bh;

    std::string out_path = "BENCH_pareto.json";
    std::vector<std::string> files;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "-o" || arg == "--out") {
            if (++i >= args.size()) {
                std::fprintf(stderr, "bh_collect: %s needs a value\n",
                             arg.c_str());
                return 2;
            }
            out_path = args[i];
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "bh_collect pareto: unknown option %s\n",
                         arg.c_str());
            return 2;
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty()) {
        std::fprintf(stderr, "bh_collect pareto: no input files\n");
        return 2;
    }

    // Identify the three source reports by their manifests, any order.
    std::map<std::string, Json> docs;
    std::map<std::string, std::string> paths;
    for (const std::string &file : files) {
        std::ifstream f(file, std::ios::binary);
        if (!f) {
            std::fprintf(stderr, "bh_collect: cannot open %s\n",
                         file.c_str());
            return 2;
        }
        std::ostringstream text;
        text << f.rdbuf();
        Json doc;
        std::string err;
        if (!Json::parse(text.str(), doc, &err)) {
            std::fprintf(stderr, "bh_collect: %s: JSON parse error: %s\n",
                         file.c_str(), err.c_str());
            return 2;
        }
        const Json *manifest = doc.find("manifest");
        const Json *exp = manifest ? manifest->find("experiment") : nullptr;
        if (!exp) {
            std::fprintf(stderr,
                         "bh_collect: %s carries no run manifest\n",
                         file.c_str());
            return 2;
        }
        std::string name = exp->asString();
        if (docs.count(name)) {
            std::fprintf(stderr,
                         "bh_collect pareto: duplicate %s report (%s, %s)\n",
                         name.c_str(), paths[name].c_str(), file.c_str());
            return 2;
        }
        paths[name] = file;
        docs[name] = std::move(doc);
    }
    for (const char *need : {"fig5", "table4", "secsweep"}) {
        if (!docs.count(need)) {
            std::fprintf(stderr,
                         "bh_collect pareto: missing a BENCH_%s.json input "
                         "(got %zu file(s))\n",
                         need, files.size());
            return 2;
        }
    }

    const Json &fig5 = docs["fig5"];
    const Json &table4 = docs["table4"];
    const Json &secsweep = docs["secsweep"];

    // The secsweep mechanism list is the factory-derived coverage set
    // (Baseline first); the join is driven by it so a mechanism missing
    // from one of the other reports is visible, not dropped.
    const Json *mech_list = secsweep.find("mechanisms");
    if (!mech_list || mech_list->size() == 0) {
        std::fprintf(stderr,
                     "bh_collect pareto: secsweep report lists no "
                     "mechanisms\n");
        return 2;
    }

    struct Point
    {
        std::string mech;
        double slowdown = 1.0;      ///< 1 / normalized WS under attack
        double area = 0.0;          ///< mm^2 at N_RH = 1K
        double margin = 0.0;        ///< worst secsweep margin
        bool hasArea = true;
        bool onFront = false;
    };
    std::vector<Point> points;

    Json mechanisms = Json::object();
    for (std::size_t i = 0; i < mech_list->size(); ++i) {
        const std::string mech = mech_list->at(i).asString();
        Point p;
        p.mech = mech;

        Json row = Json::object();
        const Json *attack = fig5.find("attack");
        const Json *perf = attack ? attack->find(mech) : nullptr;
        double ws = 1.0, ms = 1.0;
        if (perf) {
            const Json *v = perf->find("weighted_speedup");
            ws = v ? v->asDouble() : 1.0;
            v = perf->find("max_slowdown");
            ms = v ? v->asDouble() : 1.0;
        }
        // Baseline (the fig5 normalizer) has no row: it is 1.0 by
        // definition, which the defaults above already encode.
        p.slowdown = ws > 0.0 ? 1.0 / ws : 0.0;
        row["norm_ws_attack"] = ws;
        row["max_slowdown_attack"] = ms;
        row["slowdown"] = p.slowdown;

        const Json *nrh1k = table4.find("nrh_1k");
        const Json *cost = nrh1k ? nrh1k->find(mech) : nullptr;
        if (cost && !cost->isNull()) {
            const Json *v = cost->find("area_mm2");
            p.area = v ? v->asDouble() : 0.0;
            row["area_mm2"] = p.area;
            const Json *pct = cost->find("cpu_area_pct");
            row["cpu_area_pct"] = pct ? pct->asDouble() : 0.0;
        } else if (mech == "Baseline") {
            row["area_mm2"] = 0.0;
            row["cpu_area_pct"] = 0.0;
        } else {
            // Known design-point gap (PRoHIT/MRLoc at N_RH = 1K).
            p.hasArea = false;
            row["area_mm2"] = Json();
            row["cpu_area_pct"] = Json();
        }

        const Json *worst = secsweep.find("worst");
        const Json *sec = worst ? worst->find(mech) : nullptr;
        if (!sec) {
            std::fprintf(stderr,
                         "bh_collect pareto: secsweep has no worst-margin "
                         "entry for %s\n",
                         mech.c_str());
            return 2;
        }
        const Json *v = sec->find("margin");
        p.margin = v ? v->asDouble() : 0.0;
        row["worst_margin"] = p.margin;
        v = sec->find("bit_flips");
        row["bit_flips"] = v ? v->asInt() : 0;
        row["act_bound_held"] = p.margin < 1.0;

        mechanisms[mech] = std::move(row);
        points.push_back(std::move(p));
    }

    // Pareto efficiency over (slowdown, area, margin), all minimized.
    // Mechanisms without a configurable area at this threshold cannot
    // be placed and never make the front.
    for (Point &a : points) {
        if (!a.hasArea)
            continue;
        bool dominated = false;
        for (const Point &b : points) {
            if (&a == &b || !b.hasArea)
                continue;
            bool no_worse = b.slowdown <= a.slowdown && b.area <= a.area &&
                b.margin <= a.margin;
            bool better = b.slowdown < a.slowdown || b.area < a.area ||
                b.margin < a.margin;
            if (no_worse && better) {
                dominated = true;
                break;
            }
        }
        a.onFront = !dominated;
    }

    std::printf("--- mechanism Pareto view: slowdown x area x security "
                "margin ---\n");
    TextTable t({"mechanism", "norm WS (attack)", "area mm^2 (1K)",
                 "worst margin", "ACT bound", "Pareto"});
    Json front = Json::array();
    for (const Point &p : points) {
        Json &row = mechanisms[p.mech];
        row["on_front"] = p.onFront;
        if (p.onFront)
            front.push(p.mech);
        t.addRow({p.mech,
                  TextTable::num(ratio(1.0, p.slowdown), 3),
                  p.hasArea ? TextTable::num(p.area, 3) : "x",
                  TextTable::num(p.margin, 3) +
                      (p.margin >= 1.0 ? "!" : ""),
                  p.margin < 1.0 ? "HELD" : "violated",
                  p.onFront ? "front" : "-"});
    }
    std::printf("%s\n", t.render().c_str());

    Json out = Json::object();
    out["experiment"] = std::string("pareto");
    Json sources = Json::object();
    for (const auto &kv : paths)
        sources[kv.first] = kv.second;
    out["sources"] = std::move(sources);
    out["mechanisms"] = std::move(mechanisms);
    out["front"] = std::move(front);

    std::string write_err;
    if (!atomicWriteFile(out_path, out.dump(2) + "\n", write_err)) {
        std::fprintf(stderr, "bh_collect: %s\n", write_err.c_str());
        return 2;
    }
    std::printf("bh_collect: pareto join of %zu mechanism(s) -> %s\n",
                points.size(), out_path.c_str());
    return 0;
}

int
cmdDiff(const std::vector<std::string> &args)
{
    using namespace bh;

    DiffOptions opts;
    std::vector<std::string> files;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&]() -> const char * {
            if (++i >= args.size()) {
                std::fprintf(stderr, "bh_collect: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return args[i].c_str();
        };
        if (arg == "--abs-tol") {
            opts.absTol = std::atof(value());
        } else if (arg == "--rel-tol") {
            opts.relTol = std::atof(value());
        } else if (arg == "--ignore") {
            opts.ignorePaths.push_back(value());
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "bh_collect diff: unknown option %s\n",
                         arg.c_str());
            return 2;
        } else {
            files.push_back(arg);
        }
    }
    if (files.size() != 2) {
        std::fprintf(stderr, "bh_collect diff: exactly two files required\n");
        return 2;
    }

    Json docs[2];
    for (int i = 0; i < 2; ++i) {
        std::ifstream f(files[i], std::ios::binary);
        if (!f) {
            std::fprintf(stderr, "bh_collect: cannot open %s\n",
                         files[i].c_str());
            return 2;
        }
        std::ostringstream text;
        text << f.rdbuf();
        std::string err;
        if (!Json::parse(text.str(), docs[i], &err)) {
            std::fprintf(stderr, "bh_collect: %s: JSON parse error: %s\n",
                         files[i].c_str(), err.c_str());
            return 2;
        }
    }

    std::vector<std::string> diffs = structuralDiff(docs[0], docs[1], opts);
    for (const std::string &line : diffs)
        std::printf("%s\n", line.c_str());
    if (diffs.empty()) {
        std::printf("bh_collect: %s and %s agree within tolerance\n",
                    files[0].c_str(), files[1].c_str());
        return 0;
    }
    std::printf("bh_collect: %zu difference(s)\n", diffs.size());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(stderr);
        return 2;
    }
    std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (cmd == "--help" || cmd == "-h") {
        usage(stdout);
        return 0;
    }
    if (cmd == "merge")
        return cmdMerge(args);
    if (cmd == "diff")
        return cmdDiff(args);
    if (cmd == "status")
        return cmdStatus(args);
    if (cmd == "perfgate")
        return cmdPerfGate(args);
    if (cmd == "pareto")
        return cmdPareto(args);
    std::fprintf(stderr, "bh_collect: unknown command '%s'\n", cmd.c_str());
    usage(stderr);
    return 2;
}
