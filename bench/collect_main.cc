/**
 * @file
 * bh_collect: post-run tools over BENCH_*.json reports.
 *
 *   bh_collect diff     [tolerances] A.json B.json  structural golden diff
 *   bh_collect perfgate GOLDEN.json BENCH_perf.json wall-clock band gate
 *   bh_collect pareto   BENCH_*.json...             mechanism Pareto join
 *
 * `diff` compares two reports structurally with per-field numeric
 * tolerance; CI uses it to gate outputs against checked-in golden JSON.
 * None of the commands simulates or needs the experiment registry.
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/fsio.hh"
#include "common/table.hh"
#include "report/perf.hh"
#include "report/report.hh"

namespace
{

void
usage(std::FILE *out)
{
    std::fprintf(out,
        "usage: bh_collect diff [options] A.json B.json\n"
        "       bh_collect perfgate [options] GOLDEN.json BENCH_perf.json\n"
        "       bh_collect pareto [options] BENCH_*.json...\n"
        "\n"
        "diff: structural comparison with numeric tolerance; exits 0 when\n"
        "the documents agree, 1 when they differ, 2 on usage/IO errors.\n"
        "\n"
        "  --abs-tol X      absolute tolerance for numeric fields (X >= 0)\n"
        "  --rel-tol X      relative tolerance for numeric fields (X >= 0)\n"
        "  --ignore PATH    skip a dotted subtree (repeatable), e.g.\n"
        "                   --ignore manifest.cell_digests\n"
        "\n"
        "perfgate: gate a BENCH_perf.json self-profile against a golden\n"
        "of reference simulation rates (cycles/second). Exits 0 when\n"
        "every applicable entry is within its tolerance band, 1 on a\n"
        "perf regression, 2 on usage/IO errors.\n"
        "\n"
        "  --min-ratio R        override every entry's min_ratio: fail\n"
        "                       below R x the golden rate (R > 0)\n"
        "\n"
        "pareto: join one BENCH_fig5.json, BENCH_table4.json, and\n"
        "BENCH_secsweep.json (any order; identified by their manifests)\n"
        "into one per-mechanism slowdown x area x security-margin table\n"
        "(BENCH_pareto.json) and mark the Pareto-efficient mechanisms.\n"
        "Exits 0 on success, 2 on missing/mismatched inputs.\n"
        "\n"
        "  -o, --out FILE   output path (default: BENCH_pareto.json)\n");
}

/**
 * Read and parse one JSON input. On failure prints the diagnostic and
 * returns false; every command then exits 2.
 */
bool
loadJson(const std::string &path, bh::Json &doc)
{
    std::string text, err;
    if (!bh::readFile(path, text, err)) {
        std::fprintf(stderr, "bh_collect: cannot open %s\n", path.c_str());
        return false;
    }
    if (!bh::Json::parse(text, doc, &err)) {
        std::fprintf(stderr, "bh_collect: %s: JSON parse error: %s\n",
                     path.c_str(), err.c_str());
        return false;
    }
    return true;
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
            min_ratio = parseFlagNumber(arg, args[i], false);
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
    for (int i = 0; i < 2; ++i)
        if (!loadJson(files[i], docs[i]))
            return 2;

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
        Json doc;
        if (!loadJson(file, doc))
            return 2;
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
        double norm_ws = p.slowdown != 0.0 ? 1.0 / p.slowdown : 0.0;
        t.addRow({p.mech,
                  TextTable::num(norm_ws, 3),
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
            opts.absTol = parseFlagNumber(arg, value(), true);
        } else if (arg == "--rel-tol") {
            opts.relTol = parseFlagNumber(arg, value(), true);
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
    for (int i = 0; i < 2; ++i)
        if (!loadJson(files[i], docs[i]))
            return 2;

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
    if (cmd == "diff")
        return cmdDiff(args);
    if (cmd == "perfgate")
        return cmdPerfGate(args);
    if (cmd == "pareto")
        return cmdPareto(args);
    std::fprintf(stderr, "bh_collect: unknown command '%s'\n", cmd.c_str());
    usage(stderr);
    return 2;
}
