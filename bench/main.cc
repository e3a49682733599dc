/**
 * @file
 * bh_bench: the registry-driven experiment driver. Runs any subset of
 * the reproduced paper artifacts, fanning each experiment's independent
 * sweep cells across a shared thread pool, and writes one machine-
 * readable BENCH_<name>.json per experiment next to the ASCII tables.
 *
 * Determinism: for fixed --scale, the JSON output is byte-identical at
 * any --jobs value (micro's wall-clock timings go to stdout only).
 *
 * Distribution: --cell N runs one sweep cell and writes a partial
 * report (manifest + its raw payload); bh_farm spreads a whole grid
 * over worker processes and merges it into a report byte-identical to
 * a plain run. Every output carries a run manifest with a grid
 * fingerprint and per-cell digests.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <ctime>

#include "bench/registry.hh"
#include "common/fsio.hh"
#include "common/trace_sink.hh"
#include "report/report.hh"
#include "sim/system.hh"
#include "workloads/fuzz_patterns.hh"

namespace
{

void
usage(std::FILE *out)
{
    std::fprintf(out,
        "usage: bh_bench [options] [experiment...]\n"
        "\n"
        "Runs the named experiments (default: all) and writes one\n"
        "BENCH_<name>.json per experiment.\n"
        "\n"
        "options:\n"
        "  --list        list experiments with their sweep-cell counts\n"
        "                at the current --scale, and exit\n"
        "  --jobs N      worker threads for sweep cells (default: all cores)\n"
        "  --scale X     fidelity multiplier >= 0.1 (default: BH_SCALE or 1)\n"
        "                scale > 1 also widens tREFW/N_RH toward paper\n"
        "                values: tREFW = min(scale, 64) ms (see DESIGN.md)\n"
        "  --fast        shorthand for --scale 0.1 (CI smoke runs)\n"
        "  --skip MODE   simulation time advance: on (event skipping,\n"
        "                default), off (cycle by cycle), or verify\n"
        "                (cycle by cycle, asserting every skip claim);\n"
        "                results are identical in all three modes\n"
        "  --channels N  DRAM channels per simulated system (power of\n"
        "                two, default 1); each channel gets its own\n"
        "                controller and mitigation instance\n"
        "  --attack NAME restrict attack-catalog experiments (secsweep)\n"
        "                to patterns whose name contains NAME; part of\n"
        "                the grid identity (a farm merges only cells of\n"
        "                the same filter). See --list for the catalog.\n"
        "  --cell N      run only global sweep cell N (see --list for the\n"
        "                counts) and write a partial report of its payload\n"
        "  --out DIR     directory for the JSON outputs (default: .)\n"
        "  --trace FILE[:FILTER]\n"
        "                write a Chrome trace_event JSON timeline of the\n"
        "                simulation to FILE (open in Perfetto / \n"
        "                chrome://tracing). FILTER is a comma-separated\n"
        "                list of category substrings (mem, queue, mitig,\n"
        "                lane, skip); default all. Observation only:\n"
        "                BENCH_*.json stays byte-identical with tracing\n"
        "                on, off, or filtered\n"
        "  --help        this message\n"
        "\n"
        "Every run also writes a BENCH_perf.json self-profile (wall-clock\n"
        "and simulated cycles per experiment/phase/cell, the process's\n"
        "peak RSS) next to the reports; see `bh_collect perfgate`.\n");
}

/** The process's peak resident set size, in MB (observation-only). */
double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bh;

    setVerbose(false);
    double scale = benchScale();
    unsigned jobs = 0;      // 0 = hardware concurrency
    std::string out_dir = ".";
    std::optional<std::uint64_t> only_cell;
    SkipMode skip = SkipMode::kEventSkip;
    unsigned channels = 1;
    std::string attack_filter;
    std::string trace_path;
    std::string trace_filter;
    bool list = false;
    std::vector<std::string> names;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("option %s needs a value", arg);
            return argv[++i];
        };
        if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
            usage(stdout);
            return 0;
        } else if (!std::strcmp(arg, "--list")) {
            list = true;
        } else if (!std::strcmp(arg, "--jobs") || !std::strcmp(arg, "-j")) {
            jobs = parseFlagCount(arg, value(), 0, 4096);
        } else if (!std::strcmp(arg, "--scale")) {
            scale = parseFlagReal(arg, value(), 0.1);
        } else if (!std::strcmp(arg, "--fast")) {
            scale = 0.1;
        } else if (!std::strcmp(arg, "--skip")) {
            const char *mode = value();
            if (!std::strcmp(mode, "on"))
                skip = SkipMode::kEventSkip;
            else if (!std::strcmp(mode, "off"))
                skip = SkipMode::kCycleByCycle;
            else if (!std::strcmp(mode, "verify"))
                skip = SkipMode::kVerify;
            else
                fatal("--skip wants on, off, or verify, got '%s'", mode);
        } else if (!std::strcmp(arg, "--channels")) {
            channels = parseFlagCount(arg, value(), 1, 64);
            if (!isPow2(channels))
                fatal("--channels must be a power of two in [1, 64], "
                      "got '%u'", channels);
        } else if (!std::strcmp(arg, "--attack")) {
            attack_filter = value();
        } else if (!std::strcmp(arg, "--cell")) {
            only_cell = parseCellIndex(value());
        } else if (!std::strcmp(arg, "--out")) {
            out_dir = value();
        } else if (!std::strcmp(arg, "--trace")) {
            trace_path = value();
            // FILE[:FILTER] — split on the last ':' so relative paths
            // with directories stay intact; an empty filter means all.
            std::size_t colon = trace_path.rfind(':');
            if (colon != std::string::npos) {
                trace_filter = trace_path.substr(colon + 1);
                trace_path = trace_path.substr(0, colon);
            }
            if (trace_path.empty())
                fatal("--trace needs a file path");
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "unknown option: %s\n", arg);
            usage(stderr);
            return 1;
        } else {
            names.push_back(arg);
        }
    }

    if (list) {
        // Enumerate the cell spaces without simulating anything, so the
        // counts guide the choice of N for --cell N.
        Runner runner(1);
        std::printf("%-14s %8s  %s\n", "experiment", "cells", "title");
        for (const auto &info : benchRegistry()) {
            BenchContext ctx;
            ctx.scale = scale;
            ctx.channels = channels;
            ctx.attackFilter = attack_filter;
            ctx.runner = &runner;
            ctx.mode = BenchContext::CellMode::Enumerate;
            runBench(info, ctx);
            std::printf("%-14s %8llu  %s\n", info.name,
                        static_cast<unsigned long long>(ctx.nextCell),
                        info.title);
            // Attack-catalog experiments label one cell phase per
            // pattern; name them so --attack filters are discoverable.
            for (const auto &phase : ctx.phases) {
                if (phase.label.rfind("pattern:", 0) != 0)
                    continue;
                const AttackPatternSpec *spec = findAttackPattern(
                    phase.label.substr(std::strlen("pattern:")));
                std::printf("  %-20s %4llu cells  %s\n",
                            phase.label.c_str(),
                            static_cast<unsigned long long>(phase.count),
                            spec ? spec->summary.c_str() : "");
            }
        }
        std::printf("\ncell counts are per experiment at scale %.2g; "
                    "0 = analytic (runs whole, even under --cell)\n", scale);
        std::printf("\nattack-pattern catalog (secsweep; filter with "
                    "--attack NAME):\n");
        for (const auto &spec : attackPatternCatalog())
            std::printf("  %-14s %-55s envelope: %s\n", spec.name.c_str(),
                        spec.summary.c_str(), spec.envelopeDescr().c_str());
        std::printf("\nfuzz search space (bh_bench fuzz explores patterns "
                    "beyond this catalog):\n  %s\n",
                    defaultFuzzSpace().describe().c_str());
        return 0;
    }

    std::vector<const BenchInfo *> selected;
    if (names.empty()) {
        for (const auto &info : benchRegistry())
            selected.push_back(&info);
    } else {
        for (const auto &name : names) {
            const BenchInfo *info = findBench(name);
            if (!info) {
                std::fprintf(stderr, "unknown experiment: %s "
                             "(see bh_bench --list)\n", name.c_str());
                return 1;
            }
            selected.push_back(info);
        }
    }

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec)
        fatal("cannot create output directory %s", out_dir.c_str());

    if (trace_path.size()) {
        std::string err;
        if (!TraceSink::open(trace_path, trace_filter, err))
            fatal("--trace: %s", err.c_str());
    }

    Runner runner(jobs);
    std::printf("bh_bench: %zu experiment(s), %u worker(s), scale %.2g",
                selected.size(), runner.jobs(), scale);
    if (channels > 1)
        std::printf(", %u channels", channels);
    if (only_cell)
        std::printf(", cell %llu only",
                    static_cast<unsigned long long>(*only_cell));
    if (trace_path.size())
        std::printf(", tracing to %s%s%s", trace_path.c_str(),
                    trace_filter.empty() ? "" : ", categories: ",
                    trace_filter.c_str());
    std::printf("\n\n");

    const std::int64_t started_unix =
        static_cast<std::int64_t>(std::time(nullptr));
    Json perf_experiments = Json::object();
    double total_s = 0.0;
    for (const BenchInfo *info : selected) {
        BenchContext ctx;
        ctx.scale = scale;
        ctx.channels = channels;
        ctx.attackFilter = attack_filter;
        ctx.runner = &runner;
        ctx.onlyCell = only_cell;
        ctx.skip = skip;

        auto t0 = std::chrono::steady_clock::now();
        std::uint64_t sim0 = simCyclesTotal();
        AloneCounts alone0 = aloneTotal();
        runBench(*info, ctx);
        AloneCounts alone = aloneTotal();
        alone.simCycles -= alone0.simCycles;
        alone.wallS -= alone0.wallS;
        std::uint64_t sim_cycles =
            simCyclesTotal() - sim0 - alone.simCycles;
        auto t1 = std::chrono::steady_clock::now();
        double secs = std::chrono::duration<double>(t1 - t0).count();
        total_s += secs;
        double own_s = secs - alone.wallS;

        // Self-profile entry (BENCH_perf.json): wall-clock and simulated
        // cycles per experiment, phase, and cell, the memoized Baseline
        // alone runs behind the metrics counted apart. Host-speed
        // readings live only in this sidecar — BENCH_<name>.json must
        // stay byte-identical across machines and job counts.
        Json pe = Json::object();
        pe["wall_s"] = own_s;
        pe["sim_cycles"] = static_cast<std::int64_t>(sim_cycles);
        pe["alone_wall_s"] = alone.wallS;
        pe["alone_sim_cycles"] = static_cast<std::int64_t>(alone.simCycles);
        pe["cycles_per_sec"] =
            own_s > 0.0 ? static_cast<double>(sim_cycles) / own_s : 0.0;
        pe["channels"] = static_cast<std::int64_t>(channels);
        pe["cells_run"] = static_cast<std::int64_t>(ctx.cellsRun);
        pe["cell_total"] = static_cast<std::int64_t>(ctx.nextCell);
        Json pe_phases = Json::array();
        for (const auto &phase : ctx.phases) {
            double wall = 0.0;
            std::uint64_t cyc = 0;
            auto lo = ctx.cellPerf.lower_bound(phase.firstCell);
            auto hi = ctx.cellPerf.lower_bound(phase.firstCell + phase.count);
            for (auto it2 = lo; it2 != hi; ++it2) {
                wall += it2->second.wallS;
                cyc += it2->second.simCycles;
            }
            Json p = Json::object();
            p["label"] = phase.label;
            p["cells"] = static_cast<std::int64_t>(phase.count);
            p["wall_s"] = wall;
            p["sim_cycles"] = static_cast<std::int64_t>(cyc);
            pe_phases.push(std::move(p));
        }
        pe["phases"] = std::move(pe_phases);
        Json pe_cells = Json::object();
        for (const auto &kv : ctx.cellPerf)
            pe_cells[std::to_string(kv.first)] = kv.second.toJson();
        pe["cells"] = std::move(pe_cells);
        perf_experiments[info->name] = std::move(pe);

        std::string path =
            out_dir + "/BENCH_" + std::string(info->name) + ".json";
        atomicWriteFileOrDie(path, ctx.result.dump(2) + "\n");
        if (only_cell)
            std::printf("[%s: ran %llu of %llu cells, %.2f s -> %s]\n\n",
                        info->name,
                        static_cast<unsigned long long>(ctx.cellsRun),
                        static_cast<unsigned long long>(ctx.nextCell),
                        secs, path.c_str());
        else
            std::printf("[%s: %.2f s -> %s]\n\n", info->name, secs,
                        path.c_str());
    }
    // Write the BENCH_perf.json self-profile sidecar. Merge-on-write:
    // a later invocation into the same --out directory (e.g. running
    // experiments one at a time) updates its own
    // experiments' entries and keeps the rest.
    {
        std::string perf_path = out_dir + "/BENCH_perf.json";
        Json perf = Json::object();
        std::ifstream existing(perf_path, std::ios::binary);
        if (existing) {
            std::ostringstream text;
            text << existing.rdbuf();
            Json prior;
            if (Json::parse(text.str(), prior) &&
                prior.type() == Json::Type::Object) {
                const Json *prev = prior.find("experiments");
                if (prev && prev->type() == Json::Type::Object) {
                    Json merged = Json::object();
                    for (const auto &kv : prev->objectItems())
                        merged[kv.first] = kv.second;
                    for (const auto &kv : perf_experiments.objectItems())
                        merged[kv.first] = kv.second;
                    perf_experiments = std::move(merged);
                }
            }
        }
        perf["format"] = kBenchFormatVersion;
        perf["scale"] = scale;
        perf["jobs"] = static_cast<std::int64_t>(runner.jobs());
        perf["channels"] = static_cast<std::int64_t>(channels);
        perf["started_unix"] = started_unix;
        perf["finished_unix"] =
            static_cast<std::int64_t>(std::time(nullptr));
        perf["total_wall_s"] = total_s;
        perf["peak_rss_mb"] = peakRssMb();
        perf["experiments"] = std::move(perf_experiments);
        atomicWriteFileOrDie(perf_path, perf.dump(2) + "\n");
    }

    if (trace_path.size()) {
        std::uint64_t events = TraceSink::eventsEmitted();
        TraceSink::close();
        std::printf("bh_bench: trace: %llu event(s) -> %s\n",
                    static_cast<unsigned long long>(events),
                    trace_path.c_str());
    }
    if (warnSuppressedCount() > 0)
        std::fprintf(stderr,
                     "bh_bench: %llu further warning(s) were suppressed\n",
                     static_cast<unsigned long long>(warnSuppressedCount()));
    std::printf("bh_bench: done, %.2f s total\n", total_s);
    return 0;
}
