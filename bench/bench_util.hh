/**
 * @file
 * Shared helpers for the registered bh_bench experiments.
 *
 * Every experiment reproduces one paper table/figure: it prints an ASCII
 * table to stdout and fills BenchContext::result with the same numbers in
 * machine-readable form (written as BENCH_<name>.json by the driver).
 *
 * Runs are time-compressed by default (see DESIGN.md): the context's
 * scale factor (CLI --scale, default from the BH_SCALE environment
 * variable) multiplies simulated cycles and workload counts for
 * higher-fidelity runs, e.g. `bh_bench --scale 4 fig5`.
 *
 * Sweep cells go through BenchContext::runCells, which assigns every
 * cell a global index in the experiment's deterministic cell space.
 * That one entry point supports distribution: `bh_bench --cell N` (and
 * every bh_farm lease) runs one cell and writes a partial report of its
 * raw payload, `bh_farm merge` replays an experiment's aggregation over
 * the collected payloads, and `--list` enumerates the cell space
 * without simulating anything.
 */

#ifndef BH_BENCH_BENCH_UTIL_HH
#define BH_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"

namespace bh
{

/** Default scale: the BH_SCALE env var (>= 0.1), 1.0 when unset. */
inline double
benchScale()
{
    const char *s = std::getenv("BH_SCALE");
    if (!s)
        return 1.0;
    double v = std::atof(s);
    return v >= 0.1 ? v : 1.0;
}

/**
 * Execution context handed to every registered experiment. Experiments
 * parallelize their independent sweep cells through `runner` and must
 * produce results that do not depend on the worker count (collect by
 * cell index, seed by cell index — see Runner's determinism contract).
 *
 * Experiment contract for partial runs (see runCells): declare every sweep
 * cell through runCells — cell payloads must be deterministic JSON
 * (wall-clock readings go to stdout only) and carry everything the
 * aggregation step reads — then gate all aggregation (ASCII tables and
 * ctx.result fields) behind `if (!ctx.aggregate()) return;`. Analytic
 * experiments with no simulation cells just place the gate at the top.
 */
struct BenchContext
{
    /** How runCells treats the declared cells. */
    enum class CellMode
    {
        Run,        ///< execute the cells (all, or just onlyCell)
        Enumerate,  ///< count cells only, execute nothing (--list)
        Replay      ///< take payloads from `replayCells` (bh_farm merge)
    };

    double scale = 1.0;         ///< fidelity multiplier (cycles, mix counts)
    Runner *runner = nullptr;   ///< shared pool; set by the driver
    SkipMode skip = SkipMode::kEventSkip;   ///< bh_bench --skip MODE
    unsigned channels = 1;      ///< DRAM channels per simulated system
    unsigned channelThreads = 1;    ///< lane workers per cell (no effect
                                    ///< on results, byte-identical)
    /**
     * Attack-pattern filter (bh_bench --attack NAME): experiments that
     * sweep the attack catalog (secsweep) keep only patterns whose name
     * contains this substring. Part of the grid identity: the manifest
     * records it and the fingerprint folds it in, so a farm never mixes
     * differently filtered cells.
     */
    std::string attackFilter;
    Json result = Json::object();   ///< machine-readable experiment output

    CellMode mode = CellMode::Run;
    const Json *replayCells = nullptr;  ///< payload source for Replay
    /**
     * Single-cell filter (bh_bench --cell N, one bh_farm lease): when
     * set, only this global cell index runs, and the partial output
     * holds just its payload.
     */
    std::optional<std::uint64_t> onlyCell;

    Json cells = Json::object();    ///< recorded payloads by global index
    std::uint64_t nextCell = 0;     ///< next unassigned global cell index
    std::uint64_t cellsRun = 0;     ///< payloads recorded in this run

    /** One runCells block, for the run manifest. */
    struct CellPhase
    {
        std::string label;
        std::uint64_t firstCell = 0;
        std::uint64_t count = 0;
    };
    std::vector<CellPhase> phases;

    /**
     * Self-profile of one executed cell: wall-clock spent in fn() and
     * simulated cycles covered (simCyclesThisThread delta). Filled by
     * runCells in Run mode only, keyed by global cell index; the driver
     * writes it as BENCH_perf.json — never into BENCH_<name>.json, whose
     * bytes must not depend on host speed.
     */
    struct CellPerf
    {
        double wallS = 0.0;
        std::uint64_t simCycles = 0;
    };
    std::map<std::uint64_t, CellPerf> cellPerf;

    /** Scale a count, keeping at least `floor` so sweeps never go empty. */
    unsigned
    scaled(unsigned base, unsigned floor = 1) const
    {
        return std::max(floor, static_cast<unsigned>(base * scale));
    }

    /**
     * Run one block of `n` sweep cells through the pool and return their
     * payloads indexed 0..n-1 (block-local). The block claims global
     * cell indices [nextCell, nextCell + n). Cells other than onlyCell
     * and unexecuted cells (Enumerate) come back as JSON null; Replay
     * returns every payload from `replayCells` without simulating.
     * Payloads must be non-null deterministic JSON.
     */
    std::vector<Json> runCells(const std::string &label, std::size_t n,
                               const std::function<Json(std::size_t)> &fn);

    /**
     * False when aggregation must be skipped: this is a one-cell partial
     * run of a cell experiment (the other payloads are missing) or a
     * cell enumeration. Experiments return immediately when false.
     * Analytic experiments (no cells) aggregate even under onlyCell.
     */
    bool
    aggregate() const
    {
        if (mode == CellMode::Enumerate)
            return false;
        return mode == CellMode::Replay || !onlyCell || nextCell == 0;
    }

    /** True when this run executes the full cell grid itself. */
    bool
    executingAllCells() const
    {
        // A one-cell run warming up the full app set would simulate
        // alone-runs its cell never reads.
        return mode == CellMode::Run && !onlyCell;
    }
};

/**
 * Refresh-window multiplier for a scale factor. At scale <= 1 the
 * compressed 0.5 ms window is kept (CI smoke runs and the golden-gated
 * scale-1 grids are byte-stable), while scale > 1 grows the window — and
 * the RowHammer thresholds with it — back toward the paper's operating
 * point: tREFW = min(scale, 64) ms, so `--scale 8` simulates >= 8 ms
 * windows and `--scale 64` reaches the paper's full 64 ms. The threshold
 * multiplier saturates at 32x, where the default N_RH = 1024 cell reaches
 * the paper's N_RH = 32K.
 */
inline double
windowMultiplier(double scale)
{
    if (scale <= 1.0)
        return 1.0;
    return std::min(2.0 * scale, 128.0);
}

/** Standard compressed experiment configuration used by the experiments. */
inline ExperimentConfig
benchConfig(const BenchContext &ctx, const std::string &mechanism,
            std::uint32_t n_rh = 1024)
{
    double wmul = windowMultiplier(ctx.scale);
    ExperimentConfig cfg;
    cfg.mechanism = mechanism;
    cfg.nRH = static_cast<std::uint32_t>(
        n_rh * std::min(wmul, 32.0));
    cfg.refwMs = 0.5 * wmul;
    cfg.warmupCycles = static_cast<Cycle>(600'000 * ctx.scale);
    cfg.runCycles = static_cast<Cycle>(1'600'000 * ctx.scale);
    cfg.threads = 8;
    cfg.skip = ctx.skip;
    cfg.channels = ctx.channels;
    cfg.channelThreads = ctx.channelThreads;
    cfg.attack.numBanks = 16;
    return cfg;
}

/**
 * Security-verification configuration shared by secsweep and the fuzz
 * red-team search: smaller N_RH and window than benchConfig so
 * violations (and BlockHammer's countermeasures) unfold within a short
 * measurement window; the oracle is on, and the margin covers the whole
 * run (warmup included — an attack does not wait for measurement to
 * start). Both experiments and the regression-replay tests must build
 * cells from this one helper, so a pattern found by the fuzzer replays
 * under *exactly* the conditions it was found under.
 */
inline ExperimentConfig
securityConfig(const BenchContext &ctx, const std::string &mechanism,
               unsigned channels)
{
    double wmul = windowMultiplier(ctx.scale);
    ExperimentConfig cfg;
    cfg.mechanism = mechanism;
    // N_RH 128 (compressed) keeps the threshold well inside the ACT
    // budget a 0.25 ms window physically admits, so mechanisms that
    // merely *slow* an attack as a bandwidth side effect of their
    // victim refreshes (PARA, MRLoc) still show their margin violation
    // instead of hiding behind the refresh overhead. Must stay 4 x a
    // power of two: BlockHammer's Table 7 CBF sizing (2^21 / N_BL)
    // requires a power-of-two filter.
    cfg.nRH = static_cast<std::uint32_t>(128 * std::min(wmul, 32.0));
    cfg.refwMs = 0.25 * wmul;
    cfg.warmupCycles = static_cast<Cycle>(200'000 * ctx.scale);
    cfg.runCycles = static_cast<Cycle>(1'600'000 * ctx.scale);
    cfg.threads = 4;
    cfg.skip = ctx.skip;
    cfg.channels = channels;
    cfg.channelThreads = ctx.channelThreads;
    cfg.securityOracle = true;
    return cfg;
}

/**
 * The figure-grid comparison set: the paper's seven mechanisms in
 * figure order, then the factory's zoo additions. Derived from the
 * factory (never enumerated by hand) so a newly registered mechanism
 * cannot be silently skipped by a sweep; the zoo appends *after* the
 * frozen paper set so pre-zoo cell indices — and the CI `--cell`
 * numbers that name them — stay stable.
 */
inline const std::vector<std::string> &
comparisonMechanisms()
{
    static const std::vector<std::string> mechs = [] {
        std::vector<std::string> v = paperMechanisms();
        for (const auto &m : zooMechanisms())
            v.push_back(m);
        return v;
    }();
    return mechs;
}

/**
 * Security-sweep mechanism set (secsweep, fuzz, and their CI verdict
 * gates): the unmitigated Baseline reference first, then every
 * compared mechanism. Same factory-derived coverage guarantee as
 * comparisonMechanisms().
 */
inline const std::vector<std::string> &
securityMechanisms()
{
    static const std::vector<std::string> mechs = [] {
        std::vector<std::string> v = {"Baseline"};
        for (const auto &m : comparisonMechanisms())
            v.push_back(m);
        return v;
    }();
    return mechs;
}

/** Benign co-runners of every security-verification mix. */
inline const std::vector<std::string> &
securityBenignApps()
{
    // Three memory-heavy benign threads keep the controller queues
    // realistic (an idle system would hand the attacker an
    // unrealistically clean ACT pipeline).
    static const std::vector<std::string> apps = {
        "429.mcf", "462.libquantum", "473.astar"};
    return apps;
}

/** Security-verification mix: one attacking app + the benign trio. */
inline MixSpec
securityMix(const std::string &attack_app, const std::string &name)
{
    MixSpec mix;
    mix.name = name;
    mix.apps = {attack_app};
    for (const auto &app : securityBenignApps())
        mix.apps.push_back(app);
    return mix;
}

/** Print an experiment header naming the paper artifact being reproduced. */
inline void
benchHeader(const std::string &title, const std::string &paper_ref,
            double scale)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    std::printf("scale: %.2g (see DESIGN.md, time-compressed eval)\n", scale);
    std::printf("==============================================================\n");
}

/** Safe ratio with 0-guard. */
inline double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/** Numeric field of a cell payload (0 when absent). */
inline double
cellNum(const Json &cell, const char *key)
{
    const Json *v = cell.find(key);
    return v ? v->asDouble() : 0.0;
}

/** Integer field of a cell payload (0 when absent). */
inline std::int64_t
cellInt(const Json &cell, const char *key)
{
    const Json *v = cell.find(key);
    return v ? v->asInt() : 0;
}

/** Arithmetic mean (0 when empty). */
inline double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/**
 * Pre-compute the alone-run IPC of every benign app in `mixes` through
 * the pool, so later parallel cells hit the aloneIpc memo table instead
 * of redundantly simulating the same alone runs. Skipped unless this
 * run executes the full grid: a one-cell run only needs the apps of its
 * cell (filled on demand through the memo), and Enumerate/Replay never
 * simulate.
 */
inline void
warmAloneIpc(const BenchContext &ctx, const ExperimentConfig &cfg,
             const std::vector<MixSpec> &mixes)
{
    if (!ctx.executingAllCells())
        return;
    std::set<std::string> unique;
    for (const auto &mix : mixes)
        for (const auto &app : mix.apps)
            if (!isAttackApp(app))
                unique.insert(app);
    std::vector<std::string> apps(unique.begin(), unique.end());
    ctx.runner->forEach(apps.size(),
                        [&](std::size_t i) { aloneIpc(cfg, apps[i]); });
}

} // namespace bh

#endif // BH_BENCH_BENCH_UTIL_HH
