/**
 * @file
 * Experiment harness shared by benches and integration tests: builds a
 * system for (mechanism, mix, RowHammer threshold), runs it, and collects
 * the metrics the paper reports. Includes the time-compressed evaluation
 * configuration (see DESIGN.md): all window-relative ratios (N_BL/N_RH,
 * tCBF/tREFW, mechanism trigger thresholds) follow the paper; the
 * absolute window is shrunk so the full blacklisting/throttling dynamics
 * unfold within bench-scale runs.
 */

#ifndef BH_SIM_EXPERIMENT_HH
#define BH_SIM_EXPERIMENT_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hh"
#include "mitigations/factory.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"

namespace bh
{

/** One experiment's configuration. */
struct ExperimentConfig
{
    std::string mechanism = "Baseline";
    std::uint32_t nRH = 2048;       ///< compressed default (paper: 32K)
    Cycle runCycles = 3'200'000;    ///< measurement window: 1 ms at 3.2 GHz
    Cycle warmupCycles = 800'000;   ///< cache/blacklist warmup before it
    unsigned threads = 8;
    double refwMs = 1.0;            ///< compressed tREFW (paper: 64 ms)
    std::uint64_t seed = 1;
    bool hammerObserver = true;
    /**
     * DRAM channels (power of two). Each channel gets its own controller,
     * device, energy/hammer models, and mitigation instance (Table 5
     * evaluates BlockHammer per channel).
     */
    unsigned channels = 1;
    /// Not read; goes with the next benchmark change (ROADMAP).
    unsigned channelThreads = 1;
    /**
     * Time-advance strategy. Event skipping is bit-compatible with
     * cycle-by-cycle simulation (kVerify asserts that); results never
     * depend on this knob.
     */
    SkipMode skip = SkipMode::kEventSkip;
    AttackParams attack;
    /**
     * Attach the per-channel SecurityOracle (sliding-tREFW-window
     * per-row ACT counts; observation-only, results unchanged) and
     * collect its verdict into RunResult::sec*.
     */
    bool securityOracle = false;

    /** Paper-scale configuration (for security/analysis runs). */
    static ExperimentConfig paperScale();

    /** DRAM timings with the compressed refresh window. */
    DramTimings timings() const;

    /**
     * Threshold/timing environment "attack:<pattern>" mix slots resolve
     * their pacing and declared ACT envelopes against (N_BL follows the
     * paper's N_BL = N_RH / 4).
     */
    AttackEnv attackEnv() const;

    /**
     * Mitigation settings consistent with this experiment, for one
     * channel's instance. Channel 0 keeps the experiment seed (so
     * single-channel runs are bit-stable vs older binaries); further
     * channels get decorrelated derived seeds.
     */
    MitigationSettings mitigationSettings(unsigned channel = 0) const;
};

/** Collected results of one run. */
struct RunResult
{
    std::string mechanism;
    std::string mixName;
    std::vector<double> ipc;            ///< per thread
    std::vector<bool> isAttack;         ///< per thread
    double energyJ = 0.0;
    std::uint64_t bitFlips = 0;
    std::uint64_t maxRowActs = 0;       ///< max per-row acts between refreshes
    std::uint64_t demandActs = 0;
    std::uint64_t blockedActs = 0;
    std::uint64_t victimRefreshes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t rowConflicts = 0;

    // SecurityOracle verdict (ExperimentConfig::securityOracle runs
    // only; zero/none otherwise). Channel-merged: counts and margins
    // take the worst lane, the violation cycle the earliest.
    double secMargin = 0.0;             ///< max window ACTs / N_RH
    std::uint64_t secMaxWindowActs = 0; ///< worst sliding-window count
    Cycle secFirstViolation = kNoEventCycle;    ///< earliest breach
    std::uint64_t secViolatingRows = 0; ///< distinct rows >= N_RH

    /** True when the activation-bounding guarantee held end to end. */
    bool secSafe() const { return secMargin < 1.0; }

    /** Whole-run counters of one core, warmup included. */
    struct CoreCounts
    {
        std::uint64_t retired = 0;
        std::uint64_t memOps = 0;
        std::uint64_t stallCycles = 0;
    };

    /**
     * Per thread. No report prints them; the skip-equivalence tests
     * compare them, since a sleeping or skipped core's stall cycles are
     * accrued without ticking it.
     */
    std::vector<CoreCounts> cores;

    /**
     * Controller ticks executed over the whole run, all lanes, and those
     * that acted (MemController::ticksExecuted/ticksActed). Diagnostics
     * of the skip machinery: they differ across skip modes, so no
     * report prints them and the skip-equivalence tests leave them out.
     */
    std::uint64_t ctrlTicksExecuted = 0;
    std::uint64_t ctrlTicksActed = 0;

    /**
     * Safety queries asked and refusals replayed from verdict chains,
     * all lanes (MemController::actQueries/refusalsReplayed). Like the
     * tick counts, they depend on the path taken and are in no report.
     */
    std::uint64_t ctrlActQueries = 0;
    std::uint64_t ctrlRefusalsReplayed = 0;

    /**
     * Scheduler work, all lanes (MemController::schedWork): bank entries
     * that picks and bounds scanned, and event-table entries
     * recomputed. Observation-only, like the counts above.
     */
    std::uint64_t ctrlEntriesScanned = 0;
    std::uint64_t ctrlEntriesRecomputed = 0;

    /**
     * Per-lane StatSet snapshots: {"ch0": {mc..., mitig...}, ...}.
     * Deterministic (event-driven samples and skip-replayed counters
     * only), so cell payloads carrying it stay byte-identical across
     * jobs/threads/skip settings — but it is excluded from cell digests
     * (see report.hh cellDigest) to keep old goldens valid.
     */
    Json stats = Json::object();

    /** IPCs of benign threads only. */
    std::vector<double> benignIpc() const;
};

/**
 * The controller work counters of RunResult (ctrlTicksExecuted and the
 * five after it), summed over the calling thread's runExperiment calls
 * since its last reset. Bench workers reset, run a cell, and read them
 * into the cell's BENCH_perf.json `work` object, as they read
 * simCyclesThisThread(). The memoized alone runs behind aloneIpc are
 * left out: whether a cell makes them depends on which cells ran before
 * it on the same worker. Observation-only.
 */
struct WorkCounts
{
    std::uint64_t ticksExecuted = 0;
    std::uint64_t ticksActed = 0;
    std::uint64_t actQueries = 0;
    std::uint64_t refusalsReplayed = 0;
    std::uint64_t entriesScanned = 0;
    std::uint64_t entriesRecomputed = 0;
};
WorkCounts workThisThread();
void resetWorkThisThread();

/**
 * Wraps one channel's mitigation instance as a system is built (a
 * decorator that forwards the hooks, as instrumentation and tests use).
 */
using MitigationWrapper =
    std::function<std::unique_ptr<Mitigation>(std::unique_ptr<Mitigation>)>;

/**
 * Build a fully-wired system for a mix (traces installed), passing each
 * channel's mitigation instance through `wrap` when one is given.
 */
std::unique_ptr<System> buildSystem(const ExperimentConfig &config,
                                    const MixSpec &mix,
                                    const MitigationWrapper &wrap = nullptr);

/** Run one (mechanism, mix) experiment; `wrap` as for buildSystem. */
RunResult runExperiment(const ExperimentConfig &config, const MixSpec &mix,
                        const MitigationWrapper &wrap = nullptr);

/**
 * Per-app alone-run IPC on the Baseline system (the denominator of the
 * paper's speedup metrics), memoized per (app, cycles, seed).
 */
double aloneIpc(const ExperimentConfig &config, const std::string &app);

/** Benign-thread metrics of a run against alone-run IPCs. */
MultiProgMetrics metricsAgainstAlone(const ExperimentConfig &config,
                                     const MixSpec &mix,
                                     const RunResult &result);

} // namespace bh

#endif // BH_SIM_EXPERIMENT_HH
