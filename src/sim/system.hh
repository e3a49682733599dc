/**
 * @file
 * Full-system composition: N trace-driven cores sharing an LLC in front
 * of a multi-channel memory system with one RowHammer mitigation
 * instance per channel (the paper's Table 5 configuration is the
 * single-channel special case).
 *
 * The driver loop supports event skipping: when a cycle passes with no
 * component making progress, the system finds the horizon up to which
 * the cores and the LLC stay quiet and advances every channel lane
 * there in one step (MemController::advance replays the idle ticks); the
 * cores accrue the stall cycles of the cycles they did not tick. Between
 * jumps, a core whose last tick changed nothing sleeps until one of its
 * wake conditions fires (Core::asleep), and the driver ticks only awake
 * cores. A skipping run is bit-compatible with a cycle-by-cycle run;
 * SkipMode kVerify executes cycle-by-cycle while asserting every skip
 * and sleep claim.
 *
 * Multi-channel systems also take that step while lanes are busy but
 * every core and the LLC is provably quiet: the per-channel lanes tick
 * alone, one after another, over a chunk that ends before any
 * completion they produce could be due, and the memory system's one
 * delivery heap hands each completion token to its core or the LLC at
 * its semantic completion cycle, in (cycle, channel, lane-order). Chunk
 * boundaries are derived from simulation state only, so chunked and
 * cycle-by-cycle execution are byte-identical (see DESIGN.md, "channel
 * lanes").
 */

#ifndef BH_SIM_SYSTEM_HH
#define BH_SIM_SYSTEM_HH

#include <functional>
#include <memory>
#include <vector>

#include "core/core.hh"
#include "workloads/mixes.hh"

namespace bh
{

/**
 * Simulated cycles executed by System::run on the calling thread since
 * its last reset — skipped and chunked cycles included, since they are
 * simulated time. Bench workers reset, run a cell, then read this to
 * compute per-cell cycles/sec (BENCH_perf.json).
 */
std::uint64_t simCyclesThisThread();
void resetSimCyclesThisThread();

/** Simulated cycles executed process-wide (all threads, all systems). */
std::uint64_t simCyclesTotal();

/** How System::run advances simulated time. */
enum class SkipMode
{
    kCycleByCycle,  ///< tick every cycle (the reference behavior)
    kEventSkip,     ///< jump over provably idle stretches and let idle
                    ///< cores sleep (default)
    kVerify,        ///< tick every cycle and core, assert every skip and
                    ///< sleep claim
};

/** Builds the mitigation instance of one memory channel. */
using MitigationFactory =
    std::function<std::unique_ptr<Mitigation>(unsigned channel)>;

/** Aggregate system configuration. */
struct SystemConfig
{
    unsigned threads = 8;
    CoreConfig core;
    LlcConfig llc;
    MemSystemConfig mem;
    bool useLlc = true;
    /** Time-advance strategy (see SkipMode). */
    SkipMode skip = SkipMode::kEventSkip;
    /// Not read; goes with the next benchmark change (ROADMAP).
    unsigned channelThreads = 1;
};

/** A complete simulated system instance. */
class System
{
  public:
    /** One mitigation instance per channel, built by `factory`. */
    System(const SystemConfig &config, const MitigationFactory &factory);

    /** Single-channel convenience constructor (mem.org.channels == 1). */
    System(const SystemConfig &config, std::unique_ptr<Mitigation> mitigation);

    /**
     * Install the trace for one core slot before the first run(); after
     * it, a fatal error: in-flight completion tokens point at the core.
     */
    void setTrace(unsigned slot, std::unique_ptr<TraceSource> trace);

    /**
     * Install a trace with a per-core configuration override (e.g., an
     * attacker modeled as one dependent access chain per bank).
     */
    void setTrace(unsigned slot, std::unique_ptr<TraceSource> trace,
                  const CoreConfig &core_cfg);

    /** Run for `cycles` more cycles. */
    void run(Cycle cycles);

    /** Current simulation time. */
    Cycle now() const { return currentCycle; }

    /**
     * Mark the start of the measurement window: IPC and energy report
     * deltas from this point, excluding cache/blacklist warmup (the paper
     * fast-forwards 100M instructions before measuring).
     */
    void startMeasurement();

    /** IPC of one thread over the measurement window. */
    double ipc(unsigned slot) const;

    /** Cycles eliminated by event skipping so far (diagnostics). */
    std::uint64_t skippedCycles() const { return numSkipped; }

    /** Core-quiet cycles covered by lane chunks so far (diagnostics). */
    std::uint64_t chunkedCycles() const { return numChunked; }

    /**
     * Core ticks run on awake cores so far (diagnostics, like the two
     * below; observation-only).
     */
    std::uint64_t coreTicksExecuted() const { return numCoreTicks; }

    /**
     * Core ticks a sleep rule covered so far: not run, except under
     * --skip verify, which runs them to check the claim.
     */
    std::uint64_t coreTicksSlept() const { return numCoreSleeps; }

    Core &core(unsigned slot) { return *cores[slot]; }
    const Core &core(unsigned slot) const { return *cores[slot]; }
    Llc *llc() { return llcPtr.get(); }
    MemSystem &mem() { return *memSys; }
    const MemSystem &mem() const { return *memSys; }
    unsigned threads() const { return cfg.threads; }

    /** DRAM energy over the measurement window (J). */
    double
    energy()
    {
        return memSys->totalEnergy(currentCycle) - energyAtMeasureStart;
    }

  private:
    /** CPU cycles per memory controller tick. */
    static constexpr Cycle kMcDivider = 2;

    /**
     * Progress stamp of the memory system and the LLC: a cycle changed
     * nothing when it stays put and no core tick moved.
     */
    std::uint64_t uncoreStamp() const;

    /** `c` rounded up to the next controller clock edge. */
    Cycle
    mcEdge(Cycle c) const
    {
        return (c + kMcDivider - 1) / kMcDivider * kMcDivider;
    }

    /**
     * Latest cycle <= `end` up to which every core and the LLC provably
     * stay no-ops while only the lanes advance (currentCycle if none).
     * Idle lanes (`lanes_idle`) bound it by their next event; busy ones
     * by the earliest completion they could produce. Derived from
     * simulation state only.
     */
    Cycle quietHorizon(Cycle end, bool lanes_idle);

    /**
     * Advance every lane to `target` while the cores' ticks wait: an
     * event-skip jump (`lanes_idle`) or a lane chunk.
     */
    void advanceQuiet(Cycle target, bool lanes_idle);

    SystemConfig cfg;
    std::unique_ptr<MemSystem> memSys;
    std::unique_ptr<Llc> llcPtr;
    std::vector<std::unique_ptr<TraceSource>> traces;
    std::vector<std::unique_ptr<Core>> cores;
    Cycle currentCycle = 0;
    Cycle measureStart = 0;
    double energyAtMeasureStart = 0.0;
    std::vector<std::uint64_t> retiredAtMeasureStart;
    std::uint64_t numSkipped = 0;
    std::uint64_t numChunked = 0;
    std::uint64_t numCoreTicks = 0;
    std::uint64_t numCoreSleeps = 0;
    Cycle verifiedQuietUntil = 0;   ///< kVerify: active skip claim bound
    TraceMeta driverMeta;           ///< tid = channel count (driver row)
};

} // namespace bh

#endif // BH_SIM_SYSTEM_HH
