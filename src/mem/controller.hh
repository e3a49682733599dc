/**
 * @file
 * Cycle-level DRAM memory controller for one channel.
 *
 * Models the paper's Table 5 controller: 64-entry read and write queues,
 * FR-FCFS scheduling, open-page row policy, write draining between
 * watermarks, periodic all-bank refresh, a victim-refresh side channel for
 * reactive mitigation mechanisms, and the BlockHammer safety-query hook in
 * front of every demand activation.
 *
 * For event-skipping simulation the controller answers nextEventAt()
 * (earliest future cycle at which it could issue a command or change
 * externally visible state, given no new requests), and advance() alone
 * decides between executing a tick and replaying the side effects of a
 * run of provably idle ones, so a skipping run is bit-compatible with a
 * cycle-by-cycle run.
 */

#ifndef BH_MEM_CONTROLLER_HH
#define BH_MEM_CONTROLLER_HH

#include <deque>
#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include "common/stats.hh"
#include "common/trace_sink.hh"
#include "dram/device.hh"
#include "dram/energy.hh"
#include "dram/hammer_observer.hh"
#include "mem/mitigation.hh"
#include "mem/request.hh"
#include "mem/scheduler.hh"

namespace bh
{

class SecurityOracle;

/** Controller tuning knobs. */
struct ControllerConfig
{
    unsigned readQueueSize = 64;
    unsigned writeQueueSize = 64;
    unsigned writeHighWatermark = 48;   ///< start draining writes
    unsigned writeLowWatermark = 16;    ///< stop draining writes
    /**
     * FR-FCFS-Cap: consecutive row hits a bank may serve while a
     * conflicting request waits, bounding streaming-thread bank capture.
     */
    unsigned rowHitCap = 8;
};

/**
 * A read completion a multi-channel lane produced, due at cycle `done`,
 * the cycle its data semantically returns. Lanes tick without touching
 * shared core/LLC state: they push these into the memory system's one
 * delivery heap, and the driver delivers them in (done, channel, seq)
 * order, `seq` being lane-local and monotonic.
 */
struct Delivery
{
    Cycle done = 0;
    unsigned channel = 0;
    std::uint64_t seq = 0;
    Completion to;

    bool
    operator>(const Delivery &o) const
    {
        return std::tie(done, channel, seq) >
            std::tie(o.done, o.channel, o.seq);
    }
};

/** Pending deliveries, the earliest (done, channel, seq) on top. */
using DeliveryHeap = std::priority_queue<Delivery, std::vector<Delivery>,
                                         std::greater<Delivery>>;

/** Per-thread row-buffer interaction counters. */
struct ThreadMemStats
{
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t rowConflicts = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t activates = 0;
};

/** One memory channel's controller. */
class MemController
{
  public:
    MemController(DramDevice &device, const ControllerConfig &config,
                  Mitigation &mitigation, HammerObserver *hammer,
                  DramEnergyModel *energy);

    /** Try to accept a request; false if the target queue is full. */
    bool enqueue(Request req);

    /** Advance one cycle: refresh, victim refreshes, demand scheduling. */
    void tick(Cycle now) { advance(now, now + 1, 1); }

    /**
     * Run the controller ticks at `from`, `from + step`, ... below `to`,
     * with no request arriving in between: each is executed, or replayed
     * together with the rest of a provably idle run (noteSkippedTicks()).
     * Every simulated controller tick passes through here.
     */
    void advance(Cycle from, Cycle to, Cycle step);

    /**
     * Schedule a victim-row refresh (reactive mitigations). The refresh is
     * an ACT+PRE pair that occupies the bank; it is exempt from the
     * mitigation's own safety query to avoid self-feedback.
     */
    void scheduleVictimRefresh(unsigned flat_bank, RowId row);

    /** Pending victim refreshes not yet completed. */
    std::size_t pendingVictimRefreshes() const { return pendingVictims; }

    /** Queue occupancy. */
    std::size_t readQueueDepth() const { return readQ.size(); }
    std::size_t writeQueueDepth() const { return writeQ.size(); }

    /** Is the write-drain hysteresis draining writes? */
    bool writeDraining() const { return drainingWrites; }

    /** Queue-full admission checks (cheap pre-gate for submit retries). */
    bool readQueueFull() const { return readQ.size() >= cfg.readQueueSize; }
    bool writeQueueFull() const
    {
        return writeQ.size() >= cfg.writeQueueSize;
    }

    /** Account a submit rejected up front for a full queue. */
    void noteQueueFullReject() { ++numQueueFull; }

    /** In-flight (accepted, not yet serviced) reads for <thread, bank>. */
    int inflight(ThreadId thread, unsigned flat_bank) const;

    /** In-flight reads of `thread` summed across this channel's banks. */
    int inflightThread(ThreadId thread) const;

    /** Per-thread row-buffer statistics. */
    const ThreadMemStats &threadStats(ThreadId thread) const;

    /** Aggregate counters. */
    std::uint64_t demandActivations() const { return numActDemand; }
    std::uint64_t blockedActQueries() const { return numActBlocked; }
    std::uint64_t victimRefreshesDone() const { return numVictimDone; }
    std::uint64_t victimRefreshesScheduled() const
    {
        return numVictimScheduled;
    }
    std::uint64_t refreshes() const { return numRefreshes; }
    std::uint64_t rowHits() const { return numRowHits; }
    std::uint64_t rowMisses() const { return numRowMisses; }
    std::uint64_t rowConflicts() const { return numRowConflicts; }

    /**
     * Controller ticks executed so far, and those of them that moved the
     * activity stamp (a command, a finished victim op or a housekeeping
     * boundary); every other simulated tick was replayed. Diagnostics
     * of the skip machinery, like System::coreTicksExecuted(): they
     * depend on the skip mode and are in no report.
     */
    std::uint64_t ticksExecuted() const { return numTicksExecuted; }
    std::uint64_t ticksActed() const { return numTicksActed; }

    /**
     * Safety queries the row-prep picks asked the mitigation, and the
     * refusals they replayed from verdict chains instead of asking
     * again (Mitigation::verdictStamps). Together they are the queries
     * the plain walk makes; like ticksExecuted(), they depend on the
     * path taken and are in no report.
     */
    std::uint64_t actQueries() const { return numActQueries; }
    std::uint64_t refusalsReplayed() const { return numRefusalsReplayed; }

    /**
     * The scheduler's work counters (FrFcfsScheduler::Work): bank
     * entries its picks and bounds scanned, and event-table entries it
     * recomputed. Like ticksExecuted(), they depend on the path taken
     * (`--skip verify` adds its checks' scans) and are in no report.
     */
    const FrFcfsScheduler::Work &schedWork() const
    {
        return scheduler.work();
    }

    /**
     * Monotonic count of externally visible controller activity: issued
     * DRAM commands, completed victim-refresh ops, accepted requests, and
     * ticks at a mitigation housekeeping boundary.
     * The event-skipping driver compares stamps across a cycle to decide
     * whether the system is quiescent. It moves on every change to queue
     * occupancy, in-flight counts and quota inputs (ACTs feed RHLI, a
     * housekeeping tick swaps throttler epochs), so a core rejected at
     * this lane's admission gate watches it (stable address) to know
     * when a retry can succeed.
     */
    const std::uint64_t &activityStamp() const { return numActions; }

    /**
     * True when the most recent tick, executed or replayed, performed no
     * externally visible action AND no request arrived since it ran —
     * the precondition for treating that tick as representative of
     * skipped idle ticks.
     */
    bool
    idleSinceLastTick() const
    {
        return numActions == stampAfterLastTick &&
            stampAfterLastTick == stampBeforeLastTick;
    }

    /**
     * Earliest cycle > `now` at which this controller could act (issue a
     * command, start a refresh, or see a mitigation verdict change),
     * assuming no new requests arrive. Conservative: never later than the
     * true next action, may be earlier. Only valid in an idle state (see
     * idleSinceLastTick()) after at least one executed tick: the answer
     * comes from what that tick recorded (or, after a derived window,
     * what it derived), and asking in any other state panics.
     */
    Cycle nextEventAt(Cycle now);

    /**
     * Enable/disable the internal idle-tick fast path (replaying a
     * provably identical idle tick instead of re-walking the queues).
     * On by default; the cycle-by-cycle reference mode turns it off so
     * `--skip off` exercises the original code path end to end.
     */
    void setFastIdleTicks(bool enabled) { fastIdleTicks = enabled; }

    /**
     * --skip verify: at every run of ticks a window replays, check each
     * event-table entry not marked stale against a fresh computation.
     * Where the mitigation's queries have no effect, or its verdict
     * chains answer them, also run the column and row-prep walks
     * (without side effects) at every replayed tick, and the table's
     * picks and bounds against them. Panic, naming `channel`, the cycle
     * and the queue, if a walk would issue, would ask a verdict that no
     * chain holds, would replay another refusal count, or the table
     * disagrees. Under verdict stamps, also ask the mitigation again
     * before every demand ACT, and panic if it refuses.
     */
    void
    verifyReplays(unsigned channel)
    {
        replayCheck = true;
        replayChannel = channel;
    }

    /**
     * Push completions into `heap`, tagged with `channel`, instead of
     * completing them inline at column issue (the single-channel
     * default, nullptr): multi-channel lane ticks never touch shared
     * core/LLC state.
     */
    void
    deliverVia(DeliveryHeap *heap, unsigned channel)
    {
        deliveries = heap;
        deliveryChannel = channel;
    }

    /**
     * Attach the end-to-end security oracle (see analysis/
     * security_oracle.hh). Observation-only: the oracle mirrors the
     * HammerObserver's activate/refresh notifications and can never
     * influence scheduling, so results are identical with or without
     * it. nullptr (the default) disables the hook.
     */
    void setSecurityOracle(SecurityOracle *oracle) { secOracle = oracle; }

    /** Publish counters into `stats` (call once after a run). */
    void syncStats();

    /**
     * Trace identity (pid = simulated system, tid = channel). Assigned
     * by System when a trace is open; observation-only.
     */
    void setTraceMeta(const TraceMeta &meta) { tmeta = meta; }
    const TraceMeta &traceMeta() const { return tmeta; }

    const DramDevice &device() const { return dram; }
    Mitigation &mitigation() { return mitig; }

    StatSet stats;

  private:
    /** Victim refresh progress per bank. */
    struct VictimOp
    {
        RowId row = 0;
        bool activated = false;
    };

    /** Execute one tick (the body advance() replays when idle). */
    void execute(Cycle now);

    /**
     * Replay the externally invisible side effects of `n` skipped idle
     * ticks: blocked-activation counters (exactly `n` times the last
     * idle tick's refusals, which each skipped tick would have replayed
     * from verdict chains, and which the mitigation counts too; without
     * chains a refusal ends the window), and the write-drain hysteresis
     * and fairness toggle.
     */
    void noteSkippedTicks(std::uint64_t n);

    /**
     * The earliest cycle >= `now` at which the controller could act, read
     * off the state the last executed tick recorded (nextEventAt's
     * answer, without its state check).
     */
    Cycle eventBound(Cycle now);

    /** verifyReplays' check of the `n` ticks from `from`, `step` apart. */
    void checkReplayedTicks(Cycle from, std::uint64_t n, Cycle step);

    /** Write-drain hysteresis against the current writeQ.size(). */
    void updateDrainState();

    bool tryRefresh(Cycle now);
    bool tryVictimRefresh(Cycle now);
    bool tryDemand(Cycle now);
    /** Issue `cmd` to bank `fb` and touch the bank in both queues. */
    void issueCommand(DramCommand cmd, unsigned fb, RowId row, Cycle now);
    void issueColumn(SchedQueue &queue, SchedQueue::Handle h, Cycle now);
    bool issuePrep(SchedQueue &queue, SchedQueue::Handle h, Cycle now);
    void noteInflight(ThreadId thread, unsigned bank, int delta);
    ThreadMemStats &threadStatsMutable(ThreadId thread);

    DramDevice &dram;
    ControllerConfig cfg;
    Mitigation &mitig;
    /// mitig.actQueriesObservable(): false enables derived windows.
    bool queriesObservable = true;
    /// mitig.verdictStamps() is not null: picks replay verdict chains,
    /// and a tick after an issue is derived where they settle.
    bool verdictChains = false;
    HammerObserver *hammer;
    SecurityOracle *secOracle = nullptr;
    DramEnergyModel *energy;
    FrFcfsScheduler scheduler;

    SchedQueue readQ;
    SchedQueue writeQ;
    std::vector<std::deque<VictimOp>> victimQ;  ///< per bank
    std::size_t pendingVictims = 0;             ///< ops in all of victimQ

    bool drainingWrites = false;
    bool drainToggle = false;
    Cycle nextRefreshAt = 0;
    bool refreshPending = false;

    DeliveryHeap *deliveries = nullptr;
    unsigned deliveryChannel = 0;
    std::uint64_t completionSeq = 0;

    TraceMeta tmeta;

    // Cached bounded histograms (avoid a map lookup per request).
    Histogram *latencyHist;
    Histogram *readDepthHist;
    Histogram *writeDepthHist;

    std::vector<int> inflightCount;     ///< [thread * banks + bank]
    std::vector<int> inflightByThread;  ///< per-thread aggregate
    std::vector<unsigned> hitStreak;    ///< consecutive row hits per bank
    std::vector<ThreadMemStats> perThread;
    unsigned banks = 0;

    // Event-skipping bookkeeping (see activityStamp()).
    std::uint64_t numActions = 0;
    std::uint64_t stampBeforeLastTick = 0;
    std::uint64_t stampAfterLastTick = 0;
    Cycle lastTickAt = -1;
    /// Demand event bounds of the two queues, recorded by the row-prep
    /// walks of the tick at `demandBoundsAt` (-1: none yet).
    DemandBound readBound, writeBound;
    Cycle demandBoundsAt = -1;
    bool lastTickReachedDemand = false;
    std::uint64_t lastTickBlockedEvals = 0;
    bool fastIdleTicks = true;
    /**
     * The idle window: every tick before idleUntil (0: none) is idle
     * while numActions == windowStamp. An executed tick that did nothing
     * opens one at its event bound; where queries have no effect, or
     * verdict chains settle both queues, so does one that issued a
     * demand command with no victim op pending (a derived window).
     * Where queries have no effect an arrival lowers it rather than
     * voiding it; under verdict stamps an arrival behind a closed
     * bank's known-safe request keeps it.
     */
    Cycle idleUntil = 0;
    std::uint64_t windowStamp = 0;
    bool replayCheck = false;       ///< verifyReplays()
    unsigned replayChannel = 0;
    std::uint64_t numTicksExecuted = 0;
    std::uint64_t numTicksActed = 0;
    std::uint64_t numActQueries = 0;
    std::uint64_t numRefusalsReplayed = 0;

    std::uint64_t numReads = 0;
    std::uint64_t numWrites = 0;
    std::uint64_t numQueueFull = 0;
    std::uint64_t numRowHits = 0;
    std::uint64_t numRowMisses = 0;
    std::uint64_t numRowConflicts = 0;
    std::uint64_t numActDemand = 0;
    std::uint64_t numActBlocked = 0;
    std::uint64_t numPreDemand = 0;
    std::uint64_t numVictimScheduled = 0;
    std::uint64_t numVictimDone = 0;
    std::uint64_t numRefreshes = 0;
};

} // namespace bh

#endif // BH_MEM_CONTROLLER_HH
