/**
 * @file
 * Simplified out-of-order core (Table 5: 3.2 GHz, 4-wide issue, 128-entry
 * instruction window). Non-memory instructions execute in one cycle;
 * memory operations access the shared LLC (or bypass it) and block
 * retirement until their data returns, bounding memory-level parallelism
 * by the window size exactly as Ramulator's trace CPU does. In-flight
 * memory operations sit in a fixed ring of `windowSize` entries; an
 * op's completion token names its ring entry.
 */

#ifndef BH_CORE_CORE_HH
#define BH_CORE_CORE_HH

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

#include "cache/llc.hh"
#include "core/trace.hh"

namespace bh
{

/** Core configuration. */
struct CoreConfig
{
    unsigned issueWidth = 4;
    unsigned retireWidth = 4;
    unsigned windowSize = 128;
    /** Per-core outstanding memory requests (L1 MSHR-equivalent). */
    unsigned maxOutstandingMem = 48;
};

/**
 * Which wake rule keeps a core asleep (Core::asleep()). A core sleeps
 * after an executed tick that changed nothing; until a wake condition
 * fires, a repeat of that tick would change nothing either, so the
 * driver does not run it.
 */
enum class SleepRule : std::uint8_t
{
    kAwake,     ///< not asleep: the driver ticks it
    kQuiet,     ///< quietTick(): wakes by time, at a delivery to it, or
                ///< (MSHR-bound) at an LLC fill
    kReprobe,   ///< a full queue or quota rejected it: also wakes when
                ///< its target lane acts
};

/** One hardware thread executing a trace. */
class Core final : public CompletionTarget
{
  public:
    /**
     * @param thread this core's thread id
     * @param trace instruction stream (not owned)
     * @param llc shared cache, or nullptr for cacheless configs
     * @param mem memory system for bypass accesses
     */
    Core(const CoreConfig &config, ThreadId thread, TraceSource &trace,
         Llc *llc, MemSystem &mem);

    /**
     * Advance one cycle. Returns true when the tick moved the progress
     * stamp (retired or issued anything).
     */
    bool tick(Cycle now);

    /** The data of the op in ring entry `slot` returns at `done`. */
    void complete(std::uint32_t slot, Cycle done) override;

    /** Instructions retired so far. */
    std::uint64_t retired() const { return instrRetired; }

    /** Memory operations issued so far. */
    std::uint64_t memOps() const { return numMemOps; }

    /**
     * Cycles the core could not issue due to resource rejection. Exact
     * up to the last executed tick or accrueStalls() call.
     */
    std::uint64_t stallCycles() const { return numStallCycles; }

    /**
     * Monotonic progress stamp: changes whenever the core retires or
     * issues anything. A tick that leaves the stamp unchanged was a
     * no-op, and the core stays a no-op until nextEventAt() (or an
     * external state change re-enables a rejected memory issue).
     */
    std::uint64_t
    progressStamp() const
    {
        return instrIssued + instrRetired + numMemOps;
    }

    /**
     * Cycle at which this blocked core can make progress on its own: the
     * completion time of the window-head memory op when known. Returns
     * kNoEventCycle when the wake-up depends on another component (a
     * memory issue slot freeing, a quota lifting) — those are bounded by
     * that component's own nextEventAt.
     */
    Cycle nextEventAt() const;

    /**
     * Count the stall cycles of the cycles before `now` that the driver
     * covered without ticking this core (sleeping, event-skip jumps,
     * lane chunks): each repeats the last executed tick, stalled or
     * not. tick() does this for the cycles before its own; the driver
     * calls it when a run ends so stallCycles() is exact there.
     */
    void
    accrueStalls(Cycle now)
    {
        if (lastStall != Stall::kNone && now > accruedUntil)
            numStallCycles += static_cast<std::uint64_t>(now - accruedUntil);
        accruedUntil = std::max(accruedUntil, now);
    }

    /**
     * True when the last executed tick was provably repeatable: re-running
     * it changes nothing (beyond stall accounting) until nextEventAt() or
     * a completion delivery. This is the precondition for the chunked
     * multi-channel driver to run lanes alone while the core's ticks
     * wait. Queue-full and quota retries probe lane state that any
     * controller tick can change, so they are never quiet; MLP- and
     * MSHR-bound stalls are, because they clear only by time or at a
     * delivery (an LLC fill is one).
     */
    bool
    quietTick() const
    {
        return lastTickNoop && lastStall != Stall::kLane;
    }

    /**
     * After an executed tick that retired, issued and fetched nothing,
     * put the core to sleep: record the conditions under which a
     * repeat of that tick could differ (see asleep()). A core stays
     * awake after a tick that did anything, and while the LLC has
     * writebacks to retry, which every Llc::access retries first.
     */
    void sleepIfNoop();

    /**
     * The rule that keeps this core asleep at `now`, or kAwake once a
     * wake condition has fired: `now` reached nextEventAt() as of the
     * sleep (the window head's completion, or an in-flight op's for a
     * stalled core), a completion was delivered to it, an LLC fill
     * freed an MSHR or installed a line it waits on, or its target
     * lane acted (a command, an enqueue or a housekeeping tick: any
     * change to queue occupancy, in-flight counts or quota inputs).
     * Constant time: compares recorded stamps, nothing else.
     */
    SleepRule
    asleep(Cycle now) const
    {
        if (sleepRule != SleepRule::kAwake && now < wakeAt &&
            numDeliveries == deliveriesSeen && *fillWatch == fillsSeen &&
            *laneWatch == laneSeen)
            return sleepRule;
        return SleepRule::kAwake;
    }

    /**
     * --skip verify: tick a core that `rule` calls asleep and panic,
     * naming the core, the cycle and the rule, unless the tick was the
     * no-op the rule claims — no retire, issue or fetch, no request or
     * writeback reaching the memory system, the same stall state, and
     * still quiet if it was. The sleep stays in force until its own
     * wake condition fires, as it would without the check.
     */
    void verifySleep(Cycle now, SleepRule rule);

    /** True if the trace ended and all work drained. */
    bool done() const { return traceEnded && inFlight == 0; }

  private:
    /** Why the last memory issue attempt was rejected. */
    enum class Stall : std::uint8_t
    {
        kNone,
        kMlp,   ///< outstanding-op bound: clears by time or at a delivery
        kMshr,  ///< LLC MSHRs full: clears at an LLC fill
        kLane,  ///< full queue or quota on the target lane: clears when
                ///< that lane acts
    };

    /** An in-flight memory instruction: one entry of the window ring. */
    struct MemOp
    {
        std::uint64_t pos = 0;  ///< instruction index in the window
        Cycle done = -1;        ///< -1 while the completion time is unknown
    };

    /** The ring entry `k` places past the oldest in-flight op. */
    std::uint32_t
    ringIndex(std::uint32_t k) const
    {
        auto n = static_cast<std::uint32_t>(window.size());
        return head + k < n ? head + k : head + k - n;
    }

    /**
     * O(1) memory-level-parallelism accounting: ops with unknown
     * completion times are counted directly; known times sit in a
     * min-heap and drop out as simulated time passes them.
     */
    unsigned
    outstandingAt(Cycle now)
    {
        while (!knownDone.empty() && knownDone.top() <= now)
            knownDone.pop();
        return unknownDone + static_cast<unsigned>(knownDone.size());
    }

    /** Issue the pending memory op; kNone when it was accepted. */
    Stall issueMemOp(Cycle now);

    CoreConfig cfg;
    ThreadId thread = 0;
    TraceSource &trace;
    Llc *llc;
    MemSystem &mem;

    std::uint64_t instrIssued = 0;
    std::uint64_t instrRetired = 0;
    std::uint64_t numMemOps = 0;
    std::uint64_t numStallCycles = 0;

    std::uint32_t pendingBubbles = 0;
    bool havePendingMem = false;
    TraceEntry pendingMem;
    bool traceEnded = false;
    Stall lastStall = Stall::kNone;     ///< the last tick's rejection
    bool lastTickNoop = false;          ///< retired, issued, fetched nothing
    Cycle accruedUntil = 0;     ///< stall cycles counted below this cycle

    std::vector<MemOp> window;      ///< cfg.windowSize entries, in order
    std::uint32_t head = 0;         ///< ring entry of the oldest op
    std::uint32_t inFlight = 0;     ///< ops issued, not yet retired
    unsigned unknownDone = 0;       ///< in-flight ops with done == -1
    std::priority_queue<Cycle, std::vector<Cycle>, std::greater<Cycle>>
        knownDone;
    std::uint64_t numDeliveries = 0;    ///< completions delivered so far

    /// Sleep state (sleepIfNoop()): a watch the rule does not use points
    /// at kNoWatch, which never moves.
    static constexpr std::uint64_t kNoWatch = 0;
    SleepRule sleepRule = SleepRule::kAwake;
    Cycle wakeAt = 0;
    std::uint64_t deliveriesSeen = 0;
    const std::uint64_t *fillWatch = &kNoWatch;     ///< LLC fill count
    std::uint64_t fillsSeen = 0;
    const std::uint64_t *laneWatch = &kNoWatch;     ///< lane activity
    std::uint64_t laneSeen = 0;
};

} // namespace bh

#endif // BH_CORE_CORE_HH
