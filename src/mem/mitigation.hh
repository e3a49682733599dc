/**
 * @file
 * RowHammer mitigation mechanism interface.
 *
 * The memory controller consults the installed mechanism before issuing a
 * demand row activation (proactive throttling, used by BlockHammer), informs
 * it of every demand activation and auto refresh, and reads per-thread
 * request quotas (AttackThrottler). Reactive-refresh mechanisms (PARA, CBT,
 * TWiCe, Graphene, ...) respond to onActivate() by scheduling victim-row
 * refreshes through the controller, which occupy DRAM banks like real
 * ACT+PRE pairs — so the performance and energy cost of reactive refresh is
 * modeled faithfully.
 */

#ifndef BH_MEM_MITIGATION_HH
#define BH_MEM_MITIGATION_HH

#include <string>

#include "common/stats.hh"
#include "common/trace_sink.hh"
#include "common/types.hh"

namespace bh
{

class MemController;

/** Abstract RowHammer mitigation mechanism plugged into the controller. */
class Mitigation
{
  public:
    virtual ~Mitigation() = default;

    /** Mechanism name for reports. */
    virtual std::string name() const = 0;

    /**
     * Is it RowHammer-safe to activate (bank, row) for `thread` at `now`?
     * Returning false blocks the activation; the controller will retry and
     * keeps issuing other, safe requests meanwhile.
     */
    virtual bool
    isActSafe(unsigned bank, RowId row, ThreadId thread, Cycle now)
    {
        (void)bank; (void)row; (void)thread; (void)now;
        return true;
    }

    /**
     * Can an isActSafe() call have an effect? False promises that every
     * query answers "safe" and records nothing, so the controller may
     * stop executing ticks whose only work would be such queries (it
     * derives its next event from DRAM timing instead; DESIGN.md "How a
     * skip is decided"). The default is "observable", the promise-free
     * answer: a mechanism, or a wrapper around one, that does not state
     * the capability keeps the path that runs every query.
     */
    virtual bool actQueriesObservable() const { return true; }

    /**
     * Verdict stamps, one per flat bank, or nullptr (the default). A
     * mechanism that returns an array promises that an isActSafe()
     * verdict on (bank, row) is a function of time and of state that
     * only moves with the bank's stamp; that a stamp moves only at a
     * demand activation of its bank (onActivate) and at a housekeeping
     * tick (nextHousekeepingAt: an epoch swap may move every stamp);
     * that a "safe" answer records nothing and holds until the stamp
     * moves; and that a refusal holds until the stamp moves or
     * refusalLapsesAt() passes, and repeats only its count. The
     * controller may then replay such verdicts from a cache instead of
     * asking again (DESIGN.md "Verdict chains"), counting them through
     * noteRepeatedRefusals(). The array must stay where it is for the
     * mechanism's lifetime. The default keeps every query live, and a
     * refusal then ends the controller's idle window, so a wrapper that
     * does not forward this stays exact.
     */
    virtual const std::uint64_t *verdictStamps() const { return nullptr; }

    /**
     * The first cycle at which the refusal of (bank, row) that
     * isActSafe() just answered at `now` may lapse without the bank's
     * stamp moving. Only asked where verdictStamps() is not null.
     */
    virtual Cycle
    refusalLapsesAt(unsigned bank, RowId row, Cycle now) const
    {
        (void)bank; (void)row;
        return now + 1;
    }

    /**
     * The controller replayed `n` cached refusals in place of asking
     * again, in a pick or over skipped ticks: count them as the queries
     * would have (verdictStamps()).
     */
    virtual void noteRepeatedRefusals(std::uint64_t n) { (void)n; }

    /**
     * Is (bank, row) known safe at `now`? True promises that
     * isActSafe(bank, row, ., now) would answer "safe" and record
     * nothing; false promises nothing (the default). Answering records
     * nothing either. Only asked where verdictStamps() is not null, so
     * a true answer holds, as a live "safe" would, until the bank's
     * stamp moves. The controller uses it to complete verdict chains
     * right after an issue (DESIGN.md "Verdict chains"); a wrapper that
     * does not forward it keeps those ticks executing and asking live.
     */
    virtual bool
    knownSafe(unsigned bank, RowId row, Cycle now) const
    {
        (void)bank; (void)row; (void)now;
        return false;
    }

    /** A demand activation was issued. */
    virtual void
    onActivate(unsigned bank, RowId row, ThreadId thread, Cycle now)
    {
        (void)bank; (void)row; (void)thread; (void)now;
    }

    /** An all-bank auto refresh covered [first_row, first_row+num_rows). */
    virtual void
    onAutoRefresh(RowId first_row, unsigned num_rows, Cycle now)
    {
        (void)first_row; (void)num_rows; (void)now;
    }

    /** Per-cycle housekeeping (epoch clocks, pruning, ...). */
    virtual void tick(Cycle now) { (void)now; }

    /**
     * Next cycle at which tick() performs time-driven housekeeping (an
     * epoch boundary, a counter-table reset, ...), or kNoEventCycle if
     * none is scheduled. The event-skipping driver never jumps past this,
     * so each boundary is observed by exactly one executed tick — just as
     * in cycle-by-cycle simulation.
     */
    virtual Cycle
    nextHousekeepingAt(Cycle now) const
    {
        (void)now;
        return kNoEventCycle;
    }

    /**
     * No longer called: a refusal without verdict stamps ends the idle
     * window, and the chains bound one with them (verdictStamps()).
     * Kept, with noteSkippedTicks(), only while perfbench's frozen
     * TimedMitigation overrides both (ROADMAP item 8).
     */
    virtual Cycle
    nextVerdictChangeAt(Cycle now) const
    {
        (void)now;
        return kNoEventCycle;
    }

    /** No longer called; see nextVerdictChangeAt(). */
    virtual void noteSkippedTicks(std::uint64_t n) { (void)n; }

    /**
     * Maximum in-flight read requests <thread, bank> may have; negative
     * means unlimited. Implements AttackThrottler-style quotas.
     */
    virtual int
    quota(ThreadId thread, unsigned bank) const
    {
        (void)thread; (void)bank;
        return -1;
    }

    /**
     * Maximum in-flight read requests `thread` may have across all banks
     * of this channel; negative means unlimited. Implements BreakHammer-
     * style whole-thread throttling, checked at the same lane admission
     * gate as quota() — a request must pass both.
     */
    virtual int
    threadQuota(ThreadId thread) const
    {
        (void)thread;
        return -1;
    }

    /** Wire up the owning controller (for victim-refresh scheduling). */
    virtual void setController(MemController *mc) { controller = mc; }

    /**
     * Publish mechanism counters into `stats` (call once after a run).
     * Mechanisms with internal counters not already mirrored in `stats`
     * override this; the default is a no-op.
     */
    virtual void syncStats() {}

    /** Trace identity; assigned by System when a trace is open. */
    void setTraceMeta(const TraceMeta &meta) { tmeta = meta; }
    const TraceMeta &traceMeta() const { return tmeta; }

    /** Mechanism-specific statistics. */
    StatSet stats;

  protected:
    MemController *controller = nullptr;
    TraceMeta tmeta;
};

/** No-op mechanism: the unprotected baseline system. */
class NullMitigation : public Mitigation
{
  public:
    std::string name() const override { return "Baseline"; }
    bool actQueriesObservable() const override { return false; }
};

} // namespace bh

#endif // BH_MEM_MITIGATION_HH
