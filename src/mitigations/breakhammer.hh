/**
 * @file
 * BreakHammer-style composable suspect-thread throttler.
 *
 * BlockHammer's AttackThrottler generalizes: *any* tracker-based
 * mitigation emits a blame signal for free — the preventive refreshes
 * it schedules. This wrapper stacks on an arbitrary base mechanism and
 * attributes every victim refresh the base schedules from inside
 * onActivate() to the thread whose activation triggered it, feeding
 * RHLI-style per-thread scores (two time-interleaved saturating
 * counters, cleared and swapped every half refresh window, exactly the
 * AttackThrottler discipline). A thread whose score approaches 1 has
 * its channel-wide in-flight read quota shrunk to zero at the lane
 * admission gate (Mitigation::threadQuota), starving the suspect
 * without touching the base mechanism's own protection.
 *
 * Composition is observation-only until a thread becomes suspect: all
 * Mitigation hooks forward to the base, and with zero blame every
 * threadQuota() answer is "unlimited" — `BreakHammer+Baseline` runs
 * byte-identical to `Baseline` (tests pin this identity).
 *
 * Blame is only collected around onActivate(), which never runs during
 * skipped idle ticks, so scores are byte-identical across --skip
 * modes with no replay bookkeeping. Bases that defer their refreshes
 * to tick-time (DAPPER) or throttle instead of refreshing (BlockHammer)
 * emit no onActivate-time triggers and gain no throttling from this
 * wrapper — compose it with reactive trackers (Graphene, TWiCe, CBT,
 * PARA, ABACuS).
 */

#ifndef BH_MITIGATIONS_BREAKHAMMER_HH
#define BH_MITIGATIONS_BREAKHAMMER_HH

#include <cstdint>
#include <memory>

#include "blockhammer/attack_throttler.hh"
#include "mem/mitigation.hh"
#include "mitigations/settings.hh"

namespace bh
{

/** Suspect-thread throttler stackable on any base mechanism. */
class BreakHammer : public Mitigation
{
  public:
    BreakHammer(std::unique_ptr<Mitigation> base_mech,
                const MitigationSettings &settings);

    std::string name() const override
    {
        return "BreakHammer+" + base->name();
    }

    bool isActSafe(unsigned bank, RowId row, ThreadId thread,
                   Cycle now) override
    {
        return base->isActSafe(bank, row, thread, now);
    }
    bool actQueriesObservable() const override
    {
        return base->actQueriesObservable();
    }
    const std::uint64_t *verdictStamps() const override
    {
        return base->verdictStamps();
    }
    Cycle refusalLapsesAt(unsigned bank, RowId row,
                          Cycle now) const override
    {
        return base->refusalLapsesAt(bank, row, now);
    }
    void noteRepeatedRefusals(std::uint64_t n) override
    {
        base->noteRepeatedRefusals(n);
    }
    bool knownSafe(unsigned bank, RowId row, Cycle now) const override
    {
        return base->knownSafe(bank, row, now);
    }

    void onActivate(unsigned bank, RowId row, ThreadId thread,
                    Cycle now) override;
    void onAutoRefresh(RowId first_row, unsigned num_rows,
                       Cycle now) override
    {
        base->onAutoRefresh(first_row, num_rows, now);
    }

    void tick(Cycle now) override;
    Cycle nextHousekeepingAt(Cycle now) const override;

    int quota(ThreadId thread, unsigned bank) const override
    {
        return base->quota(thread, bank);
    }
    int threadQuota(ThreadId thread) const override;

    void setController(MemController *mc) override;
    void syncStats() override;

    /** Normalized blame score of `thread` (the RHLI analogue). */
    double score(ThreadId thread) const;

    /** Trigger events blamed on `thread` in the active epoch. */
    std::uint32_t blamedTriggers(ThreadId thread) const;

    std::uint64_t totalBlamed() const { return numBlamed; }
    const Mitigation &baseMechanism() const { return *base; }

  private:
    void blame(ThreadId thread, std::uint64_t triggers);

    std::unique_ptr<Mitigation> base;
    MitigationSettings cfg;
    double blameDenom = 1.0;        ///< score-1 trigger count
    int baseQuota = 4;              ///< in-flight reads at score -> 0+
    Cycle epoch = 1;                ///< counter half-life (tREFW / 2)
    Cycle nextEpochAt = 0;
    ThrottleCounters counters;      ///< per thread
    std::uint64_t numBlamed = 0;
    std::uint64_t numThrottledEpochs = 0;
};

} // namespace bh

#endif // BH_MITIGATIONS_BREAKHAMMER_HH
