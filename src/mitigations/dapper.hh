/**
 * @file
 * DAPPER: a performance-attack-resilient aggressor tracker.
 *
 * Tracker-based mitigations export a denial-of-service lever: an
 * attacker who knows the trigger threshold can force a preventive
 * refresh per T activations from every bank at once, turning the
 * defense itself into a bandwidth attack on co-running victims
 * (a *performance attack*, the failure mode the DAPPER line of work
 * targets). This tracker bounds that lever: per-bank Misra-Gries
 * tracking runs at a lowered trigger threshold, but trigger events do
 * not refresh immediately — they enter a FIFO drained at a fixed
 * budgeted rate (a small batch per tREFI). The preventive-refresh
 * bandwidth an attacker can force is therefore capped by construction;
 * triggers beyond the budget are deferred, never dropped. The lowered
 * threshold buys back the deferral latency for ordinary aggressor
 * patterns, while saturation attacks degrade the mitigation's
 * *latency*, not the victims' bandwidth.
 */

#ifndef BH_MITIGATIONS_DAPPER_HH
#define BH_MITIGATIONS_DAPPER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/mitigation.hh"
#include "mitigations/misra_gries.hh"
#include "mitigations/settings.hh"

namespace bh
{

/** DAPPER mechanism: budgeted-refresh Misra-Gries tracker. */
class Dapper : public Mitigation
{
  public:
    explicit Dapper(const MitigationSettings &settings);

    std::string name() const override { return "DAPPER"; }
    /** Keeps the default isActSafe: always safe, nothing recorded. */
    bool actQueriesObservable() const override { return false; }

    void onActivate(unsigned bank, RowId row, ThreadId thread,
                    Cycle now) override;
    void tick(Cycle now) override;
    Cycle nextHousekeepingAt(Cycle now) const override;
    void syncStats() override;

    std::uint64_t refreshesIssued() const { return numRefreshes; }
    std::uint64_t triggerEvents() const { return numTriggers; }
    std::uint64_t deferredTriggers() const { return numDeferred; }
    std::size_t pendingTriggers() const { return pending.size(); }
    std::uint32_t threshold() const { return thT; }
    unsigned tableSize() const { return numEntries; }
    Cycle drainInterval() const { return drainEvery; }
    unsigned drainBatch() const { return batch; }

  private:
    /** One owed preventive refresh batch (a trigger event). */
    struct Trigger
    {
        unsigned bank = 0;
        RowId row = 0;
    };

    void noteTrigger(unsigned bank, RowId row, Cycle now);

    MitigationSettings cfg;
    std::uint32_t thT = 0;          ///< Misra-Gries trigger threshold
    unsigned numEntries = 0;        ///< table entries per bank
    std::vector<MisraGriesTable> tables;
    std::deque<Trigger> pending;    ///< owed refreshes, FIFO
    Cycle drainEvery = 1;           ///< budget interval (from tREFI)
    unsigned batch = 1;             ///< triggers served per interval
    Cycle nextDrainAt = 0;
    Cycle nextReset = 0;
    std::uint64_t numTriggers = 0;
    std::uint64_t numDeferred = 0;
    std::uint64_t numRefreshes = 0;
};

} // namespace bh

#endif // BH_MITIGATIONS_DAPPER_HH
