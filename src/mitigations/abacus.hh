/**
 * @file
 * ABACuS (Olgun et al., USENIX Security 2024): all-bank shared
 * activation counters.
 *
 * ABACuS exploits the bank-level parallelism of modern workloads (and
 * attacks): the same row address tends to be activated in many banks
 * close together in time, so one shared counter per row *address* can
 * stand in for per-bank counters at a fraction of the storage. Each
 * table entry keeps a Row Activation Counter (RAC) and a Sibling
 * Activation Vector (SAV, one bit per bank). An activation of row R in
 * bank B sets SAV[B]; if SAV[B] was already set, the row address has
 * started a new activation round across its siblings, so RAC increments
 * and the SAV collapses to just {B}. Every time a RAC crosses a
 * multiple of the trigger threshold, the neighbors of R are refreshed
 * in every bank (the shared counter cannot tell which sibling is under
 * attack). Misses run the same Misra-Gries spillover discipline as
 * Graphene, and the whole table resets every refresh window.
 */

#ifndef BH_MITIGATIONS_ABACUS_HH
#define BH_MITIGATIONS_ABACUS_HH

#include <cstdint>

#include "mem/mitigation.hh"
#include "mitigations/misra_gries.hh"
#include "mitigations/settings.hh"

namespace bh
{

/** ABACuS mechanism: one shared (RAC, SAV) table for all banks. */
class Abacus : public Mitigation
{
  public:
    explicit Abacus(const MitigationSettings &settings);

    std::string name() const override { return "ABACuS"; }

    void onActivate(unsigned bank, RowId row, ThreadId thread,
                    Cycle now) override;
    void tick(Cycle now) override;
    Cycle nextHousekeepingAt(Cycle) const override { return nextReset; }
    void syncStats() override;

    std::uint64_t refreshesIssued() const { return numRefreshes; }
    std::uint64_t triggerEvents() const { return numTriggers; }
    std::uint32_t threshold() const { return thT; }
    unsigned tableSize() const { return numEntries; }

    /** RAC of a tracked row address (0 when untracked); for tests. */
    std::uint32_t rac(RowId row) const;

    /** SAV of a tracked row address (0 when untracked); for tests. */
    std::uint64_t sav(RowId row) const;

  private:
    void refreshNeighborsAllBanks(RowId row, Cycle now);

    MitigationSettings cfg;
    std::uint32_t thT = 0;          ///< RAC trigger threshold
    unsigned numEntries = 0;        ///< shared-table entries (whole rank)
    /** Entry count = RAC, entry word = SAV (one bit per bank). */
    MisraGriesTable table;
    Cycle nextReset = 0;
    std::uint64_t numTriggers = 0;
    std::uint64_t numRefreshes = 0;
};

} // namespace bh

#endif // BH_MITIGATIONS_ABACUS_HH
