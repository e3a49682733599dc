/**
 * @file
 * Graphene (Park et al., MICRO 2020): Misra-Gries frequent-element
 * tracking of aggressor rows.
 *
 * Each bank keeps a small table of (row, count) pairs plus a spillover
 * counter. Table hits increment the row's count; misses increment the
 * spillover counter and displace the minimum entry once the spillover
 * matches it (the classic Misra-Gries summary, which guarantees any row
 * activated more than T times in a window is in the table). Every time a
 * tracked count crosses a multiple of T, the row's neighbors are
 * refreshed. The table resets every window; the table size is
 * ceil(W / T) with W the maximum activations per window.
 */

#ifndef BH_MITIGATIONS_GRAPHENE_HH
#define BH_MITIGATIONS_GRAPHENE_HH

#include <vector>

#include "mem/mitigation.hh"
#include "mitigations/misra_gries.hh"
#include "mitigations/settings.hh"

namespace bh
{

/** Graphene mechanism. */
class Graphene : public Mitigation
{
  public:
    explicit Graphene(const MitigationSettings &settings);

    std::string name() const override { return "Graphene"; }
    /** Keeps the default isActSafe: always safe, nothing recorded. */
    bool actQueriesObservable() const override { return false; }

    void onActivate(unsigned bank, RowId row, ThreadId thread,
                    Cycle now) override;
    void tick(Cycle now) override;
    Cycle nextHousekeepingAt(Cycle) const override { return nextReset; }

    std::uint64_t refreshesIssued() const { return numRefreshes; }
    std::uint32_t threshold() const { return thT; }
    unsigned tableSize() const { return numEntries; }

  private:
    void refreshNeighbors(unsigned bank, RowId row, Cycle now);

    MitigationSettings cfg;
    std::uint32_t thT = 0;      ///< Misra-Gries threshold T
    unsigned numEntries = 0;    ///< table entries per bank
    std::vector<MisraGriesTable> tables;
    Cycle nextReset = 0;
    std::uint64_t numRefreshes = 0;
};

} // namespace bh

#endif // BH_MITIGATIONS_GRAPHENE_HH
