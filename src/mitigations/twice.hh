/**
 * @file
 * TWiCe: Time Window Counters (Lee et al., ISCA 2019).
 *
 * A per-bank table tracks each candidate aggressor row's activation count
 * and lifetime. At every pruning interval (tREFI), entries whose count
 * cannot possibly reach the RowHammer budget within the refresh window are
 * dropped, keeping the table small. When a count reaches the refresh
 * threshold, the row's neighbors are refreshed and the entry resets.
 *
 * We model TWiCe-ideal (as Kim et al. ISCA'20 and the BlockHammer paper
 * do for scalability studies): the pruning latency issue of the original
 * design is assumed solved.
 */

#ifndef BH_MITIGATIONS_TWICE_HH
#define BH_MITIGATIONS_TWICE_HH

#include <unordered_map>
#include <vector>

#include "mem/mitigation.hh"
#include "mitigations/settings.hh"

namespace bh
{

/** TWiCe mechanism. */
class Twice : public Mitigation
{
  public:
    explicit Twice(const MitigationSettings &settings);

    std::string name() const override { return "TWiCe"; }
    /** Keeps the default isActSafe: always safe, nothing recorded. */
    bool actQueriesObservable() const override { return false; }

    void onActivate(unsigned bank, RowId row, ThreadId thread,
                    Cycle now) override;
    void onAutoRefresh(RowId first_row, unsigned num_rows,
                       Cycle now) override;

    std::uint64_t refreshesIssued() const { return numRefreshes; }
    std::uint64_t pruned() const { return numPruned; }

    /** Current table occupancy across banks (area model input). */
    std::size_t tableEntries() const;

    /** Peak table occupancy observed. */
    std::size_t peakTableEntries() const { return peakEntries; }

    std::uint32_t refreshThreshold() const { return thRH; }
    double pruneThreshold() const { return thPRU; }

  private:
    struct Entry
    {
        std::uint32_t count = 0;
        std::uint32_t life = 0;     ///< pruning intervals survived
    };

    MitigationSettings cfg;
    std::uint32_t thRH = 0;  ///< refresh neighbors at this count
    double thPRU = 0.0;      ///< minimum count growth per interval
    std::vector<std::unordered_map<RowId, Entry>> tables;
    std::size_t peakEntries = 0;
    std::uint64_t numRefreshes = 0;
    std::uint64_t numPruned = 0;
};

} // namespace bh

#endif // BH_MITIGATIONS_TWICE_HH
