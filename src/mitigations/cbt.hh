/**
 * @file
 * CBT: Counter-Based adaptive Tree (Seyedzadeh et al., ISCA 2018).
 *
 * A per-bank binary tree of counters over row-address regions. Every
 * activation increments the counter of the (unique) leaf region containing
 * the row. When a region's count crosses its level threshold, the region
 * splits in half (children conservatively inherit the parent count, so no
 * aggressor is under-counted). When a deepest-level region crosses the
 * final threshold, all rows of the region are refreshed and its counter
 * resets. Thresholds grow exponentially from T0 to the effective
 * RowHammer budget across levels; counters reset every refresh window.
 * Configured as the paper evaluates it: 6 levels, 125 counters per bank.
 */

#ifndef BH_MITIGATIONS_CBT_HH
#define BH_MITIGATIONS_CBT_HH

#include <vector>

#include "mem/mitigation.hh"
#include "mitigations/settings.hh"

namespace bh
{

/** CBT mechanism. */
class Cbt : public Mitigation
{
  public:
    /**
     * @param levels tree depth; 0 = auto (6 at N_RH=32K, deepening as the
     *        threshold shrinks so leaf regions stay proportionate — the
     *        scaling behavior Table 4 charges CBT for)
     * @param max_counters counter budget per bank; 0 = auto (125 at 32K)
     */
    explicit Cbt(const MitigationSettings &settings, unsigned levels = 0,
                 unsigned max_counters = 0);

    std::string name() const override { return "CBT"; }
    /** Keeps the default isActSafe: always safe, nothing recorded. */
    bool actQueriesObservable() const override { return false; }

    void onActivate(unsigned bank, RowId row, ThreadId thread,
                    Cycle now) override;
    void tick(Cycle now) override;
    Cycle nextHousekeepingAt(Cycle) const override { return nextReset; }

    std::uint64_t regionRefreshes() const { return numRegionRefreshes; }
    std::uint64_t rowsRefreshed() const { return numRowsRefreshed; }

    /** Level thresholds (exposed for tests). */
    const std::vector<std::uint32_t> &thresholds() const { return levelThr; }

  private:
    /** One disjoint row-region with a counter. */
    struct Region
    {
        RowId lo = 0;       ///< inclusive
        RowId hi = 0;       ///< exclusive
        unsigned level = 0;
        std::uint32_t count = 0;
    };

    struct BankTree
    {
        std::vector<Region> regions;    ///< sorted by lo, disjoint cover
    };

    void resetBank(BankTree &tree);
    void refreshRegion(unsigned bank, const Region &region);

    MitigationSettings cfg;
    unsigned numLevels = 0;
    unsigned maxCounters = 0;
    std::vector<std::uint32_t> levelThr;
    std::vector<BankTree> trees;
    Cycle nextReset = 0;
    std::uint64_t numRegionRefreshes = 0;
    std::uint64_t numRowsRefreshed = 0;
};

} // namespace bh

#endif // BH_MITIGATIONS_CBT_HH
