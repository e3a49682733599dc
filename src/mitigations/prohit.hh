/**
 * @file
 * PRoHIT: Probabilistic Row-Hammering Inhibition Table (Son et al.,
 * DAC 2017).
 *
 * Maintains per-bank hot/cold queues of recently-aggressive rows with
 * probabilistic insertion and promotion; whenever an auto-refresh command
 * arrives, the neighbors of the hottest tracked aggressor are refreshed
 * and the entry retires. We use the paper's default probabilities
 * (insert 1/16, promote-on-hit) as the original reports them; PRoHIT
 * provides no scaling rule for other thresholds (Table 4 footnote).
 */

#ifndef BH_MITIGATIONS_PROHIT_HH
#define BH_MITIGATIONS_PROHIT_HH

#include <vector>

#include "common/rng.hh"
#include "mem/mitigation.hh"
#include "mitigations/settings.hh"

namespace bh
{

/** PRoHIT mechanism. */
class Prohit : public Mitigation
{
  public:
    explicit Prohit(const MitigationSettings &settings);

    std::string name() const override { return "PRoHIT"; }
    /** Keeps the default isActSafe: always safe, nothing recorded. */
    bool actQueriesObservable() const override { return false; }

    void onActivate(unsigned bank, RowId row, ThreadId thread,
                    Cycle now) override;
    void onAutoRefresh(RowId first_row, unsigned num_rows,
                       Cycle now) override;

    std::uint64_t refreshesIssued() const { return numRefreshes; }

    /** Paper defaults. */
    static constexpr unsigned kHotEntries = 4;
    static constexpr unsigned kColdEntries = 4;
    static constexpr double kInsertProb = 1.0 / 16.0;

  private:
    struct BankTable
    {
        std::vector<RowId> hot;     ///< index 0 = hottest
        std::vector<RowId> cold;    ///< index 0 = warmest cold entry
    };

    void touch(BankTable &table, RowId row);

    MitigationSettings cfg;
    Rng rng;
    std::vector<BankTable> tables;
    std::uint64_t numRefreshes = 0;
};

} // namespace bh

#endif // BH_MITIGATIONS_PROHIT_HH
