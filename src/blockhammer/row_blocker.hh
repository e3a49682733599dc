/**
 * @file
 * RowBlocker (Section 3.1): per-bank D-CBF blacklisting (RowBlocker-BL)
 * plus the per-rank activation history buffer (RowBlocker-HB).
 *
 * An activation is RowHammer-unsafe exactly when its target row is both
 * blacklisted (activation count reached N_BL in the active CBF) and
 * recently activated (appears in the last-tDelay history), which limits a
 * blacklisted row's long-run activation rate to one per tDelay.
 */

#ifndef BH_BLOCKHAMMER_ROW_BLOCKER_HH
#define BH_BLOCKHAMMER_ROW_BLOCKER_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "blockhammer/config.hh"
#include "blockhammer/history_buffer.hh"
#include "bloom/dual_cbf.hh"

namespace bh
{

/** The proactive-throttling front end of BlockHammer. */
class RowBlocker
{
  public:
    explicit RowBlocker(const BlockHammerConfig &config);

    /** Is activating (bank, row) RowHammer-safe at `now`? */
    bool isSafe(unsigned bank, RowId row, Cycle now);

    /** Record an issued activation (updates both BL and HB). */
    void onActivate(unsigned bank, RowId row, Cycle now);

    /** Epoch clock; returns true when an epoch boundary was crossed. */
    bool clockTick(Cycle now);

    /** Age the history buffer's entries out up to `now`. */
    void expireHistory(Cycle now) { hb.expire(now); }

    /**
     * First cycle at which a refusal of (bank, row) answered at the
     * current cycle can lapse with no activation of the bank: the row's
     * latest history entry ages out, or the epoch boundary swaps the
     * filters. Only meaningful right after isSafe() refused the row.
     */
    Cycle
    refusalLapsesAt(unsigned bank, RowId row) const
    {
        return std::min(hb.lastActivation(rankRowKey(bank, row)) + delay,
                        nextBoundary);
    }

    /** Cycle of the next epoch boundary (event-skipping bound). */
    Cycle nextBoundaryAt() const;

    /** Is (bank, row) currently blacklisted? */
    bool isBlacklisted(unsigned bank, RowId row) const;

    /** Active-CBF activation-count estimate for (bank, row). */
    std::uint32_t activationEstimate(unsigned bank, RowId row) const;

    const BlockHammerConfig &config() const { return cfg; }
    Cycle tDelay() const { return delay; }
    const HistoryBuffer &historyBuffer() const { return hb; }
    const DualCbf &bankFilter(unsigned bank) const { return *filters[bank]; }

  private:
    std::uint64_t
    rankRowKey(unsigned bank, RowId row) const
    {
        return (static_cast<std::uint64_t>(bank) << 32) | row;
    }

    BlockHammerConfig cfg;
    Cycle delay = 0;
    std::vector<std::unique_ptr<DualCbf>> filters;  ///< one per bank
    HistoryBuffer hb;                               ///< per rank
    Cycle nextBoundary = 0;     ///< shared epoch boundary of all filters
};

} // namespace bh

#endif // BH_BLOCKHAMMER_ROW_BLOCKER_HH
