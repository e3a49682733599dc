/**
 * @file
 * Channel-level DRAM device model: banks plus rank-level constraints
 * (tRRD, tFAW, data-bus turnaround) and all-bank auto refresh.
 *
 * The device enforces timing legality: issue() panics if the controller
 * violates a constraint, so the controller logic is continuously validated
 * during every simulation and test run.
 */

#ifndef BH_DRAM_DEVICE_HH
#define BH_DRAM_DEVICE_HH

#include <algorithm>
#include <array>
#include <vector>

#include "dram/bank.hh"
#include "dram/org.hh"
#include "dram/timing.hh"

namespace bh
{

/**
 * One DRAM channel (with its ranks/banks) as seen by a memory controller.
 */
class DramDevice
{
  public:
    DramDevice(const DramOrg &org, const DramTimings &timings);

    /** Earliest legal issue cycle of `cmd` to `flat_bank`. */
    Cycle
    earliest(DramCommand cmd, unsigned flat_bank) const
    {
        if (flat_bank >= banks.size())
            bankOutOfRange(flat_bank);
        Cycle e = banks[flat_bank].earliest(cmd);
        switch (cmd) {
          case DramCommand::kAct:
            e = std::max(e, actEarliest());
            break;
          case DramCommand::kRd:
            e = std::max(e, nextRd);
            break;
          case DramCommand::kWr:
            e = std::max(e, nextWr);
            break;
          default:
            break;
        }
        return e;
    }

    /** True if `cmd` to `flat_bank` is legal at `now`. */
    bool
    canIssue(DramCommand cmd, unsigned flat_bank, Cycle now) const
    {
        return earliest(cmd, flat_bank) <= now;
    }

    /**
     * Rank-level earliest issue cycle of a column command (tCCD spacing
     * and data-bus turnaround), before per-bank constraints. The full
     * earliest() for a column command is the max of this and the bank's
     * own earliest — exposing the split lets the scheduler reject a whole
     * tick in O(1) when the shared column gate is closed.
     */
    Cycle
    columnEarliest(DramCommand cmd) const
    {
        return cmd == DramCommand::kRd ? nextRd : nextWr;
    }

    /**
     * Rank-level earliest issue cycle of an ACT (tRRD, tFAW), before
     * per-bank constraints; earliest(kAct, b) is the max of this and
     * bank b's own ACT time.
     */
    Cycle
    actEarliest() const
    {
        // tFAW: the 4th-most-recent ACT bounds the next one.
        Cycle oldest = actWindow[actWindowPos];
        return oldest >= 0 ? std::max(nextActRank, oldest + t.tFAW)
                           : nextActRank;
    }

    /** Issue a command; panics on a timing violation. */
    void issue(DramCommand cmd, unsigned flat_bank, RowId row, Cycle now);

    /** Earliest cycle an all-bank REF may be issued (all banks closed). */
    Cycle earliestRefresh() const;

    /** True if any bank is currently open (REF requires all closed). */
    bool anyBankOpen() const;

    /** Issue all-bank refresh; returns the set of row ranges refreshed. */
    struct RefreshedRange
    {
        RowId firstRow = 0;
        unsigned numRows = 0;
    };
    RefreshedRange issueRefresh(Cycle now);

    /** Bank accessors. */
    const Bank &bank(unsigned flat_bank) const { return banks[flat_bank]; }
    unsigned numBanks() const { return static_cast<unsigned>(banks.size()); }

    /** Rows refreshed by each REF command (rowsPerBank / refreshes per tREFW). */
    unsigned rowsPerRefresh() const { return rowsPerRef; }

    /** Number of banks currently open. */
    unsigned openBankCount() const { return openBanks; }

    const DramOrg &organization() const { return org; }
    const DramTimings &timings() const { return t; }

  private:
    DramOrg org;
    DramTimings t;
    std::vector<Bank> banks;

    // Rank-level constraints (single rank per channel in the paper config;
    // modeled per channel for simplicity).
    Cycle nextActRank = 0;          ///< tRRD
    Cycle nextRd = 0;               ///< column cmd spacing + turnaround
    Cycle nextWr = 0;
    std::array<Cycle, 4> actWindow{{-1, -1, -1, -1}};   ///< tFAW ring
    unsigned actWindowPos = 0;

    RowId refreshRowPtr = 0;        ///< next row block to auto-refresh
    unsigned rowsPerRef = 0;
    unsigned openBanks = 0;

    /** Panic for a bank index past the channel's banks. */
    [[noreturn]] void bankOutOfRange(unsigned flat_bank) const;
};

} // namespace bh

#endif // BH_DRAM_DEVICE_HH
