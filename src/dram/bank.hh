/**
 * @file
 * Per-bank timing state machine.
 *
 * Each bank tracks its open row and the earliest cycle at which each command
 * class may legally be issued to it. The device layer adds rank-level
 * constraints (tRRD, tFAW, data bus, refresh).
 */

#ifndef BH_DRAM_BANK_HH
#define BH_DRAM_BANK_HH

#include "common/types.hh"
#include "dram/command.hh"
#include "dram/timing.hh"

namespace bh
{

/** Timing/state model of one DRAM bank. */
class Bank
{
  public:
    explicit Bank(const DramTimings &timings);

    /** True if a row is currently open. */
    bool isOpen() const { return open; }

    /** The open row (valid only when isOpen()). */
    RowId openRow() const { return row; }

    /** Earliest cycle the given command may be issued to this bank. */
    Cycle
    earliest(DramCommand cmd) const
    {
        switch (cmd) {
          case DramCommand::kAct:
            return nextAct;
          case DramCommand::kPre:
            return nextPre;
          case DramCommand::kRd:
            return nextRd;
          case DramCommand::kWr:
            return nextWr;
          default:
            unsupportedCommand(cmd);
        }
    }

    /**
     * Apply a command's timing effects at cycle `now`.
     * The caller is responsible for having checked legality.
     */
    void issue(DramCommand cmd, RowId target_row, Cycle now);

    /** Force-block ACT until `cycle` (used by all-bank refresh). */
    void blockUntil(Cycle cycle);

  private:
    /** Panic for a command without per-bank timing (REF). */
    [[noreturn]] static void unsupportedCommand(DramCommand cmd);

    const DramTimings &t;
    bool open = false;
    RowId row = 0;
    Cycle nextAct = 0;
    Cycle nextPre = 0;
    Cycle nextRd = 0;
    Cycle nextWr = 0;
};

} // namespace bh

#endif // BH_DRAM_BANK_HH
