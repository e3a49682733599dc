#include "dram/bank.hh"

#include <algorithm>

#include "common/log.hh"

namespace bh
{

Bank::Bank(const DramTimings &timings) : t(timings)
{
}

void
Bank::unsupportedCommand(DramCommand cmd)
{
    panic("Bank::earliest: unsupported command %s", commandName(cmd));
}

void
Bank::issue(DramCommand cmd, RowId target_row, Cycle now)
{
    switch (cmd) {
      case DramCommand::kAct:
        if (open)
            panic("ACT to open bank");
        open = true;
        row = target_row;
        nextRd = std::max(nextRd, now + t.tRCD);
        nextWr = std::max(nextWr, now + t.tRCD);
        nextPre = std::max(nextPre, now + t.tRAS);
        nextAct = std::max(nextAct, now + t.tRC);
        break;
      case DramCommand::kPre:
        if (!open)
            panic("PRE to closed bank");
        open = false;
        nextAct = std::max(nextAct, now + t.tRP);
        break;
      case DramCommand::kRd:
        if (!open || row != target_row)
            panic("RD to wrong/closed row");
        // Read-to-precharge.
        nextPre = std::max(nextPre, now + t.tRTP);
        break;
      case DramCommand::kWr:
        if (!open || row != target_row)
            panic("WR to wrong/closed row");
        // Last write data + write recovery before PRE.
        nextPre = std::max(nextPre, now + t.tCWL + t.tBL + t.tWR);
        break;
      default:
        panic("Bank::issue: unsupported command %s", commandName(cmd));
    }
}

void
Bank::blockUntil(Cycle cycle)
{
    nextAct = std::max(nextAct, cycle);
}

} // namespace bh
