#include "dram/device.hh"

#include <algorithm>

#include "common/log.hh"

namespace bh
{

DramDevice::DramDevice(const DramOrg &o, const DramTimings &timings)
    : org(o), t(timings)
{
    banks.reserve(org.banksPerChannel());
    for (unsigned i = 0; i < org.banksPerChannel(); ++i)
        banks.emplace_back(t);

    // Auto refresh sweeps the whole bank once per tREFW; each REF covers an
    // equal slice of rows (8 for the paper's 64K rows / 8192 REFs).
    auto refs_per_window =
        static_cast<unsigned>(t.tREFW / t.tREFI);
    rowsPerRef = std::max(1u, org.rowsPerBank / refs_per_window);
}

void
DramDevice::bankOutOfRange(unsigned flat_bank) const
{
    panic("bank index %u out of range", flat_bank);
}

void
DramDevice::issue(DramCommand cmd, unsigned flat_bank, RowId row, Cycle now)
{
    Cycle e = earliest(cmd, flat_bank);
    if (now < e) {
        panic("timing violation: %s bank %u at cycle %lld (earliest %lld)",
              commandName(cmd), flat_bank,
              static_cast<long long>(now), static_cast<long long>(e));
    }
    switch (cmd) {
      case DramCommand::kAct:
        banks[flat_bank].issue(cmd, row, now);
        nextActRank = now + t.tRRD;
        actWindow[actWindowPos] = now;
        actWindowPos = (actWindowPos + 1) % actWindow.size();
        ++openBanks;
        break;
      case DramCommand::kPre:
        banks[flat_bank].issue(cmd, row, now);
        --openBanks;
        break;
      case DramCommand::kRd:
        banks[flat_bank].issue(cmd, row, now);
        nextRd = now + t.tCCD;
        // Read-to-write turnaround: write burst must not collide with the
        // in-flight read burst on the shared data bus.
        nextWr = std::max(nextWr, now + t.tCL + t.tBL - t.tCWL + 1);
        break;
      case DramCommand::kWr:
        banks[flat_bank].issue(cmd, row, now);
        nextWr = now + t.tCCD;
        nextRd = std::max(nextRd, now + t.tCWL + t.tBL + t.tWTR);
        break;
      default:
        panic("DramDevice::issue: use issueRefresh for REF");
    }
}

Cycle
DramDevice::earliestRefresh() const
{
    // REF requires every bank precharged with tRP elapsed; each bank's
    // nextAct already embeds its post-PRE tRP point.
    Cycle e = 0;
    for (const auto &b : banks) {
        if (b.isOpen())
            return -1;  // caller must precharge first
        e = std::max(e, b.earliest(DramCommand::kAct));
    }
    return e;
}

bool
DramDevice::anyBankOpen() const
{
    return openBanks != 0;
}

DramDevice::RefreshedRange
DramDevice::issueRefresh(Cycle now)
{
    Cycle e = earliestRefresh();
    if (e < 0)
        panic("REF issued with open banks");
    if (now < e)
        panic("REF timing violation at %lld (earliest %lld)",
              static_cast<long long>(now), static_cast<long long>(e));
    for (auto &b : banks)
        b.blockUntil(now + t.tRFC);
    RefreshedRange range{refreshRowPtr, rowsPerRef};
    refreshRowPtr = static_cast<RowId>(
        (refreshRowPtr + rowsPerRef) % org.rowsPerBank);
    return range;
}

} // namespace bh
