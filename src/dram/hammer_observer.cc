#include "dram/hammer_observer.hh"

#include <algorithm>

#include "common/log.hh"

namespace bh
{

HammerObserver::HammerObserver(const DramOrg &o, const HammerConfig &config)
    : org(o), cfg(config), rows(o.rowsPerBank), banks(o.banksPerChannel()),
      disturbance(static_cast<std::size_t>(banks) * rows),
      actCount(static_cast<std::size_t>(banks) * rows),
      written((static_cast<std::size_t>(banks) * rows + kGroupRows - 1) /
              kGroupRows)
{
    impact.resize(cfg.blastRadius + 1, 0.0);
    for (unsigned k = 1; k <= cfg.blastRadius; ++k) {
        impact[k] = 1.0;
        for (unsigned i = 1; i < k; ++i)
            impact[k] *= cfg.blastImpactBase;
    }
}

void
HammerObserver::onActivate(unsigned bank, RowId row, Cycle now)
{
    ++acts;
    std::size_t ai = index(bank, row);
    written[ai / kGroupRows] = 1;
    auto &count = actCount[ai];
    ++count;
    maxRowActs = std::max<std::uint64_t>(maxRowActs, count & ~kFlipped);

    for (unsigned k = 1; k <= cfg.blastRadius; ++k) {
        for (int dir : {-1, 1}) {
            std::int64_t victim =
                static_cast<std::int64_t>(row) + dir * static_cast<int>(k);
            if (victim < 0 || victim >= static_cast<std::int64_t>(rows))
                continue;
            std::size_t vi = index(bank, static_cast<RowId>(victim));
            // A victim at a group edge lies in the neighbouring group.
            written[vi / kGroupRows] = 1;
            disturbance[vi] += impact[k];
            if (disturbance[vi] >= cfg.nRH && !(actCount[vi] & kFlipped)) {
                actCount[vi] |= kFlipped;
                flips.push_back(
                    BitFlipEvent{bank, static_cast<RowId>(victim), now});
            }
        }
    }
}

void
HammerObserver::clearRows(std::size_t i, std::size_t len)
{
    // A group no ACT wrote still reads zero: skip it without touching
    // (and so without faulting in) its pages.
    std::size_t end = i + len;
    while (i < end) {
        std::size_t stop = std::min(end, (i / kGroupRows + 1) * kGroupRows);
        if (written[i / kGroupRows]) {
            std::fill_n(disturbance.from(i), stop - i, 0.0);
            std::fill_n(actCount.from(i), stop - i, 0u);
        }
        i = stop;
    }
}

void
HammerObserver::onRowRefresh(unsigned bank, RowId row)
{
    clearRows(index(bank, row), 1);
}

void
HammerObserver::onAutoRefresh(RowId first_row, unsigned num_rows)
{
    // The sweep covers rows first..first+num_rows-1 modulo the bank, so
    // at most two contiguous ranges (the wrap splits one).
    std::size_t first = first_row % rows;
    std::size_t n = std::min<std::size_t>(num_rows, rows);
    std::size_t head = std::min(n, rows - first);
    for (unsigned b = 0; b < banks; ++b) {
        clearRows(index(b, 0) + first, head);
        clearRows(index(b, 0), n - head);
    }
}

} // namespace bh
