#include "dram/hammer_observer.hh"

#include <algorithm>

#include "common/log.hh"

namespace bh
{

HammerObserver::HammerObserver(const DramOrg &o, const HammerConfig &config)
    : org(o), cfg(config), rows(o.rowsPerBank), banks(o.banksPerChannel()),
      disturbance(static_cast<std::size_t>(banks) * rows),
      actCount(static_cast<std::size_t>(banks) * rows)
{
    flipped.assign(static_cast<std::size_t>(banks) * rows, false);
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
    auto &count = actCount[index(bank, row)];
    ++count;
    maxRowActs = std::max<std::uint64_t>(maxRowActs, count);

    for (unsigned k = 1; k <= cfg.blastRadius; ++k) {
        for (int dir : {-1, 1}) {
            std::int64_t victim =
                static_cast<std::int64_t>(row) + dir * static_cast<int>(k);
            if (victim < 0 || victim >= static_cast<std::int64_t>(rows))
                continue;
            std::size_t vi = index(bank, static_cast<RowId>(victim));
            disturbance[vi] += impact[k];
            maxDist = std::max(maxDist, disturbance[vi]);
            if (!flipped[vi] && disturbance[vi] >= cfg.nRH) {
                flipped[vi] = true;
                flips.push_back(
                    BitFlipEvent{bank, static_cast<RowId>(victim), now});
            }
        }
    }
}

void
HammerObserver::onRowRefresh(unsigned bank, RowId row)
{
    std::size_t i = index(bank, row);
    disturbance[i] = 0.0;
    actCount[i] = 0;
    flipped[i] = false;
}

void
HammerObserver::onAutoRefresh(RowId first_row, unsigned num_rows)
{
    // The sweep covers rows first..first+num_rows-1 modulo the bank, so
    // at most two contiguous ranges (the wrap splits one).
    std::size_t first = first_row % rows;
    std::size_t n = std::min<std::size_t>(num_rows, rows);
    std::size_t head = std::min(n, rows - first);
    auto clear = [this](std::size_t i, std::size_t len) {
        std::fill_n(disturbance.from(i), len, 0.0);
        std::fill_n(actCount.from(i), len, 0u);
        std::fill_n(flipped.begin() + i, len, false);
    };
    for (unsigned b = 0; b < banks; ++b) {
        clear(index(b, 0) + first, head);
        clear(index(b, 0), n - head);
    }
}

} // namespace bh
