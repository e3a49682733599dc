#include "mitigations/twice.hh"

#include <algorithm>

#include "common/ordered.hh"

namespace bh
{

Twice::Twice(const MitigationSettings &settings)
    : cfg(settings), tables(settings.banks)
{
    // Refresh threshold: half the effective budget so the combined
    // disturbance of both aggressors around a victim stays below N_RH.
    thRH = std::max<std::uint32_t>(1, cfg.effectiveNRH() / 2);
    // A row that cannot accumulate thRH activations by the end of the
    // window is prunable: it must gain at least thRH / (tREFW / tREFI)
    // per interval to stay on track.
    double intervals = static_cast<double>(cfg.timings.tREFW) /
        static_cast<double>(cfg.timings.tREFI);
    thPRU = static_cast<double>(thRH) / intervals;
}

void
Twice::onActivate(unsigned bank, RowId row, ThreadId, Cycle now)
{
    auto &table = tables[bank];
    Entry &e = table[row];
    ++e.count;
    if (e.count >= thRH) {
        if (TraceSink::on()) {
            TraceSink::instant("mitig", "twice_refresh", tmeta, now,
                               {{"bank", static_cast<std::int64_t>(bank)},
                                {"row",
                                 static_cast<std::int64_t>(row)}});
        }
        numRefreshes +=
            scheduleNeighborRefreshes(*controller, cfg, bank, row);
        table.erase(row);
    }
    peakEntries = std::max(peakEntries, tableEntries());
}

void
Twice::onAutoRefresh(RowId, unsigned, Cycle)
{
    // Pruning interval: drop entries whose count trails the pace needed
    // to ever reach thRH within the window. Sorted-key walk (rule R2):
    // the keep/drop decision is per-entry, so the order cannot change
    // the surviving set.
    for (auto &table : tables) {
        for (RowId row : sortedMapKeys(table)) {
            auto it = table.find(row);
            Entry &e = it->second;
            ++e.life;
            double pace = thPRU * static_cast<double>(e.life);
            if (static_cast<double>(e.count) < pace) {
                table.erase(it);
                ++numPruned;
            }
        }
    }
}

std::size_t
Twice::tableEntries() const
{
    std::size_t n = 0;
    for (const auto &table : tables)
        n += table.size();
    return n;
}

} // namespace bh
