#include "mitigations/prohit.hh"

#include <algorithm>

namespace bh
{

Prohit::Prohit(const MitigationSettings &settings)
    : cfg(settings), rng(settings.seed ^ 0x9c0417ull),
      tables(settings.banks)
{
}

void
Prohit::touch(BankTable &table, RowId row)
{
    // Hit in the hot queue: promote one position toward the head.
    auto hot_it = std::find(table.hot.begin(), table.hot.end(), row);
    if (hot_it != table.hot.end()) {
        if (hot_it != table.hot.begin())
            std::iter_swap(hot_it, hot_it - 1);
        return;
    }
    // Hit in the cold queue: promote toward / into the hot queue.
    auto cold_it = std::find(table.cold.begin(), table.cold.end(), row);
    if (cold_it != table.cold.end()) {
        if (cold_it != table.cold.begin()) {
            std::iter_swap(cold_it, cold_it - 1);
        } else {
            // Head of cold: move into the hot queue's tail.
            table.cold.erase(cold_it);
            if (table.hot.size() >= kHotEntries) {
                // Demote the hot tail back to cold.
                table.cold.insert(table.cold.begin(), table.hot.back());
                table.hot.pop_back();
            }
            table.hot.push_back(row);
        }
        return;
    }
    // Miss: probabilistic insertion at the cold tail.
    if (!rng.chance(kInsertProb))
        return;
    if (table.cold.size() >= kColdEntries)
        table.cold.pop_back();
    table.cold.push_back(row);
}

void
Prohit::onActivate(unsigned bank, RowId row, ThreadId, Cycle)
{
    touch(tables[bank], row);
}

void
Prohit::onAutoRefresh(RowId, unsigned, Cycle now)
{
    // Piggyback on each periodic refresh: serve the hottest entry of every
    // bank by refreshing its neighbors.
    for (unsigned b = 0; b < cfg.banks; ++b) {
        auto &table = tables[b];
        if (table.hot.empty())
            continue;
        RowId aggressor = table.hot.front();
        table.hot.erase(table.hot.begin());
        if (TraceSink::on()) {
            TraceSink::instant(
                "mitig", "prohit_refresh", tmeta, now,
                {{"bank", static_cast<std::int64_t>(b)},
                 {"row", static_cast<std::int64_t>(aggressor)}});
        }
        numRefreshes +=
            scheduleNeighborRefreshes(*controller, cfg, b, aggressor);
    }
}

} // namespace bh
