#include "mitigations/graphene.hh"

#include <algorithm>

#include "common/bitutils.hh"

namespace bh
{

Graphene::Graphene(const MitigationSettings &settings)
    : cfg(settings), nextReset(settings.timings.tREFW)
{
    // T: refresh the neighbors every T activations of a tracked row; half
    // the effective budget keeps double-sided disturbance below N_RH.
    thT = std::max<std::uint32_t>(1, cfg.effectiveNRH() / 2);
    // W: most activations one bank can absorb in a window (tRC-limited).
    auto w = static_cast<std::uint64_t>(
        cfg.timings.tREFW / std::max<Cycle>(1, cfg.timings.tRC));
    numEntries = static_cast<unsigned>(ceilDiv(
        static_cast<std::int64_t>(w), static_cast<std::int64_t>(thT))) + 1;
    tables.assign(cfg.banks, MisraGriesTable(numEntries));
}

void
Graphene::refreshNeighbors(unsigned bank, RowId row, Cycle now)
{
    if (TraceSink::on()) {
        TraceSink::instant("mitig", "graphene_refresh", tmeta, now,
                           {{"bank", static_cast<std::int64_t>(bank)},
                            {"row", static_cast<std::int64_t>(row)}});
    }
    numRefreshes += scheduleNeighborRefreshes(*controller, cfg, bank, row);
}

void
Graphene::onActivate(unsigned bank, RowId row, ThreadId, Cycle now)
{
    auto &table = tables[bank];
    if (auto *e = table.find(row)) {
        if (++e->count % thT == 0)
            refreshNeighbors(bank, row, now);
    } else if (table.hasRoom()) {
        table.insert(row, 1);
    } else if (auto *e = table.spill(row)) {
        // The new row took over the minimum entry at spillover + 1.
        if (e->count >= thT && e->count % thT == 0)
            refreshNeighbors(bank, row, now);
    }
}

void
Graphene::tick(Cycle now)
{
    if (now >= nextReset) {
        for (auto &table : tables)
            table.clear();
        nextReset += cfg.timings.tREFW;
    }
}

} // namespace bh
