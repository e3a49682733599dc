#include "mitigations/dapper.hh"

#include <algorithm>

#include "common/bitutils.hh"

namespace bh
{

Dapper::Dapper(const MitigationSettings &settings)
    : cfg(settings), nextReset(settings.timings.tREFW)
{
    // Lowered trigger threshold (a quarter of the effective budget,
    // half of Graphene's T): triggers fire earlier to absorb the
    // worst-case deferral latency of the drain budget below.
    thT = std::max<std::uint32_t>(1, cfg.effectiveNRH() / 4);
    auto w = static_cast<std::uint64_t>(
        cfg.timings.tREFW / std::max<Cycle>(1, cfg.timings.tRC));
    numEntries = static_cast<unsigned>(ceilDiv(
        static_cast<std::int64_t>(w), static_cast<std::int64_t>(thT))) + 1;
    tables.assign(cfg.banks, MisraGriesTable(numEntries));
    // Preventive-refresh budget: one small batch per tREFI, the cadence
    // the controller already reserves for refresh work. This caps the
    // mitigation bandwidth any access pattern can force.
    drainEvery = std::max<Cycle>(1, cfg.timings.tREFI);
    batch = std::max(1u, cfg.banks / 4);
    nextDrainAt = drainEvery;
}

void
Dapper::noteTrigger(unsigned bank, RowId row, Cycle now)
{
    ++numTriggers;
    // A trigger that finds a backlog waits more than one budget slot:
    // that is the deferral the budget trades for bounded bandwidth.
    if (!pending.empty())
        ++numDeferred;
    if (TraceSink::on()) {
        TraceSink::instant("mitig", "dapper_trigger", tmeta, now,
                           {{"bank", static_cast<std::int64_t>(bank)},
                            {"row", static_cast<std::int64_t>(row)},
                            {"queued",
                             static_cast<std::int64_t>(pending.size())}});
    }
    pending.push_back(Trigger{bank, row});
}

void
Dapper::onActivate(unsigned bank, RowId row, ThreadId, Cycle now)
{
    auto &table = tables[bank];
    if (auto *e = table.find(row)) {
        if (++e->count % thT == 0)
            noteTrigger(bank, row, now);
    } else if (table.hasRoom()) {
        table.insert(row, 1);
    } else if (auto *e = table.spill(row)) {
        if (e->count >= thT && e->count % thT == 0)
            noteTrigger(bank, row, now);
    }
}

void
Dapper::tick(Cycle now)
{
    if (now >= nextReset) {
        for (auto &table : tables)
            table.clear();
        nextReset += cfg.timings.tREFW;
        // Owed refreshes survive the window reset: the budget defers,
        // it never forgets.
    }
    // Drain on a fixed cycle grid. With pending work the grid is a
    // housekeeping boundary (never skipped over); with an empty queue
    // the loop just catches the grid up, so skipped idle spans leave
    // the same state a cycle-by-cycle run reaches.
    while (now >= nextDrainAt) {
        for (unsigned i = 0; i < batch && !pending.empty(); ++i) {
            Trigger t = pending.front();
            pending.pop_front();
            numRefreshes +=
                scheduleNeighborRefreshes(*controller, cfg, t.bank, t.row);
        }
        nextDrainAt += drainEvery;
    }
}

Cycle
Dapper::nextHousekeepingAt(Cycle) const
{
    if (pending.empty())
        return nextReset;
    return std::min(nextReset, nextDrainAt);
}

void
Dapper::syncStats()
{
    stats.inc("dapper.triggers", numTriggers);
    stats.inc("dapper.deferred", numDeferred);
    stats.inc("dapper.victim_refreshes", numRefreshes);
    stats.inc("dapper.pending_at_end",
              static_cast<std::uint64_t>(pending.size()));
}

} // namespace bh
