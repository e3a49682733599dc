#include "mitigations/abacus.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/log.hh"
#include "mem/controller.hh"

namespace bh
{

Abacus::Abacus(const MitigationSettings &settings)
    : cfg(settings), table(0), nextReset(settings.timings.tREFW)
{
    if (cfg.banks > 64)
        fatal("ABACuS SAV models at most 64 banks (%u configured)",
              cfg.banks);
    // Same trigger ladder as Graphene: neighbors refresh every T
    // activations of a tracked row, T = half the effective budget.
    thT = std::max<std::uint32_t>(1, cfg.effectiveNRH() / 2);
    // The RAC tracks the maximum per-bank activation count of a row
    // address, so one bank's window budget W bounds any RAC; the shared
    // table needs only ceil(W / T) + 1 entries for the whole rank —
    // ABACuS's headline saving over per-bank trackers.
    auto w = static_cast<std::uint64_t>(
        cfg.timings.tREFW / std::max<Cycle>(1, cfg.timings.tRC));
    numEntries = static_cast<unsigned>(ceilDiv(
        static_cast<std::int64_t>(w), static_cast<std::int64_t>(thT))) + 1;
    table = MisraGriesTable(numEntries);
}

std::uint32_t
Abacus::rac(RowId row) const
{
    const auto *e = table.find(row);
    return e ? e->count : 0;
}

std::uint64_t
Abacus::sav(RowId row) const
{
    const auto *e = table.find(row);
    return e ? e->word : 0;
}

void
Abacus::refreshNeighborsAllBanks(RowId row, Cycle now)
{
    ++numTriggers;
    if (TraceSink::on()) {
        TraceSink::instant("mitig", "abacus_refresh", tmeta, now,
                           {{"row", static_cast<std::int64_t>(row)}});
    }
    // The shared counter cannot attribute the activations to one bank,
    // so every bank's neighbors are refreshed (the counter's saving is
    // paid back in refresh fan-out, cheap because triggers are rare).
    for (unsigned bank = 0; bank < cfg.banks; ++bank) {
        for (unsigned k = 1; k <= cfg.blastRadius; ++k) {
            for (int dir : {-1, 1}) {
                std::int64_t victim = static_cast<std::int64_t>(row) +
                    dir * static_cast<int>(k);
                if (victim < 0 ||
                    victim >= static_cast<std::int64_t>(cfg.rowsPerBank))
                    continue;
                controller->scheduleVictimRefresh(
                    bank, static_cast<RowId>(victim));
                ++numRefreshes;
            }
        }
    }
}

void
Abacus::onActivate(unsigned bank, RowId row, ThreadId, Cycle now)
{
    std::uint64_t bit = 1ull << bank;
    if (auto *e = table.find(row)) {
        if (e->word & bit) {
            // The sibling already activated since the last RAC bump:
            // a new per-bank activation round starts at this address.
            e->word = bit;
            if (++e->count % thT == 0)
                refreshNeighborsAllBanks(row, now);
        } else {
            e->word |= bit;
        }
    } else if (table.hasRoom()) {
        table.insert(row, 0, bit);
    } else if (auto *e = table.spill(row, bit)) {
        // Spillover over the RACs: the new address took over the
        // coldest entry (lowest RAC, then lowest row address).
        if (e->count >= thT && e->count % thT == 0)
            refreshNeighborsAllBanks(row, now);
    }
}

void
Abacus::tick(Cycle now)
{
    if (now >= nextReset) {
        table.clear();
        nextReset += cfg.timings.tREFW;
    }
}

void
Abacus::syncStats()
{
    stats.inc("abacus.triggers", numTriggers);
    stats.inc("abacus.victim_refreshes", numRefreshes);
}

} // namespace bh
