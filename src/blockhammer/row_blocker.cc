#include "blockhammer/row_blocker.hh"

namespace bh
{

RowBlocker::RowBlocker(const BlockHammerConfig &config)
    : cfg(config), delay(config.tDelay()),
      // +4 slack over the paper's ceil(4*tDelay/tFAW): a tFAW window
      // admits one full 4-ACT burst at each edge of the tDelay window.
      hb(config.historyEntries() + 4, config.tDelay())
{
    for (unsigned b = 0; b < cfg.banks; ++b) {
        filters.push_back(std::make_unique<DualCbf>(
            cfg.cbf, cfg.tCBF, cfg.seed * 1315423911ull + b + 1));
    }
    nextBoundary = filters[0]->epochLength();
}

bool
RowBlocker::isSafe(unsigned bank, RowId row, Cycle now)
{
    if (!filters[bank]->isBlacklisted(row, cfg.nBL))
        return true;
    // Blacklisted: safe only if the row has not been activated within the
    // last tDelay window.
    return !hb.recentlyActivated(rankRowKey(bank, row), now);
}

void
RowBlocker::onActivate(unsigned bank, RowId row, Cycle now)
{
    filters[bank]->insert(row);
    hb.insert(rankRowKey(bank, row), now);
}

bool
RowBlocker::clockTick(Cycle now)
{
    // All bank filters share one epoch length, so one cached boundary
    // gates the whole sweep — the common case is a single compare instead
    // of a division per bank per controller tick.
    if (now < nextBoundary)
        return false;
    for (auto &f : filters)
        f->clockTick(now);
    nextBoundary = filters[0]->epochLength() *
        static_cast<Cycle>(filters[0]->epochIndex() + 1);
    return true;
}

Cycle
RowBlocker::nextBoundaryAt() const
{
    return nextBoundary;
}

bool
RowBlocker::isBlacklisted(unsigned bank, RowId row) const
{
    return filters[bank]->isBlacklisted(row, cfg.nBL);
}

std::uint32_t
RowBlocker::activationEstimate(unsigned bank, RowId row) const
{
    return filters[bank]->activeCount(row);
}

} // namespace bh
