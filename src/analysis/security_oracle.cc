#include "analysis/security_oracle.hh"

#include <algorithm>

#include "common/log.hh"

namespace bh
{

SecurityOracle::SecurityOracle(const DramOrg &org,
                               const SecurityOracleConfig &config)
    : cfg(config), rows(org.rowsPerBank), banks(org.banksPerChannel())
{
    if (cfg.windowCycles <= 0)
        fatal("SecurityOracle: windowCycles must be positive");
    if (cfg.nRH == 0)
        fatal("SecurityOracle: nRH must be positive");
    sinceRefresh.assign(static_cast<std::size_t>(banks) * rows, 0);
}

void
SecurityOracle::prune(RowState &state, Cycle now)
{
    // The window is (now - tREFW, now]: an activation exactly tREFW ago
    // has left the window of an activation happening now.
    Cycle horizon = now - cfg.windowCycles;
    while (!state.window.empty() && state.window.front() <= horizon)
        state.window.pop_front();
}

void
SecurityOracle::onActivate(unsigned bank, RowId row, Cycle now)
{
    ++acts;
    std::size_t i = index(bank, row);

    auto &since = sinceRefresh[i];
    ++since;
    maxSinceRefresh = std::max<std::uint64_t>(maxSinceRefresh, since);

    RowState &state = touched[i];
    state.window.push_back(now);
    prune(state, now);
    auto count = static_cast<std::uint64_t>(state.window.size());
    if (count > peakState.acts)
        peakState = OraclePeak{count, bank, row, now};
    if (count >= cfg.nRH) {
        if (firstViolation == kNoEventCycle)
            firstViolation = now;
        if (!state.violated) {
            state.violated = true;
            ++numViolatingRows;
        }
    }
}

void
SecurityOracle::onRowRefresh(unsigned bank, RowId row)
{
    // Refreshing a row restores its victims' charge but does not erase
    // the activations it already issued: the sliding window is left
    // intact (straddle attacks must remain visible); only the
    // refresh-aligned counter resets.
    sinceRefresh[index(bank, row)] = 0;
}

void
SecurityOracle::onAutoRefresh(RowId first_row, unsigned num_rows)
{
    // Rows first..first+num_rows-1 modulo the bank: at most two
    // contiguous ranges per bank (the wrap splits one).
    std::size_t first = first_row % rows;
    std::size_t n = std::min<std::size_t>(num_rows, rows);
    std::size_t head = std::min(n, rows - first);
    for (unsigned b = 0; b < banks; ++b) {
        auto bank = sinceRefresh.begin() + index(b, 0);
        std::fill_n(bank + first, head, 0u);
        std::fill_n(bank, n - head, 0u);
    }
}

std::uint32_t
SecurityOracle::currentWindowActs(unsigned bank, RowId row, Cycle now)
{
    auto it = touched.find(index(bank, row));
    if (it == touched.end())
        return 0;
    prune(it->second, now);
    return static_cast<std::uint32_t>(it->second.window.size());
}

} // namespace bh
