#include "analysis/security_oracle.hh"

#include "common/log.hh"

namespace bh
{

SecurityOracle::SecurityOracle(const DramOrg &org,
                               const SecurityOracleConfig &config)
    : cfg(config), rows(org.rowsPerBank)
{
    if (cfg.windowCycles <= 0)
        fatal("SecurityOracle: windowCycles must be positive");
    if (cfg.nRH == 0)
        fatal("SecurityOracle: nRH must be positive");
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
    RowState &state = touched[index(bank, row)];
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
