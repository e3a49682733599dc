#include "analysis/security_oracle.hh"

#include "common/log.hh"

namespace bh
{

namespace
{

/** Ring records name a (bank, row) by a 32-bit flat index. */
std::size_t
flatRows(const DramOrg &org)
{
    std::uint64_t n =
        static_cast<std::uint64_t>(org.banksPerChannel()) * org.rowsPerBank;
    if (n > (std::uint64_t{1} << 32))
        fatal("SecurityOracle: %u banks x %u rows exceed the 2^32 rows a "
              "32-bit row index can name",
              org.banksPerChannel(), org.rowsPerBank);
    return static_cast<std::size_t>(n);
}

/** Ring size at the first activation. */
constexpr std::size_t kInitialRing = 1024;

} // namespace

SecurityOracle::SecurityOracle(const DramOrg &org,
                               const SecurityOracleConfig &config)
    : cfg(config), rows(org.rowsPerBank), counts(flatRows(org))
{
    if (cfg.windowCycles <= 0)
        fatal("SecurityOracle: windowCycles must be positive");
    if (cfg.nRH == 0)
        fatal("SecurityOracle: nRH must be positive");
}

void
SecurityOracle::grow()
{
    // A row's count never exceeds the ring's population, so a ring of at
    // most 2^30 records keeps the count clear of kViolated.
    if (ring.size() >= kViolated / 2)
        panic("SecurityOracle: more than %zu activations in one window",
              ring.size());
    std::vector<WindowAct> bigger(ring.empty() ? kInitialRing
                                               : 2 * ring.size());
    std::size_t mask = ring.size() - 1;
    for (std::size_t k = 0; k < live; ++k)
        bigger[k] = ring[(head + k) & mask];
    ring.swap(bigger);
    head = 0;
}

void
SecurityOracle::onActivate(unsigned bank, RowId row, Cycle now)
{
    if (now < lastAct)
        panic("SecurityOracle: activation at cycle %lld precedes the "
              "previous one at cycle %lld",
              static_cast<long long>(now), static_cast<long long>(lastAct));
    lastAct = now;
    ++acts;

    std::size_t mask = ring.size() - 1;
    while (live > 0 && expired(ring[head], now)) {
        --counts[ring[head].row];
        head = (head + 1) & mask;
        --live;
    }
    if (live == ring.size()) {
        grow();
        mask = ring.size() - 1;
    }
    auto i = static_cast<std::uint32_t>(index(bank, row));
    ring[(head + live) & mask] = WindowAct{now, i};
    ++live;

    std::uint32_t &word = counts[i];
    ++word;
    std::uint64_t count = word & ~kViolated;
    if (count > peakState.acts)
        peakState = OraclePeak{count, bank, row, now};
    if (count >= cfg.nRH) {
        if (firstViolation == kNoEventCycle)
            firstViolation = now;
        if (!(word & kViolated)) {
            word |= kViolated;
            ++numViolatingRows;
        }
    }
}

std::uint32_t
SecurityOracle::currentWindowActs(unsigned bank, RowId row, Cycle now) const
{
    std::size_t i = index(bank, row);
    std::uint32_t count = counts[i] & ~kViolated;
    // Take off the row's records that `now` has expired but no
    // activation has popped yet.
    std::size_t mask = ring.size() - 1;
    for (std::size_t k = 0; k < live; ++k) {
        const WindowAct &act = ring[(head + k) & mask];
        if (!expired(act, now))
            break;
        count -= act.row == i;
    }
    return count;
}

} // namespace bh
