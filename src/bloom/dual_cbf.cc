#include "bloom/dual_cbf.hh"

#include "common/log.hh"

namespace bh
{

DualCbf::DualCbf(const CbfConfig &config, Cycle t_cbf, std::uint64_t seed)
    : epochLen(t_cbf / 2), seeder(seed),
      filters{CountingBloomFilter(config, seed + 17),
              CountingBloomFilter(config, seed + 31)}
{
    if (epochLen <= 0)
        fatal("D-CBF lifetime must be at least 2 cycles");
}

void
DualCbf::insert(std::uint64_t key)
{
    filters[0].insert(key);
    filters[1].insert(key);
}

std::uint32_t
DualCbf::activeCount(std::uint64_t key) const
{
    return filters[active].count(key);
}

bool
DualCbf::clockTick(Cycle now)
{
    auto target = static_cast<std::uint64_t>(now / epochLen);
    if (target == epoch)
        return false;
    // Normally one boundary per call; catch up if the caller skipped time.
    while (epoch < target) {
        // Clear signal: clear the *active* filter, reseed it, and swap so
        // the other filter (which kept accumulating) takes over.
        filters[active].clearAndReseed(seeder.next());
        active = 1 - active;
        ++epoch;
    }
    return true;
}

} // namespace bh
