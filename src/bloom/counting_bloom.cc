#include "bloom/counting_bloom.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/log.hh"

namespace bh
{

CountingBloomFilter::CountingBloomFilter(const CbfConfig &config,
                                         std::uint64_t seed)
    : cfg(config)
{
    if (!isPow2(cfg.numCounters))
        fatal("CBF size must be a power of two (got %u)", cfg.numCounters);
    if (cfg.numHashes == 0)
        fatal("CBF needs at least one hash function");
    if (cfg.counterMax > 0xffff)
        fatal("CBF counter saturation %u exceeds the 16-bit counters",
              cfg.counterMax);
    counters.assign(cfg.numCounters, 0);
    unsigned bits = ceilLog2(cfg.numCounters);
    for (unsigned h = 0; h < cfg.numHashes; ++h)
        hashes.emplace_back(bits, seed * 0x9e3779b97f4a7c15ull + h + 1);
}

void
CountingBloomFilter::insert(std::uint64_t key)
{
    for (const auto &h : hashes) {
        std::uint16_t &c = counters[h.hash(key)];
        if (c < cfg.counterMax)
            ++c;
    }
    ++numInsertions;
}

std::uint32_t
CountingBloomFilter::count(std::uint64_t key) const
{
    std::uint32_t min_count = cfg.counterMax;
    for (const auto &h : hashes)
        min_count = std::min<std::uint32_t>(min_count,
                                            counters[h.hash(key)]);
    return min_count;
}

void
CountingBloomFilter::clearAndReseed(std::uint64_t new_seed)
{
    std::fill(counters.begin(), counters.end(), 0);
    for (unsigned h = 0; h < hashes.size(); ++h)
        hashes[h].reseed(new_seed * 0x9e3779b97f4a7c15ull + h + 1);
    numInsertions = 0;
}

double
CountingBloomFilter::occupancy() const
{
    std::size_t nonzero = 0;
    for (auto c : counters)
        if (c != 0)
            ++nonzero;
    return static_cast<double>(nonzero) /
        static_cast<double>(counters.size());
}

} // namespace bh
