/**
 * @file
 * Dual counting Bloom filter (D-CBF, Section 3.1.1 + Figure 3).
 *
 * Two CBFs are maintained in the time-interleaved manner of unified Bloom
 * filters: every insertion goes into both; only the *active* filter
 * answers queries. Every epoch (tCBF/2), the active filter is cleared and
 * reseeded, and the roles swap. Each filter therefore observes a rolling
 * window of up to two epochs, so a row that exceeded the blacklisting
 * threshold in the recent past can never be prematurely forgotten — the
 * blacklist is always fresh and has no false negatives.
 */

#ifndef BH_BLOOM_DUAL_CBF_HH
#define BH_BLOOM_DUAL_CBF_HH

#include "bloom/counting_bloom.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace bh
{

/** Time-interleaved pair of counting Bloom filters. */
class DualCbf
{
  public:
    /**
     * @param config geometry of each underlying CBF
     * @param t_cbf filter lifetime (epoch length = t_cbf / 2)
     * @param seed seed for hash randomization
     */
    DualCbf(const CbfConfig &config, Cycle t_cbf, std::uint64_t seed);

    /** Insert a key into both filters. */
    void insert(std::uint64_t key);

    /** Query the active filter's count for the key. */
    std::uint32_t activeCount(std::uint64_t key) const;

    /** True if the active filter's count has reached `threshold`. */
    bool
    isBlacklisted(std::uint64_t key, std::uint32_t threshold) const
    {
        return activeCount(key) >= threshold;
    }

    /**
     * Advance the epoch clock; clears + reseeds and swaps at boundaries.
     * Returns true if an epoch boundary was crossed at this call.
     */
    bool clockTick(Cycle now);

    /** Epoch length in cycles (tCBF / 2). */
    Cycle epochLength() const { return epochLen; }

    /** Number of epoch boundaries crossed so far. */
    std::uint64_t epochIndex() const { return epoch; }

    const CountingBloomFilter &activeFilter() const
    {
        return filters[active];
    }

  private:
    Cycle epochLen = 0;
    std::uint64_t epoch = 0;
    unsigned active = 0;
    Rng seeder;
    CountingBloomFilter filters[2];
};

} // namespace bh

#endif // BH_BLOOM_DUAL_CBF_HH
