/**
 * @file
 * Counting Bloom filter (Fan et al., TON 2000) with saturating counters.
 *
 * insert() increments every counter the key hashes to; count() returns the
 * minimum of those counters — an upper bound on the true insertion count
 * (aliasing can inflate it, never deflate it: false positives possible,
 * false negatives impossible). This no-false-negative property is what
 * lets BlockHammer guarantee that a RowHammer attack can never evade
 * blacklisting (Section 3.1.1).
 *
 * Counters are 16 bits wide. The hardware counter needs
 * ceil(log2 N_BL) + 1 bits (Table 4's cost model), 14 at N_RH 32K, and
 * saturates at N_BL; a saturation value above 65,535 is a fatal error.
 */

#ifndef BH_BLOOM_COUNTING_BLOOM_HH
#define BH_BLOOM_COUNTING_BLOOM_HH

#include <cstdint>
#include <vector>

#include "bloom/h3_hash.hh"

namespace bh
{

/** Counting Bloom filter geometry. */
struct CbfConfig
{
    unsigned numCounters = 1024;    ///< must be a power of two
    unsigned numHashes = 4;
    std::uint32_t counterMax = 8192;///< saturation value (>= N_BL, <= 65535)
};

/** One counting Bloom filter. */
class CountingBloomFilter
{
  public:
    CountingBloomFilter(const CbfConfig &config, std::uint64_t seed);

    /** Increment all counters the key maps to (saturating). */
    void insert(std::uint64_t key);

    /** Upper bound on the key's insertion count since the last clear. */
    std::uint32_t count(std::uint64_t key) const;

    /** True if count(key) >= threshold. */
    bool
    testAtLeast(std::uint64_t key, std::uint32_t threshold) const
    {
        return count(key) >= threshold;
    }

    /** Zero all counters and re-randomize the hash functions. */
    void clearAndReseed(std::uint64_t new_seed);

    /** Total insertions since the last clear. */
    std::uint64_t insertions() const { return numInsertions; }

    /** Fraction of counters that are non-zero (occupancy diagnostics). */
    double occupancy() const;

    const CbfConfig &config() const { return cfg; }

  private:
    CbfConfig cfg;
    std::vector<std::uint16_t> counters;
    std::vector<H3Hash> hashes;
    std::uint64_t numInsertions = 0;
};

} // namespace bh

#endif // BH_BLOOM_COUNTING_BLOOM_HH
