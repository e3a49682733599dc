/**
 * @file
 * BlockHammer's exact "shadow" tracker: the D-CBF's rolling two-epoch
 * activation window replayed without aliasing. It is the ground truth
 * of the false-positive analyses of Section 8.4; the hardware mechanism
 * never needs it.
 *
 * Each epoch's counts live in an open-addressing table (linear probing)
 * over pages that come zeroed from an anonymous mapping (ZeroedArray).
 * A table is mapped at its first insert and doubled by rehash once half
 * full; a slot with count 0 is empty, so every key, 0 included, is
 * valid. A node-based hash map cost one heap allocation per new key.
 */

#ifndef BH_BLOCKHAMMER_EXACT_SHADOW_HH
#define BH_BLOCKHAMMER_EXACT_SHADOW_HH

#include <cstddef>
#include <cstdint>

#include "common/zeroed_array.hh"

namespace bh
{

/** Exact two-epoch rolling activation counts per key. */
class ExactShadow
{
  public:
    /** Count one activation of `key` in both epochs' windows. */
    void
    insert(std::uint64_t key)
    {
        side[0].add(key);
        side[1].add(key);
    }

    /** Activations of `key` in the active window. */
    std::uint32_t count(std::uint64_t key) const
    {
        return side[active].find(key);
    }

    /** Epoch boundary: the active window is cleared and the roles swap. */
    void
    onEpochBoundary()
    {
        side[active].clear();
        active = 1 - active;
    }

  private:
    /** Key -> count, open addressing over zeroed pages. */
    class CountTable
    {
      public:
        void add(std::uint64_t key);
        std::uint32_t find(std::uint64_t key) const;
        void clear();

      private:
        struct Slot
        {
            std::uint64_t key = 0;
            std::uint32_t count = 0;    ///< 0: empty
        };

        /// log2 of the slots mapped at the first insert.
        static constexpr unsigned kInitialBits = 10;

        /** Home slot of `key` (Fibonacci hashing). */
        std::size_t
        home(std::uint64_t key) const
        {
            return static_cast<std::size_t>(
                (key * 0x9e3779b97f4a7c15ull) >> (64 - bits));
        }

        /** Double the capacity (or map the first table) and rehash. */
        void grow();

        ZeroedArray<Slot> slots{0};
        unsigned bits = 0;          ///< capacity = 1 << bits (0: unmapped)
        std::size_t used = 0;
    };

    CountTable side[2];
    unsigned active = 0;
};

} // namespace bh

#endif // BH_BLOCKHAMMER_EXACT_SHADOW_HH
