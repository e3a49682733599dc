/**
 * @file
 * BlockHammer's exact "shadow" tracker: the D-CBF's rolling two-epoch
 * activation window replayed without aliasing. It is the ground truth
 * of the false-positive analyses of Section 8.4; the hardware mechanism
 * never needs it.
 *
 * One open-addressing table (linear probing) over pages that come
 * zeroed from an anonymous mapping (ZeroedArray) holds both epochs'
 * counts: a 16-byte slot carries the key and its count in each window,
 * so an activation probes once. The table is mapped at its first insert
 * and doubled by rehash once half full. The active window is the one
 * cleared longer ago, so it counts every activation the other does: a
 * slot whose active count is 0 is empty, and every key, 0 included, is
 * valid. An epoch boundary rehashes the keys that still have a count
 * once the cleared window's counts are zeroed.
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
    void insert(std::uint64_t key);

    /** Activations of `key` in the active window. */
    std::uint32_t count(std::uint64_t key) const;

    /** Epoch boundary: the active window is cleared and the roles swap. */
    void onEpochBoundary();

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        std::uint32_t count[2] = {0, 0};    ///< per window
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

    /**
     * Move every slot with an active count into a fresh table of
     * `1 << new_bits` slots; with `clear_other`, the other window's
     * counts start again from 0.
     */
    void rehash(unsigned new_bits, bool clear_other);

    ZeroedArray<Slot> slots{0};
    unsigned bits = 0;          ///< capacity = 1 << bits (0: unmapped)
    std::size_t used = 0;
    unsigned active = 0;        ///< the window count() reads
};

} // namespace bh

#endif // BH_BLOCKHAMMER_EXACT_SHADOW_HH
