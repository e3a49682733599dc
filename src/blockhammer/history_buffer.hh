/**
 * @file
 * RowBlocker-HB: per-rank row-activation history buffer (Section 3.1.2).
 *
 * A circular queue of (row key, timestamp) records covering the last
 * tDelay window. Modeled after the hardware CAM: lookups compare the
 * queried key against every live entry; the oldest entry is dropped
 * once it ages past tDelay. The buffer is sized for the worst case
 * ceil(4 * tDelay / tFAW) activations a rank can perform in a tDelay
 * window, and the implementation panics on overflow — continuously
 * validating the paper's sizing argument during simulation.
 */

#ifndef BH_BLOCKHAMMER_HISTORY_BUFFER_HH
#define BH_BLOCKHAMMER_HISTORY_BUFFER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace bh
{

/** Circular activation-history CAM. */
class HistoryBuffer
{
  public:
    /**
     * @param entries capacity (ceil(4 * tDelay / tFAW))
     * @param t_delay window length in cycles
     */
    HistoryBuffer(unsigned entries, Cycle t_delay);

    /** Record an activation of `row_key` at `now`. */
    void insert(std::uint64_t row_key, Cycle now);

    /** Expire entries older than tDelay. Called before queries. */
    void expire(Cycle now);

    /**
     * Cycle at which the oldest live entry ages out of the window (the
     * earliest future point any recentlyActivated() answer can flip to
     * false), or kNoEventCycle when the buffer is empty.
     */
    Cycle nextExpiryAt() const;

    /** Was `row_key` activated within the last tDelay window? */
    bool recentlyActivated(std::uint64_t row_key, Cycle now);

    /**
     * Cycle of `row_key`'s latest entry still in the buffer, or -1 when
     * it has none. Entries age out only in expire(), so ask after it.
     */
    Cycle
    lastActivation(std::uint64_t row_key) const
    {
        auto it = members.find(row_key);
        return it == members.end() ? -1 : it->second.last;
    }

    unsigned capacity() const { return numEntries; }
    unsigned validCount() const { return numValid; }

  private:
    /**
     * One CAM record. Validity is positional — `numValid` entries
     * starting at `head` are live — so no per-slot flag is needed (the
     * hardware's valid bit maps to the occupancy bookkeeping here).
     */
    struct Slot
    {
        std::uint64_t key = 0;
        Cycle timestamp = 0;
    };

    std::vector<Slot> slots;        ///< sized at the first insert
    unsigned numEntries = 0;
    Cycle tDelay = 0;
    unsigned head = 0;      ///< oldest entry
    unsigned tail = 0;      ///< next insertion point
    unsigned numValid = 0;

    /** A key's live entries: how many, and the latest one's cycle. */
    struct Member
    {
        unsigned count = 0;
        Cycle last = 0;
    };

    /**
     * Membership index over the valid slots. The hardware searches all CAM
     * entries in parallel; the map reproduces that single-cycle lookup in
     * O(1) instead of a linear scan.
     */
    using Members = std::unordered_map<std::uint64_t, Member>;
    Members members;
    /// Index nodes of keys that aged out, reused by the next new keys so
    /// that a steady stream of activations allocates nothing.
    std::vector<Members::node_type> spareNodes;
};

} // namespace bh

#endif // BH_BLOCKHAMMER_HISTORY_BUFFER_HH
