/**
 * @file
 * The Misra-Gries frequent-element table shared by the counter-based
 * trackers (Graphene, DAPPER, ABACuS).
 *
 * A table holds at most `capacity` (row, count) entries plus one
 * spillover counter. A miss on a full table increments the spillover;
 * once the spillover reaches the smallest tracked count, the new row
 * takes over that entry at spillover + 1 and the displaced count
 * becomes the new spillover. This is the classic summary: of N
 * activations, every row activated more than N / capacity times is in
 * the table.
 *
 * Entries live in a contiguous vector with a row -> slot hash index,
 * so a spill finds its victim with one linear scan and no copy, sort
 * or allocation. The victim is the smallest (count, row) pair: among
 * the entries with the minimum count, the lowest row. Rows are unique,
 * so that order is total and the pick does not depend on slot order
 * (rule R2 without a sorted copy).
 *
 * What a tracker does with a count (its trigger rule) stays with the
 * tracker; each entry also carries one 64-bit word the caller owns
 * (ABACuS keeps its sibling activation vector there).
 */

#ifndef BH_MITIGATIONS_MISRA_GRIES_HH
#define BH_MITIGATIONS_MISRA_GRIES_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace bh
{

/** Bounded (row, count) table with Misra-Gries spillover. */
class MisraGriesTable
{
  public:
    struct Entry
    {
        RowId row = 0;
        std::uint32_t count = 0;
        std::uint64_t word = 0;    ///< owned by the caller
    };

    explicit MisraGriesTable(unsigned capacity) : cap(capacity) {}

    /** The entry tracking `row`, or nullptr. Entry pointers stay valid
     *  until the next insert() or clear(). */
    Entry *find(RowId row);
    const Entry *find(RowId row) const;

    /** Whether insert() may add another entry. */
    bool hasRoom() const { return entries.size() < cap; }

    /** Track an untracked `row` at `count`; requires hasRoom(). */
    void insert(RowId row, std::uint32_t count, std::uint64_t word = 0);

    /**
     * A miss on a full table. Increments the spillover counter; once it
     * reaches the minimum count, `row` replaces the minimum entry at
     * spillover + 1 with `word`, and the displaced count becomes the
     * spillover. Returns the installed entry, or nullptr when the row
     * stays untracked.
     */
    Entry *spill(RowId row, std::uint64_t word = 0);

    /** Drop every entry and zero the spillover (window reset). */
    void clear();

    /** Tracked entries in slot order (unordered; sort to compare). */
    const std::vector<Entry> &items() const { return entries; }
    std::uint32_t spillover() const { return spilled; }

  private:
    unsigned cap = 0;
    std::vector<Entry> entries;
    std::unordered_map<RowId, std::uint32_t> slotOf;    ///< row -> slot
    std::uint32_t spilled = 0;
};

} // namespace bh

#endif // BH_MITIGATIONS_MISRA_GRIES_HH
