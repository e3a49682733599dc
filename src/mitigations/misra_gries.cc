#include "mitigations/misra_gries.hh"

#include <utility>

namespace bh
{

MisraGriesTable::Entry *
MisraGriesTable::find(RowId row)
{
    auto it = slotOf.find(row);
    return it == slotOf.end() ? nullptr : &entries[it->second];
}

const MisraGriesTable::Entry *
MisraGriesTable::find(RowId row) const
{
    auto it = slotOf.find(row);
    return it == slotOf.end() ? nullptr : &entries[it->second];
}

void
MisraGriesTable::insert(RowId row, std::uint32_t count, std::uint64_t word)
{
    slotOf.emplace(row, static_cast<std::uint32_t>(entries.size()));
    entries.push_back(Entry{row, count, word});
}

MisraGriesTable::Entry *
MisraGriesTable::spill(RowId row, std::uint64_t word)
{
    ++spilled;
    if (entries.empty())
        return nullptr;
    // The minimum (count, row) pair as one packed key, held in a
    // register across the scan.
    std::uint64_t best = ~std::uint64_t{0};
    std::size_t slot = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        std::uint64_t key =
            (static_cast<std::uint64_t>(entries[i].count) << 32) |
            entries[i].row;
        if (key < best) {
            best = key;
            slot = i;
        }
    }
    Entry &e = entries[slot];
    if (spilled < e.count)
        return nullptr;
    // Re-key the index node in place: no allocation on the spill path.
    auto node = slotOf.extract(e.row);
    node.key() = row;
    slotOf.insert(std::move(node));
    std::uint32_t displaced = e.count;
    e = Entry{row, spilled + 1, word};
    spilled = displaced;
    return &e;
}

void
MisraGriesTable::clear()
{
    entries.clear();
    slotOf.clear();
    spilled = 0;
}

} // namespace bh
