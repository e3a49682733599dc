#include "blockhammer/exact_shadow.hh"

#include <algorithm>

namespace bh
{

void
ExactShadow::CountTable::add(std::uint64_t key)
{
    if (bits == 0 || 2 * (used + 1) > (std::size_t{1} << bits))
        grow();
    std::size_t mask = (std::size_t{1} << bits) - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
        Slot &s = slots[i];
        if (s.count == 0) {
            s.key = key;
            s.count = 1;
            ++used;
            return;
        }
        if (s.key == key) {
            ++s.count;
            return;
        }
    }
}

std::uint32_t
ExactShadow::CountTable::find(std::uint64_t key) const
{
    if (used == 0)
        return 0;
    std::size_t mask = (std::size_t{1} << bits) - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
        const Slot &s = slots[i];
        if (s.count == 0)
            return 0;
        if (s.key == key)
            return s.count;
    }
}

void
ExactShadow::CountTable::clear()
{
    if (used == 0)
        return;
    std::fill_n(slots.from(0), std::size_t{1} << bits, Slot{});
    used = 0;
}

void
ExactShadow::CountTable::grow()
{
    std::size_t old_capacity = bits == 0 ? 0 : std::size_t{1} << bits;
    bits = bits == 0 ? kInitialBits : bits + 1;
    ZeroedArray<Slot> old(std::size_t{1} << bits);
    old.swap(slots);
    std::size_t mask = (std::size_t{1} << bits) - 1;
    for (std::size_t j = 0; j < old_capacity; ++j) {
        const Slot &s = old[j];
        if (s.count == 0)
            continue;
        std::size_t i = home(s.key);
        while (slots[i].count != 0)
            i = (i + 1) & mask;
        slots[i] = s;
    }
}

} // namespace bh
