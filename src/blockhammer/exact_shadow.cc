#include "blockhammer/exact_shadow.hh"

namespace bh
{

void
ExactShadow::insert(std::uint64_t key)
{
    if (bits == 0 || 2 * (used + 1) > (std::size_t{1} << bits))
        rehash(bits == 0 ? kInitialBits : bits + 1, false);
    std::size_t mask = (std::size_t{1} << bits) - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
        Slot &s = slots[i];
        if (s.count[active] == 0) {
            s.key = key;
            s.count[0] = s.count[1] = 1;
            ++used;
            return;
        }
        if (s.key == key) {
            ++s.count[0];
            ++s.count[1];
            return;
        }
    }
}

std::uint32_t
ExactShadow::count(std::uint64_t key) const
{
    if (used == 0)
        return 0;
    std::size_t mask = (std::size_t{1} << bits) - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
        const Slot &s = slots[i];
        if (s.count[active] == 0 || s.key == key)
            return s.count[active];
    }
}

void
ExactShadow::onEpochBoundary()
{
    active = 1 - active;
    if (used != 0)
        rehash(bits, true);
}

void
ExactShadow::rehash(unsigned new_bits, bool clear_other)
{
    std::size_t old_capacity = bits == 0 ? 0 : std::size_t{1} << bits;
    ZeroedArray<Slot> old(std::size_t{1} << new_bits);
    old.swap(slots);
    bits = new_bits;
    used = 0;
    std::size_t mask = (std::size_t{1} << bits) - 1;
    for (std::size_t j = 0; j < old_capacity; ++j) {
        Slot s = old[j];
        if (s.count[active] == 0)
            continue;
        if (clear_other)
            s.count[1 - active] = 0;
        std::size_t i = home(s.key);
        while (slots[i].count[active] != 0)
            i = (i + 1) & mask;
        slots[i] = s;
        ++used;
    }
}

} // namespace bh
