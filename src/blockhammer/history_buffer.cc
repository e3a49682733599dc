#include "blockhammer/history_buffer.hh"

#include "common/log.hh"

namespace bh
{

HistoryBuffer::HistoryBuffer(unsigned entries, Cycle t_delay)
    : numEntries(entries), tDelay(t_delay)
{
    if (entries == 0)
        fatal("history buffer needs at least one entry");
}

void
HistoryBuffer::insert(std::uint64_t row_key, Cycle now)
{
    expire(now);
    if (slots.empty()) {
        slots.resize(numEntries);
        spareNodes.reserve(numEntries);
    }
    if (numValid == slots.size()) {
        // tFAW bounds the activation rate, so a correctly-sized buffer can
        // never overflow; reaching this is a configuration/sizing bug.
        panic("history buffer overflow: %u entries cannot hold tDelay=%lld "
              "window", capacity(), static_cast<long long>(tDelay));
    }
    slots[tail] = Slot{row_key, now};
    if (++tail == slots.size())
        tail = 0;
    ++numValid;
    auto it = members.find(row_key);
    if (it == members.end()) {
        if (spareNodes.empty()) {
            it = members.emplace(row_key, Member{}).first;
        } else {
            Members::node_type node = std::move(spareNodes.back());
            spareNodes.pop_back();
            node.key() = row_key;
            node.mapped() = Member{};
            it = members.insert(std::move(node)).position;
        }
    }
    ++it->second.count;
    it->second.last = now;
}

void
HistoryBuffer::expire(Cycle now)
{
    while (numValid > 0) {
        Slot &oldest = slots[head];
        if (now - oldest.timestamp < tDelay)
            break;
        auto it = members.find(oldest.key);
        if (it != members.end() && --it->second.count == 0)
            spareNodes.push_back(members.extract(it));
        if (++head == slots.size())
            head = 0;
        --numValid;
    }
}

bool
HistoryBuffer::recentlyActivated(std::uint64_t row_key, Cycle now)
{
    expire(now);
    // Equivalent to the hardware's parallel CAM compare across all valid
    // entries.
    return members.find(row_key) != members.end();
}

} // namespace bh
