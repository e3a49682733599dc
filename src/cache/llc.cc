#include "cache/llc.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/log.hh"

namespace bh
{

Llc::Llc(const LlcConfig &config, MemSystem &mem_system)
    : cfg(config), mem(mem_system)
{
    // An 8-bit rank orders at most 255 ways.
    if (cfg.ways == 0 || cfg.ways > 255)
        fatal("LLC ways must be 1-255 (got %u)", cfg.ways);
    std::uint64_t sets = cfg.capacityBytes /
        (static_cast<std::uint64_t>(cfg.ways) * kLineBytes);
    if (sets == 0)
        fatal("LLC capacity too small");
    if (!isPow2(sets))
        fatal("LLC set count must be a power of two (got %llu)",
              static_cast<unsigned long long>(sets));
    setMask = sets - 1;
    setBits = ceilLog2(sets);
    tags.assign(sets * cfg.ways, 0);
    ranks.assign(sets * cfg.ways, 0);
    dirtyBits.assign(sets * cfg.ways, false);
    validWays.assign(sets, 0);
    mshrFile.resize(cfg.mshrs);
}

void
Llc::touch(std::size_t base, unsigned valid, unsigned way)
{
    std::uint8_t rank = ranks[base + way];
    for (unsigned w = 0; w < valid; ++w)
        if (ranks[base + w] < rank)
            ++ranks[base + w];
    ranks[base + way] = 0;
}

LlcResult
Llc::access(Addr addr, bool is_write, ThreadId thread, Cycle now,
            Completion on_done)
{
    // Stalled writebacks gate new allocations to bound buffering.
    if (!wbRetry.empty()) {
        tick(now);
        if (wbRetry.size() > 4)
            return LlcResult::kRejectQueueFull;
    }

    Addr line = lineAddr(addr);
    if ((line >> setBits) > 0xffffffffu)
        panic("LLC access to 0x%llx: its tag needs more than 32 bits",
              static_cast<unsigned long long>(addr));
    auto &tstats = threadStatsMutable(thread);

    std::size_t set = setIndex(line);
    std::size_t base = set * cfg.ways;
    unsigned valid = validWays[set];
    std::uint32_t tag = tagOf(line);
    for (unsigned w = 0; w < valid; ++w) {
        if (tags[base + w] != tag)
            continue;
        touch(base, valid, w);
        if (is_write)
            dirtyBits[base + w] = true;
        ++numHits;
        ++tstats.accesses;
        if (on_done)
            on_done.deliver(now + cfg.hitLatency);
        return LlcResult::kHit;
    }

    // Miss: merge into the MSHR whose fill brings the line, or start a
    // fill in a free one.
    auto find = [this](Addr l) {
        return std::find_if(mshrFile.begin(), mshrFile.end(),
                            [l](const Mshr &m) { return m.line == l; });
    };
    auto m = find(line);
    if (m == mshrFile.end()) {
        m = find(kNoLine);
        if (m == mshrFile.end())
            return LlcResult::kReject;
        if (mem.queueFull(ReqType::kRead, line * kLineBytes))
            return LlcResult::kRejectQueueFull;  // the submit would bounce
        Request req;
        req.addr = line * kLineBytes;
        req.type = ReqType::kRead;      // write-allocate fetches the line
        req.thread = thread;
        req.arrival = now;
        req.completion = Completion{
            this, static_cast<std::uint32_t>(m - mshrFile.begin())};
        if (mem.submit(std::move(req)) != SubmitResult::kAccepted)
            return LlcResult::kRejectQueueFull;
        m->line = line;
        ++mshrsBusy;
    }
    if (on_done)
        m->waiters.push_back(on_done);
    m->writeIntent |= is_write;
    ++numMisses;
    ++tstats.accesses;
    ++tstats.misses;
    return LlcResult::kMiss;
}

void
Llc::complete(std::uint32_t slot, Cycle done)
{
    Mshr &m = mshrFile[slot];
    if (m.line == kNoLine)
        panic("LLC fill completion for free MSHR %u", slot);
    Cycle ready = done + cfg.fillLatency;
    installLine(m.line, m.writeIntent, ready);
    m.line = kNoLine;
    m.writeIntent = false;
    --mshrsBusy;
    ++numFills;
    for (const Completion &w : m.waiters)
        w.deliver(ready);
    m.waiters.clear();
}

void
Llc::installLine(Addr line, bool dirty, Cycle now)
{
    // The victim of a full set is its least recently used way, the one
    // ranked last; a set with room fills its first invalid way.
    std::size_t set = setIndex(line);
    std::size_t base = set * cfg.ways;
    unsigned valid = validWays[set];
    unsigned way = 0;
    if (valid < cfg.ways) {
        way = valid;
        ranks[base + way] = static_cast<std::uint8_t>(valid);
        validWays[set] = static_cast<std::uint8_t>(++valid);
    } else {
        while (ranks[base + way] != valid - 1)
            ++way;
        if (dirtyBits[base + way]) {
            Addr victim = Addr{tags[base + way]} << setBits | set;
            if (!issueWriteback(victim, now))
                wbRetry.push_back(victim);
        }
    }
    tags[base + way] = tagOf(line);
    dirtyBits[base + way] = dirty;
    touch(base, valid, way);
}

bool
Llc::issueWriteback(Addr line, Cycle now)
{
    if (mem.queueFull(ReqType::kWrite, line * kLineBytes))
        return false;
    Request wb;
    wb.addr = line * kLineBytes;
    wb.type = ReqType::kWrite;
    wb.thread = kNoThread;      // writebacks are not attributable
    wb.arrival = now;
    bool ok = mem.submit(std::move(wb)) == SubmitResult::kAccepted;
    if (ok)
        ++numWritebacks;
    return ok;
}

void
Llc::tick(Cycle now)
{
    while (!wbRetry.empty()) {
        if (!issueWriteback(wbRetry.front(), now))
            break;
        wbRetry.pop_front();
    }
}

const ThreadLlcStats &
Llc::threadStats(ThreadId thread) const
{
    static const ThreadLlcStats empty;
    if (thread < 0 || static_cast<std::size_t>(thread) >= perThread.size())
        return empty;
    return perThread[static_cast<std::size_t>(thread)];
}

ThreadLlcStats &
Llc::threadStatsMutable(ThreadId thread)
{
    if (thread < 0) {
        static ThreadLlcStats scratch;
        return scratch;
    }
    auto i = static_cast<std::size_t>(thread);
    if (i >= perThread.size())
        perThread.resize(i + 1);
    return perThread[i];
}

} // namespace bh
