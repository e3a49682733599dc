/**
 * @file
 * Shared last-level cache: 16 MB, 8-way, 64 B lines, LRU, write-back,
 * write-allocate, with MSHR-based miss merging and writeback retry
 * (Table 5 of the paper). The MSHRs are a fixed file of `mshrs`
 * entries; a fill's request carries its entry as a completion token,
 * and the entry's waiters are the tokens of the accesses it serves.
 */

#ifndef BH_CACHE_LLC_HH
#define BH_CACHE_LLC_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/mem_system.hh"

namespace bh
{

/** LLC configuration. */
struct LlcConfig
{
    std::uint64_t capacityBytes = 16ull << 20;
    unsigned ways = 8;
    Cycle hitLatency = 20;      ///< CPU cycles, L1-to-LLC traversal included
    Cycle fillLatency = 4;      ///< extra cycles after memory completion
    unsigned mshrs = 64;
};

/**
 * Outcome of an LLC access attempt. The two reject flavors tell the
 * chunked multi-channel driver what has to happen before a retry can
 * succeed: kReject clears only when a memory completion is delivered
 * (MSHRs free at fill delivery), kRejectQueueFull clears when a channel
 * lane drains its queues — which can happen on any lane tick, so a core
 * in that state must keep retrying every cycle.
 */
enum class LlcResult
{
    kHit,               ///< on_done already completed
    kMiss,              ///< on_done completes when the fill does
    kReject,            ///< MSHR pressure; a completion delivery must land
    kRejectQueueFull,   ///< queue/writeback backpressure; retry every cycle
};

/**
 * Per-thread LLC statistics (drives Table 8's MPKI column). `accesses`
 * counts accepted accesses only (hits + misses); rejected attempts that
 * the core retries are not accesses, so the counters are independent of
 * how often a stalled core re-polls.
 */
struct ThreadLlcStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
};

/** Shared set-associative write-back LLC. */
class Llc final : public CompletionTarget
{
  public:
    Llc(const LlcConfig &config, MemSystem &mem);

    /**
     * Access the cache. A hit completes `on_done` at once, with the hit's
     * completion cycle; a miss completes it when the memory fill returns.
     * Posted writes pass no token.
     */
    LlcResult access(Addr addr, bool is_write, ThreadId thread, Cycle now,
                     Completion on_done = {});

    /**
     * The fill of MSHR `slot` returned at `done`: install the line, free
     * the entry and complete its waiters, in registration order, at
     * `done + fillLatency`.
     */
    void complete(std::uint32_t slot, Cycle done) override;

    /** Retry stalled writebacks. Call every cycle. */
    void tick(Cycle now);

    /**
     * True when tick() is a provable no-op (no stalled writebacks to
     * retry): the chunked multi-channel driver skips LLC ticks only
     * while this holds.
     */
    bool quiet() const { return wbRetry.empty(); }

    const ThreadLlcStats &threadStats(ThreadId thread) const;
    std::uint64_t hits() const { return numHits; }
    std::uint64_t misses() const { return numMisses; }
    std::uint64_t writebacks() const { return numWritebacks; }

    /**
     * Memory fills delivered so far (each frees an MSHR and installs a
     * line). The address is stable: a sleeping core watches it.
     */
    const std::uint64_t &fills() const { return numFills; }
    std::size_t mshrsInUse() const { return mshrsBusy; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    /** Line address of a free MSHR (no line address reaches it). */
    static constexpr Addr kNoLine = ~Addr{0};

    /** One MSHR: a fill in flight and the accesses waiting on it. */
    struct Mshr
    {
        Addr line = kNoLine;
        bool writeIntent = false;
        std::vector<Completion> waiters;    ///< in registration order
    };

    Addr lineAddr(Addr addr) const { return addr / kLineBytes; }
    std::size_t setIndex(Addr line) const { return line % numSets; }
    Line *findLine(Addr line);
    void installLine(Addr line, bool dirty, Cycle now);
    bool issueWriteback(Addr line, Cycle now);

    LlcConfig cfg;
    MemSystem &mem;
    std::size_t numSets = 0;
    std::vector<Line> lines;            ///< numSets * ways
    std::uint64_t useCounter = 0;
    std::vector<Mshr> mshrFile;         ///< cfg.mshrs entries
    std::size_t mshrsBusy = 0;          ///< entries with a fill in flight
    std::deque<Addr> wbRetry;

    std::uint64_t numHits = 0;
    std::uint64_t numMisses = 0;
    std::uint64_t numWritebacks = 0;
    std::uint64_t numFills = 0;
    mutable std::vector<ThreadLlcStats> perThread;
    ThreadLlcStats &threadStatsMutable(ThreadId thread);
};

} // namespace bh

#endif // BH_CACHE_LLC_HH
