/**
 * @file
 * FR-FCFS request selection (Rixner et al., ISCA 2000), factored out of the
 * controller for testability: row-buffer-hit requests first, then oldest.
 *
 * The scheduler is incremental: requests live in a SchedQueue that buckets
 * them per bank (FIFO within a bank, global age via sequence numbers), and
 * per-bank row-hit statistics are cached and revalidated lazily against the
 * bank's open-row state. Column picks cost O(active banks) instead of
 * O(queue). Row-prep picks visit only each active bank's frontier (the one
 * request an oldest-first walk of the whole queue would act on in that
 * bank) in ascending age, preserving the exact pick — and the exact order
 * of mitigation safety queries — of the original full-walk implementation.
 * The same bank walk records the queue's demand event bound, which the
 * event-skipping controller reads after an idle tick instead of walking
 * the banks a second time. Under a mitigation with verdict stamps, each
 * bank keeps the known prefix of its verdicts (its verdict chain), and
 * the pick asks only what no chain knows yet.
 *
 * All per-bank state is sized from the device, so arbitrarily large
 * organizations (multi-rank DDR4 with > 64 flat banks) work; the old
 * stack-allocated kMaxBanks=64 scratch arrays (and their panic) are gone.
 */

#ifndef BH_MEM_SCHEDULER_HH
#define BH_MEM_SCHEDULER_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "dram/device.hh"
#include "mem/mitigation.hh"
#include "mem/request.hh"

namespace bh
{

/**
 * Age-ordered request queue with per-bank buckets.
 *
 * Requests are stored in a slab of nodes linked into one per-bank list in
 * arrival order. Handles are stable slab indices. A monotonically
 * increasing sequence number per request gives the global age relation
 * across banks. The active-bank list is kept in head-age order, so a
 * removal costs O(1) in its bank plus O(active banks) when it empties the
 * bank or takes the bank's oldest request.
 */
class SchedQueue
{
  public:
    using Handle = std::uint32_t;
    static constexpr Handle kNone = 0xffffffffu;

    explicit SchedQueue(unsigned num_banks);

    /** Append a request (must have flatBank decoded); returns its handle. */
    Handle push(Request &&req);

    /** Unlink and return the request at `h`. */
    Request take(Handle h);

    Request &at(Handle h) { return nodes[h].req; }
    const Request &at(Handle h) const { return nodes[h].req; }
    std::uint64_t seqOf(Handle h) const { return nodes[h].seq; }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Per-bank age-order iteration (oldest first). */
    Handle bankOldest(unsigned fb) const { return banks[fb].head; }
    Handle bankNext(Handle h) const { return nodes[h].bankNext; }
    std::uint32_t bankCount(unsigned fb) const { return banks[fb].count; }

    /**
     * Banks currently holding at least one request, ordered by the
     * sequence number of each bank's oldest request (oldest first).
     */
    const std::vector<unsigned> &activeBanks() const { return active; }

    /** Row-hit statistics of one bank against its current open row. */
    struct BankHits
    {
        std::uint32_t hitCount = 0;     ///< requests matching the open row
        Handle oldestHit = kNone;       ///< oldest such request
        Handle oldestMiss = kNone;      ///< oldest request to another row
    };

    /**
     * Hit statistics of bank `fb` against `bank`'s open-row state,
     * recomputed only when the bank's row state or request set changed
     * since the cached value. Only meaningful for open banks.
     */
    const BankHits &
    hitStats(unsigned fb, const Bank &bank)
    {
        BankState &b = banks[fb];
        bool open = bank.isOpen();
        if (b.cachedVersion == b.version && b.cachedOpen == open &&
            (!open || b.cachedRow == bank.openRow()))
            return b.hits;
        return recountHits(b, bank);
    }

    /** The demand command a bank's requests in one queue wait for. */
    enum class EventKind : std::uint8_t
    {
        kColumn,        ///< a live row hit's RD/WR
        kPrecharge,     ///< a conflict's PRE (no live hit keeps the row)
        kActivate,      ///< a closed bank's ACT
    };

    /** A bank's next demand command and the bank's own time for it. */
    struct BankEvent
    {
        Cycle at = 0;   ///< Bank::earliest, before any rank-level gate
        EventKind kind = EventKind::kActivate;
    };

    /**
     * The command the requests of active bank `fb` wait for next, by
     * the rules pickRowPrep records its bound with, and the bank's own
     * earliest cycle for it (`col` is the queue's column command,
     * `capped` the bank's streak cap). Cached per bank, apart from the
     * buckets, and revalidated like hitStats: against the bank's
     * request set, its state stamp (Bank::stamp), `capped` and `col`.
     */
    const BankEvent &
    bankEvent(unsigned fb, const Bank &bank, DramCommand col, bool capped)
    {
        EventCache &e = events[fb];
        auto mode = static_cast<std::uint8_t>(
            (capped ? 1 : 0) | (col == DramCommand::kWr ? 2 : 0));
        if (e.version == banks[fb].version && e.stamp == bank.stamp() &&
            e.mode == mode)
            return e.event;
        return recountEvent(fb, bank, col, capped, mode);
    }

    /**
     * The known prefix of a closed bank's safety verdicts, oldest
     * request first, under a mitigation with verdict stamps
     * (Mitigation::verdictStamps): `refused` refusals from the bank's
     * head, then `next`, whose verdict is safe if `nextSafe` and not
     * yet known otherwise (kNone: every request was refused).
     */
    struct VerdictChain
    {
        Handle next = kNone;
        std::uint32_t refused = 0;
        bool nextSafe = false;
        std::uint64_t lastRefusedSeq = 0;   ///< the youngest refusal's seq
        Cycle validUntil = kNoEventCycle;   ///< earliest refusal lapse
        std::uint64_t version = ~0ull;      ///< key: BankState::version
        std::uint64_t stamp = 0;            ///< key: the bank's stamp
    };

    /**
     * Bank `fb`'s verdict chain, revalidated like hitStats: it holds
     * while the bank's request set and verdict `stamp` are unchanged
     * and `now` is before its earliest refusal lapse, and restarts
     * empty at the bank's head otherwise.
     */
    VerdictChain &
    verdictChain(unsigned fb, std::uint64_t stamp, Cycle now)
    {
        VerdictChain &c = chains[fb];
        const BankState &b = banks[fb];
        if (c.version != b.version || c.stamp != stamp ||
            now >= c.validUntil)
            c = VerdictChain{b.head, 0, false, 0, kNoEventCycle, b.version,
                             stamp};
        return c;
    }

  private:
    struct Node
    {
        Request req;
        std::uint64_t seq = 0;
        /// Per-bank age list; `bankNext` also links free slab nodes.
        Handle bankPrev = kNone, bankNext = kNone;
        unsigned bank = 0;
    };

    /** Per-bank bucket plus the lazily revalidated hit cache. */
    struct BankState
    {
        Handle head = kNone, tail = kNone;
        std::uint32_t count = 0;
        std::uint64_t version = 0;      ///< bumped on push/take for the bank
        // Cache key: queue version + open-row state when computed.
        std::uint64_t cachedVersion = ~0ull;
        bool cachedOpen = false;
        RowId cachedRow = 0;
        BankHits hits;
    };

    /** Recompute and re-key `b`'s hit cache (hitStats cache miss). */
    const BankHits &recountHits(BankState &b, const Bank &bank);

    /** bankEvent's cache entry and its key. */
    struct EventCache
    {
        std::uint64_t version = ~0ull;  ///< BankState::version
        std::uint64_t stamp = 0;        ///< Bank::stamp
        std::uint8_t mode = 0;          ///< capped | (col is WR) << 1
        BankEvent event;
    };

    /** Recompute and re-key bank `fb`'s event (bankEvent cache miss). */
    const BankEvent &recountEvent(unsigned fb, const Bank &bank,
                                  DramCommand col, bool capped,
                                  std::uint8_t mode);

    std::vector<Node> nodes;
    Handle freeHead = kNone;
    std::size_t count = 0;
    std::uint64_t nextSeq = 0;
    std::vector<BankState> banks;
    std::vector<unsigned> active;
    /// Per bank; apart from `banks`, whose walks never read it.
    std::vector<EventCache> events;
    /// Per bank; apart from `banks` too, read by chained picks only.
    std::vector<VerdictChain> chains;
};

/**
 * FR-FCFS-Cap view over the controller's per-bank row-hit streaks: a
 * bank whose streak reached `cap` is capped, and stops serving further
 * row hits (and may be closed) while a request to another of its rows
 * waits, so one streaming thread cannot capture a bank indefinitely.
 */
struct StreakCapped
{
    const unsigned *streak = nullptr;   ///< consecutive row hits per bank
    unsigned cap = 0;

    bool operator()(unsigned bank) const { return streak[bank] >= cap; }
};

/**
 * A queue's demand event bound, recorded by FrFcfsScheduler::pickRowPrep
 * while it walks the queue's banks: the earliest future cycle at which
 * a demand command for the queue could become issuable, assuming no
 * intervening state change. Conservative: may name a cycle at which
 * nothing is issuable yet, never one past an issue opportunity.
 */
struct DemandBound
{
    /// Earliest timing-driven candidate; kNoEventCycle when none.
    Cycle timing = kNoEventCycle;
    /**
     * Some closed bank's ACT was already legal at the walk. If the walk
     * picks nothing, that ACT is mitigation-blocked, and its verdict can
     * only flip at the mitigation's next time-driven state change.
     */
    bool verdictBound = false;

    /** The bound, given the mitigation's next possible verdict flip. */
    Cycle
    at(Cycle verdict_change_at) const
    {
        return verdictBound ? std::min(timing, verdict_change_at) : timing;
    }
};

/**
 * A row-prep pick that replays cached verdicts instead of asking again:
 * the mitigation, whose verdictStamps() must not be null, and the
 * cached refusals the picks passed over, which the caller counts.
 */
struct VerdictReplay
{
    const Mitigation &mitigation;
    std::uint64_t replayed = 0;
};

/**
 * FR-FCFS policy over SchedQueues. Holds per-bank scratch state sized from
 * the device (the controller owns one instance per channel).
 */
class FrFcfsScheduler
{
  public:
    /** Predicate deciding if a request's ACT may be issued (mitigation). */
    using ActFilter = std::function<bool(const Request &)>;

    explicit FrFcfsScheduler(unsigned num_banks);

    /**
     * Pick the oldest row-buffer-hit request whose column command is legal
     * at `now`, or kNone. Hits to a streak-capped bank are skipped when any
     * request to another row of that bank is waiting, whatever its age.
     */
    SchedQueue::Handle
    pickColumnReady(SchedQueue &queue, ReqType type, const DramDevice &dram,
                    Cycle now, StreakCapped capped);

    /**
     * Pick the oldest request that needs (and can start) row preparation:
     * an ACT on a closed bank or a PRE on a conflicting open row.
     *
     * Skips banks where a row-hit request is still pending (don't close
     * useful rows — unless the bank's streak is capped) and requests whose
     * ACT the mitigation blocks — this is how RowHammer-safe requests are
     * prioritized over unsafe ones (Section 3.1 of the paper).
     *
     * Only one request per bank can matter at a time, the bank's
     * frontier: a closed bank's oldest request not yet refused by the
     * mitigation, or an open bank's oldest conflicting request when its
     * PRE is legal and no live (uncapped) hit keeps the row open. The
     * frontiers are visited in ascending sequence number; an unsafe
     * verdict advances that bank's frontier to its next request, and a
     * safe one either returns the request (ACT legal) or retires the
     * bank. That is the pick of the original oldest-first walk over the
     * whole queue, with the mitigation filter called on the same requests
     * in the same global age order, so safety-query side effects (delay
     * accounting, blocked counters) are bit-compatible.
     *
     * The walk that collects the frontiers also records into `bound` the
     * queue's demand event bound (`queue` holds requests of `type`), so
     * an idle controller tick needs no second pass over its banks.
     *
     * With `replay`, a closed bank's frontier starts where its verdict
     * chain ends, the chains learn every verdict the filter answers, and
     * the cached refusals older than the pick, which the walk would have
     * asked again, are added to `replay->replayed` instead. The pick and
     * the bound are the walk's, and the filter is called on the walk's
     * requests minus those whose verdicts a chain holds, in the walk's
     * order.
     */
    SchedQueue::Handle
    pickRowPrep(SchedQueue &queue, ReqType type, const DramDevice &dram,
                Cycle now, const ActFilter &act_allowed, StreakCapped capped,
                DemandBound &bound, VerdictReplay *replay = nullptr);

    /**
     * The queue's demand event bound with every ACT taken as safe: the
     * earliest cycle at which a column, PRE or ACT command for one of
     * its requests becomes legal, from the banks' cached events
     * (SchedQueue::bankEvent) and the rank-level column and ACT gates.
     * At a tick where pickColumnReady and a pickRowPrep whose filter
     * passes every request both pick nothing, it is the bound that
     * pickRowPrep records; the controller reads it instead of walking
     * when a mitigation's queries cannot have an effect.
     */
    Cycle demandEventAt(SchedQueue &queue, ReqType type,
                        const DramDevice &dram, StreakCapped capped);

    /** demandEventAt over bank `fb` alone (kNoEventCycle when idle). */
    Cycle bankEventAt(SchedQueue &queue, ReqType type,
                      const DramDevice &dram, StreakCapped capped,
                      unsigned fb);

  private:
    /** One closed bank's next request to query within a pickRowPrep. */
    struct Frontier
    {
        std::uint64_t seq = 0;                  ///< age of `handle`
        SchedQueue::Handle handle = SchedQueue::kNone;
        bool legal = false;                     ///< the bank's ACT, now
        SchedQueue::VerdictChain *chain = nullptr;  ///< with a replay
    };

    /** A bank's cached refusals at the start of a chained pick. */
    struct CachedRefusals
    {
        unsigned bank = 0;
        std::uint32_t count = 0;
        std::uint64_t lastSeq = 0;              ///< the youngest one's seq
    };

    /** pickRowPrep scratch, ascending `seq`; reused across calls. */
    std::vector<Frontier> frontiers;
    /** Chained pickRowPrep scratch; reused across calls. */
    std::vector<CachedRefusals> cached;
};

} // namespace bh

#endif // BH_MEM_SCHEDULER_HH
