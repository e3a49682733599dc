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
 *
 * All per-bank state is sized from the device, so arbitrarily large
 * organizations (multi-rank DDR4 with > 64 flat banks) work; the old
 * stack-allocated kMaxBanks=64 scratch arrays (and their panic) are gone.
 */

#ifndef BH_MEM_SCHEDULER_HH
#define BH_MEM_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "dram/device.hh"
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
    const BankHits &hitStats(unsigned fb, const Bank &bank);

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

    std::vector<Node> nodes;
    Handle freeHead = kNone;
    std::size_t count = 0;
    std::uint64_t nextSeq = 0;
    std::vector<BankState> banks;
    std::vector<unsigned> active;
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

    /**
     * Predicate deciding if a bank's row-hit streak has been capped:
     * capped banks stop serving further row hits (and may be closed) so
     * one streaming thread cannot capture a bank indefinitely.
     */
    using StreakCapped = std::function<bool(unsigned bank)>;

    explicit FrFcfsScheduler(unsigned num_banks);

    /**
     * Pick the oldest row-buffer-hit request whose column command is legal
     * at `now`, or kNone. Hits to a streak-capped bank are skipped when any
     * request to another row of that bank is waiting, whatever its age.
     */
    SchedQueue::Handle
    pickColumnReady(SchedQueue &queue, ReqType type, const DramDevice &dram,
                    Cycle now, const StreakCapped &capped);

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
     */
    SchedQueue::Handle
    pickRowPrep(SchedQueue &queue, const DramDevice &dram, Cycle now,
                const ActFilter &act_allowed, const StreakCapped &capped);

    /**
     * Earliest future cycle at which a demand command for `queue` could
     * become issuable, assuming no intervening state change. Banks whose
     * ACT was already legal at the controller's last executed tick
     * (`last_tick_at`) yet went unissued are mitigation-blocked and
     * contribute `verdict_change_at` (the mitigation's next possible
     * verdict flip). Returns kNoEventCycle when the queue presents no
     * candidates. Conservative: may return a cycle at which nothing is
     * issuable yet, never one that skips over an issue opportunity.
     */
    Cycle nextDemandEventAt(SchedQueue &queue, ReqType type,
                            const DramDevice &dram, Cycle last_tick_at,
                            const StreakCapped &capped,
                            Cycle verdict_change_at);

  private:
    /** One bank's row-prep candidate within a pickRowPrep call. */
    struct Frontier
    {
        std::uint64_t seq = 0;                  ///< age of `handle`
        SchedQueue::Handle handle = SchedQueue::kNone;
        bool precharge = false;                 ///< open bank, PRE legal
    };

    /** pickRowPrep scratch, ascending `seq`; reused across calls. */
    std::vector<Frontier> frontiers;
};

} // namespace bh

#endif // BH_MEM_SCHEDULER_HH
