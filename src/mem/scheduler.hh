/**
 * @file
 * FR-FCFS request selection (Rixner et al., ISCA 2000), factored out of the
 * controller for testability: row-buffer-hit requests first, then oldest.
 *
 * The scheduler is incremental: requests live in a SchedQueue that buckets
 * them per bank (FIFO within a bank, global age via sequence numbers), and
 * each queue keeps one event table: per bank, the demand command its
 * requests wait for, the bank's own earliest cycle for it and the request
 * it serves. An entry is recomputed only after its bank's request set,
 * DRAM state or streak cap changed. Column picks, the row-prep pick of a
 * mechanism whose safety queries have no effect, and the demand event
 * bounds read the table; they cost one compact entry per active bank.
 * The row-prep walk of a mechanism whose queries do have an effect visits
 * only each active bank's frontier (the one request an oldest-first walk
 * of the whole queue would act on in that bank) in ascending age,
 * preserving the exact pick — and the exact order of mitigation safety
 * queries — of the original full-walk implementation, and records the
 * queue's demand event bound on the way. Under a mitigation with verdict
 * stamps, each closed bank keeps the known prefix of its verdicts (its
 * verdict chain), the walk asks only what no chain knows yet, and the
 * queue keeps totals over the chains, so a pick that the table and the
 * chains settle visits no bank at all.
 *
 * All per-bank state is sized from the device, so arbitrarily large
 * organizations (multi-rank DDR4 with > 64 flat banks) work; the old
 * stack-allocated kMaxBanks=64 scratch arrays (and their panic) are gone.
 */

#ifndef BH_MEM_SCHEDULER_HH
#define BH_MEM_SCHEDULER_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "dram/device.hh"
#include "mem/mitigation.hh"
#include "mem/request.hh"

namespace bh
{

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

    /**
     * `verdict_stamps`: the mitigation's per-bank verdict stamps
     * (Mitigation::verdictStamps), or null, under which no verdict chain
     * ever holds.
     */
    explicit SchedQueue(unsigned num_banks,
                        const std::uint64_t *verdict_stamps = nullptr);

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
     * Hit statistics of bank `fb` against `bank`'s open row, from a walk
     * over the bank's requests. Only meaningful for open banks.
     */
    BankHits hitStats(unsigned fb, const Bank &bank) const;

    /** The demand command a bank's requests in one queue wait for. */
    enum class EventKind : std::uint8_t
    {
        kColumn,        ///< a live row hit's RD/WR
        kPrecharge,     ///< a conflict's PRE (no live hit keeps the row)
        kActivate,      ///< a closed bank's ACT
        kNone,          ///< the bank holds no request of this queue
    };

    /**
     * One entry of the event table: the command the requests of a bank
     * wait for next, by the rules pickRowPrep records its bound with, the
     * bank's own earliest cycle for it, and the request it serves (a live
     * hit's oldest request, a conflict's oldest request to another row,
     * or a closed bank's oldest request).
     */
    struct BankEvent
    {
        Cycle at = kNoEventCycle;   ///< Bank::earliest, before rank gates
        std::uint64_t seq = 0;      ///< age of `handle`
        Handle handle = kNone;
        EventKind kind = EventKind::kNone;
        bool stale = false;         ///< recompute before the next read
    };

    /**
     * Bank `fb`'s DRAM state or streak cap changed: its entry is
     * recomputed at the next syncEvents. push and take mark their bank
     * themselves; every other change (a command to the bank from any
     * source, a streak that crosses the cap) must be reported here.
     */
    void
    touch(unsigned fb)
    {
        if (banks[fb].count != 0)
            markStale(fb);
    }

    /** Touch every bank (an all-bank REF moves every ACT time). */
    void touchAll();

    /**
     * Bring the table up to date for a queue whose column command is
     * `col`: recompute each stale entry from `dram` and `capped`, and
     * return how many were recomputed.
     */
    std::uint32_t
    syncEvents(const DramDevice &dram, DramCommand col, StreakCapped capped)
    {
        if (staleBanks.empty())
            return 0;
        return recomputeStale(dram, col, capped);
    }

    /** Bank `fb`'s entry; current after syncEvents. */
    const BankEvent &event(unsigned fb) const { return table[fb]; }

    /** The earliest `at` per EventKind (the kNone slot is unused). */
    using KindMins = std::array<Cycle, 4>;

    /**
     * The table's earliest entry of each kind, current after syncEvents.
     * Kept as entries change; only after an entry that may have held a
     * minimum moved away from it are they rebuilt, by a scan of the
     * active banks' entries, whose count is added to `scanned`, or by a
     * row-prep pick's scan (keepMins).
     */
    const KindMins &
    eventMins(std::uint64_t &scanned)
    {
        if (!minsValid)
            rebuildMins(scanned);
        return mins;
    }

    /** The minima if no rebuild is due, else null (no scan). */
    const KindMins *currentMins() const { return minsValid ? &mins : nullptr; }

    /**
     * Audit for `--skip verify`: the first bank whose entry is not stale
     * and still differs from a fresh computation against `dram` and
     * `capped`, or -1. An entry that fails was missed by a touch.
     */
    int firstWrongEvent(const DramDevice &dram, DramCommand col,
                        StreakCapped capped);

    /**
     * The known prefix of a closed bank's safety verdicts, oldest
     * request first, under a mitigation with verdict stamps
     * (Mitigation::verdictStamps): `refused` refusals from the bank's
     * head, then `next`, whose verdict is safe if `nextSafe` and not
     * yet known otherwise (kNone: every request was refused). A push
     * appends behind every request it knows, so only a take or a stamp
     * move restarts it; a push to a chain that refused every request
     * becomes its `next`.
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

        /** Does the chain end at a known verdict? */
        bool complete() const { return nextSafe || next == kNone; }
    };

    /**
     * Bank `fb`'s verdict chain, revalidated at each read: it holds
     * while no request was taken from the bank, its verdict stamp is
     * unchanged and `now` is before its earliest refusal lapse, and
     * restarts empty at the bank's head otherwise (always, without
     * stamps).
     */
    VerdictChain &
    verdictChain(unsigned fb, Cycle now)
    {
        VerdictChain &c = chains[fb];
        if (!chainKeyHolds(c, fb) || now >= c.validUntil)
            c = freshChain(fb);
        return c;
    }

    /** Were verdict stamps given (else no chain ever holds)? */
    bool hasVerdictStamps() const { return stamps != nullptr; }

    /** Bank `fb`'s chain as it stands, and whether it holds at `now`. */
    const VerdictChain &chain(unsigned fb) const { return chains[fb]; }
    bool
    chainHolds(unsigned fb, Cycle now) const
    {
        return chainKeyHolds(chains[fb], fb) && now < chains[fb].validUntil;
    }

    /**
     * Totals over the chains of the banks whose table entry is an ACT
     * (the closed banks). A chain that was reset counts as incomplete.
     */
    struct ChainTotals
    {
        std::uint32_t incomplete = 0;       ///< chains not complete()
        std::uint64_t refused = 0;          ///< their cached refusals
        Cycle lapse = kNoEventCycle;        ///< no chain lapses before
    };

    /**
     * The chain totals if every closed bank's chain is complete and none
     * has lapsed at `now`, else null. They hold from a pickRowPrep walk
     * (keepChains) until dropChains; the touches, pushes and takes that
     * mark entries stale move them at the next syncEvents. Current only
     * after syncEvents.
     */
    const ChainTotals *
    settledChains(Cycle now) const
    {
        return chainsHeld && totals.incomplete == 0 && now < totals.lapse
            ? &totals : nullptr;
    }

    /** The chain totals while they hold, else null. */
    const ChainTotals *
    chainTotals() const
    {
        return chainsHeld ? &totals : nullptr;
    }

    /**
     * Every verdict stamp may have moved (a housekeeping tick: an epoch
     * swap): the totals no longer hold until the next walk.
     */
    void dropChains() { chainsHeld = false; }

    /**
     * Complete the closed banks' chains that end at an unknown verdict
     * with the mitigation's known-safe answers at `now`
     * (Mitigation::knownSafe), while the totals hold and none has
     * lapsed; stop at the first answer that is not "safe". True when
     * the totals then settle (settledChains). The entries it reads are
     * added to `scanned`. Call with the table in sync (syncEvents).
     */
    bool completeChains(const Mitigation &mitigation, Cycle now,
                        std::uint64_t &scanned);

    /**
     * A pick's scan of every active bank, with the table in sync, found
     * the table's minima `walked`: keep them.
     */
    void
    keepMins(const KindMins &walked)
    {
        mins = walked;
        minsValid = true;
    }

    /**
     * A pickRowPrep walk over every active bank, with the table in sync,
     * left the chain totals `walked`: keep them (they hold only with
     * verdict stamps).
     */
    void
    keepChains(const ChainTotals &walked)
    {
        totals = walked;
        chainsHeld = stamps != nullptr;
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

    /** Per-bank bucket. */
    struct BankState
    {
        Handle head = kNone, tail = kNone;
        std::uint32_t count = 0;
        std::uint64_t version = 0;      ///< bumped on a take from the bank
    };

    /** Queue bank `fb`'s entry for recomputation. */
    void
    markStale(unsigned fb)
    {
        if (!table[fb].stale) {
            table[fb].stale = true;
            staleBanks.push_back(fb);
        }
    }

    /**
     * Bank `fb`'s entry, computed afresh (the stale flag clear). A column
     * entry holds for either column command: a bank's RD and WR times
     * move together (only an ACT sets them), so a queue whose requests
     * change type needs no recomputation.
     */
    BankEvent computeEvent(unsigned fb, const Bank &bank, DramCommand col,
                           bool capped);

    /** syncEvents' work once some entry is stale. */
    std::uint32_t recomputeStale(const DramDevice &dram, DramCommand col,
                                 StreakCapped capped);

    /** Chain `c` of bank `fb` matches the bank's requests and stamp. */
    bool
    chainKeyHolds(const VerdictChain &c, unsigned fb) const
    {
        return stamps && c.version == banks[fb].version &&
            c.stamp == stamps[fb];
    }

    /** An empty chain at bank `fb`'s head, keyed to its current state. */
    VerdictChain
    freshChain(unsigned fb) const
    {
        return VerdictChain{banks[fb].head, 0, false, 0, kNoEventCycle,
                            banks[fb].version, stamps ? stamps[fb] : 0};
    }

    /**
     * Move bank `fb`'s chain in the totals as its entry's kind goes from
     * `was` to `now_kind` (recomputeStale, while the totals hold).
     */
    void retallyChain(unsigned fb, EventKind was, EventKind now_kind);

    /** eventMins' scan. */
    void rebuildMins(std::uint64_t &scanned);

    std::vector<Node> nodes;
    Handle freeHead = kNone;
    std::size_t count = 0;
    std::uint64_t nextSeq = 0;
    std::vector<BankState> banks;
    std::vector<unsigned> active;
    /// The event table, per bank; apart from `banks`, whose walks never
    /// read it.
    std::vector<BankEvent> table;
    std::vector<unsigned> staleBanks;       ///< banks whose entry is stale
    KindMins mins{kNoEventCycle, kNoEventCycle, kNoEventCycle,
                  kNoEventCycle};
    bool minsValid = true;                  ///< else rebuild before a read
    /// Per bank; apart from `banks` too, read by row-prep picks only.
    std::vector<VerdictChain> chains;
    const std::uint64_t *stamps = nullptr;  ///< the mitigation's, or null
    ChainTotals totals;
    bool chainsHeld = false;                ///< else a walk rebuilds them
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
 * What a row-prep pick needs to replay cached verdicts instead of asking
 * again: the mitigation, whose refusal lapses the chains learn when the
 * queue has verdict stamps, and the cached refusals the picks passed
 * over, which the caller counts.
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
     * Behind the rank's column gate, a scan of the event table's column
     * entries.
     */
    SchedQueue::Handle
    pickColumnReady(SchedQueue &queue, ReqType type, const DramDevice &dram,
                    Cycle now, StreakCapped capped);

    /**
     * The row-prep pick of pickRowPrep with a filter that passes every
     * request, read off the event table: the oldest request whose PRE or
     * ACT is legal at `now`, with no filter call and no frontier sort.
     * It records into `bound` the bound pickRowPrep records, and a scan
     * rebuilds the table's minima on the way (SchedQueue::keepMins). The
     * controller takes it where the mitigation's safety queries have no
     * effect (Mitigation::actQueriesObservable).
     */
    SchedQueue::Handle
    pickRowPrepAllSafe(SchedQueue &queue, ReqType type,
                       const DramDevice &dram, Cycle now,
                       StreakCapped capped, DemandBound &bound);

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
     * PRE is legal and no live (uncapped) hit keeps the row open (the
     * event table's PRE entry). The frontiers are visited in ascending
     * sequence number; an unsafe verdict advances that bank's frontier to
     * its next request, and a safe one either returns the request (ACT
     * legal) or retires the bank. That is the pick of the original
     * oldest-first walk over the whole queue, with the mitigation filter
     * called on the same requests in the same global age order, so
     * safety-query side effects (delay accounting, blocked counters) are
     * bit-compatible.
     *
     * A closed bank's frontier starts where its verdict chain ends, the
     * chains learn every verdict the filter answers, and the cached
     * refusals older than the pick, which the walk would have asked
     * again, are added to `replay.replayed` instead. Without verdict
     * stamps no chain holds, and every query is live.
     *
     * The walk that collects the frontiers reads each bank's event-table
     * entry, records into `bound` the queue's demand event bound
     * (`queue` holds requests of `type`), so an idle controller tick
     * needs no second pass over its banks, and rebuilds the table's
     * minima and the chain totals (SchedQueue::keepMins, keepChains).
     * When those settle the pick (settledRowPrep), no bank is visited.
     */
    SchedQueue::Handle
    pickRowPrep(SchedQueue &queue, ReqType type, const DramDevice &dram,
                Cycle now, const ActFilter &act_allowed, StreakCapped capped,
                DemandBound &bound, VerdictReplay &replay);

    /**
     * pickRowPrep's answer at `now` with no bank walk, where the table
     * and the chain totals settle it: every closed bank's chain is
     * complete and holds, and the minima (rebuilt by a scan if they are
     * not current) show no legal PRE or ACT. Then nothing is picked, no
     * query is asked, `bound` is the gated minima (no ACT is legal, so
     * none bounds through a verdict flip), the chains' cached refusals
     * are added to `replayed`, and the answer is true.
     */
    bool settledRowPrep(SchedQueue &queue, ReqType type,
                        const DramDevice &dram, Cycle now,
                        StreakCapped capped, DemandBound &bound,
                        std::uint64_t &replayed);

    /**
     * Bring the table up to date and complete the closed banks' chains
     * that end at an unknown verdict with `mitigation`'s known-safe
     * answers at `now` (SchedQueue::completeChains). True when every
     * closed bank's chain is then complete and holds, as
     * settledRowPrep requires. The controller's derive step asks it
     * right after an issue; a pick asks live instead.
     */
    bool completeChains(SchedQueue &queue, ReqType type,
                        const DramDevice &dram, Cycle now,
                        StreakCapped capped, const Mitigation &mitigation);

    /**
     * The queue's demand event bound with every ACT taken as safe: the
     * earliest cycle at which a column, PRE or ACT command for one of
     * its requests becomes legal, from the event table's earliest entry
     * of each kind and the rank-level column and ACT gates. At a tick
     * where pickColumnReady and pickRowPrepAllSafe both pick nothing, it
     * is the bound that pickRowPrepAllSafe records; the controller reads
     * it instead of picking when a mitigation's queries cannot have an
     * effect.
     */
    Cycle demandEventAt(SchedQueue &queue, ReqType type,
                        const DramDevice &dram, StreakCapped capped);

    /** demandEventAt over bank `fb` alone (kNoEventCycle when idle). */
    Cycle bankEventAt(SchedQueue &queue, ReqType type,
                      const DramDevice &dram, StreakCapped capped,
                      unsigned fb);

    /**
     * Work counters, observation-only: bank entries that picks and
     * bounds scanned (the event table's entries, and the banks a
     * pickRowPrep walk visits), and table entries recomputed.
     */
    struct Work
    {
        std::uint64_t scanned = 0;
        std::uint64_t recomputed = 0;
    };
    const Work &work() const { return counts; }

  private:
    /** One closed bank's next request to query within a pickRowPrep. */
    struct Frontier
    {
        std::uint64_t seq = 0;                  ///< age of `handle`
        SchedQueue::Handle handle = SchedQueue::kNone;
        bool legal = false;                     ///< the bank's ACT, now
        SchedQueue::VerdictChain *chain = nullptr;
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
    /** pickRowPrep scratch; reused across calls. */
    std::vector<CachedRefusals> cached;
    Work counts;
};

} // namespace bh

#endif // BH_MEM_SCHEDULER_HH
