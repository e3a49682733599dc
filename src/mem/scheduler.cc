#include "mem/scheduler.hh"

#include <algorithm>
#include <array>

#include "common/log.hh"

namespace bh
{

SchedQueue::SchedQueue(unsigned num_banks)
    : banks(num_banks), events(num_banks), chains(num_banks)
{
}

SchedQueue::Handle
SchedQueue::push(Request &&req)
{
    Handle h;
    if (freeHead != kNone) {
        h = freeHead;
        freeHead = nodes[h].bankNext;
        nodes[h].req = std::move(req);
    } else {
        h = static_cast<Handle>(nodes.size());
        nodes.push_back(Node{});
        nodes[h].req = std::move(req);
    }
    Node &n = nodes[h];
    n.seq = nextSeq++;
    n.bank = n.req.flatBank;
    if (n.bank >= banks.size())
        panic("SchedQueue: bank %u out of range (%zu banks)", n.bank,
              banks.size());

    BankState &b = banks[n.bank];
    n.bankPrev = b.tail;
    n.bankNext = kNone;
    if (b.tail != kNone)
        nodes[b.tail].bankNext = h;
    else
        b.head = h;
    b.tail = h;
    // A newly active bank's head is the youngest request: append.
    if (b.count++ == 0)
        active.push_back(n.bank);
    ++b.version;
    ++count;
    return h;
}

Request
SchedQueue::take(Handle h)
{
    Node &n = nodes[h];
    BankState &b = banks[n.bank];
    bool was_head = n.bankPrev == kNone;
    if (n.bankPrev != kNone)
        nodes[n.bankPrev].bankNext = n.bankNext;
    else
        b.head = n.bankNext;
    if (n.bankNext != kNone)
        nodes[n.bankNext].bankPrev = n.bankPrev;
    else
        b.tail = n.bankPrev;

    // Keep `active` in head-age order: an emptied bank leaves the list,
    // and a bank whose head was taken moves back past the banks whose
    // heads are now older than its new one.
    if (--b.count == 0) {
        active.erase(std::find(active.begin(), active.end(), n.bank));
    } else if (was_head) {
        auto pos = std::find(active.begin(), active.end(), n.bank);
        std::uint64_t seq = nodes[b.head].seq;
        auto stop = std::find_if(pos + 1, active.end(), [&](unsigned fb) {
            return nodes[banks[fb].head].seq > seq;
        });
        std::rotate(pos, pos + 1, stop);
    }
    ++b.version;
    --count;

    Request out = std::move(n.req);
    n.req = Request{};      // release the completion closure eagerly
    n.bankNext = freeHead;
    freeHead = h;
    return out;
}

const SchedQueue::BankHits &
SchedQueue::recountHits(BankState &b, const Bank &bank)
{
    bool open = bank.isOpen();
    RowId row = open ? bank.openRow() : 0;
    b.hits = BankHits{};
    if (open) {
        for (Handle h = b.head; h != kNone; h = nodes[h].bankNext) {
            if (nodes[h].req.coord.row == row) {
                if (b.hits.oldestHit == kNone)
                    b.hits.oldestHit = h;
                ++b.hits.hitCount;
            } else if (b.hits.oldestMiss == kNone) {
                b.hits.oldestMiss = h;
            }
        }
    }
    b.cachedVersion = b.version;
    b.cachedOpen = open;
    b.cachedRow = row;
    return b.hits;
}

const SchedQueue::BankEvent &
SchedQueue::recountEvent(unsigned fb, const Bank &bank, DramCommand col,
                         bool capped, std::uint8_t mode)
{
    EventCache &e = events[fb];
    if (!bank.isOpen()) {
        e.event = BankEvent{bank.earliest(DramCommand::kAct),
                            EventKind::kActivate};
    } else {
        // A live row hit (not capped while a conflict waits) keeps the
        // row open for its column command; otherwise a conflict waits
        // for the PRE.
        const BankHits &hits = hitStats(fb, bank);
        bool conflict = hits.oldestMiss != kNone;
        if (hits.hitCount > 0 && !(capped && conflict))
            e.event = BankEvent{bank.earliest(col), EventKind::kColumn};
        else
            e.event = BankEvent{bank.earliest(DramCommand::kPre),
                                EventKind::kPrecharge};
    }
    e.version = banks[fb].version;
    e.stamp = bank.stamp();
    e.mode = mode;
    return e.event;
}

namespace
{

/** Earliest event per SchedQueue::EventKind, before rank gates. */
using KindMins = std::array<Cycle, 3>;

/** The earliest of `mins` once the rank's column and ACT gates apply. */
Cycle
gated(const KindMins &mins, const DramDevice &dram, DramCommand col)
{
    using Kind = SchedQueue::EventKind;
    auto at = [&](Kind k) { return mins[static_cast<std::size_t>(k)]; };
    return std::min({std::max(at(Kind::kColumn), dram.columnEarliest(col)),
                     at(Kind::kPrecharge),
                     std::max(at(Kind::kActivate), dram.actEarliest())});
}

} // namespace

Cycle
FrFcfsScheduler::demandEventAt(SchedQueue &queue, ReqType type,
                               const DramDevice &dram, StreakCapped capped)
{
    DramCommand col = (type == ReqType::kRead)
        ? DramCommand::kRd : DramCommand::kWr;
    KindMins mins{kNoEventCycle, kNoEventCycle, kNoEventCycle};
    for (unsigned fb : queue.activeBanks()) {
        const auto &e = queue.bankEvent(fb, dram.bank(fb), col, capped(fb));
        Cycle &slot = mins[static_cast<std::size_t>(e.kind)];
        slot = std::min(slot, e.at);
    }
    return gated(mins, dram, col);
}

Cycle
FrFcfsScheduler::bankEventAt(SchedQueue &queue, ReqType type,
                             const DramDevice &dram, StreakCapped capped,
                             unsigned fb)
{
    if (queue.bankCount(fb) == 0)
        return kNoEventCycle;
    DramCommand col = (type == ReqType::kRead)
        ? DramCommand::kRd : DramCommand::kWr;
    const auto &e = queue.bankEvent(fb, dram.bank(fb), col, capped(fb));
    KindMins mins{kNoEventCycle, kNoEventCycle, kNoEventCycle};
    mins[static_cast<std::size_t>(e.kind)] = e.at;
    return gated(mins, dram, col);
}

FrFcfsScheduler::FrFcfsScheduler(unsigned num_banks)
{
    frontiers.reserve(num_banks);
    cached.reserve(num_banks);
}

SchedQueue::Handle
FrFcfsScheduler::pickColumnReady(SchedQueue &queue, ReqType type,
                                 const DramDevice &dram, Cycle now,
                                 StreakCapped capped)
{
    DramCommand cmd = (type == ReqType::kRead)
        ? DramCommand::kRd : DramCommand::kWr;
    // Rank-level column gate (tCCD, bus turnaround) applies to every bank.
    if (dram.columnEarliest(cmd) > now)
        return SchedQueue::kNone;

    SchedQueue::Handle best = SchedQueue::kNone;
    std::uint64_t best_seq = 0;
    for (unsigned fb : queue.activeBanks()) {
        const Bank &bank = dram.bank(fb);
        if (!bank.isOpen())
            continue;
        const auto &hits = queue.hitStats(fb, bank);
        if (hits.hitCount == 0)
            continue;
        // A capped bank only stops serving hits if someone is waiting for
        // a different row in it; otherwise capping would waste bandwidth.
        bool conflict_waiting = queue.bankCount(fb) > hits.hitCount;
        if (conflict_waiting && capped(fb))
            continue;
        if (bank.earliest(cmd) > now)
            continue;
        std::uint64_t seq = queue.seqOf(hits.oldestHit);
        if (best == SchedQueue::kNone || seq < best_seq) {
            best = hits.oldestHit;
            best_seq = seq;
        }
    }
    return best;
}

SchedQueue::Handle
FrFcfsScheduler::pickRowPrep(SchedQueue &queue, ReqType type,
                             const DramDevice &dram, Cycle now,
                             const ActFilter &act_allowed,
                             StreakCapped capped, DemandBound &bound,
                             VerdictReplay *replay)
{
    DramCommand col = (type == ReqType::kRead)
        ? DramCommand::kRd : DramCommand::kWr;
    Cycle col_gate = dram.columnEarliest(col);
    bound = DemandBound{};

    // The pick so far: a frontier that needs no query (a legal PRE, or a
    // chain's known-safe request with a legal ACT). The walk below asks
    // only about requests older than it.
    SchedQueue::Handle best = SchedQueue::kNone;
    std::uint64_t best_seq = ~0ull;
    auto known_pick = [&](SchedQueue::Handle h) {
        std::uint64_t seq = queue.seqOf(h);
        if (seq < best_seq) {
            best = h;
            best_seq = seq;
        }
    };

    // Collect each active bank's frontier in ascending age. `activeBanks`
    // is in head-age order, so closed banks (frontier = head) append in
    // order; a chain's frontier, younger than its head, sifts left. The
    // same pass records the earliest cycle each bank could next issue.
    frontiers.clear();
    cached.clear();
    const std::uint64_t *stamps =
        replay ? replay->mitigation.verdictStamps() : nullptr;
    for (unsigned fb : queue.activeBanks()) {
        const Bank &bank = dram.bank(fb);
        if (bank.isOpen()) {
            // Row hits are the column path's (a capped streak serves none
            // while a conflict waits); a bank with a pending row hit keeps
            // its row open unless its hit streak is capped.
            const auto &hits = queue.hitStats(fb, bank);
            bool conflict = hits.oldestMiss != SchedQueue::kNone;
            bool cap = capped(fb);
            if (hits.hitCount > 0 && !(cap && conflict))
                bound.timing = std::min(
                    bound.timing, std::max(bank.earliest(col), col_gate));
            if (!conflict || (hits.hitCount > 0 && !cap))
                continue;
            Cycle pre = bank.earliest(DramCommand::kPre);
            bound.timing = std::min(bound.timing, pre);
            if (pre <= now)
                known_pick(hits.oldestMiss);
            continue;
        }
        // If nothing is picked, an ACT already legal now was refused by
        // the mitigation: only a verdict flip can release it.
        Cycle act = dram.earliest(DramCommand::kAct, fb);
        Frontier f;
        f.legal = act <= now;
        if (f.legal)
            bound.verdictBound = true;
        else
            bound.timing = std::min(bound.timing, act);
        if (replay) {
            auto &chain = queue.verdictChain(fb, stamps[fb], now);
            if (chain.refused > 0)
                cached.push_back({fb, chain.refused, chain.lastRefusedSeq});
            if (chain.next == SchedQueue::kNone)
                continue;       // every request refused
            if (chain.nextSafe) {
                if (f.legal)
                    known_pick(chain.next);
                continue;       // a safe request settles the bank
            }
            f.handle = chain.next;
            f.chain = &chain;
        } else {
            f.handle = queue.bankOldest(fb);
        }
        f.seq = queue.seqOf(f.handle);
        std::size_t pos = frontiers.size();
        frontiers.push_back(f);
        for (; pos > 0 && frontiers[pos - 1].seq > f.seq; --pos)
            frontiers[pos] = frontiers[pos - 1];
        frontiers[pos] = f;
    }

    // Oldest frontier first, up to the known pick. An unsafe
    // (mitigation-blocked) request does not stop a younger safe request
    // to the same bank from being considered: its bank's frontier
    // advances and re-sorts.
    std::size_t i = 0;
    while (i < frontiers.size() && frontiers[i].seq < best_seq) {
        Frontier &f = frontiers[i];
        const Request &req = queue.at(f.handle);
        if (act_allowed(req)) {
            if (f.chain)
                f.chain->nextSafe = true;
            if (f.legal) {
                best = f.handle;
                best_seq = f.seq;
                break;
            }
            ++i;    // safe but not yet legal: the bank is settled
            continue;
        }
        Frontier next = f;
        next.handle = queue.bankNext(f.handle);
        if (SchedQueue::VerdictChain *chain = f.chain) {
            ++chain->refused;
            chain->lastRefusedSeq = f.seq;
            chain->validUntil = std::min(
                chain->validUntil,
                replay->mitigation.refusalLapsesAt(req.flatBank,
                                                   req.coord.row, now));
            chain->next = next.handle;
        }
        if (next.handle == SchedQueue::kNone) {
            ++i;
            continue;
        }
        next.seq = queue.seqOf(next.handle);
        std::size_t pos = i;
        for (; pos + 1 < frontiers.size() &&
               frontiers[pos + 1].seq < next.seq; ++pos)
            frontiers[pos] = frontiers[pos + 1];
        frontiers[pos] = next;
    }

    // The walk would have asked again about every cached refusal older
    // than the pick, and each would have been refused again.
    for (const CachedRefusals &c : cached) {
        if (c.lastSeq < best_seq) {
            replay->replayed += c.count;
            continue;
        }
        SchedQueue::Handle h = queue.bankOldest(c.bank);
        for (std::uint32_t k = 0; k < c.count && queue.seqOf(h) < best_seq;
             ++k, h = queue.bankNext(h))
            ++replay->replayed;
    }
    return best;
}

} // namespace bh
