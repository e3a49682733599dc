#include "mem/scheduler.hh"

#include <algorithm>

#include "common/log.hh"

namespace bh
{

SchedQueue::SchedQueue(unsigned num_banks) : banks(num_banks)
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
SchedQueue::hitStats(unsigned fb, const Bank &bank)
{
    BankState &b = banks[fb];
    bool open = bank.isOpen();
    RowId row = open ? bank.openRow() : 0;
    if (b.cachedVersion == b.version && b.cachedOpen == open &&
        (!open || b.cachedRow == row)) {
        return b.hits;
    }
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

FrFcfsScheduler::FrFcfsScheduler(unsigned num_banks)
{
    frontiers.reserve(num_banks);
}

SchedQueue::Handle
FrFcfsScheduler::pickColumnReady(SchedQueue &queue, ReqType type,
                                 const DramDevice &dram, Cycle now,
                                 const StreakCapped &capped)
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
        if (conflict_waiting && capped && capped(fb))
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
FrFcfsScheduler::pickRowPrep(SchedQueue &queue, const DramDevice &dram,
                             Cycle now, const ActFilter &act_allowed,
                             const StreakCapped &capped)
{
    // Collect each active bank's frontier in ascending age. `activeBanks`
    // is in head-age order, so closed banks (frontier = head) append in
    // order and only an open bank's younger oldest miss sifts left.
    frontiers.clear();
    for (unsigned fb : queue.activeBanks()) {
        const Bank &bank = dram.bank(fb);
        Frontier f;
        if (bank.isOpen()) {
            if (bank.earliest(DramCommand::kPre) > now)
                continue;
            // Row hits are the column path's; a bank with a pending row
            // hit keeps its row open unless its hit streak is capped.
            const auto &hits = queue.hitStats(fb, bank);
            if (hits.oldestMiss == SchedQueue::kNone ||
                (hits.hitCount > 0 && !(capped && capped(fb))))
                continue;
            f.handle = hits.oldestMiss;
            f.precharge = true;
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

    // Oldest frontier first. An unsafe (mitigation-blocked) request does
    // not stop a younger safe request to the same bank from being
    // considered: its bank's frontier advances and re-sorts.
    std::size_t i = 0;
    while (i < frontiers.size()) {
        SchedQueue::Handle h = frontiers[i].handle;
        if (frontiers[i].precharge)
            return h;
        const Request &req = queue.at(h);
        if (act_allowed(req)) {
            if (dram.canIssue(DramCommand::kAct, req.flatBank, now))
                return h;
            ++i;    // safe but not yet legal: the bank is settled
            continue;
        }
        Frontier next;
        next.handle = queue.bankNext(h);
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
    return SchedQueue::kNone;
}

Cycle
FrFcfsScheduler::nextDemandEventAt(SchedQueue &queue, ReqType type,
                                   const DramDevice &dram, Cycle last_tick_at,
                                   const StreakCapped &capped,
                                   Cycle verdict_change_at)
{
    DramCommand cmd = (type == ReqType::kRead)
        ? DramCommand::kRd : DramCommand::kWr;
    Cycle col_gate = dram.columnEarliest(cmd);
    Cycle best = kNoEventCycle;
    for (unsigned fb : queue.activeBanks()) {
        const Bank &bank = dram.bank(fb);
        if (bank.isOpen()) {
            const auto &hits = queue.hitStats(fb, bank);
            bool cap = capped && capped(fb);
            bool conflict = queue.bankCount(fb) > hits.hitCount;
            if (hits.hitCount > 0 && !(cap && conflict))
                best = std::min(best,
                                std::max(bank.earliest(cmd), col_gate));
            // A conflicting request may close the row unless a live (not
            // capped) hit keeps it open.
            if (conflict && !(hits.hitCount > 0 && !cap))
                best = std::min(best, bank.earliest(DramCommand::kPre));
        } else {
            Cycle act = dram.earliest(DramCommand::kAct, fb);
            // An ACT that was already legal at the last executed tick and
            // still was not issued is mitigation-blocked: its verdict can
            // only flip at the mitigation's next time-driven state change.
            // Later ACT-ready times are ordinary timing candidates (the
            // controller simply has not ticked since they became legal).
            best = std::min(best,
                            act > last_tick_at ? act : verdict_change_at);
        }
    }
    return best;
}

} // namespace bh
