#include "mem/scheduler.hh"

#include <algorithm>
#include <array>

#include "common/log.hh"

namespace bh
{

SchedQueue::SchedQueue(unsigned num_banks,
                       const std::uint64_t *verdict_stamps)
    : banks(num_banks), table(num_banks), chains(num_banks),
      stamps(verdict_stamps)
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
    markStale(n.bank);
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
    markStale(n.bank);
    --count;

    Request out = std::move(n.req);
    n.bankNext = freeHead;
    freeHead = h;
    return out;
}

SchedQueue::BankHits
SchedQueue::hitStats(unsigned fb, const Bank &bank) const
{
    BankHits hits;
    if (!bank.isOpen())
        return hits;
    RowId row = bank.openRow();
    for (Handle h = banks[fb].head; h != kNone; h = nodes[h].bankNext) {
        if (nodes[h].req.coord.row == row) {
            if (hits.oldestHit == kNone)
                hits.oldestHit = h;
            ++hits.hitCount;
        } else if (hits.oldestMiss == kNone) {
            hits.oldestMiss = h;
        }
    }
    return hits;
}

void
SchedQueue::touchAll()
{
    for (unsigned fb : active)
        markStale(fb);
}

SchedQueue::BankEvent
SchedQueue::computeEvent(unsigned fb, const Bank &bank, DramCommand col,
                         bool capped)
{
    const BankState &b = banks[fb];
    auto make = [&](EventKind kind, Cycle at, Handle h) {
        return BankEvent{at, nodes[h].seq, h, kind, false};
    };
    if (b.count == 0)
        return BankEvent{};
    if (!bank.isOpen())
        return make(EventKind::kActivate, bank.earliest(DramCommand::kAct),
                    b.head);
    // A live row hit (not capped while a conflict waits) keeps the row
    // open for its column command; otherwise a conflict waits for the PRE.
    BankHits hits = hitStats(fb, bank);
    bool conflict = hits.oldestMiss != kNone;
    if (hits.hitCount > 0 && !(capped && conflict))
        return make(EventKind::kColumn, bank.earliest(col), hits.oldestHit);
    return make(EventKind::kPrecharge, bank.earliest(DramCommand::kPre),
                hits.oldestMiss);
}

std::uint32_t
SchedQueue::recomputeStale(const DramDevice &dram, DramCommand col,
                           StreakCapped capped)
{
    auto n = static_cast<std::uint32_t>(staleBanks.size());
    for (unsigned fb : staleBanks) {
        BankEvent e = computeEvent(fb, dram.bank(fb), col, capped(fb));
        const BankEvent &old = table[fb];
        // A minimum can only fall here, unless the entry that may have
        // held it moved away; then the next read rebuilds them.
        if (old.kind != EventKind::kNone &&
            old.at == mins[static_cast<std::size_t>(old.kind)] &&
            (e.kind != old.kind || e.at > old.at))
            minsValid = false;
        else if (e.kind != EventKind::kNone)
            mins[static_cast<std::size_t>(e.kind)] = std::min(
                mins[static_cast<std::size_t>(e.kind)], e.at);
        if (chainsHeld)
            retallyChain(fb, old.kind, e.kind);
        table[fb] = e;
    }
    staleBanks.clear();
    return n;
}

void
SchedQueue::retallyChain(unsigned fb, EventKind was, EventKind now_kind)
{
    // The totals hold what the chain held when it was last counted: every
    // change to a counted chain since went through a walk, which keeps
    // its totals, or through here.
    VerdictChain &c = chains[fb];
    if (was == EventKind::kActivate) {
        totals.refused -= c.refused;
        totals.incomplete -= c.complete() ? 0 : 1;
    }
    if (now_kind != EventKind::kActivate)
        return;
    // A bank that a PRE just closed, or whose requests changed, starts
    // over unless its chain still holds. A lapse only lowers the
    // earliest one (the totals' lapse is a lower bound).
    if (!chainKeyHolds(c, fb))
        c = freshChain(fb);
    totals.refused += c.refused;
    totals.incomplete += c.complete() ? 0 : 1;
    totals.lapse = std::min(totals.lapse, c.validUntil);
}

void
SchedQueue::rebuildMins(std::uint64_t &scanned)
{
    mins.fill(kNoEventCycle);
    for (unsigned fb : active) {
        const BankEvent &e = table[fb];
        Cycle &slot = mins[static_cast<std::size_t>(e.kind)];
        slot = std::min(slot, e.at);
    }
    scanned += active.size();
    minsValid = true;
}

int
SchedQueue::firstWrongEvent(const DramDevice &dram, DramCommand col,
                            StreakCapped capped)
{
    for (unsigned fb = 0; fb < table.size(); ++fb) {
        const BankEvent &e = table[fb];
        if (e.stale)
            continue;
        BankEvent fresh = computeEvent(fb, dram.bank(fb), col, capped(fb));
        if (fresh.kind != e.kind || fresh.at != e.at ||
            fresh.handle != e.handle || fresh.seq != e.seq)
            return static_cast<int>(fb);
    }
    return -1;
}

namespace
{

using KindMins = SchedQueue::KindMins;
constexpr KindMins kNoMins{kNoEventCycle, kNoEventCycle, kNoEventCycle,
                           kNoEventCycle};

DramCommand
columnCommand(ReqType type)
{
    return type == ReqType::kRead ? DramCommand::kRd : DramCommand::kWr;
}

/** Each kind's rank gate (a PRE has none), indexed by EventKind. */
inline KindMins
rankGates(const DramDevice &dram, DramCommand col)
{
    return {dram.columnEarliest(col), 0, dram.actEarliest(), 0};
}

/** The earliest of `mins` once the rank's column and ACT gates apply. */
inline Cycle
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
    DramCommand col = columnCommand(type);
    counts.recomputed += queue.syncEvents(dram, col, capped);
    return gated(queue.eventMins(counts.scanned), dram, col);
}

Cycle
FrFcfsScheduler::bankEventAt(SchedQueue &queue, ReqType type,
                             const DramDevice &dram, StreakCapped capped,
                             unsigned fb)
{
    if (queue.bankCount(fb) == 0)
        return kNoEventCycle;
    DramCommand col = columnCommand(type);
    counts.recomputed += queue.syncEvents(dram, col, capped);
    ++counts.scanned;
    const auto &e = queue.event(fb);
    KindMins mins = kNoMins;
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
    using Kind = SchedQueue::EventKind;
    DramCommand col = columnCommand(type);
    // Rank-level column gate (tCCD, bus turnaround) applies to every bank.
    if (dram.columnEarliest(col) > now)
        return SchedQueue::kNone;
    counts.recomputed += queue.syncEvents(dram, col, capped);
    // Known minima can show that no column entry's time has come.
    const KindMins *mins = queue.currentMins();
    if (mins && (*mins)[static_cast<std::size_t>(Kind::kColumn)] > now)
        return SchedQueue::kNone;
    counts.scanned += queue.activeBanks().size();
    SchedQueue::Handle best = SchedQueue::kNone;
    std::uint64_t best_seq = ~0ull;
    for (unsigned fb : queue.activeBanks()) {
        const auto &e = queue.event(fb);
        if (e.kind == Kind::kColumn && e.at <= now && e.seq < best_seq) {
            best = e.handle;
            best_seq = e.seq;
        }
    }
    return best;
}

SchedQueue::Handle
FrFcfsScheduler::pickRowPrepAllSafe(SchedQueue &queue, ReqType type,
                                    const DramDevice &dram, Cycle now,
                                    StreakCapped capped, DemandBound &bound)
{
    using Kind = SchedQueue::EventKind;
    auto at = [](const KindMins &mins, Kind kind) {
        return mins[static_cast<std::size_t>(kind)];
    };
    DramCommand col = columnCommand(type);
    counts.recomputed += queue.syncEvents(dram, col, capped);
    const KindMins gates = rankGates(dram, col);
    // Known minima can show that no PRE or ACT is legal: then nothing is
    // picked, no ACT bounds through a verdict flip, and the bound is the
    // gated minima's.
    const KindMins *mins = queue.currentMins();
    if (mins && at(*mins, Kind::kPrecharge) > now &&
        std::max(at(*mins, Kind::kActivate), at(gates, Kind::kActivate)) >
            now) {
        bound = DemandBound{gated(*mins, dram, col)};
        return SchedQueue::kNone;
    }
    counts.scanned += queue.activeBanks().size();
    bound = DemandBound{};
    SchedQueue::Handle best = SchedQueue::kNone;
    std::uint64_t best_seq = ~0ull;
    // The scan reads every entry, so it rebuilds the minima on the way.
    KindMins walked = kNoMins;
    for (unsigned fb : queue.activeBanks()) {
        const auto &e = queue.event(fb);
        auto kind = static_cast<std::size_t>(e.kind);
        walked[kind] = std::min(walked[kind], e.at);
        Cycle e_at = std::max(e.at, at(gates, e.kind));
        // pickRowPrep's rules: a column or PRE command bounds at its
        // time, an ACT already legal only through a verdict flip if
        // nothing is picked.
        bool legal_act = e.kind == Kind::kActivate && e_at <= now;
        bound.verdictBound |= legal_act;
        bound.timing = std::min(bound.timing,
                                legal_act ? kNoEventCycle : e_at);
        if (e.kind != Kind::kColumn && e_at <= now && e.seq < best_seq) {
            best = e.handle;
            best_seq = e.seq;
        }
    }
    queue.keepMins(walked);
    return best;
}

bool
FrFcfsScheduler::settledRowPrep(SchedQueue &queue, ReqType type,
                                const DramDevice &dram, Cycle now,
                                StreakCapped capped, DemandBound &bound,
                                std::uint64_t &replayed)
{
    using Kind = SchedQueue::EventKind;
    DramCommand col = columnCommand(type);
    counts.recomputed += queue.syncEvents(dram, col, capped);
    const SchedQueue::ChainTotals *chains = queue.settledChains(now);
    if (!chains)
        return false;
    // Rarely due: the walk that last settled the chains rebuilt them.
    const KindMins &mins = queue.eventMins(counts.scanned);
    if (mins[static_cast<std::size_t>(Kind::kPrecharge)] <= now ||
        std::max(mins[static_cast<std::size_t>(Kind::kActivate)],
                 dram.actEarliest()) <= now)
        return false;
    bound = DemandBound{gated(mins, dram, col)};
    replayed += chains->refused;
    return true;
}

SchedQueue::Handle
FrFcfsScheduler::pickRowPrep(SchedQueue &queue, ReqType type,
                             const DramDevice &dram, Cycle now,
                             const ActFilter &act_allowed,
                             StreakCapped capped, DemandBound &bound,
                             VerdictReplay &replay)
{
    using Kind = SchedQueue::EventKind;
    if (settledRowPrep(queue, type, dram, now, capped, bound,
                       replay.replayed))
        return SchedQueue::kNone;
    const KindMins gates = rankGates(dram, columnCommand(type));
    bound = DemandBound{};
    counts.scanned += queue.activeBanks().size();

    // The pick so far: a frontier that needs no query (a legal PRE, or a
    // chain's known-safe request with a legal ACT). The walk below asks
    // only about requests older than it.
    SchedQueue::Handle best = SchedQueue::kNone;
    std::uint64_t best_seq = ~0ull;
    auto known_pick = [&](SchedQueue::Handle h, std::uint64_t seq) {
        if (seq < best_seq) {
            best = h;
            best_seq = seq;
        }
    };

    // Collect each active bank's frontier in ascending age. `activeBanks`
    // is in head-age order, so closed banks (frontier = head) append in
    // order; a chain's frontier, younger than its head, sifts left. The
    // same pass records the earliest cycle each bank could next issue,
    // and the minima and chain totals it rebuilds.
    frontiers.clear();
    cached.clear();
    KindMins mins = kNoMins;
    SchedQueue::ChainTotals totals;
    for (unsigned fb : queue.activeBanks()) {
        const auto &e = queue.event(fb);
        auto kind = static_cast<std::size_t>(e.kind);
        mins[kind] = std::min(mins[kind], e.at);
        Cycle e_at = std::max(e.at, gates[kind]);
        if (e.kind != Kind::kActivate) {
            // An open bank: a live row hit's column command (the column
            // path's) keeps the row open, else the conflict's PRE.
            bound.timing = std::min(bound.timing, e_at);
            if (e.kind == Kind::kPrecharge && e_at <= now)
                known_pick(e.handle, e.seq);
            continue;
        }
        // If nothing is picked, an ACT already legal now was refused by
        // the mitigation: only a verdict flip can release it.
        Frontier f;
        f.legal = e_at <= now;
        if (f.legal)
            bound.verdictBound = true;
        else
            bound.timing = std::min(bound.timing, e_at);
        auto &chain = queue.verdictChain(fb, now);
        totals.refused += chain.refused;
        totals.lapse = std::min(totals.lapse, chain.validUntil);
        if (chain.refused > 0)
            cached.push_back({fb, chain.refused, chain.lastRefusedSeq});
        if (chain.next == SchedQueue::kNone)
            continue;           // every request refused
        if (chain.nextSafe) {
            if (f.legal)
                known_pick(chain.next, queue.seqOf(chain.next));
            continue;           // a safe request settles the bank
        }
        f.handle = chain.next;
        f.chain = &chain;
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
    bool stamps = queue.hasVerdictStamps();
    std::size_t i = 0;
    bool picked_frontier = false;
    while (i < frontiers.size() && frontiers[i].seq < best_seq) {
        Frontier &f = frontiers[i];
        const Request &req = queue.at(f.handle);
        SchedQueue::VerdictChain &chain = *f.chain;
        if (act_allowed(req)) {
            chain.nextSafe = true;
            if (f.legal) {
                best = f.handle;
                best_seq = f.seq;
                picked_frontier = true;
                break;
            }
            ++i;    // safe but not yet legal: the bank is settled
            continue;
        }
        Frontier next = f;
        next.handle = queue.bankNext(f.handle);
        ++chain.refused;
        ++totals.refused;
        chain.lastRefusedSeq = f.seq;
        if (stamps) {
            chain.validUntil = std::min(
                chain.validUntil,
                replay.mitigation.refusalLapsesAt(req.flatBank,
                                                  req.coord.row, now));
            totals.lapse = std::min(totals.lapse, chain.validUntil);
        }
        chain.next = next.handle;
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
    // The frontiers left unasked end their chains at an unknown verdict.
    totals.incomplete = static_cast<std::uint32_t>(
        frontiers.size() - i - (picked_frontier ? 1 : 0));
    queue.keepMins(mins);
    queue.keepChains(totals);

    // The walk would have asked again about every cached refusal older
    // than the pick, and each would have been refused again.
    for (const CachedRefusals &c : cached) {
        if (c.lastSeq < best_seq) {
            replay.replayed += c.count;
            continue;
        }
        SchedQueue::Handle h = queue.bankOldest(c.bank);
        for (std::uint32_t k = 0; k < c.count && queue.seqOf(h) < best_seq;
             ++k, h = queue.bankNext(h))
            ++replay.replayed;
    }
    return best;
}

} // namespace bh
