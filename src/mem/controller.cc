#include "mem/controller.hh"

#include <algorithm>

#include "analysis/security_oracle.hh"
#include "common/log.hh"

namespace bh
{

MemController::MemController(DramDevice &device, const ControllerConfig &config,
                             Mitigation &mitigation, HammerObserver *hammer_obs,
                             DramEnergyModel *energy_model)
    : dram(device), cfg(config), mitig(mitigation),
      queriesObservable(mitigation.actQueriesObservable()),
      verdictChains(mitigation.verdictStamps() != nullptr),
      hammer(hammer_obs), energy(energy_model),
      scheduler(device.numBanks()),
      readQ(device.numBanks(), mitigation.verdictStamps()),
      writeQ(device.numBanks(), mitigation.verdictStamps()),
      victimQ(device.numBanks()),
      nextRefreshAt(device.timings().tREFI),
      hitStreak(device.numBanks(), 0),
      banks(device.numBanks())
{
    mitig.setController(this);
    // Bounded reservoirs: per-request series must not grow with run
    // length. Seeded, so retained subsets are reproducible.
    latencyHist = &stats.hist("mc.latency", 4096);
    readDepthHist = &stats.hist("mc.read_queue_depth", 4096);
    writeDepthHist = &stats.hist("mc.write_queue_depth", 4096);
}

bool
MemController::enqueue(Request req)
{
    auto &queue = (req.type == ReqType::kRead) ? readQ : writeQ;
    auto cap = (req.type == ReqType::kRead)
        ? cfg.readQueueSize : cfg.writeQueueSize;
    if (queue.size() >= cap) {
        ++numQueueFull;
        return false;
    }
    req.rowHitAtIssue = true;
    req.neededPrecharge = false;
    unsigned fb = req.flatBank;
    if (req.type == ReqType::kRead) {
        noteInflight(req.thread, fb, +1);
        ++numReads;
        if (req.thread >= 0)
            ++threadStatsMutable(req.thread).reads;
    } else {
        ++numWrites;
        if (req.thread >= 0)
            ++threadStatsMutable(req.thread).writes;
    }
    // Depth is sampled per accepted request (event-driven, never per
    // tick), so the series is identical across skip modes and thread
    // counts.
    readDepthHist->add(static_cast<std::int64_t>(readQ.size()) +
                       (req.type == ReqType::kRead ? 1 : 0));
    writeDepthHist->add(static_cast<std::int64_t>(writeQ.size()) +
                        (req.type == ReqType::kWrite ? 1 : 0));
    Cycle arrival = req.arrival;
    ReqType type = req.type;
    queue.push(std::move(req));
    // An arrival inside an idle window changes only its own bank's next
    // command and its queue's size (whose watermarks the replay applies),
    // so where queries have no effect it lowers the window's end to that
    // bank's bound instead of voiding the window.
    bool keep_window = !queriesObservable && idleUntil > 0 &&
        windowStamp == numActions;
    ++numActions;
    if (keep_window) {
        StreakCapped capped{hitStreak.data(), cfg.rowHitCap};
        Cycle at = scheduler.bankEventAt(queue, type, dram, capped, fb);
        DemandBound &bound = type == ReqType::kRead ? readBound : writeBound;
        bound.timing = std::min(bound.timing, at);
        idleUntil = std::min(idleUntil, at);
        windowStamp = numActions;
    }
    if (TraceSink::on()) {
        TraceSink::counter("queue", "depth", tmeta, arrival,
                           {{"read",
                             static_cast<std::int64_t>(readQ.size())},
                            {"write",
                             static_cast<std::int64_t>(writeQ.size())}});
    }
    return true;
}

void
MemController::advance(Cycle from, Cycle to, Cycle step)
{
    for (Cycle now = from; now < to;) {
        // Idle fast path: inside a live idle window (see idleUntil) no
        // timing/mitigation event matures and no command can issue, so
        // every tick before idleUntil is an exact repeat of an idle tick
        // — replay their (purely internal) bookkeeping instead of
        // re-walking the queues. Disabled in cycle-by-cycle reference
        // mode.
        if (now < idleUntil && windowStamp == numActions) {
            Cycle span = std::min(idleUntil, to) - now;
            // Division-free for tick(), the path of every controller
            // cycle the driver steps one at a time.
            auto n = static_cast<std::uint64_t>(
                step == 1 ? span : (span + step - 1) / step);
            if (replayCheck)
                checkReplayedTicks(now, n, step);
            noteSkippedTicks(n);
            now += static_cast<Cycle>(n) * step;
        } else {
            execute(now);
            now += step;
        }
    }
}

void
MemController::execute(Cycle now)
{
    ++numTicksExecuted;
    idleUntil = 0;
    stampBeforeLastTick = numActions;
    lastTickAt = now;
    lastTickReachedDemand = false;
    std::uint64_t blocked_before = numActBlocked;

    // A tick at a housekeeping boundary is never idle: an epoch swap can
    // lift a throttler quota, and the cores, which ticked earlier in this
    // cycle, retry against it only on their next tick. It may move every
    // verdict stamp, so the chains' totals hold no longer.
    if (now >= mitig.nextHousekeepingAt(now)) {
        ++numActions;
        readQ.dropChains();
        writeQ.dropChains();
    }
    mitig.tick(now);

    if (!refreshPending && now >= nextRefreshAt)
        refreshPending = true;

    // At most one command per cycle on the command bus.
    bool issued_demand = false;
    if (!tryRefresh(now) && !refreshPending) {
        // While refresh is pending, all effort goes to closing banks.
        if (!tryVictimRefresh(now)) {
            lastTickReachedDemand = true;
            issued_demand = tryDemand(now);
        }
    }

    lastTickBlockedEvals = numActBlocked - blocked_before;
    stampAfterLastTick = numActions;
    windowStamp = numActions;
    if (stampAfterLastTick != stampBeforeLastTick)
        ++numTicksActed;

    if (!fastIdleTicks)
        return;
    if (stampAfterLastTick == stampBeforeLastTick) {
        idleUntil = eventBound(now);
    } else if (issued_demand && pendingVictims == 0 &&
               (!queriesObservable || verdictChains)) {
        // No confirmation tick. A demand command means no refresh drain,
        // and with no victim op pending the next tick could only issue
        // another demand command.
        StreakCapped capped{hitStreak.data(), cfg.rowHitCap};
        if (!queriesObservable) {
            // Its picks would take every ACT as safe and record the
            // queues' timing bounds, read here off the event tables.
            readBound = DemandBound{scheduler.demandEventAt(
                readQ, ReqType::kRead, dram, capped)};
            writeBound = DemandBound{scheduler.demandEventAt(
                writeQ, ReqType::kWrite, dram, capped)};
        } else {
            // Only where the tables and the chains settle both queues'
            // picks: then they would ask nothing, and each replayed tick
            // counts every cached refusal of both queues, not the ones
            // this tick counted before it issued.
            std::uint64_t refusals = 0;
            if (!scheduler.settledRowPrep(readQ, ReqType::kRead, dram, now,
                                          capped, readBound, refusals) ||
                !scheduler.settledRowPrep(writeQ, ReqType::kWrite, dram,
                                          now, capped, writeBound, refusals))
                return;
            lastTickBlockedEvals = refusals;
        }
        demandBoundsAt = now;
        idleUntil = eventBound(now);
    }
}

void
MemController::issueCommand(DramCommand cmd, unsigned fb, RowId row,
                            Cycle now)
{
    dram.issue(cmd, fb, row, now);
    // The bank's next demand command, or its time, may have moved in
    // either queue.
    readQ.touch(fb);
    writeQ.touch(fb);
}

bool
MemController::tryRefresh(Cycle now)
{
    if (!refreshPending)
        return false;

    // Close any open bank as soon as legal (one PRE per cycle).
    for (unsigned fb = 0; fb < banks; ++fb) {
        if (dram.bank(fb).isOpen() &&
            dram.canIssue(DramCommand::kPre, fb, now)) {
            issueCommand(DramCommand::kPre, fb, 0, now);
            ++numActions;
            if (energy)
                energy->onOpenBankCount(dram.openBankCount(), now);
            return true;
        }
    }
    if (dram.anyBankOpen())
        return false;

    Cycle e = dram.earliestRefresh();
    if (e < 0 || now < e)
        return false;

    auto range = dram.issueRefresh(now);
    readQ.touchAll();       // every bank's ACT now waits for tRFC
    writeQ.touchAll();
    ++numActions;
    if (TraceSink::on()) {
        TraceSink::instant("mem", "refresh", tmeta, now,
                           {{"first_row",
                             static_cast<std::int64_t>(range.firstRow)},
                            {"rows",
                             static_cast<std::int64_t>(range.numRows)}});
    }
    if (energy)
        energy->onCommand(DramCommand::kRef, now);
    if (hammer)
        hammer->onAutoRefresh(range.firstRow, range.numRows);
    mitig.onAutoRefresh(range.firstRow, range.numRows, now);
    nextRefreshAt += dram.timings().tREFI;
    refreshPending = false;
    ++numRefreshes;
    return true;
}

bool
MemController::tryVictimRefresh(Cycle now)
{
    if (pendingVictims == 0)
        return false;
    for (unsigned fb = 0; fb < banks; ++fb) {
        auto &ops = victimQ[fb];
        if (ops.empty())
            continue;
        VictimOp &op = ops.front();
        if (!op.activated) {
            if (dram.bank(fb).isOpen()) {
                if (dram.canIssue(DramCommand::kPre, fb, now)) {
                    issueCommand(DramCommand::kPre, fb, 0, now);
                    ++numActions;
                    if (energy)
                        energy->onOpenBankCount(dram.openBankCount(), now);
                    return true;
                }
                continue;
            }
            if (dram.canIssue(DramCommand::kAct, fb, now)) {
                issueCommand(DramCommand::kAct, fb, op.row, now);
                ++numActions;
                if (TraceSink::on()) {
                    TraceSink::instant(
                        "mem", "victim_act", tmeta, now,
                        {{"bank", static_cast<std::int64_t>(fb)},
                         {"row", static_cast<std::int64_t>(op.row)}});
                }
                if (energy) {
                    energy->onCommand(DramCommand::kAct, now);
                    energy->onOpenBankCount(dram.openBankCount(), now);
                }
                if (hammer) {
                    // Victim refreshes restore the row's charge. Like the
                    // paper's Ramulator model (and all baseline papers) we
                    // do not feed the refresh ACT back into the disturbance
                    // model; see DESIGN.md "refresh-induced disturbance".
                    hammer->onRowRefresh(fb, op.row);
                }
                op.activated = true;
                return true;
            }
        } else {
            // The refresh's row-restore completed at ACT time; the PRE is
            // cleanup. Another path (refresh drain, demand precharge) may
            // have already closed — or even re-opened — the bank.
            if (!dram.bank(fb).isOpen() ||
                dram.bank(fb).openRow() != op.row) {
                ops.pop_front();
                --pendingVictims;
                ++numVictimDone;
                ++numActions;
                continue;
            }
            if (dram.canIssue(DramCommand::kPre, fb, now)) {
                issueCommand(DramCommand::kPre, fb, 0, now);
                ++numActions;
                if (energy)
                    energy->onOpenBankCount(dram.openBankCount(), now);
                ops.pop_front();
                --pendingVictims;
                ++numVictimDone;
                return true;
            }
        }
    }
    return false;
}

bool
MemController::tryDemand(Cycle now)
{
    updateDrainState();
    // While draining, alternate read/write priority so a sustained write
    // flood (e.g., a non-temporal copy) cannot monopolize the command bus
    // and starve readers.
    drainToggle = !drainToggle;
    bool serve_writes = (drainingWrites && drainToggle) || readQ.empty();
    auto &primary = serve_writes ? writeQ : readQ;
    auto &secondary = serve_writes ? readQ : writeQ;
    ReqType primary_type = serve_writes ? ReqType::kWrite : ReqType::kRead;
    ReqType secondary_type = serve_writes ? ReqType::kRead : ReqType::kWrite;

    DemandBound &primary_bound = serve_writes ? writeBound : readBound;
    DemandBound &secondary_bound = serve_writes ? readBound : writeBound;

    StreakCapped capped{hitStreak.data(), cfg.rowHitCap};
    // 1. Row-buffer hits from the primary queue.
    if (auto h = scheduler.pickColumnReady(primary, primary_type, dram, now,
                                           capped);
        h != SchedQueue::kNone) {
        issueColumn(primary, h, now);
        return true;
    }
    // 2. Opportunistic hits from the secondary queue.
    if (auto h = scheduler.pickColumnReady(secondary, secondary_type, dram,
                                           now, capped);
        h != SchedQueue::kNone) {
        issueColumn(secondary, h, now);
        return true;
    }
    // 3. Row preparation, honoring the mitigation's safety verdict.
    auto act_filter = [&](const Request &req) {
        unsigned fb = req.flatBank;
        ++numActQueries;
        bool safe = mitig.isActSafe(fb, req.coord.row, req.thread, now);
        if (!safe)
            ++numActBlocked;
        return safe;
    };
    // Where queries have no effect, the pick asks none. The refusals a
    // pick replays from its verdict chains count as the queries they
    // stand for.
    auto pick_prep = [&](SchedQueue &queue, ReqType type,
                         DemandBound &bound) {
        if (!queriesObservable)
            return scheduler.pickRowPrepAllSafe(queue, type, dram, now,
                                                capped, bound);
        VerdictReplay replay{mitig};
        auto h = scheduler.pickRowPrep(queue, type, dram, now, act_filter,
                                       capped, bound, replay);
        if (replay.replayed > 0) {
            numActBlocked += replay.replayed;
            numRefusalsReplayed += replay.replayed;
            mitig.noteRepeatedRefusals(replay.replayed);
        }
        return h;
    };
    if (auto h = pick_prep(primary, primary_type, primary_bound);
        h != SchedQueue::kNone) {
        if (issuePrep(primary, h, now))
            return true;
    }
    if (auto h = pick_prep(secondary, secondary_type, secondary_bound);
        h != SchedQueue::kNone) {
        if (issuePrep(secondary, h, now))
            return true;
    }
    // Nothing issued: both walks ran, and their bounds stay exact until
    // the next action or arrival.
    demandBoundsAt = now;
    return false;
}

void
MemController::updateDrainState()
{
    // Write drain hysteresis. Idempotent while writeQ.size() stays put.
    if (drainingWrites) {
        if (writeQ.size() <= cfg.writeLowWatermark)
            drainingWrites = false;
    } else if (writeQ.size() >= cfg.writeHighWatermark) {
        drainingWrites = true;
    }
}

void
MemController::issueColumn(SchedQueue &queue, SchedQueue::Handle h,
                           Cycle now)
{
    Request req = queue.take(h);
    ++numActions;
    unsigned fb = req.flatBank;
    DramCommand cmd = (req.type == ReqType::kRead)
        ? DramCommand::kRd : DramCommand::kWr;
    issueCommand(cmd, fb, req.coord.row, now);
    if (energy)
        energy->onCommand(cmd, now);

    // Row-hit streak accounting for FR-FCFS-Cap (the command's touch
    // covers the streak's change).
    if (req.rowHitAtIssue && !req.neededPrecharge)
        ++hitStreak[fb];

    // Row-buffer interaction classification at first (only) service.
    if (req.neededPrecharge) {
        ++numRowConflicts;
        if (req.thread >= 0)
            ++threadStatsMutable(req.thread).rowConflicts;
    } else if (req.rowHitAtIssue) {
        ++numRowHits;
        if (req.thread >= 0)
            ++threadStatsMutable(req.thread).rowHits;
    } else {
        ++numRowMisses;
        if (req.thread >= 0)
            ++threadStatsMutable(req.thread).rowMisses;
    }

    const auto &t = dram.timings();
    Cycle done = (req.type == ReqType::kRead)
        ? now + t.tCL + t.tBL
        : now + t.tCWL + t.tBL;
    if (req.type == ReqType::kRead)
        noteInflight(req.thread, fb, -1);
    latencyHist->add(static_cast<std::int64_t>(done - req.arrival));
    if (req.completion && deliveries)
        deliveries->push(Delivery{done, deliveryChannel, completionSeq++,
                                  req.completion});
    else if (req.completion)
        req.completion.deliver(done);
}

bool
MemController::issuePrep(SchedQueue &queue, SchedQueue::Handle h, Cycle now)
{
    Request &req = queue.at(h);
    unsigned fb = req.flatBank;
    const Bank &bank = dram.bank(fb);
    if (bank.isOpen()) {
        issueCommand(DramCommand::kPre, fb, 0, now);
        ++numActions;
        if (TraceSink::on()) {
            TraceSink::instant("mem", "pre", tmeta, now,
                               {{"bank", static_cast<std::int64_t>(fb)}});
        }
        if (energy)
            energy->onOpenBankCount(dram.openBankCount(), now);
        req.neededPrecharge = true;
        ++numPreDemand;
        return true;
    }
    issueCommand(DramCommand::kAct, fb, req.coord.row, now);
    ++numActions;
    if (TraceSink::on()) {
        TraceSink::instant("mem", "act", tmeta, now,
                           {{"bank", static_cast<std::int64_t>(fb)},
                            {"row",
                             static_cast<std::int64_t>(req.coord.row)},
                            {"thread",
                             static_cast<std::int64_t>(req.thread)}});
    }
    hitStreak[fb] = 0;
    if (energy) {
        energy->onCommand(DramCommand::kAct, now);
        energy->onOpenBankCount(dram.openBankCount(), now);
    }
    if (hammer)
        hammer->onActivate(fb, req.coord.row, now);
    if (secOracle)
        secOracle->onActivate(fb, req.coord.row, now);
    mitig.onActivate(fb, req.coord.row, req.thread, now);
    req.rowHitAtIssue = false;
    ++numActDemand;
    if (req.thread >= 0)
        ++threadStatsMutable(req.thread).activates;
    return true;
}

void
MemController::scheduleVictimRefresh(unsigned flat_bank, RowId row)
{
    victimQ[flat_bank].push_back(VictimOp{row, false});
    ++pendingVictims;
    ++numVictimScheduled;
    ++numActions;
}

Cycle
MemController::nextEventAt(Cycle now)
{
    // While the idle analysis from the last executed tick still holds,
    // its bound is the answer (the skip driver asks every quiet cycle).
    if (now < idleUntil && idleSinceLastTick())
        return idleUntil;
    // The answer is read off the state the last executed tick left, so
    // that tick must exist and nothing may have happened since.
    if (lastTickAt < 0 || !idleSinceLastTick())
        panic("MemController::nextEventAt(%lld): not idle since an "
              "executed tick", static_cast<long long>(now));
    return eventBound(now);
}

Cycle
MemController::eventBound(Cycle now)
{
    // The mitigation's epoch/reset boundaries bound every skip so that at
    // most one boundary is crossed per executed tick (its catch-up logic
    // then matches the cycle-by-cycle path exactly).
    Cycle best = mitig.nextHousekeepingAt(now);

    if (refreshPending) {
        // Refresh drain gates everything else: the next actions are PREs
        // on open banks, then the REF itself.
        if (dram.anyBankOpen()) {
            for (unsigned fb = 0; fb < banks; ++fb)
                if (dram.bank(fb).isOpen())
                    best = std::min(best,
                                    dram.bank(fb).earliest(DramCommand::kPre));
        } else {
            best = std::min(best, std::max<Cycle>(dram.earliestRefresh(), 0));
        }
        return std::max(best, now);
    }

    best = std::min(best, nextRefreshAt);

    // Victim-refresh candidates. Completed ops whose bank moved on are
    // popped eagerly by the preceding tick, so pending ops wait on timing.
    for (unsigned fb = 0; pendingVictims != 0 && fb < banks; ++fb) {
        const auto &ops = victimQ[fb];
        if (ops.empty())
            continue;
        const VictimOp &op = ops.front();
        if (!op.activated) {
            best = std::min(best, dram.bank(fb).isOpen()
                            ? dram.bank(fb).earliest(DramCommand::kPre)
                            : dram.earliest(DramCommand::kAct, fb));
        } else {
            best = std::min(best,
                            dram.bank(fb).earliest(DramCommand::kPre));
        }
    }

    // Demand candidates from both queues (either can serve any tick), as
    // the idle tick's row-prep walks recorded them; an idle tick outside
    // a refresh drain always reaches both.
    if (demandBoundsAt != lastTickAt)
        panic("MemController::eventBound(%lld): no demand bound recorded "
              "at the last executed tick (%lld)", static_cast<long long>(now),
              static_cast<long long>(lastTickAt));
    Cycle verdict = mitig.nextVerdictChangeAt(now);
    // With verdict stamps the chains hold every verdict the last tick's
    // picks used, and none flips before the chains' earliest lapse: a
    // safe verdict holds until a stamp moves.
    const SchedQueue::ChainTotals *read_chains = readQ.chainTotals();
    const SchedQueue::ChainTotals *write_chains = writeQ.chainTotals();
    if (read_chains && write_chains)
        verdict = std::min(read_chains->lapse, write_chains->lapse);
    // Any unsafe verdict in the last tick makes the per-tick blocked
    // counters verdict-dependent: even if no command can issue earlier, a
    // verdict flip changes what the skipped ticks would have counted.
    if (lastTickBlockedEvals > 0)
        best = std::min(best, verdict);
    best = std::min(best, readBound.at(verdict));
    best = std::min(best, writeBound.at(verdict));
    return std::max(best, now);
}

void
MemController::noteSkippedTicks(std::uint64_t n)
{
    // A replayed tick is idle, so the controller is idle since it, also
    // when its window began at a tick that acted or saw an arrival.
    stampBeforeLastTick = stampAfterLastTick = numActions;
    std::uint64_t refusals = 0;
    if (lastTickReachedDemand) {
        // That tick or an arrival may have moved writeQ.size() across a
        // watermark since the hysteresis last ran. Each skipped tick
        // would have re-evaluated the same mitigation safety queries
        // and flipped the drain fairness toggle once.
        updateDrainState();
        refusals = lastTickBlockedEvals * n;
        numActBlocked += refusals;
        if (n & 1)
            drainToggle = !drainToggle;
    }
    // With verdict stamps the controller counts the skipped ticks'
    // refusals itself: each would have replayed them from the chains.
    if (!verdictChains)
        mitig.noteSkippedTicks(n);
    else if (refusals > 0)
        mitig.noteRepeatedRefusals(refusals);
}

namespace
{

/**
 * The column pick as a walk over the queue's banks, independent of the
 * event table: the oldest row hit whose column command is legal at
 * `now`, skipping capped banks while a conflict waits.
 */
SchedQueue::Handle
walkColumnReady(const SchedQueue &queue, DramCommand col,
                const DramDevice &dram, Cycle now, StreakCapped capped)
{
    if (dram.columnEarliest(col) > now)
        return SchedQueue::kNone;
    SchedQueue::Handle best = SchedQueue::kNone;
    std::uint64_t best_seq = ~0ull;
    for (unsigned fb : queue.activeBanks()) {
        const Bank &bank = dram.bank(fb);
        if (!bank.isOpen())
            continue;
        auto hits = queue.hitStats(fb, bank);
        if (hits.hitCount == 0 ||
            (queue.bankCount(fb) > hits.hitCount && capped(fb)) ||
            bank.earliest(col) > now)
            continue;
        std::uint64_t seq = queue.seqOf(hits.oldestHit);
        if (seq < best_seq) {
            best = hits.oldestHit;
            best_seq = seq;
        }
    }
    return best;
}

/** What walkRowPrep found. */
struct WalkedPrep
{
    SchedQueue::Handle pick = SchedQueue::kNone;
    DemandBound bound;
    std::uint64_t replayed = 0;     ///< cached refusals, with no pick
    int askedBank = -1;             ///< a bank whose verdict is not held
};

/**
 * The row-prep pick as a walk over the queue's banks, independent of the
 * event table and the chain totals, for a tick that asks no query: the
 * oldest legal PRE of an open bank that no live hit keeps open, or the
 * oldest legal ACT of a closed bank's known-safe request, and the bound
 * pickRowPrep records. Without `chained`, every request is safe. With
 * it, a closed bank's verdicts are its chain's, which must hold at `now`
 * and end at a known verdict: else the bank is `askedBank`, the tick
 * would ask its next verdict live. Reads the chains; changes none.
 */
WalkedPrep
walkRowPrep(const SchedQueue &queue, DramCommand col,
            const DramDevice &dram, Cycle now, StreakCapped capped,
            bool chained)
{
    WalkedPrep out;
    Cycle col_gate = dram.columnEarliest(col);
    std::uint64_t best_seq = ~0ull;
    auto consider = [&](SchedQueue::Handle h) {
        std::uint64_t seq = queue.seqOf(h);
        if (seq < best_seq) {
            out.pick = h;
            best_seq = seq;
        }
    };
    for (unsigned fb : queue.activeBanks()) {
        const Bank &bank = dram.bank(fb);
        if (bank.isOpen()) {
            // Row hits are the column path's (a capped streak serves none
            // while a conflict waits); a bank with a pending row hit keeps
            // its row open unless its hit streak is capped.
            auto hits = queue.hitStats(fb, bank);
            bool conflict = hits.oldestMiss != SchedQueue::kNone;
            bool cap = capped(fb);
            if (hits.hitCount > 0 && !(cap && conflict))
                out.bound.timing = std::min(
                    out.bound.timing, std::max(bank.earliest(col), col_gate));
            if (!conflict || (hits.hitCount > 0 && !cap))
                continue;
            Cycle pre = bank.earliest(DramCommand::kPre);
            out.bound.timing = std::min(out.bound.timing, pre);
            if (pre <= now)
                consider(hits.oldestMiss);
            continue;
        }
        // If nothing is picked, an ACT already legal now was refused by
        // the mitigation: only a verdict flip can release it.
        Cycle act = dram.earliest(DramCommand::kAct, fb);
        bool legal = act <= now;
        if (legal)
            out.bound.verdictBound = true;
        else
            out.bound.timing = std::min(out.bound.timing, act);
        SchedQueue::Handle safe = queue.bankOldest(fb);
        if (chained) {
            const SchedQueue::VerdictChain &chain = queue.chain(fb);
            if (!queue.chainHolds(fb, now) || !chain.complete()) {
                out.askedBank = static_cast<int>(fb);
                continue;
            }
            out.replayed += chain.refused;
            safe = chain.nextSafe ? chain.next : SchedQueue::kNone;
        }
        if (legal && safe != SchedQueue::kNone)
            consider(safe);
    }
    return out;
}

} // namespace

void
MemController::checkReplayedTicks(Cycle from, std::uint64_t n, Cycle step)
{
    StreakCapped capped{hitStreak.data(), cfg.rowHitCap};
    const ReqType types[] = {ReqType::kRead, ReqType::kWrite};
    auto queue_of = [&](ReqType type) -> SchedQueue & {
        return type == ReqType::kRead ? readQ : writeQ;
    };
    auto col_of = [](ReqType type) {
        return type == ReqType::kRead ? DramCommand::kRd : DramCommand::kWr;
    };
    auto name_of = [](ReqType type) {
        return type == ReqType::kRead ? "read" : "write";
    };
    // A table entry that no touch marked stale must still be current.
    for (ReqType type : types)
        if (int fb = queue_of(type).firstWrongEvent(dram, col_of(type),
                                                    capped);
            fb >= 0)
            panic("event-skip verify: channel %u's %s queue holds an "
                  "outdated event for bank %d at cycle %lld",
                  replayChannel, name_of(type), fb,
                  static_cast<long long>(from));
    // Only windows whose ticks ask nothing can be checked by running the
    // picks: where queries have no effect, or where verdict chains hold
    // every verdict (a query of another mechanism may record).
    if (!lastTickReachedDemand || (queriesObservable && !verdictChains))
        return;
    for (std::uint64_t i = 0; i < n; ++i) {
        Cycle now = from + static_cast<Cycle>(i) * step;
        std::uint64_t replayed = 0;
        for (ReqType type : types) {
            SchedQueue &queue = queue_of(type);
            DramCommand col = col_of(type);
            const char *name = name_of(type);
            WalkedPrep walked =
                walkRowPrep(queue, col, dram, now, capped, verdictChains);
            if (walkColumnReady(queue, col, dram, now, capped) !=
                    SchedQueue::kNone ||
                walked.pick != SchedQueue::kNone)
                panic("event-skip verify: channel %u would issue from its "
                      "%s queue at cycle %lld, inside a window claimed "
                      "idle until %lld",
                      replayChannel, name, static_cast<long long>(now),
                      static_cast<long long>(idleUntil));
            if (walked.askedBank >= 0)
                panic("event-skip verify: channel %u would ask bank %d's "
                      "verdict live from its %s queue at cycle %lld, "
                      "inside a window claimed idle until %lld",
                      replayChannel, walked.askedBank, name,
                      static_cast<long long>(now),
                      static_cast<long long>(idleUntil));
            replayed += walked.replayed;
            // The walks picked nothing, so the table's column pick must
            // not either. A chained tick would record the window's bound
            // (an arrival lowers only the bound of a window whose
            // queries have no effect). With every ACT safe, no ACT was
            // legal, so the walk's bound is also the table's demand
            // event bound.
            const DemandBound &recorded =
                type == ReqType::kRead ? readBound : writeBound;
            DemandBound table;
            bool agree =
                scheduler.pickColumnReady(queue, type, dram, now, capped) ==
                    SchedQueue::kNone &&
                (queriesObservable
                     ? walked.bound.timing == recorded.timing &&
                         walked.bound.verdictBound == recorded.verdictBound
                     : scheduler.pickRowPrepAllSafe(queue, type, dram, now,
                                                    capped, table) ==
                             SchedQueue::kNone &&
                         table.timing == walked.bound.timing &&
                         table.verdictBound == walked.bound.verdictBound &&
                         scheduler.demandEventAt(queue, type, dram,
                                                 capped) ==
                             walked.bound.timing);
            if (!agree)
                panic("event-skip verify: channel %u's %s queue event "
                      "table disagrees with the walks at cycle %lld",
                      replayChannel, name, static_cast<long long>(now));
        }
        // Each replayed tick counts what the walks would have replayed.
        if (replayed != lastTickBlockedEvals)
            panic("event-skip verify: channel %u replays %llu refusals "
                  "per tick, but its walks would count %llu at cycle %lld",
                  replayChannel,
                  static_cast<unsigned long long>(lastTickBlockedEvals),
                  static_cast<unsigned long long>(replayed),
                  static_cast<long long>(now));
    }
}

int
MemController::inflight(ThreadId thread, unsigned flat_bank) const
{
    if (thread < 0)
        return 0;
    std::size_t i = static_cast<std::size_t>(thread) * banks + flat_bank;
    if (i >= inflightCount.size())
        return 0;
    return inflightCount[i];
}

int
MemController::inflightThread(ThreadId thread) const
{
    if (thread < 0 ||
        static_cast<std::size_t>(thread) >= inflightByThread.size()) {
        return 0;
    }
    return inflightByThread[static_cast<std::size_t>(thread)];
}

const ThreadMemStats &
MemController::threadStats(ThreadId thread) const
{
    static const ThreadMemStats empty;
    if (thread < 0 ||
        static_cast<std::size_t>(thread) >= perThread.size()) {
        return empty;
    }
    return perThread[static_cast<std::size_t>(thread)];
}

ThreadMemStats &
MemController::threadStatsMutable(ThreadId thread)
{
    auto i = static_cast<std::size_t>(thread);
    if (i >= perThread.size())
        perThread.resize(i + 1);
    return perThread[i];
}

void
MemController::noteInflight(ThreadId thread, unsigned bank, int delta)
{
    if (thread < 0)
        return;
    std::size_t i = static_cast<std::size_t>(thread) * banks + bank;
    if (i >= inflightCount.size())
        inflightCount.resize(i + 1, 0);
    inflightCount[i] += delta;
    auto t = static_cast<std::size_t>(thread);
    if (t >= inflightByThread.size())
        inflightByThread.resize(t + 1, 0);
    inflightByThread[t] += delta;
}

void
MemController::syncStats()
{
    stats.inc("mc.reads", numReads);
    stats.inc("mc.writes", numWrites);
    stats.inc("mc.queue_full", numQueueFull);
    stats.inc("mc.row_hit", numRowHits);
    stats.inc("mc.row_miss", numRowMisses);
    stats.inc("mc.row_conflict", numRowConflicts);
    stats.inc("mc.act_demand", numActDemand);
    stats.inc("mc.act_blocked", numActBlocked);
    stats.inc("mc.pre_demand", numPreDemand);
    stats.inc("mc.victim_refresh_scheduled", numVictimScheduled);
    stats.inc("mc.victim_refresh_done", numVictimDone);
    stats.inc("mc.refreshes", numRefreshes);
    std::uint64_t classified = numRowHits + numRowMisses + numRowConflicts;
    stats.set("mc.row_hit_rate",
              classified ? static_cast<double>(numRowHits) /
                      static_cast<double>(classified)
                         : 0.0);
}

} // namespace bh
