#include "mem/controller.hh"

#include <algorithm>

#include "analysis/security_oracle.hh"
#include "common/log.hh"

namespace bh
{

MemController::MemController(DramDevice &device, const ControllerConfig &config,
                             Mitigation &mitigation, HammerObserver *hammer_obs,
                             DramEnergyModel *energy_model)
    : dram(device), cfg(config), mitig(mitigation), hammer(hammer_obs),
      energy(energy_model), scheduler(device.numBanks()),
      readQ(device.numBanks()), writeQ(device.numBanks()),
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
    queue.push(std::move(req));
    ++numActions;
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
        // Idle fast path: if the last executed tick did nothing, nothing
        // has arrived since, and no timing/mitigation event matures
        // before `now`, every tick before idleUntil is an exact repeat of
        // the last one — replay their (purely internal) bookkeeping
        // instead of re-walking the queues. Disabled in cycle-by-cycle
        // reference mode.
        if (now < idleUntil && idleSinceLastTick()) {
            Cycle span = std::min(idleUntil, to) - now;
            // Division-free for tick(), the path of every controller
            // cycle the driver steps one at a time.
            auto n = static_cast<std::uint64_t>(
                step == 1 ? span : (span + step - 1) / step);
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
    idleUntil = 0;
    stampBeforeLastTick = numActions;
    lastTickAt = now;
    lastTickReachedDemand = false;
    std::uint64_t blocked_before = numActBlocked;

    // A tick at a housekeeping boundary is never idle: an epoch swap can
    // lift a throttler quota, and the cores, which ticked earlier in this
    // cycle, retry against it only on their next tick.
    if (now >= mitig.nextHousekeepingAt(now))
        ++numActions;
    mitig.tick(now);

    if (!refreshPending && now >= nextRefreshAt)
        refreshPending = true;

    // At most one command per cycle on the command bus.
    if (!tryRefresh(now) && !refreshPending) {
        // While refresh is pending, all effort goes to closing banks.
        if (!tryVictimRefresh(now)) {
            lastTickReachedDemand = true;
            tryDemand(now);
        }
    }

    lastTickBlockedEvals = numActBlocked - blocked_before;
    stampAfterLastTick = numActions;

    if (fastIdleTicks && stampAfterLastTick == stampBeforeLastTick)
        idleUntil = nextEventAt(now);
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
            dram.issue(DramCommand::kPre, fb, 0, now);
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
    for (unsigned fb = 0; fb < banks; ++fb) {
        auto &ops = victimQ[fb];
        if (ops.empty())
            continue;
        VictimOp &op = ops.front();
        if (!op.activated) {
            if (dram.bank(fb).isOpen()) {
                if (dram.canIssue(DramCommand::kPre, fb, now)) {
                    dram.issue(DramCommand::kPre, fb, 0, now);
                    ++numActions;
                    if (energy)
                        energy->onOpenBankCount(dram.openBankCount(), now);
                    return true;
                }
                continue;
            }
            if (dram.canIssue(DramCommand::kAct, fb, now)) {
                dram.issue(DramCommand::kAct, fb, op.row, now);
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
                ++numVictimDone;
                ++numActions;
                continue;
            }
            if (dram.canIssue(DramCommand::kPre, fb, now)) {
                dram.issue(DramCommand::kPre, fb, 0, now);
                ++numActions;
                if (energy)
                    energy->onOpenBankCount(dram.openBankCount(), now);
                ops.pop_front();
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
    // Write drain hysteresis.
    if (drainingWrites) {
        if (writeQ.size() <= cfg.writeLowWatermark)
            drainingWrites = false;
    } else {
        if (writeQ.size() >= cfg.writeHighWatermark)
            drainingWrites = true;
    }
    // While draining, alternate read/write priority so a sustained write
    // flood (e.g., a non-temporal copy) cannot monopolize the command bus
    // and starve readers.
    drainToggle = !drainToggle;
    bool serve_writes = (drainingWrites && drainToggle) || readQ.empty();
    auto &primary = serve_writes ? writeQ : readQ;
    auto &secondary = serve_writes ? readQ : writeQ;
    ReqType primary_type = serve_writes ? ReqType::kWrite : ReqType::kRead;
    ReqType secondary_type = serve_writes ? ReqType::kRead : ReqType::kWrite;

    auto capped = [&](unsigned bank) {
        return hitStreak[bank] >= cfg.rowHitCap;
    };
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
        bool safe = mitig.isActSafe(fb, req.coord.row, req.thread, now);
        if (!safe)
            ++numActBlocked;
        return safe;
    };
    if (auto h = scheduler.pickRowPrep(primary, dram, now, act_filter,
                                       capped);
        h != SchedQueue::kNone) {
        if (issuePrep(primary, h, now))
            return true;
    }
    if (auto h = scheduler.pickRowPrep(secondary, dram, now, act_filter,
                                       capped);
        h != SchedQueue::kNone) {
        if (issuePrep(secondary, h, now))
            return true;
    }
    return false;
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
    dram.issue(cmd, fb, req.coord.row, now);
    if (energy)
        energy->onCommand(cmd, now);

    // Row-hit streak accounting for FR-FCFS-Cap.
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
    if (req.onComplete) {
        if (completionSink) {
            completionSink->push_back(DeferredCompletion{
                done, completionSeq++, std::move(req.onComplete)});
        } else {
            req.onComplete(done);
        }
    }
}

bool
MemController::issuePrep(SchedQueue &queue, SchedQueue::Handle h, Cycle now)
{
    Request &req = queue.at(h);
    unsigned fb = req.flatBank;
    const Bank &bank = dram.bank(fb);
    if (bank.isOpen()) {
        dram.issue(DramCommand::kPre, fb, 0, now);
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
    dram.issue(DramCommand::kAct, fb, req.coord.row, now);
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
    ++numVictimScheduled;
    ++numActions;
}

std::size_t
MemController::pendingVictimRefreshes() const
{
    std::size_t n = 0;
    for (const auto &q : victimQ)
        n += q.size();
    return n;
}

Cycle
MemController::nextEventAt(Cycle now)
{
    // While the idle analysis from the last executed tick still holds,
    // its bound is the answer (the skip driver asks every quiet cycle).
    if (now < idleUntil && idleSinceLastTick())
        return idleUntil;

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
    for (unsigned fb = 0; fb < banks; ++fb) {
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

    // Demand candidates from both queues (either can serve any tick).
    auto capped = [&](unsigned bank) {
        return hitStreak[bank] >= cfg.rowHitCap;
    };
    Cycle verdict = mitig.nextVerdictChangeAt(now);
    // Any unsafe verdict in the last tick makes the per-tick blocked
    // counters verdict-dependent: even if no command can issue earlier, a
    // verdict flip changes what the skipped ticks would have counted.
    if (lastTickBlockedEvals > 0)
        best = std::min(best, verdict);
    best = std::min(best, scheduler.nextDemandEventAt(
        readQ, ReqType::kRead, dram, lastTickAt, capped, verdict));
    best = std::min(best, scheduler.nextDemandEventAt(
        writeQ, ReqType::kWrite, dram, lastTickAt, capped, verdict));
    return std::max(best, now);
}

void
MemController::noteSkippedTicks(std::uint64_t n)
{
    if (lastTickReachedDemand) {
        // Each skipped tick would have re-evaluated the same mitigation
        // safety queries and flipped the drain fairness toggle once.
        numActBlocked += lastTickBlockedEvals * n;
        if (n & 1)
            drainToggle = !drainToggle;
    }
    mitig.noteSkippedTicks(n);
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
