/**
 * @file
 * Tests for the memory controller: queueing, FR-FCFS behavior, refresh
 * cadence, victim refreshes, mitigation blocking, and quota enforcement.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "mem/mem_system.hh"
#include "recording_target.hh"

namespace bh
{
namespace
{

/** Scripted mitigation used to probe the controller hooks. */
class ScriptedMitigation : public Mitigation
{
  public:
    std::string name() const override { return "Scripted"; }

    bool
    isActSafe(unsigned bank, RowId row, ThreadId, Cycle) override
    {
        auto key = (static_cast<std::uint64_t>(bank) << 32) | row;
        return blockedRows.count(key) == 0;
    }

    void
    onActivate(unsigned bank, RowId row, ThreadId, Cycle) override
    {
        activations.push_back({bank, row});
    }

    void
    onAutoRefresh(RowId, unsigned, Cycle) override
    {
        ++refreshCount;
    }

    int
    quota(ThreadId thread, unsigned) const override
    {
        auto it = quotas.find(thread);
        return it == quotas.end() ? -1 : it->second;
    }

    void
    blockRow(unsigned bank, RowId row)
    {
        blockedRows.insert((static_cast<std::uint64_t>(bank) << 32) | row);
    }

    std::set<std::uint64_t> blockedRows;
    std::map<ThreadId, int> quotas;
    std::vector<std::pair<unsigned, RowId>> activations;
    unsigned refreshCount = 0;
};

/** A request of `type` to (flat bank, row, col) at cycle `arrival`. */
Request
requestTo(const AddressMapper &map, ReqType type, unsigned bank, RowId row,
          unsigned col, ThreadId thread, Cycle arrival)
{
    DramCoord c;
    const DramOrg &org = map.organization();
    c.rank = bank / org.banksPerRank();
    unsigned in_rank = bank % org.banksPerRank();
    c.bankGroup = in_rank / org.banksPerGroup;
    c.bank = in_rank % org.banksPerGroup;
    c.row = row;
    c.col = col;
    Request req;
    req.addr = map.encode(c);
    req.type = type;
    req.thread = thread;
    req.arrival = arrival;
    return req;
}

/** Harness wiring a MemSystem with the scripted mechanism. */
class MemTest : public ::testing::Test
{
  protected:
    MemTest()
    {
        MemSystemConfig cfg;
        cfg.enableEnergy = false;
        cfg.enableHammerObserver = false;
        auto mit = std::make_unique<ScriptedMitigation>();
        mitig = mit.get();
        mem = std::make_unique<MemSystem>(cfg, std::move(mit));
    }

    /**
     * Submit a read to (bank, row, col); returns its completion cycle,
     * -1 until it completes.
     */
    const Cycle *
    read(unsigned bank, RowId row, unsigned col = 0, ThreadId thread = 0)
    {
        Request req = requestTo(mem->mapper(), ReqType::kRead, bank, row,
                                col, thread, now);
        req.completion = sink.token();
        lastResult = mem->submit(std::move(req));
        return &sink.done.back();
    }

    void
    runFor(Cycle cycles)
    {
        for (Cycle end = now + cycles; now < end; ++now)
            mem->tick(now);
    }

    RecordingTarget sink;
    std::unique_ptr<MemSystem> mem;
    ScriptedMitigation *mitig = nullptr;
    SubmitResult lastResult = SubmitResult::kAccepted;
    Cycle now = 0;
};

TEST_F(MemTest, ReadCompletesWithActLatency)
{
    auto done = read(0, 100);
    EXPECT_EQ(lastResult, SubmitResult::kAccepted);
    runFor(200);
    const auto &t = mem->device().timings();
    ASSERT_GE(*done, 0);
    // ACT at ~0, RD at tRCD, data at +tCL+tBL.
    EXPECT_NEAR(static_cast<double>(*done),
                static_cast<double>(t.tRCD + t.tCL + t.tBL), 8.0);
}

TEST_F(MemTest, RowHitFasterThanConflict)
{
    auto first = read(0, 100);
    runFor(200);
    Cycle hit_start = now;
    auto hit = read(0, 100, 5);
    runFor(200);
    Cycle hit_latency = *hit - hit_start;

    Cycle conf_start = now;
    auto conf = read(0, 200);
    runFor(400);
    Cycle conf_latency = *conf - conf_start;
    EXPECT_LT(hit_latency, conf_latency);
    EXPECT_GE(*first, 0);
    EXPECT_EQ(mem->controller().rowHits(), 1u);
    EXPECT_EQ(mem->controller().rowConflicts(), 1u);
    EXPECT_EQ(mem->controller().rowMisses(), 1u);
}

TEST_F(MemTest, FrFcfsPrefersRowHit)
{
    // Open row 100 in bank 0, then enqueue an older conflict (row 200)
    // and a younger hit (row 100). The hit's column command should issue
    // while the conflict waits for tRAS.
    auto warm = read(0, 100);
    runFor(200);
    auto conflict = read(0, 200);
    auto hit = read(0, 100, 9);
    runFor(400);
    EXPECT_GE(*warm, 0);
    EXPECT_LT(*hit, *conflict);
}

TEST_F(MemTest, QueueFullRejects)
{
    for (unsigned i = 0; i < 64; ++i) {
        read(0, 1000 + i);
        EXPECT_EQ(lastResult, SubmitResult::kAccepted) << i;
    }
    read(0, 5000);
    EXPECT_EQ(lastResult, SubmitResult::kQueueFull);
}

TEST_F(MemTest, QuotaRejectsAtLimit)
{
    mitig->quotas[0] = 2;
    read(0, 100, 0, 0);
    EXPECT_EQ(lastResult, SubmitResult::kAccepted);
    read(0, 101, 0, 0);
    EXPECT_EQ(lastResult, SubmitResult::kAccepted);
    read(0, 102, 0, 0);
    EXPECT_EQ(lastResult, SubmitResult::kQuotaExceeded);
    // Another thread is unaffected.
    read(0, 103, 0, 1);
    EXPECT_EQ(lastResult, SubmitResult::kAccepted);
    // A different bank of the same thread is unaffected.
    read(1, 104, 0, 0);
    EXPECT_EQ(lastResult, SubmitResult::kAccepted);
    EXPECT_EQ(mem->quotaRejects(), 1u);
}

TEST_F(MemTest, QuotaZeroBlocksEverything)
{
    mitig->quotas[3] = 0;
    read(0, 100, 0, 3);
    EXPECT_EQ(lastResult, SubmitResult::kQuotaExceeded);
}

TEST_F(MemTest, BlockedActIsDeferredUntilUnblocked)
{
    mitig->blockRow(0, 100);
    auto done = read(0, 100);
    runFor(500);
    EXPECT_EQ(*done, -1);   // still blocked
    EXPECT_GT(mem->controller().blockedActQueries(), 0u);
    mitig->blockedRows.clear();
    runFor(300);
    EXPECT_GE(*done, 0);
}

TEST_F(MemTest, RefusalWithoutVerdictStampsEndsTheIdleWindow)
{
    // The scripted mechanism has no verdict stamps, and the test flips
    // its verdicts from outside the simulation: after a refusal the
    // controller must execute the next tick and ask again, never replay
    // it.
    mitig->blockRow(0, 100);
    read(0, 100);
    const MemController &mc = mem->controller();
    for (Cycle limit = now + 200; mc.blockedActQueries() == 0; ) {
        ASSERT_LT(now, limit) << "the ACT was never asked about";
        runFor(1);
    }
    std::uint64_t executed = mc.ticksExecuted();
    std::uint64_t blocked = mc.blockedActQueries();
    for (std::uint64_t tick = 1; tick <= 64; ++tick) {
        runFor(1);
        ASSERT_EQ(mc.ticksExecuted(), executed + tick) << "cycle " << now;
        ASSERT_EQ(mc.blockedActQueries(), blocked + tick) << "cycle " << now;
    }
    EXPECT_EQ(mc.demandActivations(), 0u);
    mitig->blockedRows.clear();
    runFor(1);
    EXPECT_EQ(mc.demandActivations(), 1u);
    ASSERT_EQ(mitig->activations.size(), 1u);
    EXPECT_EQ(mitig->activations[0].second, 100u);
}

TEST_F(MemTest, BlockedRowDoesNotStallOtherRequests)
{
    mitig->blockRow(0, 100);
    auto blocked = read(0, 100);
    auto free1 = read(0, 200);      // same bank, younger, safe
    auto free2 = read(1, 300);      // other bank
    runFor(600);
    EXPECT_EQ(*blocked, -1);
    EXPECT_GE(*free1, 0);
    EXPECT_GE(*free2, 0);
}

TEST_F(MemTest, MitigationSeesDemandActivations)
{
    read(0, 100);
    read(1, 200);
    runFor(300);
    ASSERT_EQ(mitig->activations.size(), 2u);
    EXPECT_EQ(mitig->activations[0].second, 100u);
    EXPECT_EQ(mitig->activations[1].second, 200u);
}

TEST_F(MemTest, RefreshHappensEveryTrefi)
{
    const auto &t = mem->device().timings();
    runFor(t.tREFI * 4 + 100);
    EXPECT_NEAR(static_cast<double>(mem->controller().refreshes()), 4.0, 1.0);
    EXPECT_EQ(mitig->refreshCount, mem->controller().refreshes());
}

TEST_F(MemTest, VictimRefreshOccupiesBank)
{
    mem->controller().scheduleVictimRefresh(0, 500);
    EXPECT_EQ(mem->controller().pendingVictimRefreshes(), 1u);
    runFor(200);
    EXPECT_EQ(mem->controller().pendingVictimRefreshes(), 0u);
    EXPECT_EQ(mem->controller().victimRefreshesDone(), 1u);
}

TEST_F(MemTest, VictimRefreshClosedByTheRefreshDrainCompletes)
{
    // The victim ACT issues just before the refresh deadline, so the
    // refresh drain, not the victim path, precharges the bank; the op
    // then completes without a PRE of its own.
    const auto &t = mem->device().timings();
    runFor(t.tREFI - 2);
    mem->controller().scheduleVictimRefresh(0, 500);
    runFor(t.tRAS + t.tRP + t.tRFC + 100);
    EXPECT_EQ(mem->controller().refreshes(), 1u);
    EXPECT_EQ(mem->controller().victimRefreshesDone(), 1u);
    EXPECT_EQ(mem->controller().pendingVictimRefreshes(), 0u);
}

TEST_F(MemTest, VictimRefreshPrioritizedOverDemand)
{
    // Victim refresh to bank 0 scheduled before a demand read arrives:
    // the demand ACT must wait for the refresh ACT+PRE cycle.
    mem->controller().scheduleVictimRefresh(0, 500);
    auto done = read(0, 100);
    runFor(400);
    EXPECT_GE(*done, 0);
    EXPECT_EQ(mem->controller().victimRefreshesDone(), 1u);
    const auto &t = mem->device().timings();
    // Demand completion must come after a full refresh tRAS+tRP at least.
    EXPECT_GT(*done, t.tRAS + t.tRP);
}

TEST_F(MemTest, WritesAreServedWhenReadsIdle)
{
    DramCoord c;
    c.row = 42;
    Request req;
    req.addr = mem->mapper().encode(c);
    req.type = ReqType::kWrite;
    req.thread = 0;
    ASSERT_EQ(mem->submit(std::move(req)), SubmitResult::kAccepted);
    runFor(300);
    // The controller classifies each served column command once.
    const MemController &mc = mem->controller();
    EXPECT_EQ(mc.writeQueueDepth(), 0u);
    EXPECT_EQ(mc.threadStats(0).writes, 1u);
    EXPECT_EQ(mc.rowHits() + mc.rowMisses() + mc.rowConflicts(), 1u);
}

TEST_F(MemTest, InflightTracksAcceptedReads)
{
    read(0, 100, 0, 2);
    read(0, 101, 0, 2);
    EXPECT_EQ(mem->controller().inflight(2, 0), 2);
    runFor(500);
    EXPECT_EQ(mem->controller().inflight(2, 0), 0);
}

TEST_F(MemTest, PerThreadStatsAttributed)
{
    read(0, 100, 0, 1);
    runFor(200);
    read(0, 100, 3, 1);     // row hit for thread 1
    runFor(200);
    const auto &ts = mem->controller().threadStats(1);
    EXPECT_EQ(ts.reads, 2u);
    EXPECT_EQ(ts.rowHits, 1u);
    EXPECT_EQ(ts.rowMisses, 1u);
    EXPECT_EQ(ts.activates, 1u);
}

TEST_F(MemTest, ThreadStatsConstForUnknownThreads)
{
    // Out-of-range and negative thread ids return the shared empty stats
    // without growing any internal table; inflight() is bounds-checked
    // the same way.
    const MemController &mc = mem->controller();
    EXPECT_EQ(mc.threadStats(1234).reads, 0u);
    EXPECT_EQ(mc.threadStats(-1).reads, 0u);
    EXPECT_EQ(mc.inflight(1234, 0), 0);
    EXPECT_EQ(mc.inflight(-1, 0), 0);

    // A real request still lands in the right slot afterwards.
    read(0, 100, 0, 2);
    EXPECT_EQ(mc.threadStats(2).reads, 1u);
    EXPECT_EQ(mc.threadStats(1234).reads, 0u);
    EXPECT_EQ(mc.inflight(2, 0), 1);
}

using MemDeathTest = MemTest;

TEST_F(MemDeathTest, NextEventAtPanicsOutsideAnIdleState)
{
    // The answer is read off what the last executed tick recorded: before
    // the first tick there is nothing to read.
    EXPECT_DEATH(mem->controller().nextEventAt(0),
                 "not idle since an executed tick");

    // An idle tick answers (an empty controller next acts at refresh)...
    runFor(1);
    const auto &t = mem->device().timings();
    EXPECT_EQ(mem->controller().nextEventAt(now), t.tREFI);

    // ...until a request arrives, which voids what the tick recorded.
    read(0, 100);
    ASSERT_EQ(lastResult, SubmitResult::kAccepted);
    EXPECT_DEATH(mem->controller().nextEventAt(now),
                 "not idle since an executed tick");
}

/**
 * Arrivals inside idle windows where the mitigation's queries have no
 * effect (Baseline). Two single-channel systems run one script: one
 * with idle windows (--skip on), one that executes every tick (--skip
 * off). An arrival lowers the fast system's window to the arriving
 * bank's own bound, so the tick after it is replayed, and the window end
 * the fast system then reports must be the bound the reference's
 * executed tick recorded, and every completion time must match.
 */
class ArrivalWindowTest : public ::testing::Test
{
  protected:
    void
    build(const ControllerConfig &ctrl = ControllerConfig{})
    {
        for (bool fast : {true, false}) {
            MemSystemConfig cfg;
            cfg.enableEnergy = false;
            cfg.enableHammerObserver = false;
            cfg.ctrl = ctrl;
            auto &mem = fast ? fastMem : refMem;
            mem = std::make_unique<MemSystem>(
                cfg, std::make_unique<NullMitigation>());
            mem->controller().setFastIdleTicks(fast);
        }
    }

    /** Submit one request to both systems. */
    void
    submit(ReqType type, unsigned bank, RowId row, unsigned col = 0)
    {
        for (MemSystem *mem : {fastMem.get(), refMem.get()}) {
            Request req =
                requestTo(mem->mapper(), type, bank, row, col, 0, now);
            RecordingTarget &sink = mem == fastMem.get() ? fastDone : refDone;
            req.completion = sink.token();
            ASSERT_EQ(mem->submit(std::move(req)), SubmitResult::kAccepted);
        }
    }

    void
    runFor(Cycle cycles)
    {
        for (Cycle end = now + cycles; now < end; ++now) {
            fastMem->tick(now);
            refMem->tick(now);
            ASSERT_EQ(fast().writeDraining(), ref().writeDraining())
                << "cycle " << now;
        }
    }

    /** Run until the fast system's `type` queue holds `depth` requests. */
    void
    runUntilDepth(ReqType type, std::size_t depth)
    {
        auto at = [&](const MemController &mc) {
            return type == ReqType::kRead ? mc.readQueueDepth()
                                          : mc.writeQueueDepth();
        };
        for (Cycle limit = now + 2000; at(fast()) != depth; ) {
            ASSERT_LT(now, limit) << "queue never reached depth " << depth;
            ASSERT_NO_FATAL_FAILURE(runFor(1));
            ASSERT_EQ(at(fast()), at(ref()));
        }
    }

    /**
     * Tick once after an arrival: the fast system replays the tick, and
     * its window end equals the reference's recorded bound.
     */
    Cycle
    boundAfterArrival()
    {
        std::uint64_t executed = fast().ticksExecuted();
        runFor(1);
        EXPECT_EQ(fast().ticksExecuted(), executed)
            << "the arrival voided the window";
        Cycle at = fast().nextEventAt(now);
        EXPECT_EQ(at, ref().nextEventAt(now));
        EXPECT_GT(at, now);
        return at;
    }

    /** Run both systems dry; every completion matches. */
    void
    expectSameCompletions()
    {
        runFor(3000);
        ASSERT_EQ(fastDone.done.size(), refDone.done.size());
        for (std::size_t i = 0; i < fastDone.done.size(); ++i) {
            EXPECT_GE(refDone.done[i], 0) << "request " << i;
            EXPECT_EQ(fastDone.done[i], refDone.done[i]) << "request " << i;
        }
        EXPECT_LT(fast().ticksExecuted(), ref().ticksExecuted());
    }

    MemController &fast() { return fastMem->controller(); }
    MemController &ref() { return refMem->controller(); }
    const DramDevice &dram() { return fastMem->device(); }

    std::unique_ptr<MemSystem> fastMem, refMem;
    RecordingTarget fastDone, refDone;
    Cycle now = 0;
};

TEST_F(ArrivalWindowTest, HitToAnOpenBankBoundsAtItsColumnTime)
{
    build();
    // Bank 0's row opens and its read is served; the rank's column gate
    // (tCCD) then holds the next read past the tick after the arrival.
    submit(ReqType::kRead, 0, 100);
    runUntilDepth(ReqType::kRead, 0);
    submit(ReqType::kRead, 0, 100, 1);
    Cycle col = dram().earliest(DramCommand::kRd, 0);
    EXPECT_EQ(boundAfterArrival(), col);
    expectSameCompletions();
}

TEST_F(ArrivalWindowTest, MissThatConflictsBoundsAtThePrechargeTime)
{
    build();
    submit(ReqType::kRead, 0, 100);
    runUntilDepth(ReqType::kRead, 0);
    submit(ReqType::kRead, 0, 200);
    Cycle pre = dram().bank(0).earliest(DramCommand::kPre);
    EXPECT_EQ(boundAfterArrival(), pre);
    expectSameCompletions();
}

TEST_F(ArrivalWindowTest, IdleClosedBankBoundsAtTheRankGatedActTime)
{
    build();
    // Four ACTs in a row fill the tFAW window; the fifth bank's own ACT
    // time has long passed, so the rank's tRRD/tFAW gate bounds it.
    for (unsigned bank = 0; bank < 4; ++bank)
        submit(ReqType::kRead, bank, 100 + bank);
    runUntilDepth(ReqType::kRead, 0);
    submit(ReqType::kRead, 4, 100);
    Cycle act = dram().earliest(DramCommand::kAct, 4);
    ASSERT_GT(act, dram().bank(4).earliest(DramCommand::kAct));
    EXPECT_EQ(act, dram().actEarliest());
    EXPECT_EQ(boundAfterArrival(), act);
    expectSameCompletions();
}

TEST_F(ArrivalWindowTest, WriteWatermarksApplyOnTheNextReplayedTick)
{
    ControllerConfig ctrl;
    ctrl.writeHighWatermark = 3;
    ctrl.writeLowWatermark = 1;
    build(ctrl);
    // A read opens bank 0. Three writes to idle banks arrive inside the
    // windows that follow its ACT; the one that lifts the write queue to
    // the high watermark starts the drain on the replayed tick after it.
    submit(ReqType::kRead, 0, 100);
    runFor(1);
    for (unsigned bank = 1; bank <= 3; ++bank) {
        EXPECT_FALSE(fast().writeDraining());
        submit(ReqType::kWrite, bank, 100);
        boundAfterArrival();
    }
    EXPECT_TRUE(fast().writeDraining());

    // The write that leaves one queued ends the drain on the replayed
    // tick after it, and a write arriving then (above the low watermark,
    // below the high one) must find the drain ended.
    runUntilDepth(ReqType::kWrite, 1);
    std::uint64_t executed = fast().ticksExecuted();
    runFor(1);
    ASSERT_EQ(fast().ticksExecuted(), executed);
    EXPECT_FALSE(fast().writeDraining());
    submit(ReqType::kWrite, 4, 100);
    boundAfterArrival();
    EXPECT_FALSE(fast().writeDraining());
    expectSameCompletions();
}

TEST_F(MemTest, SyncStatsPublishesCounters)
{
    read(0, 100);
    runFor(200);
    mem->controller().syncStats();
    EXPECT_EQ(mem->controller().stats.counter("mc.reads"), 1u);
    EXPECT_EQ(mem->controller().stats.counter("mc.act_demand"), 1u);
}

} // namespace
} // namespace bh
