/**
 * @file
 * Randomized differential test for the incremental FR-FCFS scheduler:
 * the bucketed SchedQueue-based picks must match a reference copy of the
 * original full-queue-walk implementation — same picked request, and the
 * same sequence of mitigation safety queries (whose side effects, like
 * BlockHammer's delay accounting, are part of the simulation contract) —
 * across randomly generated DRAM states and request queues. One queue
 * lives across all rounds, with arrivals, served picks and random
 * removals, so the head-age order of SchedQueue::activeBanks() (which
 * keeps the row-prep pick's frontier list nearly sorted as it is built)
 * is checked after every push and take.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "mem/scheduler.hh"

namespace bh
{
namespace
{

using EvalLog = std::vector<std::pair<unsigned, RowId>>;

/**
 * Reference implementation: the original stateless full-walk FR-FCFS
 * (stack arrays, O(queue) per call), kept verbatim as the oracle.
 */
class ReferenceFrFcfs
{
  public:
    static constexpr unsigned kMaxBanks = 64;

    static std::optional<std::size_t>
    pickColumnReady(const std::deque<Request> &queue, const DramDevice &dram,
                    Cycle now, const FrFcfsScheduler::StreakCapped &capped)
    {
        std::array<bool, kMaxBanks> conflict_waiting{};
        for (const auto &req : queue) {
            const Bank &bank = dram.bank(req.flatBank);
            if (bank.isOpen() && bank.openRow() != req.coord.row)
                conflict_waiting[req.flatBank] = true;
        }
        for (std::size_t i = 0; i < queue.size(); ++i) {
            const Request &req = queue[i];
            unsigned fb = req.flatBank;
            const Bank &bank = dram.bank(fb);
            if (!bank.isOpen() || bank.openRow() != req.coord.row)
                continue;
            if (conflict_waiting[fb] && capped && capped(fb))
                continue;
            DramCommand cmd = (req.type == ReqType::kRead)
                ? DramCommand::kRd : DramCommand::kWr;
            if (dram.canIssue(cmd, fb, now))
                return i;
        }
        return std::nullopt;
    }

    static std::optional<std::size_t>
    pickRowPrep(const std::deque<Request> &queue, const DramDevice &dram,
                Cycle now, const FrFcfsScheduler::ActFilter &act_allowed,
                const FrFcfsScheduler::StreakCapped &capped)
    {
        std::array<bool, kMaxBanks> keep_open{};
        for (const auto &req : queue) {
            unsigned fb = req.flatBank;
            const Bank &bank = dram.bank(fb);
            if (bank.isOpen() && bank.openRow() == req.coord.row)
                keep_open[fb] = !(capped && capped(fb));
        }
        std::array<bool, kMaxBanks> prepared{};
        for (std::size_t i = 0; i < queue.size(); ++i) {
            const Request &req = queue[i];
            unsigned fb = req.flatBank;
            if (prepared[fb])
                continue;
            const Bank &bank = dram.bank(fb);
            if (bank.isOpen()) {
                if (bank.openRow() == req.coord.row)
                    continue;
                if (keep_open[fb])
                    continue;
                if (dram.canIssue(DramCommand::kPre, fb, now))
                    return i;
                prepared[fb] = true;
            } else {
                if (!act_allowed(req))
                    continue;
                if (dram.canIssue(DramCommand::kAct, fb, now))
                    return i;
                prepared[fb] = true;
            }
        }
        return std::nullopt;
    }
};

/** Drive a device through random legal commands to diversify its state. */
void
randomizeDevice(DramDevice &dram, Rng &rng, Cycle &now, unsigned steps)
{
    unsigned nbanks = dram.numBanks();
    for (unsigned s = 0; s < steps; ++s) {
        now += static_cast<Cycle>(rng.below(24));
        unsigned fb = static_cast<unsigned>(rng.below(nbanks));
        const Bank &bank = dram.bank(fb);
        if (bank.isOpen()) {
            switch (rng.below(3)) {
              case 0:
                if (dram.canIssue(DramCommand::kRd, fb, now))
                    dram.issue(DramCommand::kRd, fb, bank.openRow(), now);
                break;
              case 1:
                if (dram.canIssue(DramCommand::kWr, fb, now))
                    dram.issue(DramCommand::kWr, fb, bank.openRow(), now);
                break;
              default:
                if (dram.canIssue(DramCommand::kPre, fb, now))
                    dram.issue(DramCommand::kPre, fb, 0, now);
                break;
            }
        } else if (dram.canIssue(DramCommand::kAct, fb, now)) {
            dram.issue(DramCommand::kAct, fb,
                       static_cast<RowId>(rng.below(128)), now);
        }
    }
}

/** Random request, biased to the bank's open row (hits + conflicts). */
Request
randomRequest(const DramDevice &dram, Rng &rng, std::uint64_t id)
{
    Request req;
    unsigned fb = static_cast<unsigned>(rng.below(dram.numBanks()));
    const Bank &bank = dram.bank(fb);
    req.flatBank = fb;
    req.coord.row = (bank.isOpen() && rng.chance(0.5))
        ? bank.openRow() : static_cast<RowId>(rng.below(128));
    req.id = id;
    return req;
}

/**
 * activeBanks() must list exactly the non-empty banks, each once, in
 * strictly increasing sequence number of the bank's oldest request.
 */
::testing::AssertionResult
activeBanksInHeadOrder(const SchedQueue &q, unsigned nbanks)
{
    const auto &active = q.activeBanks();
    std::vector<bool> listed(nbanks, false);
    for (std::size_t i = 0; i < active.size(); ++i) {
        unsigned fb = active[i];
        if (fb >= nbanks || listed[fb] || q.bankCount(fb) == 0)
            return ::testing::AssertionFailure()
                << "bank " << fb << " at position " << i
                << " is out of range, listed twice or empty";
        listed[fb] = true;
        if (i > 0 && q.seqOf(q.bankOldest(active[i - 1])) >=
                q.seqOf(q.bankOldest(fb)))
            return ::testing::AssertionFailure()
                << "bank " << fb << " at position " << i
                << " has an older head than bank " << active[i - 1];
    }
    for (unsigned fb = 0; fb < nbanks; ++fb)
        if (!listed[fb] && q.bankCount(fb) != 0)
            return ::testing::AssertionFailure()
                << "non-empty bank " << fb << " is not listed";
    return ::testing::AssertionSuccess();
}

void
runDifferential(unsigned nbanks, std::uint64_t seed)
{
    DramOrg org;
    org.bankGroups = 4;
    org.banksPerGroup = 4;
    org.ranks = nbanks / 16;
    ASSERT_EQ(org.banksPerChannel(), nbanks);
    DramDevice dram(org, DramTimings::ddr4());
    FrFcfsScheduler sched(nbanks);
    Rng rng(seed);
    Cycle now = 0;

    // One queue (and its reference copy) across all rounds; handles[i]
    // holds ref_q[i].
    constexpr std::size_t kQueueCap = 64;
    std::deque<Request> ref_q;
    std::deque<SchedQueue::Handle> handles;
    SchedQueue new_q(nbanks);
    std::uint64_t next_id = 0;
    auto push = [&](Request req) {
        ref_q.push_back(req);
        handles.push_back(new_q.push(std::move(req)));
        ASSERT_EQ(new_q.size(), ref_q.size());
        ASSERT_TRUE(activeBanksInHeadOrder(new_q, nbanks));
    };
    auto take = [&](SchedQueue::Handle h) {
        auto it = std::find(handles.begin(), handles.end(), h);
        ASSERT_NE(it, handles.end());
        std::size_t i = static_cast<std::size_t>(it - handles.begin());
        EXPECT_EQ(new_q.take(h).id, ref_q[i].id);
        ref_q.erase(ref_q.begin() + static_cast<std::ptrdiff_t>(i));
        handles.erase(it);
        ASSERT_EQ(new_q.size(), ref_q.size());
        ASSERT_TRUE(activeBanksInHeadOrder(new_q, nbanks));
    };

    for (unsigned iter = 0; iter < 400; ++iter) {
        randomizeDevice(dram, rng, now, 12);

        // Filling and draining phases swing the queue between empty and
        // full; random removals hit heads and non-heads alike, so banks
        // drain to empty and heads advance out of order.
        bool draining = (iter / 25) % 2 == 1;
        auto removals = rng.below(draining ? 8 : 2);
        for (std::uint64_t k = 0; k < removals && !ref_q.empty(); ++k)
            ASSERT_NO_FATAL_FAILURE(take(handles[rng.below(ref_q.size())]));
        auto arrivals = rng.below(draining ? 3 : 12);
        for (std::uint64_t k = 0; k < arrivals && ref_q.size() < kQueueCap;
             ++k)
            ASSERT_NO_FATAL_FAILURE(
                push(randomRequest(dram, rng, next_id++)));

        // A controller queue holds one request type.
        ReqType type = rng.chance(0.5) ? ReqType::kRead : ReqType::kWrite;
        for (std::size_t i = 0; i < ref_q.size(); ++i) {
            ref_q[i].type = type;
            new_q.at(handles[i]).type = type;
        }

        // Random capped banks and a deterministic (but arbitrary-looking)
        // safety verdict per (bank, row).
        std::uint64_t cap_salt = rng.next();
        std::uint64_t act_salt = rng.next();
        auto capped = [&](unsigned bank) {
            return ((bank * 2654435761u) ^ cap_salt) % 4 == 0;
        };
        auto verdict = [&](unsigned bank, RowId row) {
            std::uint64_t h =
                (static_cast<std::uint64_t>(bank) << 32 | row) * 0x9e3779b9;
            return ((h ^ act_salt) % 3) != 0;
        };

        // Column picks must select the identical request.
        auto ref_col =
            ReferenceFrFcfs::pickColumnReady(ref_q, dram, now, capped);
        auto new_col = sched.pickColumnReady(new_q, type, dram, now, capped);
        if (ref_col.has_value()) {
            ASSERT_NE(new_col, SchedQueue::kNone) << "iter " << iter;
            EXPECT_EQ(ref_q[*ref_col].id, new_q.at(new_col).id)
                << "iter " << iter;
        } else {
            EXPECT_EQ(new_col, SchedQueue::kNone) << "iter " << iter;
        }

        // Row-prep picks must agree — including the exact sequence of
        // safety-filter evaluations (their side effects are modeled).
        EvalLog ref_log, new_log;
        auto ref_filter = [&](const Request &req) {
            ref_log.emplace_back(req.flatBank, req.coord.row);
            return verdict(req.flatBank, req.coord.row);
        };
        auto new_filter = [&](const Request &req) {
            new_log.emplace_back(req.flatBank, req.coord.row);
            return verdict(req.flatBank, req.coord.row);
        };
        auto ref_prep = ReferenceFrFcfs::pickRowPrep(ref_q, dram, now,
                                                     ref_filter, capped);
        auto new_prep = sched.pickRowPrep(new_q, dram, now, new_filter,
                                          capped);
        if (ref_prep.has_value()) {
            ASSERT_NE(new_prep, SchedQueue::kNone) << "iter " << iter;
            EXPECT_EQ(ref_q[*ref_prep].id, new_q.at(new_prep).id)
                << "iter " << iter;
        } else {
            EXPECT_EQ(new_prep, SchedQueue::kNone) << "iter " << iter;
        }
        EXPECT_EQ(ref_log, new_log) << "iter " << iter;

        // When nothing picks, the scheduler's event bound must hold: no
        // pick may become possible before it (under frozen verdicts).
        if (!ref_col && !ref_prep) {
            auto silent = [&](const Request &req) {
                return verdict(req.flatBank, req.coord.row);
            };
            Cycle bound = sched.nextDemandEventAt(new_q, type, dram, now,
                                                  capped, kNoEventCycle);
            Cycle horizon = std::min(bound, now + 200);
            for (Cycle c = now + 1; c < horizon; ++c) {
                EXPECT_EQ(sched.pickColumnReady(new_q, type, dram, c,
                                                capped),
                          SchedQueue::kNone)
                    << "iter " << iter << " cycle " << c;
                EXPECT_EQ(sched.pickRowPrep(new_q, dram, c, silent, capped),
                          SchedQueue::kNone)
                    << "iter " << iter << " cycle " << c;
            }
        }

        // Serve what was picked, as the controller would: a column
        // command completes its request, and so (here) does an ACT. A
        // PRE leaves its request queued.
        if (new_col != SchedQueue::kNone) {
            ASSERT_NO_FATAL_FAILURE(take(new_col));
        }
        if (new_prep != SchedQueue::kNone &&
            !dram.bank(new_q.at(new_prep).flatBank).isOpen()) {
            ASSERT_NO_FATAL_FAILURE(take(new_prep));
        }
    }
}

TEST(SchedulerDifferential, PaperOrgSixteenBanks)
{
    runDifferential(16, 0xb10c);
}

TEST(SchedulerDifferential, FourRankSixtyFourBanks)
{
    runDifferential(64, 0x4a11);
}

TEST(SchedulerDifferential, SecondSeedSweep)
{
    runDifferential(16, 0xfeed);
    runDifferential(32, 0xbeef);
}

} // namespace
} // namespace bh
