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
 * is checked after every push and take. The demand event bound that the
 * row-prep walk records must equal the original separate bank walk
 * (referenceNextDemandEventAt, kept verbatim below) in every round.
 *
 * The queue's event table is checked in the same rounds: the column
 * pick, the all-safe row-prep pick (pickRowPrepAllSafe, against the
 * reference walk with a filter that passes every request) and its bound,
 * demandEventAt (against the separate walk with every ACT taken as
 * safe), and each bank's bankEventAt (against a per-bank reference read
 * off the plain request list). Between the picks, random commands, now
 * and then an all-bank REF, and streaks that cross the cap change some
 * banks and leave others; the test touches exactly the changed banks,
 * as the controller does, and every entry it did not touch must still
 * be current (SchedQueue::firstWrongEvent).
 *
 * The row-prep pick runs twice in each round: on a mirror queue without
 * verdict stamps, where no chain holds and every query is live, and on
 * the stamped queue, whose chains replay verdicts against a scripted
 * mitigation whose per-bank verdict stamps move (with a touch, as an
 * ACT's do), whose every stamp moves now and then (an epoch swap, which
 * drops the chain totals), and whose refusals lapse at random between
 * rounds. The chained pick reads open banks off the event table and,
 * where the minima and the chain totals settle it, answers without a
 * bank walk; the rounds must take that shortcut. It must make the
 * walk's pick and record its bound; its live queries must be the walk's
 * minus the repeats of verdicts its chains still hold, in the walk's
 * order; its live plus replayed refusals must add up to the walk's; and
 * each row's first refusal must be the walk's.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "mem/scheduler.hh"

namespace bh
{
namespace
{

/** Safety queries in call order: (bank, row, request id). */
using EvalLog = std::vector<std::tuple<unsigned, RowId, std::uint64_t>>;

/** The references' streak-cap predicate (a StreakCapped converts). */
using CappedFn = std::function<bool(unsigned bank)>;

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
                    Cycle now, const CappedFn &capped)
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
                const CappedFn &capped)
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

/**
 * Reference demand event bound: the scheduler's original second walk
 * over the queue's banks, kept verbatim. Earliest future cycle at which
 * a demand command for `queue` could become issuable, assuming no
 * intervening state change. Banks whose ACT was
 * already legal at the controller's last executed tick (`last_tick_at`)
 * yet went unissued are mitigation-blocked and contribute
 * `verdict_change_at`.
 */
Cycle
referenceNextDemandEventAt(SchedQueue &queue, ReqType type,
                           const DramDevice &dram, Cycle last_tick_at,
                           const CappedFn &capped, Cycle verdict_change_at)
{
    DramCommand cmd = (type == ReqType::kRead)
        ? DramCommand::kRd : DramCommand::kWr;
    Cycle col_gate = dram.columnEarliest(cmd);
    Cycle best = kNoEventCycle;
    for (unsigned fb : queue.activeBanks()) {
        const Bank &bank = dram.bank(fb);
        if (bank.isOpen()) {
            auto hits = queue.hitStats(fb, bank);
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

/**
 * Reference bound of bank `fb` alone with every ACT taken as safe, read
 * off the plain request list by the separate walk's rules: a live row
 * hit's column time behind the rank's column gate, else a conflict's PRE
 * time, or a closed bank's ACT time behind the rank's ACT gates.
 */
Cycle
referenceBankEventAt(const std::deque<Request> &queue, ReqType type,
                     const DramDevice &dram, const CappedFn &capped,
                     unsigned fb)
{
    DramCommand cmd = (type == ReqType::kRead)
        ? DramCommand::kRd : DramCommand::kWr;
    const Bank &bank = dram.bank(fb);
    bool any = false, hit = false, conflict = false;
    for (const auto &req : queue) {
        if (req.flatBank != fb)
            continue;
        any = true;
        if (bank.isOpen() && bank.openRow() == req.coord.row)
            hit = true;
        else
            conflict = true;
    }
    if (!any)
        return kNoEventCycle;
    if (!bank.isOpen())
        return dram.earliest(DramCommand::kAct, fb);
    if (hit && !(conflict && capped(fb)))
        return std::max(bank.earliest(cmd), dram.columnEarliest(cmd));
    return bank.earliest(DramCommand::kPre);
}

/** Queues that hold the same requests and learn the same changes. */
using Mirrors = std::vector<SchedQueue *>;

/**
 * An all-bank REF, as the controller's refresh drain issues it: close
 * every open bank as soon as its PRE is legal, then refresh, which moves
 * every bank's ACT time (Bank::blockUntil). `qs` learn each change.
 */
void
refreshDevice(DramDevice &dram, Cycle &now, const Mirrors &qs)
{
    for (unsigned fb = 0; fb < dram.numBanks(); ++fb) {
        if (!dram.bank(fb).isOpen())
            continue;
        now = std::max(now, dram.earliest(DramCommand::kPre, fb));
        dram.issue(DramCommand::kPre, fb, 0, now);
        for (SchedQueue *q : qs)
            q->touch(fb);
    }
    now = std::max(now, dram.earliestRefresh());
    dram.issueRefresh(now);
    for (SchedQueue *q : qs)
        q->touchAll();
}

/**
 * Drive a device through random legal commands to diversify its state,
 * and now and then an all-bank REF. `qs` learn each change, as the
 * controller's queues do.
 */
void
randomizeDevice(DramDevice &dram, Rng &rng, Cycle &now, unsigned steps,
                const Mirrors &qs)
{
    unsigned nbanks = dram.numBanks();
    if (rng.below(10) == 0)
        refreshDevice(dram, now, qs);
    auto issue = [&](DramCommand cmd, unsigned fb, RowId row) {
        if (dram.canIssue(cmd, fb, now)) {
            dram.issue(cmd, fb, row, now);
            for (SchedQueue *q : qs)
                q->touch(fb);
        }
    };
    for (unsigned s = 0; s < steps; ++s) {
        now += static_cast<Cycle>(rng.below(24));
        unsigned fb = static_cast<unsigned>(rng.below(nbanks));
        const Bank &bank = dram.bank(fb);
        if (bank.isOpen()) {
            switch (rng.below(3)) {
              case 0:
                issue(DramCommand::kRd, fb, bank.openRow());
                break;
              case 1:
                issue(DramCommand::kWr, fb, bank.openRow());
                break;
              default:
                issue(DramCommand::kPre, fb, 0);
                break;
            }
        } else {
            issue(DramCommand::kAct, fb, static_cast<RowId>(rng.below(128)));
        }
    }
}

/**
 * Random request, biased to the bank's open row (hits + conflicts),
 * tagged with `id` in its address: the scheduler never reads it.
 */
Request
randomRequest(const DramDevice &dram, Rng &rng, std::uint64_t id)
{
    Request req;
    unsigned fb = static_cast<unsigned>(rng.below(dram.numBanks()));
    const Bank &bank = dram.bank(fb);
    req.flatBank = fb;
    req.coord.row = (bank.isOpen() && rng.chance(0.5))
        ? bank.openRow() : static_cast<RowId>(rng.below(128));
    req.addr = id;
    return req;
}

/**
 * A mitigation that keeps the verdict-stamp promise
 * (Mitigation::verdictStamps) with verdicts drawn at random: a row's
 * verdict is drawn at its first query, a refusal with a random lapse
 * cycle, and holds until its bank's stamp moves or the lapse passes,
 * when the next query draws again. Counting is left to the callers.
 */
class ScriptedVerdicts : public Mitigation
{
  public:
    ScriptedVerdicts(unsigned nbanks, std::uint64_t seed)
        : stamps(nbanks, 0), rng(seed)
    {
    }

    std::string name() const override { return "Scripted"; }

    bool
    isActSafe(unsigned bank, RowId row, ThreadId, Cycle now) override
    {
        Entry &e = table[key(bank, row)];
        if (e.drawn && e.stamp == stamps[bank] && (e.safe || now < e.lapse))
            return e.safe;
        e.drawn = true;
        e.stamp = stamps[bank];
        e.safe = !rng.chance(0.4);
        e.lapse = now + 1 + static_cast<Cycle>(rng.below(400));
        return e.safe;
    }

    const std::uint64_t *verdictStamps() const override
    {
        return stamps.data();
    }

    Cycle
    refusalLapsesAt(unsigned bank, RowId row, Cycle) const override
    {
        return table.at(key(bank, row)).lapse;
    }

    /** Move bank `fb`'s stamp (an activation). */
    void bump(unsigned fb) { ++stamps[fb]; }

    /** Move every bank's stamp (an epoch swap). */
    void
    bumpAll()
    {
        for (auto &stamp : stamps)
            ++stamp;
    }

    static std::uint64_t
    key(unsigned bank, RowId row)
    {
        return static_cast<std::uint64_t>(bank) << 32 | row;
    }

  private:
    struct Entry
    {
        bool drawn = false;
        bool safe = true;
        std::uint64_t stamp = 0;
        Cycle lapse = 0;
    };

    std::vector<std::uint64_t> stamps;
    std::map<std::uint64_t, Entry> table;
    Rng rng;
};

/** Refusals a pick path counted, and each row's first refusal cycle. */
struct RefusalLog
{
    std::uint64_t count = 0;
    std::uint64_t replayed = 0;     ///< of `count`, replayed from chains
    std::map<std::uint64_t, Cycle> first;

    void
    refuse(const Request &req, Cycle now)
    {
        ++count;
        first.emplace(ScriptedVerdicts::key(req.flatBank, req.coord.row),
                      now);
    }
};

/**
 * What a bank's verdict chain should hold: the requests whose verdicts
 * the chained pick learned since a request was last taken from the bank,
 * its stamp last moved, or one of those refusals last lapsed. A push
 * appends behind every known request, so it forgets nothing.
 */
struct KnownVerdicts
{
    std::uint64_t takes = 0;        ///< the bank's takes
    std::uint64_t stamp = 0;
    Cycle validUntil = kNoEventCycle;
    std::set<std::uint64_t> ids;
};

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

/**
 * Run the chained pick on `q` at `now` and check it against the walk
 * that just ran: its pick (`walk_pick`, a request id, ~0 for none), its
 * bound and query log, and the refusals each path counted. `known`
 * models the chains and learns the live queries' verdicts.
 */
void
checkChainedPick(FrFcfsScheduler &sched, SchedQueue &q, ReqType type,
                 const DramDevice &dram, Cycle now, StreakCapped capped,
                 ScriptedVerdicts &mitig, const EvalLog &walk_log,
                 std::uint64_t walk_pick, const DemandBound &walk_bound,
                 const RefusalLog &walked, RefusalLog &chained,
                 std::vector<KnownVerdicts> &known,
                 const std::vector<std::uint64_t> &bank_takes,
                 std::uint64_t &omitted, std::uint64_t &settled,
                 unsigned iter)
{
    const std::uint64_t *stamps = mitig.verdictStamps();
    for (unsigned fb = 0; fb < known.size(); ++fb) {
        KnownVerdicts &k = known[fb];
        if (k.takes != bank_takes[fb] || k.stamp != stamps[fb] ||
            now >= k.validUntil)
            k = KnownVerdicts{bank_takes[fb], stamps[fb], kNoEventCycle,
                              {}};
    }
    EvalLog expected;
    for (const auto &query : walk_log)
        if (!known[std::get<0>(query)].ids.count(std::get<2>(query)))
            expected.push_back(query);

    EvalLog live;
    auto filter = [&](const Request &req) {
        live.emplace_back(req.flatBank, req.coord.row, req.addr);
        bool safe = mitig.isActSafe(req.flatBank, req.coord.row, req.thread,
                                    now);
        KnownVerdicts &k = known[req.flatBank];
        k.ids.insert(req.addr);
        if (!safe) {
            chained.refuse(req, now);
            k.validUntil = std::min(
                k.validUntil,
                mitig.refusalLapsesAt(req.flatBank, req.coord.row, now));
        }
        return safe;
    };
    VerdictReplay replay{mitig};
    DemandBound bound;
    std::uint64_t scanned = sched.work().scanned;
    auto pick = sched.pickRowPrep(q, type, dram, now, filter, capped, bound,
                                  replay);
    // A pick that visits no bank of a non-empty queue took the shortcut.
    if (!q.empty() && sched.work().scanned == scanned) {
        ++settled;
        EXPECT_TRUE(live.empty()) << "iter " << iter;
    }
    chained.count += replay.replayed;
    chained.replayed += replay.replayed;
    omitted += walk_log.size() - live.size();

    EXPECT_EQ(pick == SchedQueue::kNone ? ~0ull : q.at(pick).addr, walk_pick)
        << "iter " << iter;
    EXPECT_EQ(bound.timing, walk_bound.timing) << "iter " << iter;
    EXPECT_EQ(bound.verdictBound, walk_bound.verdictBound) << "iter " << iter;
    EXPECT_EQ(live, expected) << "iter " << iter;
    EXPECT_EQ(chained.count, walked.count) << "iter " << iter;
    EXPECT_EQ(chained.first, walked.first) << "iter " << iter;
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
    ScriptedVerdicts mitig(nbanks, seed * 31 + 7);
    Rng stamp_rng(seed ^ 0x57a3b);
    RefusalLog walked, chained;
    std::uint64_t omitted = 0;      ///< walk queries the chains answered
    std::uint64_t settled = 0;      ///< chained picks that walked no bank
    std::vector<KnownVerdicts> known(nbanks);
    std::vector<std::uint64_t> bank_takes(nbanks, 0);

    // One stamped queue, its stampless mirror and their reference copy
    // across all rounds; handles[i] and plain_handles[i] hold ref_q[i].
    constexpr std::size_t kQueueCap = 64;
    std::deque<Request> ref_q;
    std::deque<SchedQueue::Handle> handles, plain_handles;
    SchedQueue new_q(nbanks, mitig.verdictStamps());
    SchedQueue plain_q(nbanks);
    const Mirrors both{&new_q, &plain_q};
    std::uint64_t next_id = 0;
    auto push = [&](Request req) {
        ref_q.push_back(req);
        plain_handles.push_back(plain_q.push(Request(req)));
        handles.push_back(new_q.push(std::move(req)));
        ASSERT_EQ(new_q.size(), ref_q.size());
        ASSERT_TRUE(activeBanksInHeadOrder(new_q, nbanks));
    };
    auto take = [&](SchedQueue::Handle h) {
        auto it = std::find(handles.begin(), handles.end(), h);
        ASSERT_NE(it, handles.end());
        std::size_t i = static_cast<std::size_t>(it - handles.begin());
        ++bank_takes[ref_q[i].flatBank];
        EXPECT_EQ(new_q.take(h).addr, ref_q[i].addr);
        EXPECT_EQ(plain_q.take(plain_handles[i]).addr, ref_q[i].addr);
        ref_q.erase(ref_q.begin() + static_cast<std::ptrdiff_t>(i));
        handles.erase(it);
        plain_handles.erase(plain_handles.begin() +
                            static_cast<std::ptrdiff_t>(i));
        ASSERT_EQ(new_q.size(), ref_q.size());
        ASSERT_TRUE(activeBanksInHeadOrder(new_q, nbanks));
    };

    // Streaks live across rounds: a bank whose cap flips is touched.
    constexpr unsigned kCap = 4;
    std::vector<unsigned> streak(nbanks, 0);
    StreakCapped capped{streak.data(), kCap};

    // A round that changes the device, the requests, their type, the
    // streaks and some verdict stamps.
    auto randomizeRound = [&](unsigned iter, ReqType &type) {
        randomizeDevice(dram, rng, now, 12, both);

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
        type = rng.chance(0.5) ? ReqType::kRead : ReqType::kWrite;
        for (std::size_t i = 0; i < ref_q.size(); ++i) {
            ref_q[i].type = type;
            new_q.at(handles[i]).type = type;
            plain_q.at(plain_handles[i]).type = type;
        }

        // Random per-bank row-hit streaks around the cap (so some banks
        // are capped). Safety verdicts come from the scripted mitigation;
        // some banks' stamps move between rounds, each with the touch of
        // the ACT that moves it, and now and then every stamp moves at
        // once, which drops the chain totals (a housekeeping tick).
        for (unsigned fb = 0; fb < nbanks; ++fb) {
            bool was_capped = capped(fb);
            streak[fb] = static_cast<unsigned>(rng.below(kCap + 2));
            if (capped(fb) != was_capped)
                for (SchedQueue *q : both)
                    q->touch(fb);
        }
        for (unsigned fb = 0; fb < nbanks; ++fb) {
            if (stamp_rng.chance(0.1)) {
                mitig.bump(fb);
                new_q.touch(fb);
            }
        }
        if (stamp_rng.chance(0.05)) {
            mitig.bumpAll();
            new_q.dropChains();
        }
    };

    ReqType type = ReqType::kRead;
    for (unsigned iter = 0; iter < 400; ++iter) {
        // Some rounds are the controller's next tick: only time moves
        // (and the last round's served requests are gone), so the
        // chains from the last pick can settle this one.
        bool next_tick = iter > 0 && rng.chance(0.3);
        if (next_tick)
            ++now;
        else
            ASSERT_NO_FATAL_FAILURE(randomizeRound(iter, type));
        // Every entry that no touch marked stale is current.
        EXPECT_EQ(new_q.firstWrongEvent(dram,
                                        type == ReqType::kRead
                                            ? DramCommand::kRd
                                            : DramCommand::kWr,
                                        capped),
                  -1)
            << "iter " << iter;
        auto verdict = [&](const Request &req) {
            return mitig.isActSafe(req.flatBank, req.coord.row, req.thread,
                                   now);
        };

        // Column picks must select the identical request.
        auto ref_col =
            ReferenceFrFcfs::pickColumnReady(ref_q, dram, now, capped);
        auto new_col = sched.pickColumnReady(new_q, type, dram, now, capped);
        if (ref_col.has_value()) {
            ASSERT_NE(new_col, SchedQueue::kNone) << "iter " << iter;
            EXPECT_EQ(ref_q[*ref_col].addr, new_q.at(new_col).addr)
                << "iter " << iter;
        } else {
            EXPECT_EQ(new_col, SchedQueue::kNone) << "iter " << iter;
        }

        // Row-prep picks must agree — including the exact sequence of
        // safety-filter evaluations (their side effects are modeled).
        EvalLog ref_log, new_log;
        auto ref_filter = [&](const Request &req) {
            ref_log.emplace_back(req.flatBank, req.coord.row, req.addr);
            bool safe = verdict(req);
            if (!safe)
                walked.refuse(req, now);
            return safe;
        };
        auto new_filter = [&](const Request &req) {
            new_log.emplace_back(req.flatBank, req.coord.row, req.addr);
            return verdict(req);
        };
        auto ref_prep = ReferenceFrFcfs::pickRowPrep(ref_q, dram, now,
                                                     ref_filter, capped);
        DemandBound bound;
        VerdictReplay no_replay{mitig};
        auto plain_prep = sched.pickRowPrep(plain_q, type, dram, now,
                                            new_filter, capped, bound,
                                            no_replay);
        EXPECT_EQ(no_replay.replayed, 0u) << "iter " << iter;
        if (ref_prep.has_value()) {
            ASSERT_NE(plain_prep, SchedQueue::kNone) << "iter " << iter;
            EXPECT_EQ(ref_q[*ref_prep].addr, plain_q.at(plain_prep).addr)
                << "iter " << iter;
        } else {
            EXPECT_EQ(plain_prep, SchedQueue::kNone) << "iter " << iter;
        }
        EXPECT_EQ(ref_log, new_log) << "iter " << iter;
        SchedQueue::Handle new_prep = SchedQueue::kNone;
        if (ref_prep.has_value())
            new_prep = handles[*ref_prep];

        // The chained pick: same pick and bound, the walk's queries
        // minus the verdicts the chains hold, and the same refusals.
        ASSERT_NO_FATAL_FAILURE(checkChainedPick(
            sched, new_q, type, dram, now, capped, mitig, ref_log,
            ref_prep ? ref_q[*ref_prep].addr : ~0ull, bound, walked,
            chained, known, bank_takes, omitted, settled, iter));

        // The bound the row-prep walk recorded is the separate walk's,
        // whether or not the mitigation's verdict can flip.
        for (Cycle verdict_at : {kNoEventCycle, now + 1 + iter % 32})
            EXPECT_EQ(bound.at(verdict_at),
                      referenceNextDemandEventAt(new_q, type, dram, now,
                                                 capped, verdict_at))
                << "iter " << iter << " verdict change at " << verdict_at;

        // The event table's row-prep pick takes every ACT as safe: the
        // walk's pick under a filter that passes every request, and the
        // walk's bound, which no verdict moves.
        auto all_safe = [](const Request &) { return true; };
        auto ref_safe = ReferenceFrFcfs::pickRowPrep(ref_q, dram, now,
                                                     all_safe, capped);
        DemandBound table_bound;
        auto table_prep = sched.pickRowPrepAllSafe(new_q, type, dram, now,
                                                   capped, table_bound);
        EXPECT_EQ(table_prep == SchedQueue::kNone ? ~0ull
                                                  : new_q.at(table_prep).addr,
                  ref_safe ? ref_q[*ref_safe].addr : ~0ull)
            << "iter " << iter;
        EXPECT_EQ(table_bound.timing, bound.timing) << "iter " << iter;
        EXPECT_EQ(table_bound.verdictBound, bound.verdictBound)
            << "iter " << iter;

        // The table's bound takes every ACT as safe: the separate walk's
        // when no ACT has been refused (no tick yet), so every ACT-ready
        // time is a timing candidate. The entries live across rounds, in
        // which random commands and REFs change some banks and leave
        // others, and streaks and the queue's type change.
        Cycle table_at = sched.demandEventAt(new_q, type, dram, capped);
        EXPECT_EQ(table_at,
                  referenceNextDemandEventAt(new_q, type, dram, -1, capped,
                                             kNoEventCycle))
            << "iter " << iter;
        for (unsigned fb = 0; fb < nbanks; ++fb)
            EXPECT_EQ(sched.bankEventAt(new_q, type, dram, capped, fb),
                      referenceBankEventAt(ref_q, type, dram, capped, fb))
                << "iter " << iter << " bank " << fb;

        // When nothing picks, the recorded bound must hold: no pick may
        // become possible before it (under frozen verdicts).
        if (!ref_col && !ref_prep) {
            auto silent = [&](const Request &req) { return verdict(req); };
            DemandBound later;
            Cycle horizon = std::min(bound.at(kNoEventCycle), now + 200);
            for (Cycle c = now + 1; c < horizon; ++c) {
                EXPECT_EQ(sched.pickColumnReady(new_q, type, dram, c,
                                                capped),
                          SchedQueue::kNone)
                    << "iter " << iter << " cycle " << c;
                VerdictReplay replay{mitig};
                EXPECT_EQ(sched.pickRowPrep(plain_q, type, dram, c, silent,
                                            capped, later, replay),
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
            // The activation moves its bank's stamp and ends its row's
            // delay episode.
            const Request &req = new_q.at(new_prep);
            mitig.bump(req.flatBank);
            auto k = ScriptedVerdicts::key(req.flatBank, req.coord.row);
            walked.first.erase(k);
            chained.first.erase(k);
            ASSERT_NO_FATAL_FAILURE(take(new_prep));
        }
    }
    // The rounds exercise the chains: cached verdicts stand in for
    // queries, refusals among them, and the totals settle some picks.
    EXPECT_GT(omitted, chained.replayed);
    EXPECT_GT(chained.replayed, 0u);
    EXPECT_GT(settled, 0u);
}

TEST(SchedulerDemandBound, CappedHitYieldsToTheConflictsPrecharge)
{
    // One open bank holding a row hit and a conflict, at a cycle where
    // its column command is already legal and its PRE is not yet. A
    // live hit bounds at the column time; a capped one no longer keeps
    // the row open, so the conflict's PRE time bounds instead.
    DramOrg org;
    DramDevice dram(org, DramTimings::ddr4());
    const DramTimings &t = dram.timings();
    dram.issue(DramCommand::kAct, 0, 7, 0);
    SchedQueue q(dram.numBanks());
    for (RowId row : {7u, 9u}) {
        Request req;
        req.flatBank = 0;
        req.coord.row = row;
        q.push(std::move(req));
    }
    Cycle now = t.tRCD;
    ASSERT_LT(now, t.tRAS);
    FrFcfsScheduler sched(dram.numBanks());
    auto never = [](const Request &) { return false; };
    NullMitigation none;
    for (unsigned streak : {0u, 4u}) {
        StreakCapped capped{&streak, 4};
        q.touch(0);     // the bank's cap flips between the iterations
        DemandBound bound;
        VerdictReplay replay{none};
        EXPECT_EQ(sched.pickRowPrep(q, ReqType::kRead, dram, now, never,
                                    capped, bound, replay),
                  SchedQueue::kNone);
        EXPECT_EQ(bound.at(kNoEventCycle), streak < 4 ? t.tRCD : t.tRAS)
            << "streak " << streak;
        EXPECT_EQ(bound.at(kNoEventCycle),
                  referenceNextDemandEventAt(q, ReqType::kRead, dram, now,
                                             capped, kNoEventCycle));
        // The table follows the touched cap with no bank command between.
        EXPECT_EQ(sched.demandEventAt(q, ReqType::kRead, dram, capped),
                  bound.at(kNoEventCycle))
            << "streak " << streak;
        DemandBound table;
        EXPECT_EQ(sched.pickRowPrepAllSafe(q, ReqType::kRead, dram, now,
                                           capped, table),
                  SchedQueue::kNone);
        EXPECT_EQ(table.at(kNoEventCycle), bound.at(kNoEventCycle))
            << "streak " << streak;
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
