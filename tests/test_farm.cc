/**
 * @file
 * Tests for the bh_farm fault-tolerant sweep coordinator:
 *
 *  - fsio primitives: atomic replace, exclusive create (one winner),
 *    append, quarantine naming;
 *  - FaultPlan parsing, canonicalization, and seeded deterministic
 *    expansion;
 *  - journal append/read round-trip with torn-line tolerance;
 *  - the lease protocol end to end on a FakeFarmClock (zero real
 *    sleeping): claim/commit happy path, two interleaved workers,
 *    every FaultPlan kind recovered from, stale-lease stealing with
 *    capped exponential backoff, poisoning after K failed attempts,
 *    the per-cell wall-clock watchdog, planned double execution
 *    (digest agreement), and coordinator-restart resume — with the
 *    collected cell payloads identical to an undisturbed run in every
 *    scenario; a result edited after commit fails the collect naming
 *    its file.
 */

#include <gtest/gtest.h>

#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/fsio.hh"
#include "farm/farm.hh"
#include "farm/journal.hh"
#include "report/report.hh"

namespace bh
{
namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory per test (wiped on entry, not on exit). */
std::string
scratchDir(const std::string &tag)
{
    std::string dir = testing::TempDir() + "bh_farm_" + tag;
    fs::remove_all(dir);
    return dir;
}

std::string
readAll(const std::string &path)
{
    std::string text, err;
    EXPECT_TRUE(readFile(path, text, err)) << err;
    return text;
}

TEST(Fsio, AtomicWriteReplacesWhole)
{
    std::string dir = scratchDir("fsio");
    fs::create_directories(dir);
    std::string path = dir + "/file.json";
    std::string err;
    ASSERT_TRUE(atomicWriteFile(path, "first", err)) << err;
    EXPECT_EQ(readAll(path), "first");
    ASSERT_TRUE(atomicWriteFile(path, "second, longer content", err));
    EXPECT_EQ(readAll(path), "second, longer content");
    // No temp litter left behind.
    std::size_t entries = 0;
    for (auto it = fs::directory_iterator(dir);
         it != fs::directory_iterator(); ++it)
        ++entries;
    EXPECT_EQ(entries, 1u);
    // Missing parent directory is an error, not a crash.
    EXPECT_FALSE(atomicWriteFile(dir + "/no/such/dir/x", "x", err));
    EXPECT_FALSE(err.empty());
}

TEST(Fsio, CreateExclusiveHasOneWinner)
{
    std::string dir = scratchDir("fsio_excl");
    fs::create_directories(dir);
    std::string path = dir + "/lease.json";
    std::string err1, err2;
    EXPECT_TRUE(createExclusive(path, "winner", err1)) << err1;
    EXPECT_FALSE(createExclusive(path, "loser", err2));
    EXPECT_TRUE(err2.empty()) << "lost race is not an IO error: " << err2;
    EXPECT_EQ(readAll(path), "winner");
}

TEST(Fsio, AppendLineAndQuarantine)
{
    std::string dir = scratchDir("fsio_append");
    fs::create_directories(dir);
    std::string path = dir + "/log.jsonl";
    std::string err;
    ASSERT_TRUE(appendLine(path, "one", err)) << err;
    ASSERT_TRUE(appendLine(path, "two", err)) << err;
    EXPECT_EQ(readAll(path), "one\ntwo\n");

    std::string bad = dir + "/bad.json";
    ASSERT_TRUE(atomicWriteFile(bad, "{torn", err));
    std::string moved = quarantineCorrupt(bad);
    EXPECT_EQ(moved, bad + ".corrupt");
    EXPECT_FALSE(fs::exists(bad));
    EXPECT_EQ(readAll(moved), "{torn");
    // Second quarantine of the same name picks the next free suffix.
    ASSERT_TRUE(atomicWriteFile(bad, "{torn again", err));
    EXPECT_EQ(quarantineCorrupt(bad), bad + ".corrupt2");
    // A vanished file cannot be quarantined: empty result, no throw.
    EXPECT_TRUE(quarantineCorrupt(dir + "/never_existed").empty());
}

TEST(FaultPlan, ParseAndCanonicalize)
{
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(FaultPlan::parse("corrupt@5,kill@3,kill@3,stale@0", 10,
                                 plan, err)) << err;
    EXPECT_EQ(plan.serialize(), "stale@0,kill@3,corrupt@5");
    EXPECT_TRUE(plan.armed(FaultKind::kKillMidCell, 3));
    EXPECT_FALSE(plan.armed(FaultKind::kKillMidCell, 5));

    EXPECT_TRUE(FaultPlan::parse("", 10, plan, err));
    EXPECT_TRUE(plan.empty());

    EXPECT_FALSE(FaultPlan::parse("explode@1", 10, plan, err));
    EXPECT_NE(err.find("unknown fault kind"), std::string::npos);
    EXPECT_FALSE(FaultPlan::parse("kill@12", 10, plan, err));
    EXPECT_NE(err.find("outside"), std::string::npos);
    EXPECT_FALSE(FaultPlan::parse("kill", 10, plan, err));
}

TEST(FaultPlan, SeededRandomExpansionIsDeterministic)
{
    FaultPlan a, b, c;
    std::string err;
    ASSERT_TRUE(FaultPlan::parse("random:42:8", 20, a, err)) << err;
    ASSERT_TRUE(FaultPlan::parse("random:42:8", 20, b, err));
    ASSERT_TRUE(FaultPlan::parse("random:43:8", 20, c, err));
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a.serialize(), b.serialize());
    EXPECT_NE(a.serialize(), c.serialize());
    for (const auto &f : a.faults)
        EXPECT_LT(f.cell, 20u);
    EXPECT_FALSE(FaultPlan::parse("random:1:0", 20, a, err));
    EXPECT_FALSE(FaultPlan::parse("random:1:4", 0, a, err));
}

TEST(FaultPlan, ConsumeFiresExactlyOnce)
{
    std::string dir = scratchDir("faults");
    fs::create_directories(dir);
    EXPECT_TRUE(consumeFault(dir, FaultKind::kKillMidCell, 3));
    EXPECT_FALSE(consumeFault(dir, FaultKind::kKillMidCell, 3));
    EXPECT_TRUE(consumeFault(dir, FaultKind::kTruncateWrite, 3));
    EXPECT_TRUE(consumeFault(dir, FaultKind::kKillMidCell, 4));
}

TEST(Journal, RoundTripSkipsTornLines)
{
    std::string dir = scratchDir("journal");
    fs::create_directories(dir);
    std::string path = dir + "/journal.jsonl";
    JournalEvent ev;
    ev.unixTime = 123.5;
    ev.event = "claim";
    ev.cell = 7;
    ev.worker = "w0";
    ev.attempt = 2;
    ev.detail = "detail text";
    journalAppend(path, ev);
    ev.event = "done";
    ev.attempt = 0;
    ev.detail.clear();
    journalAppend(path, ev);
    // A killed writer's torn last line must not poison the reader.
    std::string err;
    ASSERT_TRUE(appendLine(path, "{\"t\": 124.0, \"ev\": \"trunc", err));

    std::size_t skipped = 0;
    auto events = journalRead(path, &skipped);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(skipped, 1u);
    EXPECT_EQ(events[0].event, "claim");
    EXPECT_EQ(events[0].cell, 7u);
    EXPECT_EQ(events[0].worker, "w0");
    EXPECT_EQ(events[0].attempt, 2u);
    EXPECT_EQ(events[0].detail, "detail text");
    EXPECT_EQ(events[1].event, "done");
    EXPECT_EQ(events[1].attempt, 0u);

    EXPECT_TRUE(journalRead(dir + "/missing.jsonl").empty());
}

// ---------------------------------------------------------------------
// Farm protocol tests. All on a FakeFarmClock; the runner is synthetic
// (deterministic payload per cell) so the suite stays fast and the
// "collected payloads identical to an undisturbed run" assertion is
// exact.

constexpr std::uint64_t kGridCells = 5;

FarmSpec
testSpec()
{
    FarmSpec spec;
    spec.experiment = "synthetic";
    spec.fingerprint = "f00ff00ff00ff00f";
    spec.cellTotal = kGridCells;
    spec.policy.maxAttempts = 3;
    spec.policy.cellBudgetS = 100.0;
    spec.policy.staleAfterS = 10.0;
    spec.policy.backoffBaseS = 0.5;
    spec.policy.backoffCapS = 4.0;
    spec.policy.watchdogSliceS = 0.001;
    return spec;
}

Json
cellPayload(std::uint64_t cell)
{
    Json payload = Json::object();
    payload["cell"] = cell;
    payload["value"] = static_cast<std::int64_t>(cell * cell + 7);
    return payload;
}

std::function<Json(std::uint64_t)>
goodRunner()
{
    return [](std::uint64_t cell) { return cellPayload(cell); };
}

/** The payloads an undisturbed farm of the test grid collects. */
Json
expectedCells()
{
    Json cells = Json::object();
    for (std::uint64_t c = 0; c < kGridCells; ++c)
        cells[std::to_string(c)] = cellPayload(c);
    return cells;
}

/**
 * Drive `farm` with one worker until it completes or `max_steps` picks
 * elapse, advancing the fake clock past any backoff/stale wait. Returns
 * the number of cells this worker committed.
 */
unsigned
driveToCompletion(Farm &farm, FakeFarmClock &clock,
                  const std::string &worker, const FaultPlan &faults,
                  const std::function<Json(std::uint64_t)> &runner,
                  unsigned max_steps = 200)
{
    unsigned committed = 0;
    for (unsigned step = 0; step < max_steps; ++step) {
        Farm::Claim claim;
        double hint = 0.0;
        Farm::Pick pick = farm.pickWork(worker, faults, claim, &hint);
        if (pick == Farm::Pick::kComplete)
            return committed;
        if (pick == Farm::Pick::kStuck)
            ADD_FAILURE() << "farm stuck (poisoned cells)";
        if (pick == Farm::Pick::kWait) {
            clock.advance(hint + 0.01);
            continue;
        }
        std::string detail;
        Farm::RunOutcome outcome =
            farm.runClaim(worker, claim, runner, faults, detail);
        if (outcome == Farm::RunOutcome::kCommitted ||
            outcome == Farm::RunOutcome::kVerifyOk)
            ++committed;
        if (outcome == Farm::RunOutcome::kKilled) {
            // Simulated SIGKILL: this "process" stops touching the farm
            // for a while; the lease it left is reaped via staleness.
            clock.advance(farm.spec().policy.cellBudgetS +
                          farm.spec().policy.staleAfterS + 1.0);
        }
    }
    ADD_FAILURE() << "farm did not complete in " << max_steps << " steps";
    return committed;
}

Json
collectedCells(Farm &farm)
{
    Json cells;
    std::string err;
    EXPECT_TRUE(farm.collectCells(cells, err)) << err;
    return cells;
}

TEST(Farm, InitOpenAndReinit)
{
    std::string dir = scratchDir("init");
    FakeFarmClock clock;
    std::string err;
    ASSERT_TRUE(Farm::init(dir, testSpec(), clock, err)) << err;
    EXPECT_TRUE(fs::is_directory(FarmPaths(dir).leaseDir()));

    // Idempotent re-init of the identical grid.
    EXPECT_TRUE(Farm::init(dir, testSpec(), clock, err)) << err;

    // A different grid must be refused, not silently mixed in.
    FarmSpec other = testSpec();
    other.fingerprint = "deadbeefdeadbeef";
    EXPECT_FALSE(Farm::init(dir, other, clock, err));
    EXPECT_NE(err.find("different farm"), std::string::npos);

    Farm farm;
    ASSERT_TRUE(Farm::open(dir, clock, farm, err)) << err;
    EXPECT_EQ(farm.spec().fingerprint, testSpec().fingerprint);
    EXPECT_EQ(farm.spec().cellTotal, kGridCells);
    EXPECT_EQ(farm.spec().policy.maxAttempts, 3u);

    Farm missing;
    EXPECT_FALSE(Farm::open(scratchDir("init_missing"), clock, missing,
                            err));
}

TEST(Farm, SingleWorkerHappyPath)
{
    std::string dir = scratchDir("happy");
    FakeFarmClock clock;
    std::string err;
    ASSERT_TRUE(Farm::init(dir, testSpec(), clock, err)) << err;
    Farm farm;
    ASSERT_TRUE(Farm::open(dir, clock, farm, err)) << err;

    EXPECT_EQ(driveToCompletion(farm, clock, "w0", FaultPlan(),
                                goodRunner()), kGridCells);
    EXPECT_EQ(collectedCells(farm).dump(), expectedCells().dump());

    FarmStatus st = farm.status();
    EXPECT_TRUE(st.complete);
    EXPECT_EQ(st.doneCells, kGridCells);
    EXPECT_EQ(st.activeLeases, 0u);
    EXPECT_TRUE(st.poisoned.empty());

    // The journal recorded one claim and one commit per cell.
    unsigned claims = 0, dones = 0;
    for (const auto &ev : journalRead(FarmPaths(dir).journalFile())) {
        claims += ev.event == "claim";
        dones += ev.event == "done";
    }
    EXPECT_EQ(claims, kGridCells);
    EXPECT_EQ(dones, kGridCells);
}

TEST(Farm, DoneRecordEditedAfterCommitFailsCollectNamingTheFile)
{
    std::string dir = scratchDir("edited");
    FakeFarmClock clock;
    std::string err;
    ASSERT_TRUE(Farm::init(dir, testSpec(), clock, err)) << err;
    Farm farm;
    ASSERT_TRUE(Farm::open(dir, clock, farm, err)) << err;
    driveToCompletion(farm, clock, "w0", FaultPlan(), goodRunner());

    // Hand-edit cell 2's payload after commit, leaving its digest as is.
    const std::string done = FarmPaths(dir).doneFile(2);
    Json rec;
    ASSERT_TRUE(Json::parse(readAll(done), rec));
    rec["payload"]["value"] = 99;
    ASSERT_TRUE(atomicWriteFile(done, rec.dump(2) + "\n", err)) << err;

    Json cells;
    EXPECT_FALSE(farm.collectCells(cells, err));
    EXPECT_NE(err.find(done), std::string::npos) << err;
    EXPECT_NE(err.find("digest"), std::string::npos) << err;
}

TEST(Farm, TwoWorkersSplitTheGridWithoutOverlap)
{
    std::string dir = scratchDir("two_workers");
    FakeFarmClock clock;
    std::string err;
    ASSERT_TRUE(Farm::init(dir, testSpec(), clock, err)) << err;
    Farm a, b;
    ASSERT_TRUE(Farm::open(dir, clock, a, err)) << err;
    ASSERT_TRUE(Farm::open(dir, clock, b, err)) << err;

    // Interleave picks: each claim is exclusive, so the committed-cell
    // counts partition the grid exactly.
    unsigned committed_a = 0, committed_b = 0;
    auto stepWorker = [](Farm &farm, const char *name,
                         unsigned &committed) {
        Farm::Claim claim;
        if (farm.pickWork(name, FaultPlan(), claim) !=
            Farm::Pick::kClaimed)
            return false;
        std::string detail;
        if (farm.runClaim(name, claim, goodRunner(), FaultPlan(),
                          detail) == Farm::RunOutcome::kCommitted)
            ++committed;
        return true;
    };
    for (unsigned step = 0; step < 50; ++step) {
        bool progressed = stepWorker(a, "wa", committed_a);
        progressed = stepWorker(b, "wb", committed_b) || progressed;
        if (!progressed)
            break;
    }
    EXPECT_EQ(committed_a + committed_b, kGridCells);
    EXPECT_EQ(collectedCells(a).dump(), expectedCells().dump());
}

TEST(Farm, KillFaultRecoversThroughStaleLease)
{
    std::string dir = scratchDir("fault_kill");
    FakeFarmClock clock;
    std::string err;
    ASSERT_TRUE(Farm::init(dir, testSpec(), clock, err)) << err;
    Farm farm;
    ASSERT_TRUE(Farm::open(dir, clock, farm, err)) << err;
    FaultPlan faults;
    ASSERT_TRUE(FaultPlan::parse("kill@2", kGridCells, faults, err));

    driveToCompletion(farm, clock, "w0", faults, goodRunner());
    EXPECT_EQ(collectedCells(farm).dump(), expectedCells().dump());

    // The kill left a lease that had to be stolen: the journal shows
    // the fault, the steal, and the successful second attempt.
    bool stole = false, second_attempt = false;
    for (const auto &ev : journalRead(FarmPaths(dir).journalFile())) {
        stole |= ev.event == "steal" && ev.cell == 2;
        second_attempt |= ev.event == "done" && ev.cell == 2 &&
            ev.attempt == 2;
    }
    EXPECT_TRUE(stole);
    EXPECT_TRUE(second_attempt);
}

TEST(Farm, TruncateAndCorruptFaultsAreQuarantinedAndRerun)
{
    for (const char *spec_text : {"truncate@1", "corrupt@3"}) {
        std::string dir = scratchDir(std::string("fault_") +
                                     (spec_text[0] == 't' ? "trunc"
                                                          : "corr"));
        FakeFarmClock clock;
        std::string err;
        ASSERT_TRUE(Farm::init(dir, testSpec(), clock, err)) << err;
        Farm farm;
        ASSERT_TRUE(Farm::open(dir, clock, farm, err)) << err;
        FaultPlan faults;
        ASSERT_TRUE(FaultPlan::parse(spec_text, kGridCells, faults, err));

        driveToCompletion(farm, clock, "w0", faults, goodRunner());
        EXPECT_EQ(collectedCells(farm).dump(), expectedCells().dump())
            << spec_text;

        // The mangled result was quarantined aside, not deleted.
        std::uint64_t cell = spec_text[0] == 't' ? 1 : 3;
        EXPECT_TRUE(fs::exists(FarmPaths(dir).doneFile(cell) + ".corrupt"))
            << spec_text;
        bool journaled = false;
        for (const auto &ev : journalRead(FarmPaths(dir).journalFile()))
            journaled |= ev.event == "corrupt" && ev.cell == cell;
        EXPECT_TRUE(journaled) << spec_text;
    }
}

TEST(Farm, StaleLeaseFaultIsReapedAfterTimeout)
{
    std::string dir = scratchDir("fault_stale");
    FakeFarmClock clock;
    std::string err;
    ASSERT_TRUE(Farm::init(dir, testSpec(), clock, err)) << err;
    Farm farm;
    ASSERT_TRUE(Farm::open(dir, clock, farm, err)) << err;
    FaultPlan faults;
    ASSERT_TRUE(FaultPlan::parse("stale@0", kGridCells, faults, err));

    driveToCompletion(farm, clock, "w0", faults, goodRunner());
    EXPECT_EQ(collectedCells(farm).dump(), expectedCells().dump());
    bool abandoned = false, stolen = false;
    for (const auto &ev : journalRead(FarmPaths(dir).journalFile())) {
        abandoned |= ev.event == "fault-stale" && ev.cell == 0;
        stolen |= ev.event == "steal" && ev.cell == 0;
    }
    EXPECT_TRUE(abandoned);
    EXPECT_TRUE(stolen);
}

TEST(Farm, DoubleClaimRaceEndsInDigestAgreement)
{
    std::string dir = scratchDir("fault_dup");
    FakeFarmClock clock;
    std::string err;
    ASSERT_TRUE(Farm::init(dir, testSpec(), clock, err)) << err;
    Farm legit, racer;
    ASSERT_TRUE(Farm::open(dir, clock, legit, err)) << err;
    ASSERT_TRUE(Farm::open(dir, clock, racer, err)) << err;

    // The legitimate worker claims cell 0 first.
    Farm::Claim legit_claim;
    ASSERT_EQ(legit.pickWork("legit", FaultPlan(), legit_claim),
              Farm::Pick::kClaimed);
    ASSERT_EQ(legit_claim.cell, 0u);

    // The racer's dup fault hands it the same cell without a lease.
    FaultPlan faults;
    ASSERT_TRUE(FaultPlan::parse("dup@0", kGridCells, faults, err));
    Farm::Claim ghost;
    ASSERT_EQ(racer.pickWork("racer", faults, ghost),
              Farm::Pick::kClaimed);
    EXPECT_EQ(ghost.cell, 0u);
    EXPECT_TRUE(ghost.ghost);

    // Racer commits first; the legitimate commit detects the duplicate
    // and the digests agree — no flag, no rerun, lease released.
    std::string detail;
    EXPECT_EQ(racer.runClaim("racer", ghost, goodRunner(), faults,
                             detail),
              Farm::RunOutcome::kCommitted);
    EXPECT_EQ(legit.runClaim("legit", legit_claim, goodRunner(),
                             FaultPlan(), detail),
              Farm::RunOutcome::kDupAgree);
    EXPECT_FALSE(fs::exists(FarmPaths(dir).leaseFile(0, false)));

    driveToCompletion(legit, clock, "legit", FaultPlan(), goodRunner());
    EXPECT_EQ(collectedCells(legit).dump(), expectedCells().dump());
}

TEST(Farm, DuplicateCommitWithDifferentBytesResetsTheCell)
{
    std::string dir = scratchDir("dup_mismatch");
    FakeFarmClock clock;
    std::string err;
    ASSERT_TRUE(Farm::init(dir, testSpec(), clock, err)) << err;
    Farm legit, racer;
    ASSERT_TRUE(Farm::open(dir, clock, legit, err)) << err;
    ASSERT_TRUE(Farm::open(dir, clock, racer, err)) << err;

    Farm::Claim legit_claim;
    ASSERT_EQ(legit.pickWork("legit", FaultPlan(), legit_claim),
              Farm::Pick::kClaimed);
    FaultPlan faults;
    ASSERT_TRUE(FaultPlan::parse("dup@0", kGridCells, faults, err));
    Farm::Claim ghost;
    ASSERT_EQ(racer.pickWork("racer", faults, ghost),
              Farm::Pick::kClaimed);

    // The racer is a nondeterministic machine: its payload differs.
    auto bad_runner = [](std::uint64_t cell) {
        Json payload = cellPayload(cell);
        payload["value"] = static_cast<std::int64_t>(999);
        return payload;
    };
    std::string detail;
    EXPECT_EQ(racer.runClaim("racer", ghost, bad_runner, faults, detail),
              Farm::RunOutcome::kCommitted);
    EXPECT_EQ(legit.runClaim("legit", legit_claim, goodRunner(),
                             FaultPlan(), detail),
              Farm::RunOutcome::kDupMismatch);
    EXPECT_NE(detail.find("disagreement"), std::string::npos);
    EXPECT_TRUE(fs::exists(FarmPaths(dir).doneFile(0) + ".corrupt"));

    // The cell reruns (after backoff) and the farm still converges on
    // the correct bytes.
    driveToCompletion(legit, clock, "legit", FaultPlan(), goodRunner());
    EXPECT_EQ(collectedCells(legit).dump(), expectedCells().dump());
}

TEST(Farm, BackoffIsExponentialAndCapped)
{
    std::string dir = scratchDir("backoff");
    FakeFarmClock clock;
    FarmSpec spec = testSpec();
    spec.policy.maxAttempts = 10;
    std::string err;
    ASSERT_TRUE(Farm::init(dir, spec, clock, err)) << err;
    Farm farm;
    ASSERT_TRUE(Farm::open(dir, clock, farm, err)) << err;

    auto failing = [](std::uint64_t) -> Json {
        throw std::runtime_error("injected failure");
    };
    // base 0.5, cap 4: expected backoffs 0.5, 1, 2, 4, 4, ...
    const double expected[] = {0.5, 1.0, 2.0, 4.0, 4.0};
    for (unsigned attempt = 0; attempt < 5; ++attempt) {
        Farm::Claim claim;
        double hint = 0.0;
        // Claim specifically cell 0 by failing it repeatedly: cell 0 is
        // always the lowest claimable index once its backoff expires.
        Farm::Pick pick = farm.pickWork("w0", FaultPlan(), claim, &hint);
        ASSERT_EQ(pick, Farm::Pick::kClaimed);
        std::string detail;
        if (claim.cell != 0) {
            // Other cells complete normally; only cell 0 fails.
            farm.runClaim("w0", claim, goodRunner(), FaultPlan(), detail);
            continue;
        }
        double before = clock.nowUnix();
        EXPECT_EQ(farm.runClaim("w0", claim, failing, FaultPlan(), detail),
                  Farm::RunOutcome::kFailed);
        EXPECT_NE(detail.find("injected failure"), std::string::npos);

        // The recorded deadline follows base * 2^(n-1), capped.
        Json fail_doc;
        std::string text;
        ASSERT_TRUE(readFile(FarmPaths(dir).failFile(0), text, err));
        ASSERT_TRUE(Json::parse(text, fail_doc));
        EXPECT_EQ(static_cast<unsigned>(
                      fail_doc.find("attempts")->asInt()),
                  attempt + 1);
        EXPECT_NEAR(fail_doc.find("next_retry_unix")->asDouble(),
                    before + expected[attempt], 1e-9);

        // Until the deadline, the cell is not claimable again.
        while (farm.pickWork("w0", FaultPlan(), claim, &hint) ==
               Farm::Pick::kClaimed) {
            farm.runClaim("w0", claim, goodRunner(), FaultPlan(), detail);
        }
        clock.advance(expected[attempt] + 0.01);
    }
}

TEST(Farm, PoisonAfterMaxAttemptsAndStuckReporting)
{
    std::string dir = scratchDir("poison");
    FakeFarmClock clock;
    std::string err;
    ASSERT_TRUE(Farm::init(dir, testSpec(), clock, err)) << err;
    Farm farm;
    ASSERT_TRUE(Farm::open(dir, clock, farm, err)) << err;

    auto runner = [](std::uint64_t cell) -> Json {
        if (cell == 3)
            throw std::runtime_error("cell 3 is cursed");
        return cellPayload(cell);
    };

    // Drive until nothing is claimable anymore; cell 3 burns through
    // its 3 attempts, everything else completes.
    for (unsigned step = 0; step < 100; ++step) {
        Farm::Claim claim;
        double hint = 0.0;
        Farm::Pick pick = farm.pickWork("w0", FaultPlan(), claim, &hint);
        if (pick == Farm::Pick::kStuck)
            break;
        ASSERT_NE(pick, Farm::Pick::kComplete)
            << "farm must not report completion with a poisoned cell";
        if (pick == Farm::Pick::kWait) {
            clock.advance(hint + 0.01);
            continue;
        }
        std::string detail;
        farm.runClaim("w0", claim, runner, FaultPlan(), detail);
    }

    EXPECT_TRUE(fs::exists(FarmPaths(dir).poisonFile(3)));
    FarmStatus st = farm.status();
    EXPECT_FALSE(st.complete);
    ASSERT_EQ(st.poisoned.size(), 1u);
    EXPECT_EQ(st.poisoned[0], 3u);
    EXPECT_EQ(st.doneCells, kGridCells - 1);

    // The poison record keeps the attempt history.
    std::string text;
    ASSERT_TRUE(readFile(FarmPaths(dir).poisonFile(3), text, err));
    Json doc;
    ASSERT_TRUE(Json::parse(text, doc));
    EXPECT_EQ(doc.find("attempts")->asInt(), 3);
    EXPECT_EQ(doc.find("reasons")->size(), 3u);

    // collectCells refuses and names the poisoned cell.
    Json cells;
    EXPECT_FALSE(farm.collectCells(cells, err));
    EXPECT_NE(err.find("poisoned: 3"), std::string::npos);
}

TEST(Farm, WatchdogFailsACellOverItsWallClockBudget)
{
    std::string dir = scratchDir("watchdog");
    FakeFarmClock clock;
    FarmSpec spec = testSpec();
    spec.policy.cellBudgetS = 5.0;
    std::string err;
    ASSERT_TRUE(Farm::init(dir, spec, clock, err)) << err;
    Farm farm;
    ASSERT_TRUE(Farm::open(dir, clock, farm, err)) << err;

    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    // The hung cell advances fake time past the budget, then blocks
    // until the test releases it (after the watchdog fired).
    auto hung = [&](std::uint64_t cell) -> Json {
        if (cell == 1) {
            clock.advance(6.0);
            std::unique_lock<std::mutex> lock(m);
            cv.wait(lock, [&] { return release; });
        }
        return cellPayload(cell);
    };

    Farm::Claim claim;
    for (;;) {
        ASSERT_EQ(farm.pickWork("w0", FaultPlan(), claim),
                  Farm::Pick::kClaimed);
        if (claim.cell == 1)
            break;
        std::string detail;
        farm.runClaim("w0", claim, goodRunner(), FaultPlan(), detail);
    }
    std::string detail;
    EXPECT_EQ(farm.runClaim("w0", claim, hung, FaultPlan(), detail),
              Farm::RunOutcome::kWatchdog);
    EXPECT_NE(detail.find("watchdog"), std::string::npos);
    EXPECT_TRUE(fs::exists(FarmPaths(dir).failFile(1)));

    // Unblock and join the stray runner thread (the CLI would _Exit
    // instead); then the cell retries and the farm completes.
    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    ASSERT_TRUE(farm.strayThread().joinable());
    farm.strayThread().join();

    driveToCompletion(farm, clock, "w0", FaultPlan(), goodRunner());
    EXPECT_EQ(collectedCells(farm).dump(), expectedCells().dump());
}

TEST(Farm, PlannedDoubleExecutionVerifiesDigests)
{
    std::string dir = scratchDir("verify");
    FakeFarmClock clock;
    FarmSpec spec = testSpec();
    spec.policy.verifyEvery = 1;    // verify every cell
    std::string err;
    ASSERT_TRUE(Farm::init(dir, spec, clock, err)) << err;
    Farm farm;
    ASSERT_TRUE(Farm::open(dir, clock, farm, err)) << err;

    for (std::uint64_t c = 0; c < kGridCells; ++c)
        EXPECT_TRUE(farm.verifySelected(c));

    driveToCompletion(farm, clock, "w0", FaultPlan(), goodRunner());
    FarmStatus st = farm.status();
    EXPECT_TRUE(st.complete);
    EXPECT_EQ(st.verifiedCells, kGridCells);
    EXPECT_EQ(collectedCells(farm).dump(), expectedCells().dump());

    unsigned verify_ok = 0;
    for (const auto &ev : journalRead(FarmPaths(dir).journalFile()))
        verify_ok += ev.event == "verify-ok";
    EXPECT_EQ(verify_ok, kGridCells);
}

TEST(Farm, VerifyMismatchQuarantinesAndReruns)
{
    std::string dir = scratchDir("verify_mismatch");
    FakeFarmClock clock;
    FarmSpec spec = testSpec();
    spec.policy.verifyEvery = 1;
    std::string err;
    ASSERT_TRUE(Farm::init(dir, spec, clock, err)) << err;
    Farm farm;
    ASSERT_TRUE(Farm::open(dir, clock, farm, err)) << err;

    // First execution of cell 2 returns wrong (but internally
    // consistent) bytes — a silently corrupting host. The committed
    // record passes the digest check; only re-execution can catch it.
    bool first = true;
    auto flaky = [&](std::uint64_t cell) -> Json {
        if (cell == 2 && first) {
            first = false;
            Json payload = cellPayload(cell);
            payload["value"] = static_cast<std::int64_t>(-1);
            return payload;
        }
        return cellPayload(cell);
    };

    driveToCompletion(farm, clock, "w0", FaultPlan(), flaky);
    EXPECT_EQ(collectedCells(farm).dump(), expectedCells().dump());

    bool mismatch = false;
    for (const auto &ev : journalRead(FarmPaths(dir).journalFile()))
        mismatch |= ev.event == "verify-mismatch" && ev.cell == 2;
    EXPECT_TRUE(mismatch);
    EXPECT_TRUE(fs::exists(FarmPaths(dir).doneFile(2) + ".corrupt"));
}

TEST(Farm, CoordinatorRestartResumesFromDisk)
{
    std::string dir = scratchDir("restart");
    FakeFarmClock clock;
    std::string err;
    ASSERT_TRUE(Farm::init(dir, testSpec(), clock, err)) << err;

    // First "process": commit two cells, then vanish (object dropped,
    // one lease left claimed-but-unrun).
    {
        Farm farm;
        ASSERT_TRUE(Farm::open(dir, clock, farm, err)) << err;
        for (int i = 0; i < 2; ++i) {
            Farm::Claim claim;
            ASSERT_EQ(farm.pickWork("w_dead", FaultPlan(), claim),
                      Farm::Pick::kClaimed);
            std::string detail;
            ASSERT_EQ(farm.runClaim("w_dead", claim, goodRunner(),
                                    FaultPlan(), detail),
                      Farm::RunOutcome::kCommitted);
        }
        Farm::Claim abandoned;
        ASSERT_EQ(farm.pickWork("w_dead", FaultPlan(), abandoned),
                  Farm::Pick::kClaimed);
        // ... SIGKILL here: the lease file stays behind.
    }

    // Restarted coordinator: same directory, fresh handle. The dead
    // worker's lease is reaped once stale, and the grid completes.
    Farm farm;
    ASSERT_TRUE(Farm::open(dir, clock, farm, err)) << err;
    FarmStatus st = farm.status("w_new");
    EXPECT_EQ(st.doneCells, 2u);
    EXPECT_FALSE(st.complete);

    clock.advance(testSpec().policy.staleAfterS + 1.0);
    driveToCompletion(farm, clock, "w_new", FaultPlan(), goodRunner());
    EXPECT_EQ(collectedCells(farm).dump(), expectedCells().dump());
}

TEST(Farm, RandomFaultPlanStillConvergesByteIdentical)
{
    // The headline robustness property, fuzz-style: a seeded random
    // fault plan (several kinds, deterministic from the seed) must not
    // change the collected payloads by a single byte.
    for (unsigned seed : {7u, 11u}) {
        std::string dir = scratchDir("random_" + std::to_string(seed));
        FakeFarmClock clock;
        std::string err;
        ASSERT_TRUE(Farm::init(dir, testSpec(), clock, err)) << err;
        Farm farm;
        ASSERT_TRUE(Farm::open(dir, clock, farm, err)) << err;
        FaultPlan faults;
        ASSERT_TRUE(FaultPlan::parse("random:" + std::to_string(seed) +
                                         ":6",
                                     kGridCells, faults, err)) << err;

        driveToCompletion(farm, clock, "w0", faults, goodRunner(), 400);
        EXPECT_EQ(collectedCells(farm).dump(), expectedCells().dump())
            << "seed " << seed << " plan " << faults.serialize();
    }
}

TEST(Farm, StatusCountsLeasesBackoffAndPending)
{
    std::string dir = scratchDir("status");
    FakeFarmClock clock;
    std::string err;
    ASSERT_TRUE(Farm::init(dir, testSpec(), clock, err)) << err;
    Farm farm;
    ASSERT_TRUE(Farm::open(dir, clock, farm, err)) << err;

    // One committed, one actively leased, one failed-and-backing-off.
    Farm::Claim claim;
    ASSERT_EQ(farm.pickWork("w0", FaultPlan(), claim),
              Farm::Pick::kClaimed);
    std::string detail;
    farm.runClaim("w0", claim, goodRunner(), FaultPlan(), detail);
    ASSERT_EQ(farm.pickWork("w0", FaultPlan(), claim),
              Farm::Pick::kClaimed);
    farm.heartbeat("w0");   // keep the open lease fresh
    Farm other;
    ASSERT_TRUE(Farm::open(dir, clock, other, err)) << err;
    Farm::Claim failing_claim;
    ASSERT_EQ(other.pickWork("w1", FaultPlan(), failing_claim),
              Farm::Pick::kClaimed);
    auto failing = [](std::uint64_t) -> Json {
        throw std::runtime_error("fail");
    };
    other.runClaim("w1", failing_claim, failing, FaultPlan(), detail);

    FarmStatus st = farm.status();
    EXPECT_EQ(st.cellTotal, kGridCells);
    EXPECT_EQ(st.doneCells, 1u);
    EXPECT_EQ(st.activeLeases, 1u);
    EXPECT_EQ(st.backoffCells, 1u);
    EXPECT_EQ(st.pendingCells, kGridCells - 3);
    EXPECT_FALSE(st.complete);
}

} // namespace
} // namespace bh
