/**
 * @file
 * Event-skipping equivalence and large-organization regression tests.
 *
 * Event skipping must be bit-compatible with cycle-by-cycle simulation
 * for every registered mechanism: every RunResult field of a skipping
 * run equals the reference run, and SkipMode::kVerify (cycle-by-cycle
 * execution that asserts every skip claim) must complete without
 * tripping. Hand-built systems check each wake rule of sleeping cores
 * the same way. The scheduler must also handle organizations with more
 * than 64 flat banks, which used to hit a stack-array panic.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <tuple>

#include "common/rng.hh"
#include "experiment_helpers.hh"
#include "workloads/attack_patterns.hh"
#include "workloads/fuzz_patterns.hh"

namespace bh
{
namespace
{

/**
 * Skip equivalence for every registered mechanism, at one and two
 * channels, with the security oracle on: event skipping and kVerify
 * must reproduce the cycle-by-cycle RunResult exactly. A short window makes every run cross
 * the mechanisms' time-driven boundaries: tREFW table resets (ABACuS,
 * CBT, DAPPER, Graphene), tREFW/2 throttler epochs (BlockHammer,
 * BreakHammer) and tREFI drains (DAPPER). A newly registered mechanism
 * joins this grid with no extra work.
 */
class SkipEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{
};

TEST_P(SkipEquivalence, EventSkipAndVerifyMatchCycleByCycle)
{
    const auto &[mechanism, channels] = GetParam();
    ExperimentConfig cfg = shortConfig(mechanism, channels);
    cfg.securityOracle = true;
    // tREFW = 128k cycles: one reset and three epoch swaps per run. With
    // N_RH = 256 both throttlers change a quota at some swap while the
    // system is otherwise idle.
    cfg.nRH = 256;
    cfg.refwMs = 0.04;
    Cycle half_window = cfg.timings().tREFW / 2;
    ASSERT_GE(cfg.warmupCycles + cfg.runCycles, 3 * half_window);

    cfg.skip = SkipMode::kCycleByCycle;
    RunResult ref = runExperiment(cfg, attackMix());

    cfg.skip = SkipMode::kEventSkip;
    RunResult skipping = runExperiment(cfg, attackMix());
    expectEqualResults(ref, skipping);

    // kVerify panics (aborting the test) on any wrong skip claim.
    cfg.skip = SkipMode::kVerify;
    RunResult verified = runExperiment(cfg, attackMix());
    expectEqualResults(ref, verified);
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, SkipEquivalence,
    ::testing::Combine(::testing::ValuesIn(mitigationNames()),
                       ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<SkipEquivalence::ParamType> &info) {
        std::string name = std::get<0>(info.param);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name + "_" + std::to_string(std::get<1>(info.param)) + "ch";
    });

/**
 * Forwards every hook to a built mechanism but keeps the default
 * capabilities (queries observable, no verdict stamps), so the
 * controller keeps the path that executes every tick a window does not
 * cover and asks every query the walk makes.
 */
class Forwarding : public Mitigation
{
  public:
    explicit Forwarding(std::unique_ptr<Mitigation> wrapped)
        : inner(std::move(wrapped))
    {
    }

    std::string name() const override { return inner->name(); }

    bool
    isActSafe(unsigned bank, RowId row, ThreadId thread, Cycle now) override
    {
        return inner->isActSafe(bank, row, thread, now);
    }

    void
    onActivate(unsigned bank, RowId row, ThreadId thread, Cycle now) override
    {
        inner->onActivate(bank, row, thread, now);
    }

    void
    onAutoRefresh(RowId first_row, unsigned num_rows, Cycle now) override
    {
        inner->onAutoRefresh(first_row, num_rows, now);
    }

    void tick(Cycle now) override { inner->tick(now); }

    Cycle
    nextHousekeepingAt(Cycle now) const override
    {
        return inner->nextHousekeepingAt(now);
    }

    Cycle
    nextVerdictChangeAt(Cycle now) const override
    {
        return inner->nextVerdictChangeAt(now);
    }

    void noteSkippedTicks(std::uint64_t n) override
    {
        inner->noteSkippedTicks(n);
    }

    int
    quota(ThreadId thread, unsigned bank) const override
    {
        return inner->quota(thread, bank);
    }

    int
    threadQuota(ThreadId thread) const override
    {
        return inner->threadQuota(thread);
    }

    void
    setController(MemController *mc) override
    {
        Mitigation::setController(mc);
        inner->setController(mc);
    }

    void
    syncStats() override
    {
        inner->syncStats();
        stats = inner->stats;
    }

  private:
    std::unique_ptr<Mitigation> inner;
};

/** Registered mechanisms whose safety queries cannot have an effect. */
std::vector<std::string>
unobservableMechanisms()
{
    std::vector<std::string> out;
    for (const auto &name : mitigationNames())
        if (!makeMitigation(name, ExperimentConfig{}.mitigationSettings())
                 ->actQueriesObservable())
            out.push_back(name);
    return out;
}

TEST(QueryCapability, OnlyBlockHammersQueriesHaveAnEffect)
{
    // BlockHammer counts unsafe verdicts and first refusals, and the
    // observe-only mode counts them without refusing; every other
    // mechanism keeps the default isActSafe (BreakHammer forwards it).
    std::vector<std::string> expected;
    for (const auto &name : mitigationNames())
        if (name != "BlockHammer" && name != "BlockHammer-Observe")
            expected.push_back(name);
    EXPECT_EQ(unobservableMechanisms(), expected);
}

TEST(QueryCapability, OnlyBlockHammerExposesVerdictStamps)
{
    // BlockHammer-Observe answers "safe" to queries that count a
    // refusal, so its repeated answers cannot be replayed from a cache.
    std::vector<std::string> stamped;
    for (const auto &name : mitigationNames())
        if (makeMitigation(name, ExperimentConfig{}.mitigationSettings())
                ->verdictStamps())
            stamped.push_back(name);
    EXPECT_EQ(stamped, std::vector<std::string>{"BlockHammer"});
    // BreakHammer forwards its base's stamps.
    EXPECT_NE(makeMitigation("BreakHammer+BlockHammer",
                             ExperimentConfig{}.mitigationSettings())
                  ->verdictStamps(),
              nullptr);
}

/**
 * Under a mechanism with verdict stamps, the row-prep picks replay
 * repeated verdicts from per-bank chains instead of asking again, picks
 * that the chains and the event table settle walk no bank, and the tick
 * after an issue is derived where they settle both queues. The same
 * mechanism wrapped so that it hides the stamps asks every query and
 * executes every such tick: both runs must be equal in every field
 * (refusal counts, first-refusal delays and throttling included), the
 * chained one with strictly fewer live queries, strictly fewer executed
 * controller ticks, exactly as many that acted, and fewer bank entries
 * scanned.
 */
class VerdictChains
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{
};

TEST_P(VerdictChains, ReplayTheQueriesTheyCache)
{
    const auto &[mechanism, channels] = GetParam();
    ExperimentConfig cfg = shortConfig(mechanism, channels);
    cfg.securityOracle = true;
    cfg.nRH = 256;
    cfg.refwMs = 0.04;

    RunResult chained = runExperiment(cfg, attackMix());
    RunResult walked = runExperiment(
        cfg, attackMix(), [](std::unique_ptr<Mitigation> m) {
            return std::make_unique<Forwarding>(std::move(m));
        });
    expectEqualResults(walked, chained);
    EXPECT_GT(walked.blockedActs, 0u);
    EXPECT_EQ(walked.work.refusalsReplayed, 0u);
    EXPECT_GT(chained.work.refusalsReplayed, 0u);
    EXPECT_LT(chained.work.actQueries, walked.work.actQueries);
    EXPECT_LT(chained.work.ticksExecuted, walked.work.ticksExecuted);
    // A tick that acts is never replayed.
    EXPECT_EQ(chained.work.ticksActed, walked.work.ticksActed);
    EXPECT_LT(chained.work.entriesScanned, walked.work.entriesScanned);
}

INSTANTIATE_TEST_SUITE_P(
    StampedVerdicts, VerdictChains,
    ::testing::Combine(::testing::Values("BlockHammer",
                                         "BreakHammer+BlockHammer"),
                       ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<VerdictChains::ParamType> &info) {
        std::string name = std::get<0>(info.param);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name + "_" + std::to_string(std::get<1>(info.param)) + "ch";
    });

/**
 * A seeded grid over the machinery that replays BlockHammer's verdicts:
 * each seed draws a small system (BlockHammer, BreakHammer+BlockHammer
 * or BlockHammer-Observe; 1, 2 or 4 channels; 1-8 threads; N_RH and
 * tREFW short enough that every run crosses throttler epochs) and a mix
 * of catalog apps with one attacker, a catalog pattern or a sampled
 * `kFuzz` pattern. Event skipping and kVerify must reproduce the
 * cycle-by-cycle RunResult exactly. A failing seed names its draw in
 * one line (printed before its runs, since kVerify aborts on a wrong
 * claim); a test calling checkGridSeed(seed) reproduces it.
 */
struct GridDraw
{
    ExperimentConfig cfg;
    MixSpec mix;

    std::string
    describe(std::uint64_t seed) const
    {
        std::ostringstream out;
        out << "skip grid seed " << seed << ": " << cfg.mechanism << ", "
            << cfg.channels << " ch, " << cfg.threads << " threads, N_RH "
            << cfg.nRH << ", tREFW " << cfg.refwMs << " ms, apps";
        for (const auto &app : mix.apps)
            out << ' ' << app;
        return out.str();
    }
};

GridDraw
drawGrid(std::uint64_t seed)
{
    Rng rng(seed);
    static const char *const kMechanisms[] = {
        "BlockHammer", "BreakHammer+BlockHammer", "BlockHammer-Observe"};
    static const unsigned kChannels[] = {1, 2, 4};
    static const unsigned kNrh[] = {256, 512, 1024};
    static const double kRefwMs[] = {0.02, 0.03, 0.04};
    GridDraw d;
    d.cfg = shortConfig(kMechanisms[rng.below(3)], kChannels[rng.below(3)]);
    d.cfg.threads = 1 + static_cast<unsigned>(rng.below(8));
    d.cfg.nRH = kNrh[rng.below(3)];
    d.cfg.refwMs = kRefwMs[rng.below(3)];
    d.cfg.warmupCycles = 40'000;
    d.cfg.runCycles = 160'000;
    d.cfg.securityOracle = true;
    d.mix.name = "grid-" + std::to_string(seed);
    if (rng.chance(0.5)) {
        const auto &catalog = attackPatternCatalog();
        d.mix.apps.push_back(
            attackPatternApp(catalog[rng.below(catalog.size())].name));
    } else {
        d.mix.apps.push_back(
            fuzzPatternApp(sampleFuzzPattern(defaultFuzzSpace(), rng)));
    }
    const auto &apps = appCatalog();
    while (d.mix.apps.size() < d.cfg.threads)
        d.mix.apps.push_back(apps[rng.below(apps.size())].params.name);
    return d;
}

void
checkGridSeed(std::uint64_t seed)
{
    GridDraw d = drawGrid(seed);
    std::string line = d.describe(seed);
    SCOPED_TRACE(line);
    std::fprintf(stderr, "%s\n", line.c_str());
    // Every run crosses at least two throttler epoch swaps.
    ASSERT_GE(d.cfg.warmupCycles + d.cfg.runCycles,
              d.cfg.timings().tREFW);
    d.cfg.skip = SkipMode::kCycleByCycle;
    RunResult ref = runExperiment(d.cfg, d.mix);
    for (SkipMode mode : {SkipMode::kEventSkip, SkipMode::kVerify}) {
        d.cfg.skip = mode;
        expectEqualResults(ref, runExperiment(d.cfg, d.mix));
    }
}

TEST(SkipGrid, SeededBlockHammerSystemsMatchCycleByCycle)
{
    // About 20 s in Release. Debug and sanitizer builds, whose runs are
    // ~10x slower, draw fewer seeds.
#ifdef NDEBUG
    constexpr std::uint64_t kSeeds = 64;
#else
    constexpr std::uint64_t kSeeds = 6;
#endif
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed)
        ASSERT_NO_FATAL_FAILURE(checkGridSeed(seed));
}

/**
 * Where queries have no effect, the controller derives its next event
 * after a demand command and lowers its window at an arrival instead of
 * executing ticks to find out, and its row-prep pick reads the event
 * table instead of asking. The same mechanism wrapped so that it keeps
 * the default capability takes the old path: both runs must be equal in
 * every field, the derived path with strictly fewer executed controller
 * ticks and exactly as many that acted, no safety query and fewer bank
 * entries scanned.
 */
class DerivedWindows
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{
};

TEST_P(DerivedWindows, MatchTheExecutedTicksTheyReplace)
{
    const auto &[mechanism, channels] = GetParam();
    ExperimentConfig cfg = shortConfig(mechanism, channels);
    cfg.securityOracle = true;
    cfg.nRH = 256;
    cfg.refwMs = 0.04;

    RunResult derived = runExperiment(cfg, attackMix());
    RunResult executed = runExperiment(
        cfg, attackMix(), [](std::unique_ptr<Mitigation> m) {
            return std::make_unique<Forwarding>(std::move(m));
        });
    expectEqualResults(executed, derived);
    EXPECT_LT(derived.work.ticksExecuted, executed.work.ticksExecuted);
    // A tick that acts is never replayed.
    EXPECT_EQ(derived.work.ticksActed, executed.work.ticksActed);
    EXPECT_EQ(derived.work.actQueries, 0u);
    EXPECT_GT(executed.work.actQueries, 0u);
    EXPECT_LT(derived.work.entriesScanned, executed.work.entriesScanned);
}

INSTANTIATE_TEST_SUITE_P(
    UnobservableQueries, DerivedWindows,
    ::testing::Combine(::testing::ValuesIn(unobservableMechanisms()),
                       ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<DerivedWindows::ParamType> &info) {
        std::string name = std::get<0>(info.param);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name + "_" + std::to_string(std::get<1>(info.param)) + "ch";
    });

TEST(EventSkip, BitCompatibleOnBenignGraphene)
{
    ExperimentConfig cfg = shortConfig("Graphene");
    cfg.skip = SkipMode::kCycleByCycle;
    RunResult ref = runExperiment(cfg, benignMix());
    cfg.skip = SkipMode::kEventSkip;
    expectEqualResults(ref, runExperiment(cfg, benignMix()));
}

TEST(EventSkip, ActuallySkipsOnThrottledAttack)
{
    ExperimentConfig cfg = shortConfig("BlockHammer");
    auto system = buildSystem(cfg, attackMix());
    system->run(cfg.warmupCycles + cfg.runCycles);
    EXPECT_GT(system->skippedCycles(), 0u);
}

TEST(CoreSleep, SleepsOnThrottledAttack)
{
    ExperimentConfig cfg = shortConfig("BlockHammer");
    auto system = buildSystem(cfg, attackMix());
    system->run(cfg.warmupCycles + cfg.runCycles);
    // Most core ticks of a throttled attack change nothing.
    EXPECT_GT(system->coreTicksSlept(), 2 * system->coreTicksExecuted());

    cfg.skip = SkipMode::kCycleByCycle;
    auto reference = buildSystem(cfg, attackMix());
    reference->run(cfg.warmupCycles + cfg.runCycles);
    EXPECT_EQ(reference->coreTicksSlept(), 0u);
    EXPECT_EQ(reference->coreTicksExecuted(),
              cfg.threads *
                  static_cast<std::uint64_t>(cfg.warmupCycles +
                                             cfg.runCycles));
}

/** Scripted trace: each entry once, then the end of the trace. */
class ScriptTrace : public TraceSource
{
  public:
    explicit ScriptTrace(std::vector<TraceEntry> entries)
        : list(std::move(entries))
    {
    }

    bool
    next(TraceEntry &entry) override
    {
        if (pos >= list.size())
            return false;
        entry = list[pos++];
        return true;
    }

    void reset() override { pos = 0; }

  private:
    std::vector<TraceEntry> list;
    std::size_t pos = 0;
};

TraceEntry
memOp(Addr addr, bool write = false, bool bypass = false)
{
    TraceEntry e;
    e.isMem = true;
    e.isWrite = write;
    e.bypassCache = bypass;
    e.addr = addr;
    return e;
}

/** A hand-built system: one script per core. */
struct SleepCase
{
    SystemConfig cfg;
    std::vector<std::vector<TraceEntry>> scripts;
    std::function<std::unique_ptr<Mitigation>()> mitigation = [] {
        return std::make_unique<NullMitigation>();
    };
    Cycle cycles = 2000;
};

struct SleepRun
{
    std::vector<RunResult::CoreCounts> cores;
    std::uint64_t slept = 0;
};

SleepRun
runCase(const SleepCase &c, SkipMode mode)
{
    SystemConfig cfg = c.cfg;
    cfg.skip = mode;
    cfg.threads = static_cast<unsigned>(c.scripts.size());
    System system(cfg, [&c](unsigned) { return c.mitigation(); });
    for (unsigned t = 0; t < cfg.threads; ++t)
        system.setTrace(t, std::make_unique<ScriptTrace>(c.scripts[t]));
    system.run(c.cycles);
    SleepRun out;
    for (unsigned t = 0; t < cfg.threads; ++t) {
        const Core &core = system.core(t);
        out.cores.push_back(
            {core.retired(), core.memOps(), core.stallCycles()});
    }
    out.slept = system.coreTicksSlept();
    return out;
}

/**
 * Sleeping engages, and --skip on and --skip verify (which panics on a
 * wrong sleep claim) reproduce every core's counters at --skip off.
 */
void
expectSleepExact(const SleepCase &c)
{
    SleepRun ref = runCase(c, SkipMode::kCycleByCycle);
    for (SkipMode mode : {SkipMode::kEventSkip, SkipMode::kVerify}) {
        SleepRun run = runCase(c, mode);
        EXPECT_GT(run.slept, 0u);
        expectEqualCores(run.cores, ref.cores);
    }
}

/** AttackThrottler-style quota: none for `thread` (any: -1) on `bank`. */
class QuotaZero : public Mitigation
{
  public:
    QuotaZero(ThreadId only_thread, int only_bank)
        : thread(only_thread), bank(only_bank)
    {
    }
    std::string name() const override { return "QuotaZero"; }

    int
    quota(ThreadId t, unsigned b) const override
    {
        bool hit = (thread < 0 || t == thread) &&
            (bank < 0 || static_cast<int>(b) == bank);
        return hit ? 0 : -1;
    }

  private:
    ThreadId thread;
    int bank;
};

/** First line address at or after `from` on `channel`, in another bank
 *  than `not_bank` (any bank: -1). */
Addr
findLine(const SystemConfig &cfg, Addr from, unsigned channel,
         int not_bank = -1)
{
    AddressMapper map(cfg.mem.org, cfg.mem.scheme);
    for (Addr a = from;; a += kLineBytes) {
        DramCoord c = map.decode(a);
        if (c.channel == channel &&
            static_cast<int>(c.flatBank(cfg.mem.org)) != not_bank)
            return a;
    }
}

TEST(CoreSleep, QuotaRejectedCoreWakesWhenItsHeadCompletes)
{
    // The core's first read is served; its second is refused by a zero
    // quota for good. After the first read's column command the lane
    // goes quiet, and only time retires the window head: the
    // re-probing core must wake at the head's completion time.
    SleepCase c;
    c.cfg.useLlc = false;
    Addr first = 0;
    int first_bank = static_cast<int>(
        AddressMapper(c.cfg.mem.org, c.cfg.mem.scheme)
            .decode(first)
            .flatBank(c.cfg.mem.org));
    Addr second = findLine(c.cfg, kLineBytes, 0, first_bank);
    int blocked = static_cast<int>(
        AddressMapper(c.cfg.mem.org, c.cfg.mem.scheme)
            .decode(second)
            .flatBank(c.cfg.mem.org));
    c.mitigation = [blocked] {
        return std::make_unique<QuotaZero>(kNoThread, blocked);
    };
    c.scripts = {{memOp(first), memOp(second)}};
    expectSleepExact(c);
    EXPECT_EQ(runCase(c, SkipMode::kEventSkip).cores[0].retired, 1u);
}

TEST(CoreSleep, MshrFullCoreWakesAtAFillForAnotherCore)
{
    // One MSHR: core 0's miss holds it, and core 1's miss is refused
    // until core 0's fill frees it. Nothing is delivered to core 1.
    SleepCase c;
    c.cfg.llc.mshrs = 1;
    c.scripts = {{memOp(0)}, {memOp(1 << 20)}};
    expectSleepExact(c);
    EXPECT_EQ(runCase(c, SkipMode::kEventSkip).cores[1].memOps, 1u);
}

TEST(CoreSleep, QueueFullCoreWakesAtATake)
{
    // A two-entry read queue: core 0 fills it, and core 1's read gets in
    // only once the controller takes one of core 0's.
    SleepCase c;
    c.cfg.useLlc = false;
    c.cfg.mem.ctrl.readQueueSize = 2;
    c.scripts = {{memOp(0), memOp(1 << 20)}, {memOp(2 << 20)}};
    expectSleepExact(c);
    EXPECT_EQ(runCase(c, SkipMode::kEventSkip).cores[1].memOps, 1u);
}

TEST(CoreSleep, LlcCoreStaysAwakeWhileWritebacksWaitToRetry)
{
    // Two channels, so a fill is delivered after its column command,
    // while the lanes are otherwise quiet. Core 0's cached read is
    // refused by a zero quota on channel 0 for good. On channel 1, core
    // 1 streams writes through a one-set, one-way LLC, so every fill
    // evicts a dirty line, and core 2's uncached writes keep the
    // two-entry write queue full, so those writebacks wait in the LLC.
    // Core 0's every tick retries them (Llc::access does) at its place
    // in the core order: it must wake at the fill that queued them and
    // stay awake until they drain.
    SleepCase c;
    c.cfg.mem.org = DramOrg::paperConfig(2);
    c.cfg.llc.capacityBytes = kLineBytes;
    c.cfg.llc.ways = 1;
    c.cfg.mem.ctrl.writeQueueSize = 2;
    c.cfg.mem.ctrl.writeHighWatermark = 2;
    c.cfg.mem.ctrl.writeLowWatermark = 1;
    c.mitigation = [] { return std::make_unique<QuotaZero>(0, -1); };
    c.cycles = 20000;
    std::vector<TraceEntry> refused = {memOp(findLine(c.cfg, 0, 0))};
    std::vector<TraceEntry> dirtying, flood;
    Addr a = 0, b = 1 << 24;
    for (int i = 0; i < 200; ++i) {
        a = findLine(c.cfg, a + kLineBytes, 1);
        dirtying.push_back(memOp(a, i % 2 == 0));
        b = findLine(c.cfg, b + kLineBytes, 1);
        flood.push_back(memOp(b, true, true));
        flood.push_back(memOp(b, true, true));
    }
    c.scripts = {refused, dirtying, flood};
    expectSleepExact(c);
}

TEST(LargeOrg, EightRankDdr4RunsWithoutPanic)
{
    // 8 ranks x 16 banks = 128 flat banks: over the old kMaxBanks=64
    // stack-array limit that panicked. The scheduler now sizes its state
    // from the device.
    SystemConfig sys_cfg;
    sys_cfg.threads = 2;
    sys_cfg.mem.org.ranks = 8;
    ASSERT_GT(sys_cfg.mem.org.banksPerChannel(), 64u);
    sys_cfg.mem.enableHammerObserver = false;

    auto system = std::make_unique<System>(
        sys_cfg, std::make_unique<NullMitigation>());
    for (unsigned t = 0; t < sys_cfg.threads; ++t) {
        auto trace = makeTrace("429.mcf", t, sys_cfg.threads,
                               system->mem().mapper(), 7, AttackParams{});
        system->setTrace(t, std::move(trace));
    }
    system->run(100'000);
    EXPECT_GT(system->core(0).retired(), 0u);
    EXPECT_GT(system->mem().controller().demandActivations(), 0u);
}

} // namespace
} // namespace bh
