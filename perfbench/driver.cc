/**
 * @file
 * Benchmark driver: runs the cells of one workload back to back on one
 * simulation thread, each cell in two passes, and prints one JSON
 * document holding every cell's simulated outputs with their digest,
 * and the workload's host-time metrics.
 *
 * With --trace 1 the second pass times each layer boundary from
 * outside — a decorator around the Mitigation the factory builds and
 * one around every TraceSource, both installed through System's public
 * MitigationFactory and setTrace — and yields the per-layer metrics.
 * Either way the second pass must reproduce the first one's digests
 * (tracing is observation-only).
 *
 * With --record every cell runs through the library's own
 * runExperiment instead, which produces the reference digests the
 * benchmark's own system assembly is checked against.
 *
 * Usage: perfbench_driver --workload NAME --seed N --cells N
 *                         [--trace 0|1] [--record]
 * See README.md for the workloads and metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.hh"
#include "common/rng.hh"
#include "report/report.hh"

namespace bh
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Seed of the checked-in goldens (the fig5 mix seed). */
constexpr std::uint64_t kDefaultSeed = 42;

/**
 * Mechanisms of secsweep-zoo-2ch, in securityMechanisms() order; each
 * one's per-ACT cost is a per-layer metric.
 */
const std::vector<std::string> kZooCellMechs = {
    "PARA", "Graphene", "BlockHammer", "ABACuS", "DAPPER",
    "BreakHammer+Graphene"};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Calls into one layer boundary and the host time they took. */
struct Timer
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;

    void
    add(const Timer &o)
    {
        calls += o.calls;
        ns += o.ns;
    }
};

/** Times one call into a layer. */
class Span
{
  public:
    explicit Span(Timer &t) : timer(t), start(Clock::now()) {}
    ~Span()
    {
        timer.ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start).count());
        ++timer.calls;
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Timer &timer;
    Clock::time_point start;
};

/** One timer per Mitigation hook, plus the refused safety queries. */
struct MitigTimers
{
    Timer isActSafe, onActivate, onAutoRefresh, tick, nextEvent, quota,
        noteSkipped;
    std::uint64_t refusals = 0;

    void
    add(const MitigTimers &o)
    {
        isActSafe.add(o.isActSafe);
        onActivate.add(o.onActivate);
        onAutoRefresh.add(o.onAutoRefresh);
        tick.add(o.tick);
        nextEvent.add(o.nextEvent);
        quota.add(o.quota);
        noteSkipped.add(o.noteSkipped);
        refusals += o.refusals;
    }

    std::uint64_t
    calls() const
    {
        return isActSafe.calls + onActivate.calls + onAutoRefresh.calls +
            tick.calls + nextEvent.calls + quota.calls + noteSkipped.calls;
    }
};

/** Forwards every hook to the factory-built mechanism and times it. */
class TimedMitigation : public Mitigation
{
  public:
    TimedMitigation(std::unique_ptr<Mitigation> inner, MitigTimers &timers)
        : inner(std::move(inner)), t(timers)
    {
    }

    std::string name() const override { return inner->name(); }

    bool
    isActSafe(unsigned bank, RowId row, ThreadId thread, Cycle now) override
    {
        bool safe = true;
        {
            Span s(t.isActSafe);
            safe = inner->isActSafe(bank, row, thread, now);
        }
        if (!safe)
            ++t.refusals;
        return safe;
    }

    void
    onActivate(unsigned bank, RowId row, ThreadId thread, Cycle now) override
    {
        Span s(t.onActivate);
        inner->onActivate(bank, row, thread, now);
    }

    void
    onAutoRefresh(RowId first_row, unsigned num_rows, Cycle now) override
    {
        Span s(t.onAutoRefresh);
        inner->onAutoRefresh(first_row, num_rows, now);
    }

    void
    tick(Cycle now) override
    {
        Span s(t.tick);
        inner->tick(now);
    }

    Cycle
    nextHousekeepingAt(Cycle now) const override
    {
        Span s(t.nextEvent);
        return inner->nextHousekeepingAt(now);
    }

    Cycle
    nextVerdictChangeAt(Cycle now) const override
    {
        Span s(t.nextEvent);
        return inner->nextVerdictChangeAt(now);
    }

    void
    noteSkippedTicks(std::uint64_t n) override
    {
        Span s(t.noteSkipped);
        inner->noteSkippedTicks(n);
    }

    int
    quota(ThreadId thread, unsigned bank) const override
    {
        Span s(t.quota);
        return inner->quota(thread, bank);
    }

    int
    threadQuota(ThreadId thread) const override
    {
        Span s(t.quota);
        return inner->threadQuota(thread);
    }

    void
    setController(MemController *mc) override
    {
        Mitigation::setController(mc);
        inner->setController(mc);
    }

  private:
    std::unique_ptr<Mitigation> inner;
    MitigTimers &t;
};

/** Forwards a trace generator and times every next(). */
class TimedTrace : public TraceSource
{
  public:
    TimedTrace(std::unique_ptr<TraceSource> inner, Timer &timer)
        : inner(std::move(inner)), t(timer)
    {
    }

    bool
    next(TraceEntry &entry) override
    {
        Span s(t);
        return inner->next(entry);
    }

    void reset() override { inner->reset(); }

  private:
    std::unique_ptr<TraceSource> inner;
    Timer &t;
};

/** One simulation run of a workload. */
struct Cell
{
    std::string label;
    ExperimentConfig cfg;
    MixSpec mix;
};

/**
 * fig5's seed-42 mixes with each mix's apps shuffled across its slots
 * by mix seed `seed` (the default seed keeps them as they are). A slot
 * fixes a thread's address slice and random stream, so every seed
 * gives new inputs, while each mix keeps its apps. Drawing fresh mixes
 * instead would swing a run's host time by about 15%: one mix's cost
 * varies by about 20% (sd) with the apps drawn, more than the
 * benchmark's bounds allow.
 */
std::vector<MixSpec>
shuffleSlots(std::vector<MixSpec> mixes, std::uint64_t seed)
{
    if (seed == kDefaultSeed)
        return mixes;
    Rng rng(seed);
    for (auto &mix : mixes)
        for (std::size_t i = mix.apps.size(); i > 1; --i)
            std::swap(mix.apps[i - 1], mix.apps[rng.below(i)]);
    return mixes;
}

/**
 * The first `n` cells of `workload` for workload seed `seed`: the mix
 * seed is `seed` itself (see shuffleSlots) and ExperimentConfig::seed
 * is seed - 41, so the default seed 42 reproduces the goldens' mixes
 * (fig5: seed 42) and config seed (1).
 */
std::vector<Cell>
makeCells(const std::string &workload, std::uint64_t seed, unsigned n)
{
    const std::uint64_t cfg_seed = seed - (kDefaultSeed - 1);
    BenchContext ctx;
    ctx.channelThreads = 1;
    std::vector<Cell> cells;
    if (workload == "attack-blockhammer-1ch" ||
        workload == "benign-baseline-4ch") {
        const bool attack = workload == "attack-blockhammer-1ch";
        ctx.scale = 4.0;
        ctx.channels = attack ? 1 : 4;
        ExperimentConfig cfg =
            benchConfig(ctx, attack ? "BlockHammer" : "Baseline");
        cfg.seed = cfg_seed;
        auto mixes = shuffleSlots(attack ? makeAttackMixes(n, kDefaultSeed)
                                         : makeBenignMixes(n, kDefaultSeed),
                                  seed);
        for (auto &mix : mixes)
            cells.push_back({mix.name, cfg, mix});
    } else if (workload == "secsweep-zoo-2ch") {
        // Pattern-major, so every prefix of six cells runs each
        // mechanism once; the mix is the security methodology's fixed
        // one, so the seed reaches it through ExperimentConfig::seed.
        ctx.scale = 1.0;
        for (const auto &spec : attackPatternCatalog()) {
            for (const auto &mech : kZooCellMechs) {
                if (cells.size() == n)
                    return cells;
                ExperimentConfig cfg = securityConfig(ctx, mech, 2);
                cfg.seed = cfg_seed;
                cells.push_back(
                    {spec.name + "/" + mech, cfg,
                     securityMix(attackPatternApp(spec.name),
                                 "sec-" + spec.name)});
            }
        }
        if (cells.size() < n)
            fatal("secsweep-zoo-2ch has only %zu cells", cells.size());
    } else {
        fatal("unknown workload '%s'", workload.c_str());
    }
    return cells;
}

/**
 * The system buildSystem() assembles for a cell, with the mitigation
 * and trace decorators installed when timers are given. The benchmark's
 * mixes hold catalog apps, the legacy attack thread, and "attack:"
 * catalog patterns only.
 */
std::unique_ptr<System>
assemble(const Cell &cell, MitigTimers *mitig, Timer *trace_timer)
{
    const ExperimentConfig &config = cell.cfg;
    SystemConfig sys_cfg;
    sys_cfg.threads = config.threads;
    sys_cfg.skip = config.skip;
    sys_cfg.mem.org = DramOrg::paperConfig(config.channels);
    sys_cfg.mem.timings = config.timings();
    sys_cfg.mem.hammer.nRH = config.nRH;
    sys_cfg.mem.hammer.blastRadius = 1;
    sys_cfg.mem.enableHammerObserver = config.hammerObserver;
    sys_cfg.mem.enableSecurityOracle = config.securityOracle;
    sys_cfg.channelThreads = config.channelThreads;

    auto system = std::make_unique<System>(
        sys_cfg, [&](unsigned ch) -> std::unique_ptr<Mitigation> {
            auto m = makeMitigation(config.mechanism,
                                    config.mitigationSettings(ch));
            if (!mitig)
                return m;
            return std::make_unique<TimedMitigation>(std::move(m), *mitig);
        });

    AttackEnv env = config.attackEnv();
    for (unsigned slot = 0; slot < config.threads; ++slot) {
        const std::string &app = cell.mix.apps[slot];
        auto trace = makeTrace(app, slot, config.threads,
                               system->mem().mapper(), config.seed,
                               config.attack, &env);
        if (trace_timer)
            trace = std::make_unique<TimedTrace>(std::move(trace),
                                                 *trace_timer);
        if (!isAttackApp(app)) {
            system->setTrace(slot, std::move(trace));
            continue;
        }
        CoreConfig attacker = sys_cfg.core;
        attacker.maxOutstandingMem = 2 * config.attack.numBanks;
        if (app != kAttackAppName) {
            const AttackPatternSpec *spec = findAttackPattern(
                app.substr(kAttackPatternPrefix.size()));
            if (!spec)
                fatal("unknown attack pattern app '%s'", app.c_str());
            attacker.maxOutstandingMem = spec->maxOutstanding();
        }
        system->setTrace(slot, std::move(trace), attacker);
    }
    return system;
}

/** Outputs, work counters and host times of one run of a cell. */
struct CellRun
{
    RunResult res;
    double setupS = 0.0;
    double runS = 0.0;
    double teardownS = 0.0;
    std::vector<double> chunkS;     ///< host time of each kChunkCycles
    std::uint64_t simCycles = 0;
    std::uint64_t skipped = 0;
    std::uint64_t chunked = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t quotaRejects = 0;
    std::uint64_t retired = 0;
    std::uint64_t memOps = 0;
    std::uint64_t stalls = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t llcWritebacks = 0;
};

/** Simulated cycles per timed slice of a run (~20-60 ms of host time). */
constexpr Cycle kChunkCycles = 100'000;

/**
 * Reference probeHost() time, about its median on a 4-vCPU x86-64
 * container (Release build). The untraced host-time metrics are scaled
 * by kProbeRefS over the run's median probe time, i.e. reported at the
 * reference host speed: on a shared host whose speed drifts by tens of
 * percent over minutes, that lets runs minutes apart compare better.
 * The unscaled figures are in the "raw" object.
 */
constexpr double kProbeRefS = 0.002;

volatile std::uint64_t probeSink = 0;

/**
 * Host-speed probe: a fixed ~2 ms of work shaped like the simulator's
 * (sort, hash-map updates, a heap) on L2-sized data. It slows down when
 * the host does, by about half as much as the simulator (README.md).
 */
double
probeHost()
{
    static std::vector<std::uint32_t> keys(16 * 1024);
    static std::unordered_map<std::uint32_t, std::uint64_t> table;
    std::uint64_t x = 88172645463325252ull;
    auto t0 = Clock::now();
    for (auto &k : keys) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        k = static_cast<std::uint32_t>(x);
    }
    std::sort(keys.begin(), keys.end());
    for (std::size_t i = 0; i < keys.size(); ++i)
        table[keys[(i * 7919) % keys.size()] & 0xfff] += i;
    std::priority_queue<std::uint32_t> heap;
    for (std::uint32_t k : keys) {
        heap.push(k);
        if (heap.size() > 64)
            heap.pop();
    }
    probeSink = probeSink + heap.top() + table.size();
    return secondsSince(t0);
}

/**
 * Run `system` for `cycles`, timing each kChunkCycles slice; with
 * `probe_s`, every slice is followed by one timed probeHost().
 */
void
runTimed(System &system, Cycle cycles, std::vector<double> &chunk_s,
         std::vector<double> *probe_s)
{
    for (Cycle done = 0; done < cycles; done += kChunkCycles) {
        auto t0 = Clock::now();
        system.run(std::min(kChunkCycles, cycles - done));
        chunk_s.push_back(secondsSince(t0));
        if (probe_s)
            probe_s->push_back(probeHost());
    }
}

/**
 * Build, warm up and measure one cell, as runExperiment() does, with
 * the run cut into timed slices (System::run is exact across calls;
 * the reference digests, recorded through one unsliced
 * runExperiment(), check that).
 */
CellRun
runCell(const Cell &cell, MitigTimers *mitig, Timer *trace_timer,
        std::vector<double> *probe_s)
{
    CellRun out;
    auto t0 = Clock::now();
    auto system = assemble(cell, mitig, trace_timer);
    out.setupS = secondsSince(t0);

    const ExperimentConfig &config = cell.cfg;
    runTimed(*system, config.warmupCycles, out.chunkS, probe_s);
    system->startMeasurement();
    runTimed(*system, config.runCycles, out.chunkS, probe_s);
    for (double s : out.chunkS)
        out.runS += s;

    RunResult &res = out.res;
    res.mechanism = config.mechanism;
    res.mixName = cell.mix.name;
    for (unsigned t = 0; t < config.threads; ++t) {
        res.ipc.push_back(system->ipc(t));
        res.isAttack.push_back(isAttackApp(cell.mix.apps[t]));
        const Core &core = system->core(t);
        out.retired += core.retired();
        out.memOps += core.memOps();
        out.stalls += core.stallCycles();
    }
    res.energyJ = system->energy();
    MemSystem &mem = system->mem();
    for (unsigned ch = 0; ch < mem.channels(); ++ch) {
        if (auto *hammer = mem.hammerObserver(ch)) {
            res.bitFlips += hammer->bitFlips().size();
            res.maxRowActs =
                std::max(res.maxRowActs, hammer->maxRowActivations());
        }
        if (auto *oracle = mem.securityOracle(ch)) {
            res.secMargin = std::max(res.secMargin, oracle->margin());
            res.secMaxWindowActs =
                std::max(res.secMaxWindowActs, oracle->maxWindowActs());
            res.secFirstViolation = std::min(
                res.secFirstViolation, oracle->firstViolationCycle());
            res.secViolatingRows += oracle->violatingRows();
        }
        const MemController &mc = mem.controller(ch);
        res.demandActs += mc.demandActivations();
        res.blockedActs += mc.blockedActQueries();
        res.victimRefreshes += mc.victimRefreshesDone();
        res.rowHits += mc.rowHits();
        res.rowMisses += mc.rowMisses();
        res.rowConflicts += mc.rowConflicts();
        out.refreshes += mc.refreshes();
    }
    out.simCycles = static_cast<std::uint64_t>(system->now());
    out.skipped = system->skippedCycles();
    out.chunked = system->chunkedCycles();
    out.quotaRejects = mem.quotaRejects();
    if (Llc *llc = system->llc()) {
        out.llcHits = llc->hits();
        out.llcMisses = llc->misses();
        out.llcWritebacks = llc->writebacks();
    }
    auto t1 = Clock::now();
    system.reset();
    out.teardownS = secondsSince(t1);
    return out;
}

/** Digest of a run's simulated outputs (host-independent). */
std::string
digestOf(const RunResult &r)
{
    std::string s;
    auto add = [&s](const char *key, const std::string &value) {
        s += key;
        s += '=';
        s += value;
        s += ';';
    };
    for (double ipc : r.ipc)
        add("ipc", Json::formatDouble(ipc));
    add("energy_j", Json::formatDouble(r.energyJ));
    add("demand_acts", std::to_string(r.demandActs));
    add("row_hits", std::to_string(r.rowHits));
    add("row_misses", std::to_string(r.rowMisses));
    add("row_conflicts", std::to_string(r.rowConflicts));
    add("blocked_acts", std::to_string(r.blockedActs));
    add("victim_refreshes", std::to_string(r.victimRefreshes));
    add("margin", Json::formatDouble(r.secMargin));
    add("max_window_acts", std::to_string(r.secMaxWindowActs));
    add("violating_rows", std::to_string(r.secViolatingRows));
    add("bit_flips", std::to_string(r.bitFlips));
    return hex64(fnv1a64(s));
}

/** A cell's outputs, under the field names of the secsweep goldens. */
Json
outputsJson(const RunResult &r)
{
    Json o = Json::object();
    o["margin"] = r.secMargin;
    o["max_window_acts"] = static_cast<std::int64_t>(r.secMaxWindowActs);
    o["first_violation_cycle"] = r.secFirstViolation == kNoEventCycle
        ? static_cast<std::int64_t>(-1)
        : static_cast<std::int64_t>(r.secFirstViolation);
    o["violating_rows"] = static_cast<std::int64_t>(r.secViolatingRows);
    o["bit_flips"] = static_cast<std::int64_t>(r.bitFlips);
    o["blocked_acts"] = static_cast<std::int64_t>(r.blockedActs);
    o["victim_refreshes"] = static_cast<std::int64_t>(r.victimRefreshes);
    o["demand_acts"] = static_cast<std::int64_t>(r.demandActs);
    o["attack_ipc"] = r.ipc.empty() ? 0.0 : r.ipc[0];
    o["benign_ipc_mean"] = mean(r.benignIpc());
    Json ipc = Json::array();
    for (double v : r.ipc)
        ipc.push(v);
    o["ipc"] = ipc;
    o["is_attack"] = [&r] {
        Json a = Json::array();
        for (bool b : r.isAttack)
            a.push(b);
        return a;
    }();
    o["energy_j"] = r.energyJ;
    return o;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

/**
 * Cost of one empty timed call: `inSpanNs` is what a Span records
 * around nothing (subtracted from every hook's host time), `perCallNs`
 * the whole cost it adds to the run (both clock reads and bookkeeping).
 * Median of several batches.
 */
struct TimerCost
{
    double inSpanNs = 0.0;
    double perCallNs = 0.0;
};

TimerCost
calibrateTimer()
{
    constexpr int kBatches = 7;
    constexpr std::uint64_t kCalls = 1'000'000;
    std::vector<double> in_span, per_call;
    for (int b = 0; b < kBatches; ++b) {
        Timer t;
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < kCalls; ++i)
            Span s(t);
        per_call.push_back(secondsSince(t0) * 1e9 / kCalls);
        in_span.push_back(static_cast<double>(t.ns) / kCalls);
    }
    return {median(in_span), median(per_call)};
}

/** Metrics, each a {value, unit} object. */
struct Metrics
{
    Json json = Json::object();

    void
    set(const std::string &name, double value, const char *unit)
    {
        Json m = Json::object();
        m["value"] = value;
        m["unit"] = std::string(unit);
        json[name] = m;
    }
};

/** Host time inside a timed boundary, with the timer's own cost removed. */
double
hostMs(const Timer &t, const TimerCost &cost)
{
    double ns = static_cast<double>(t.ns) -
        static_cast<double>(t.calls) * cost.inSpanNs;
    return std::max(0.0, ns) / 1e6;
}

double
nsPerCall(const Timer &t, const TimerCost &cost)
{
    return t.calls ? hostMs(t, cost) * 1e6 / static_cast<double>(t.calls)
                   : 0.0;
}

/** Metric-name form of a mechanism name ('+' is not a name character). */
std::string
metricName(std::string mech)
{
    std::replace(mech.begin(), mech.end(), '+', '-');
    return mech;
}

void
addTimer(Metrics &m, const std::string &prefix, const Timer &t,
         const TimerCost &cost, bool per_call)
{
    m.set(prefix + ".calls", static_cast<double>(t.calls), "count");
    m.set(prefix + ".host_ms", hostMs(t, cost), "ms");
    if (per_call)
        m.set(prefix + ".ns_per_call", nsPerCall(t, cost), "ns");
}

/** Per-layer metrics of a workload's traced runs. */
Metrics
layerMetrics(const std::vector<CellRun> &runs,
             const std::vector<MitigTimers> &mitig,
             const std::vector<Timer> &traces, double untraced_run_s,
             const TimerCost &cost)
{
    MitigTimers hooks;
    Timer next;
    std::map<std::string, Timer> on_act_by_mech;
    CellRun sum;
    double traced_run_s = 0.0;
    double margin = 0.0;
    std::uint64_t max_window_acts = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const CellRun &r = runs[i];
        hooks.add(mitig[i]);
        next.add(traces[i]);
        on_act_by_mech[r.res.mechanism].add(mitig[i].onActivate);
        traced_run_s += r.runS;
        margin = std::max(margin, r.res.secMargin);
        max_window_acts = std::max(max_window_acts, r.res.secMaxWindowActs);
        sum.res.demandActs += r.res.demandActs;
        sum.res.blockedActs += r.res.blockedActs;
        sum.res.victimRefreshes += r.res.victimRefreshes;
        sum.res.rowHits += r.res.rowHits;
        sum.res.rowMisses += r.res.rowMisses;
        sum.res.rowConflicts += r.res.rowConflicts;
        sum.simCycles += r.simCycles;
        sum.skipped += r.skipped;
        sum.chunked += r.chunked;
        sum.refreshes += r.refreshes;
        sum.quotaRejects += r.quotaRejects;
        sum.retired += r.retired;
        sum.memOps += r.memOps;
        sum.stalls += r.stalls;
        sum.llcHits += r.llcHits;
        sum.llcMisses += r.llcMisses;
        sum.llcWritebacks += r.llcWritebacks;
    }
    auto frac = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

    Metrics m;
    addTimer(m, "mitig.is_act_safe", hooks.isActSafe, cost, true);
    m.set("mitig.refusal_ratio",
          frac(static_cast<double>(hooks.refusals),
               static_cast<double>(hooks.isActSafe.calls)),
          "ratio");
    addTimer(m, "mitig.on_activate", hooks.onActivate, cost, true);
    for (const auto &mech : kZooCellMechs)
        m.set("mitig.on_activate.ns_per_call." + metricName(mech),
              nsPerCall(on_act_by_mech[mech], cost), "ns");
    addTimer(m, "mitig.on_auto_refresh", hooks.onAutoRefresh, cost, false);
    addTimer(m, "mitig.tick", hooks.tick, cost, false);
    addTimer(m, "mitig.next_event", hooks.nextEvent, cost, false);
    addTimer(m, "mitig.quota", hooks.quota, cost, false);
    addTimer(m, "mitig.note_skipped", hooks.noteSkipped, cost, false);

    const double acts = static_cast<double>(sum.res.demandActs);
    const double row_accesses = static_cast<double>(
        sum.res.rowHits + sum.res.rowMisses + sum.res.rowConflicts);
    m.set("mem.demand_acts", acts, "count");
    m.set("mem.row_hit_rate",
          frac(static_cast<double>(sum.res.rowHits), row_accesses), "ratio");
    m.set("mem.act_blocked_queries",
          static_cast<double>(sum.res.blockedActs), "count");
    m.set("mem.blocked_queries_per_act",
          frac(static_cast<double>(sum.res.blockedActs), acts), "ratio");
    m.set("mem.victim_refreshes",
          static_cast<double>(sum.res.victimRefreshes), "count");
    m.set("mem.refreshes", static_cast<double>(sum.refreshes), "count");
    m.set("mem.quota_rejects", static_cast<double>(sum.quotaRejects),
          "count");
    m.set("mem.ctrl_ticks_executed", static_cast<double>(hooks.tick.calls),
          "count");

    const double cycles = static_cast<double>(sum.simCycles);
    m.set("sim.cycles", cycles, "cycles");
    m.set("sim.skipped_frac", frac(static_cast<double>(sum.skipped), cycles),
          "ratio");
    m.set("sim.chunked_frac", frac(static_cast<double>(sum.chunked), cycles),
          "ratio");
    // Run time not inside a timed hook: the traced run minus the hooks'
    // own time and minus what timing every call added.
    double hooks_ms = hostMs(hooks.isActSafe, cost) +
        hostMs(hooks.onActivate, cost) + hostMs(hooks.onAutoRefresh, cost) +
        hostMs(hooks.tick, cost) + hostMs(hooks.nextEvent, cost) +
        hostMs(hooks.quota, cost) + hostMs(hooks.noteSkipped, cost) +
        hostMs(next, cost);
    double timer_ms = static_cast<double>(hooks.calls() + next.calls) *
        cost.perCallNs / 1e6;
    m.set("system.self_ms",
          std::max(0.0, traced_run_s * 1e3 - hooks_ms - timer_ms), "ms");

    m.set("core.retired_insts", static_cast<double>(sum.retired), "count");
    m.set("core.mem_ops", static_cast<double>(sum.memOps), "count");
    m.set("core.stall_cycles", static_cast<double>(sum.stalls), "cycles");
    m.set("llc.hits", static_cast<double>(sum.llcHits), "count");
    m.set("llc.misses", static_cast<double>(sum.llcMisses), "count");
    m.set("llc.writebacks", static_cast<double>(sum.llcWritebacks),
          "count");

    m.set("workloads.next_calls", static_cast<double>(next.calls), "count");
    m.set("workloads.host_ms", hostMs(next, cost), "ms");
    m.set("workloads.ns_per_call", nsPerCall(next, cost), "ns");

    m.set("oracle.margin", margin, "ratio");
    m.set("oracle.max_window_acts", static_cast<double>(max_window_acts),
          "count");
    m.set("trace_overhead", frac(traced_run_s, untraced_run_s), "ratio");
    m.set("trace.timer_ns_per_call", cost.perCallNs, "ns");
    return m;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    unsigned cells = 0;
    bool trace = false;
    bool record = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--record") {
            a.record = true;
            continue;
        }
        if (i + 1 >= argc)
            fatal("%s needs a value", flag.c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        unsigned long long n = std::strtoull(v.c_str(), &end, 10);
        bool numeric = !v.empty() && *end == '\0';
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed" && numeric)
            a.seed = n;
        else if (flag == "--cells" && numeric && n > 0 && n <= 1000)
            a.cells = static_cast<unsigned>(n);
        else if (flag == "--trace" && (v == "0" || v == "1"))
            a.trace = v == "1";
        else
            fatal("bad argument %s %s", flag.c_str(), v.c_str());
    }
    if (a.workload.empty() || a.cells == 0)
        fatal("usage: perfbench_driver --workload NAME --seed N --cells N "
              "[--trace 0|1] [--record]");
    return a;
}

int
runMain(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::vector<Cell> cells =
        makeCells(args.workload, args.seed, args.cells);

    Json doc = Json::object();
    doc["workload"] = args.workload;
    doc["seed"] = static_cast<std::int64_t>(args.seed);
    Json out_cells = Json::array();

    if (args.record) {
        for (const Cell &cell : cells) {
            Json c = Json::object();
            c["cell"] = cell.label;
            c["digest"] = digestOf(runExperiment(cell.cfg, cell.mix));
            out_cells.push(c);
        }
        doc["cells"] = out_cells;
        std::printf("%s\n", doc.dump().c_str());
        return 0;
    }

    // Every cell runs in two passes, the second a whole pass after the
    // first. Untraced, both passes are plain and each time slice counts
    // at its faster pass: host contention here comes in bursts of a few
    // seconds, which rarely hit the same slice twice. Traced, the second
    // pass carries the timing decorators. Either way the second pass
    // must reproduce the first one's digest.
    const TimerCost cost = args.trace ? calibrateTimer() : TimerCost{};
    std::vector<CellRun> first, second;
    std::vector<MitigTimers> mitig(cells.size());
    std::vector<Timer> trace_timers(cells.size());
    std::vector<double> probe_s;
    std::vector<double> *probes = args.trace ? nullptr : &probe_s;
    for (const Cell &cell : cells)
        first.push_back(runCell(cell, nullptr, nullptr, probes));
    for (std::size_t i = 0; i < cells.size(); ++i)
        second.push_back(
            args.trace ? runCell(cells[i], &mitig[i], &trace_timers[i], nullptr)
                       : runCell(cells[i], nullptr, nullptr, probes));

    double run_s = 0.0;
    double wall_s = 0.0;
    double sim_cycles = 0.0;
    std::vector<double> setup_s;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellRun &a = first[i];
        const CellRun &b = second[i];
        double cell_run_s = a.runS;
        if (!args.trace) {
            cell_run_s = 0.0;
            for (std::size_t k = 0; k < a.chunkS.size(); ++k)
                cell_run_s += std::min(a.chunkS[k], b.chunkS[k]);
        }
        run_s += cell_run_s;
        wall_s += std::min(a.setupS, b.setupS) + cell_run_s +
            std::min(a.teardownS, b.teardownS);
        sim_cycles += static_cast<double>(a.simCycles);
        setup_s.push_back(a.setupS);
        setup_s.push_back(b.setupS);
        Json c = Json::object();
        c["cell"] = cells[i].label;
        c["mechanism"] = cells[i].cfg.mechanism;
        c["oracle"] = cells[i].cfg.securityOracle;
        c["digest"] = digestOf(a.res);
        c["rerun_digest"] = digestOf(b.res);
        c["outputs"] = outputsJson(a.res);
        c["setup_s"] = std::min(a.setupS, b.setupS);
        c["run_s"] = cell_run_s;
        c["sim_cycles"] = static_cast<std::int64_t>(a.simCycles);
        out_cells.push(c);
    }
    doc["cells"] = out_cells;

    Metrics m;
    if (args.trace) {
        m = layerMetrics(second, mitig, trace_timers, run_s, cost);
    } else {
        // Host seconds at the reference host speed (see kProbeRefS).
        const double speed = kProbeRefS / median(probe_s);
        m.set("sim_mcps", sim_cycles / 1e6 / (run_s * speed), "Mcycles/s");
        m.set("wall_s", wall_s * speed, "s");
        m.set("setup_s", median(setup_s) * speed, "s");
        m.set("peak_rss_mb", peakRssMb(), "MB");
        Json raw = Json::object();
        raw["sim_mcps"] = sim_cycles / 1e6 / run_s;
        raw["wall_s"] = wall_s;
        raw["setup_s"] = median(setup_s);
        raw["host_slowdown"] = 1.0 / speed;
        raw["probe_ms"] = median(probe_s) * 1e3;
        doc["raw"] = raw;
    }
    doc["metrics"] = m.json;
    std::printf("%s\n", doc.dump().c_str());
    return 0;
}

} // namespace

} // namespace bh

int
main(int argc, char **argv)
{
    return bh::runMain(argc, argv);
}
