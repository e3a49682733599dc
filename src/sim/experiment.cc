#include "sim/experiment.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <tuple>

#include "common/log.hh"
#include "workloads/fuzz_patterns.hh"

namespace bh
{

ExperimentConfig
ExperimentConfig::paperScale()
{
    ExperimentConfig cfg;
    cfg.nRH = 32768;
    cfg.refwMs = 64.0;
    cfg.runCycles = 32'000'000;
    return cfg;
}

DramTimings
ExperimentConfig::timings() const
{
    DramTimingNs ns;
    ns.tREFW = refwMs * 1e6;
    // tREFI and tRFC stay at their physical DDR4 values so the refresh
    // duty cycle (~4.5%) and row-buffer residency are realistic; each REF
    // simply sweeps proportionally more rows in a compressed window.
    return DramTimings::fromNs(ns);
}

MitigationSettings
ExperimentConfig::mitigationSettings(unsigned channel) const
{
    MitigationSettings s;
    s.nRH = nRH;
    s.blastRadius = 1;
    s.timings = timings();
    s.banks = 16;
    s.rowsPerBank = 65536;
    s.threads = threads;
    // Channel 0 keeps the raw seed (bit-stable single-channel runs);
    // other channels' probabilistic mechanisms draw decorrelated streams.
    s.seed = seed + channel * 0x9e3779b97f4a7c15ull;
    return s;
}

AttackEnv
ExperimentConfig::attackEnv() const
{
    DramTimings t = timings();
    AttackEnv env;
    env.nRH = nRH;
    env.nBL = std::max<std::uint32_t>(1, nRH / 4);
    env.windowCycles = t.tREFW;
    env.tRC = t.tRC;
    env.issueWidth = CoreConfig{}.issueWidth;
    env.seed = seed;
    return env;
}

std::unique_ptr<System>
buildSystem(const ExperimentConfig &config, const MixSpec &mix,
            const MitigationWrapper &wrap)
{
    if (mix.apps.size() != config.threads)
        fatal("mix '%s' has %zu apps for %u threads", mix.name.c_str(),
              mix.apps.size(), config.threads);

    SystemConfig sys_cfg;
    sys_cfg.threads = config.threads;
    sys_cfg.skip = config.skip;
    sys_cfg.mem.org = DramOrg::paperConfig(config.channels);
    sys_cfg.mem.timings = config.timings();
    sys_cfg.mem.hammer.nRH = config.nRH;
    sys_cfg.mem.hammer.blastRadius = 1;     // double-sided attack model
    sys_cfg.mem.enableHammerObserver = config.hammerObserver;
    sys_cfg.mem.enableSecurityOracle = config.securityOracle;

    auto system = std::make_unique<System>(
        sys_cfg, [&config, &wrap](unsigned ch) {
            auto mitigation = makeMitigation(config.mechanism,
                                             config.mitigationSettings(ch));
            return wrap ? wrap(std::move(mitigation)) : std::move(mitigation);
        });

    AttackEnv env = config.attackEnv();
    for (unsigned slot = 0; slot < config.threads; ++slot) {
        auto trace = makeTrace(mix.apps[slot], slot, config.threads,
                               system->mem().mapper(), config.seed,
                               config.attack, &env);
        if (isAttackApp(mix.apps[slot])) {
            // A real attacker runs two dependent access chains per hammered
            // bank (one per aggressor row), keeping each bank's ACT
            // pipeline busy; more parallelism per row would only let
            // FR-FCFS coalesce requests into row hits without extra
            // activations.
            CoreConfig attacker = sys_cfg.core;
            unsigned outstanding = 2 * config.attack.numBanks;
            if (mix.apps[slot].rfind(kFuzzPatternPrefix, 0) == 0) {
                AttackPatternSpec spec;
                if (fuzzSpecForApp(mix.apps[slot], spec))
                    outstanding = spec.maxOutstanding();
            } else if (mix.apps[slot] != kAttackAppName) {
                const AttackPatternSpec *spec = findAttackPattern(
                    mix.apps[slot].substr(kAttackPatternPrefix.size()));
                if (spec)
                    outstanding = spec->maxOutstanding();
            }
            attacker.maxOutstandingMem = outstanding;
            system->setTrace(slot, std::move(trace), attacker);
        } else {
            system->setTrace(slot, std::move(trace));
        }
    }
    return system;
}

namespace
{

thread_local WorkCounts tlsWork;
thread_local AloneCounts tlsAlone;

/** Guards the process-wide alone-run totals below. */
std::mutex aloneMutex;
AloneCounts aloneAll;
unsigned aloneInFlight = 0;
std::chrono::steady_clock::time_point aloneSince;

} // namespace

AloneCounts
aloneThisThread()
{
    return tlsAlone;
}

void
resetAloneThisThread()
{
    tlsAlone = AloneCounts{};
}

AloneCounts
aloneTotal()
{
    std::lock_guard<std::mutex> lock(aloneMutex);
    return aloneAll;
}

WorkCounts
workThisThread()
{
    return tlsWork;
}

void
resetWorkThisThread()
{
    tlsWork = WorkCounts{};
}

RunResult
runExperiment(const ExperimentConfig &config, const MixSpec &mix,
              const MitigationWrapper &wrap)
{
    auto system = buildSystem(config, mix, wrap);
    if (config.warmupCycles > 0)
        system->run(config.warmupCycles);
    system->startMeasurement();
    system->run(config.runCycles);

    RunResult res;
    res.mechanism = config.mechanism;
    res.mixName = mix.name;
    for (unsigned t = 0; t < config.threads; ++t) {
        res.ipc.push_back(system->ipc(t));
        res.isAttack.push_back(isAttackApp(mix.apps[t]));
        const Core &core = system->core(t);
        res.cores.push_back(
            {core.retired(), core.memOps(), core.stallCycles()});
    }
    res.energyJ = system->energy();
    // Merge per-channel state deterministically by channel index: counters
    // and flips sum; the per-row activation bound is a maximum.
    MemSystem &mem = system->mem();
    for (unsigned ch = 0; ch < mem.channels(); ++ch) {
        if (auto *hammer = mem.hammerObserver(ch)) {
            res.bitFlips += hammer->bitFlips().size();
            res.maxRowActs = std::max(res.maxRowActs,
                                      hammer->maxRowActivations());
        }
        if (auto *oracle = mem.securityOracle(ch)) {
            // Channels are distinct physical row arrays: margins and
            // window counts take the worst lane (never a sum across
            // aliased (bank, row) coordinates); violating-row counts
            // add up because each lane's rows are physically distinct.
            res.secMargin = std::max(res.secMargin, oracle->margin());
            res.secMaxWindowActs = std::max(res.secMaxWindowActs,
                                            oracle->maxWindowActs());
            res.secFirstViolation = std::min(res.secFirstViolation,
                                             oracle->firstViolationCycle());
            res.secViolatingRows += oracle->violatingRows();
        }
        auto &mc = mem.controller(ch);
        res.demandActs += mc.demandActivations();
        res.blockedActs += mc.blockedActQueries();
        res.victimRefreshes += mc.victimRefreshesDone();
        res.rowHits += mc.rowHits();
        res.rowMisses += mc.rowMisses();
        res.rowConflicts += mc.rowConflicts();
        res.work += WorkCounts{mc.ticksExecuted(), mc.ticksActed(),
                               mc.actQueries(), mc.refusalsReplayed(),
                               mc.schedWork().scanned,
                               mc.schedWork().recomputed};

        // Per-lane StatSet snapshot. Everything in it is event-driven
        // or skip-replayed, so the export is identical for any
        // jobs/skip setting.
        mc.syncStats();
        mc.mitigation().syncStats();
        Json lane = mc.stats.toJson();
        Json mitig = mc.mitigation().stats.toJson();
        if (mitig.objectItems().size() > 0)
            lane["mitigation"] = mitig;
        res.stats["ch" + std::to_string(ch)] = lane;
    }
    tlsWork += res.work;
    return res;
}

std::vector<double>
RunResult::benignIpc() const
{
    std::vector<double> out;
    for (std::size_t i = 0; i < ipc.size(); ++i)
        if (!isAttack[i])
            out.push_back(ipc[i]);
    return out;
}

double
aloneIpc(const ExperimentConfig &config, const std::string &app)
{
    using Key = std::tuple<std::string, Cycle, Cycle, std::uint64_t, double,
                           unsigned>;
    // Guarded for the parallel runner: concurrent cells may race to fill
    // the same key; both compute the same deterministic value, so the
    // lock only protects the map structure, not the result.
    static std::mutex cacheMutex;
    static std::map<Key, double> cache;
    Key key{app, config.runCycles, config.warmupCycles, config.seed,
            config.refwMs, config.channels};
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        if (auto it = cache.find(key); it != cache.end())
            return it->second;
    }

    ExperimentConfig alone = config;
    alone.mechanism = "Baseline";
    alone.threads = 1;
    alone.hammerObserver = false;   // speed: oracle not needed here

    MixSpec mix;
    mix.name = "alone-" + app;
    mix.apps = {app};
    // bh-lint: allow(nondet) wall-clock self-profile sidecar; never feeds simulation state
    auto t0 = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(aloneMutex);
        if (aloneInFlight++ == 0)
            aloneSince = t0;
    }
    std::uint64_t cycles0 = simCyclesThisThread();
    WorkCounts cell_work = tlsWork;
    RunResult res = runExperiment(alone, mix);
    tlsWork = cell_work;
    // bh-lint: allow(nondet) wall-clock self-profile sidecar; never feeds simulation state
    auto t1 = std::chrono::steady_clock::now();
    std::uint64_t cycles = simCyclesThisThread() - cycles0;
    tlsAlone.simCycles += cycles;
    tlsAlone.wallS += std::chrono::duration<double>(t1 - t0).count();
    {
        std::lock_guard<std::mutex> lock(aloneMutex);
        aloneAll.simCycles += cycles;
        if (--aloneInFlight == 0)
            aloneAll.wallS +=
                std::chrono::duration<double>(t1 - aloneSince).count();
    }
    std::lock_guard<std::mutex> lock(cacheMutex);
    cache[key] = res.ipc[0];
    return res.ipc[0];
}

MultiProgMetrics
metricsAgainstAlone(const ExperimentConfig &config, const MixSpec &mix,
                    const RunResult &result)
{
    std::vector<double> shared;
    std::vector<double> alone;
    for (unsigned t = 0; t < config.threads; ++t) {
        if (isAttackApp(mix.apps[t]))
            continue;   // the attack's own performance is not a metric
        shared.push_back(result.ipc[t]);
        alone.push_back(aloneIpc(config, mix.apps[t]));
    }
    // The window resolves at best one retired instruction per runCycles:
    // clamp to that floor so memory-bound apps that round to 0 IPC in
    // short (low --scale) windows contribute a bounded slowdown instead
    // of a degenerate-IPC warning.
    double min_ipc = config.runCycles > 0
        ? 1.0 / static_cast<double>(config.runCycles) : 0.0;
    return computeMetrics(shared, alone, min_ipc);
}

} // namespace bh
