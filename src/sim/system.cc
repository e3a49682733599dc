#include "sim/system.hh"

#include <algorithm>
#include <atomic>

#include "common/log.hh"
#include "common/trace_sink.hh"

namespace bh
{

namespace
{

thread_local std::uint64_t tlsSimCycles = 0;
std::atomic<std::uint64_t> allSimCycles{0};

std::vector<std::unique_ptr<Mitigation>>
buildPerChannel(const SystemConfig &cfg, const MitigationFactory &factory)
{
    std::vector<std::unique_ptr<Mitigation>> v;
    for (unsigned ch = 0; ch < cfg.mem.org.channels; ++ch)
        v.push_back(factory(ch));
    return v;
}

} // namespace

std::uint64_t
simCyclesThisThread()
{
    return tlsSimCycles;
}

void
resetSimCyclesThisThread()
{
    tlsSimCycles = 0;
}

std::uint64_t
simCyclesTotal()
{
    return allSimCycles.load(std::memory_order_relaxed);
}

System::System(const SystemConfig &config, const MitigationFactory &factory)
    : cfg(config)
{
    memSys = std::make_unique<MemSystem>(
        cfg.mem, buildPerChannel(cfg, factory));
    // --skip off is the end-to-end reference: no fast paths anywhere.
    // --skip verify keeps them, and checks every replayed window.
    for (unsigned ch = 0; ch < memSys->channels(); ++ch) {
        memSys->controller(ch).setFastIdleTicks(
            cfg.skip != SkipMode::kCycleByCycle);
        if (cfg.skip == SkipMode::kVerify)
            memSys->controller(ch).verifyReplays(ch);
    }
    if (cfg.useLlc)
        llcPtr = std::make_unique<Llc>(cfg.llc, *memSys);
    traces.resize(cfg.threads);
    cores.resize(cfg.threads);
    // Trace identity: one pid per simulated system, one tid per channel
    // lane, tid == channel count for driver-level spans. Assignment is
    // observation-only — simulation state never depends on it.
    if (TraceSink::on()) {
        std::uint32_t pid = TraceSink::newPid();
        for (unsigned ch = 0; ch < memSys->channels(); ++ch) {
            TraceMeta meta{pid, ch};
            memSys->controller(ch).setTraceMeta(meta);
            memSys->controller(ch).mitigation().setTraceMeta(meta);
        }
        driverMeta = TraceMeta{pid, memSys->channels()};
    }
}

System::System(const SystemConfig &config,
               std::unique_ptr<Mitigation> mitigation)
    : System(config,
             [&mitigation](unsigned ch) {
                 if (ch != 0 || !mitigation)
                     fatal("System: a multi-channel system needs a "
                           "MitigationFactory (one instance per channel)");
                 return std::move(mitigation);
             })
{
}

void
System::setTrace(unsigned slot, std::unique_ptr<TraceSource> trace)
{
    setTrace(slot, std::move(trace), cfg.core);
}

void
System::setTrace(unsigned slot, std::unique_ptr<TraceSource> trace,
                 const CoreConfig &core_cfg)
{
    if (slot >= cfg.threads)
        fatal("trace slot %u out of range", slot);
    // Completion tokens of the old core's in-flight ops point at it.
    if (currentCycle > 0)
        fatal("trace slot %u set after the system ran (cycle %lld)", slot,
              static_cast<long long>(currentCycle));
    traces[slot] = std::move(trace);
    cores[slot] = std::make_unique<Core>(
        core_cfg, static_cast<ThreadId>(slot), *traces[slot],
        llcPtr.get(), *memSys);
}

std::uint64_t
System::uncoreStamp() const
{
    std::uint64_t s = memSys->activityStamp();
    if (llcPtr)
        s += llcPtr->writebacks();
    return s;
}

Cycle
System::quietHorizon(Cycle end, bool lanes_idle)
{
    // Lanes that still work may tick alone only while every core and the
    // LLC is provably quiet: their ticks are no-ops until a delivery.
    if (!lanes_idle) {
        for (const auto &core : cores)
            if (!core->quietTick())
                return currentCycle;
        if (llcPtr && !llcPtr->quiet())
            return currentCycle;
    }
    Cycle target = end;
    // A core wakes on its own at its window head's known completion time.
    for (const auto &core : cores) {
        Cycle e = core->nextEventAt();
        if (e != kNoEventCycle)
            target = std::min(target, e);
    }
    // A pending completion delivery mutates core/LLC state at exactly
    // its due cycle (multi-channel only; the single-channel heap is
    // always empty).
    Cycle due = memSys->nextCompletionAt();
    if (due != kNoEventCycle)
        target = std::min(target, due);
    if (lanes_idle) {
        // Idle controllers act next at their own event, on their clock.
        Cycle mc = memSys->nextEventAt(currentCycle);
        if (mc != kNoEventCycle)
            target = std::min(target, mcEdge(mc));
    } else {
        // Completions produced by busy lanes complete no earlier than
        // first-lane-tick + minCompletionLatency; ending the stretch
        // there guarantees no delivery ever lands inside it.
        target = std::min(target, mcEdge(currentCycle) +
                                      memSys->minCompletionLatency());
    }
    return std::max(target, currentCycle);
}

void
System::advanceQuiet(Cycle target, bool lanes_idle)
{
    Cycle start = currentCycle;
    Cycle first_mc = mcEdge(start);
    unsigned channels = memSys->channels();
    auto mc_ticks =
        static_cast<std::uint64_t>((mcEdge(target) - first_mc) / kMcDivider);
    if (mc_ticks > 0) {
        // Each controller executes or replays its own ticks, so the
        // result is bit-identical to ticking every cycle.
        for (unsigned ch = 0; ch < channels; ++ch)
            memSys->controller(ch).advance(first_mc, target, kMcDivider);
    }
    // Cores skip their ticks; a stalled core accrues the stall cycles of
    // the retries it skipped at its next tick (Core::accrueStalls).
    auto k_cpu = static_cast<std::uint64_t>(target - start);
    (lanes_idle ? numSkipped : numChunked) += k_cpu;
    currentCycle = target;
    if (TraceSink::on()) {
        TraceSink::complete(
            lanes_idle ? "skip" : "lane", lanes_idle ? "jump" : "chunk",
            driverMeta, start, target - start,
            {{"mc_ticks", static_cast<std::int64_t>(mc_ticks)},
             {"channels", static_cast<std::int64_t>(channels)}});
    }
}

void
System::run(Cycle cycles)
{
    for (unsigned t = 0; t < cfg.threads; ++t)
        if (!cores[t])
            fatal("core slot %u has no trace installed", t);

    // Perf telemetry: all of [currentCycle, end) is simulated time, no
    // matter how it is covered (executed, chunked, or skipped).
    tlsSimCycles += static_cast<std::uint64_t>(cycles);
    allSimCycles.fetch_add(static_cast<std::uint64_t>(cycles),
                           std::memory_order_relaxed);

    Cycle end = currentCycle + cycles;
    unsigned n = static_cast<unsigned>(cores.size());
    bool track = cfg.skip != SkipMode::kCycleByCycle;
    bool verify = cfg.skip == SkipMode::kVerify;
    bool multi = memSys->channels() > 1;
    while (currentCycle < end) {
        // Completions due this cycle mutate core/LLC state before any
        // component ticks (multi-channel; single-channel delivers inline
        // at issue, the legacy path).
        if (multi)
            memSys->deliverCompletionsDue(currentCycle);
        std::uint64_t before = track ? uncoreStamp() : 0;
        // Rotate the tick order so no core gets a systematic head start
        // when racing for shared queue slots. A sleeping core's tick
        // would change nothing (--skip verify runs it to check that),
        // so it can neither progress nor need its stall counted now.
        bool cores_moved = false;
        unsigned slot = static_cast<unsigned>(currentCycle) % n;
        for (unsigned i = 0; i < n; ++i, slot = slot + 1 == n ? 0 : slot + 1) {
            Core &core = *cores[slot];
            SleepRule rule =
                track ? core.asleep(currentCycle) : SleepRule::kAwake;
            if (rule == SleepRule::kAwake) {
                ++numCoreTicks;
                cores_moved |= core.tick(currentCycle);
                if (track)
                    core.sleepIfNoop();
            } else {
                ++numCoreSleeps;
                if (verify)
                    core.verifySleep(currentCycle, rule);
            }
        }
        if (llcPtr)
            llcPtr->tick(currentCycle);
        if (currentCycle % kMcDivider == 0)
            memSys->tick(currentCycle);
        Cycle ticked = currentCycle;
        ++currentCycle;

        if (!track)
            continue;
        bool progressed = cores_moved || uncoreStamp() != before;
        bool idle = !progressed && memSys->allIdleSinceLastTick();

        if (cfg.skip == SkipMode::kVerify) {
            // Cross-check: any progress inside a previously claimed quiet
            // region falsifies the skip analysis.
            if (progressed && ticked < verifiedQuietUntil)
                panic("event-skip verify: progress at cycle %lld inside a "
                      "region claimed quiet until %lld",
                      static_cast<long long>(ticked),
                      static_cast<long long>(verifiedQuietUntil));
            if (idle)
                verifiedQuietUntil =
                    std::max(verifiedQuietUntil, quietHorizon(end, true));
            continue;
        }

        // Every lane idle: jump. Lanes busy but cores/LLC quiet: let the
        // lanes tick alone. The latter is meaningless for one channel,
        // where the whole cycle is the lane tick.
        if (!idle && !multi)
            continue;
        Cycle target = quietHorizon(end, idle);
        if (target > currentCycle)
            advanceQuiet(target, idle);
    }
    // Stall cycles of the ticks that slept or were skipped are counted
    // lazily; settle them so stallCycles() is exact between runs.
    for (auto &core : cores)
        core->accrueStalls(currentCycle);
}

void
System::startMeasurement()
{
    measureStart = currentCycle;
    energyAtMeasureStart = memSys->totalEnergy(currentCycle);
    retiredAtMeasureStart.clear();
    for (auto &core : cores)
        retiredAtMeasureStart.push_back(core ? core->retired() : 0);
}

double
System::ipc(unsigned slot) const
{
    Cycle window = currentCycle - measureStart;
    if (window <= 0)
        return 0.0;
    std::uint64_t base = slot < retiredAtMeasureStart.size()
        ? retiredAtMeasureStart[slot] : 0;
    return static_cast<double>(cores[slot]->retired() - base) /
        static_cast<double>(window);
}

} // namespace bh
