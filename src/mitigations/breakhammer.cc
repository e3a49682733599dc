#include "mitigations/breakhammer.hh"

#include <algorithm>
#include <cmath>

#include "mem/controller.hh"

namespace bh
{

BreakHammer::BreakHammer(std::unique_ptr<Mitigation> base_mech,
                         const MitigationSettings &settings)
    : base(std::move(base_mech)), cfg(settings),
      epoch(std::max<Cycle>(1, settings.timings.tREFW / 2)),
      nextEpochAt(std::max<Cycle>(1, settings.timings.tREFW / 2))
{
    // Score normalization: a tracker triggers at most once per T
    // aggressor activations (T = half the effective budget, the ladder
    // every tracker here derives), and one bank absorbs at most
    // W = tREFW / tRC activations per window. A thread blamed for half
    // a bank's worst-case trigger rate is certainly hammering; benign
    // threads trigger preventive refreshes rarely if ever.
    auto w = static_cast<double>(
        cfg.timings.tREFW / std::max<Cycle>(1, cfg.timings.tRC));
    double t = std::max<std::uint32_t>(1, cfg.effectiveNRH() / 2);
    blameDenom = std::max(4.0, w / (2.0 * t));
    // Scores never need to exceed ~2 (quota is 0 from 1 up), so
    // saturating counters suffice, mirroring AttackThrottler.
    counters = ThrottleCounters(
        cfg.threads, static_cast<std::uint32_t>(std::ceil(2.0 * blameDenom)));
}

void
BreakHammer::setController(MemController *mc)
{
    Mitigation::setController(mc);
    base->setController(mc);
}

void
BreakHammer::blame(ThreadId thread, std::uint64_t triggers)
{
    if (thread < 0 || static_cast<unsigned>(thread) >= cfg.threads)
        return;
    numBlamed += triggers;
    counters.add(static_cast<std::size_t>(thread), triggers);
}

void
BreakHammer::onActivate(unsigned bank, RowId row, ThreadId thread,
                        Cycle now)
{
    // The blame signal: victim refreshes the base schedules while
    // digesting this activation. onActivate never runs during skipped
    // idle ticks, so the scores need no skip-replay bookkeeping.
    std::uint64_t before = controller->victimRefreshesScheduled();
    base->onActivate(bank, row, thread, now);
    std::uint64_t delta = controller->victimRefreshesScheduled() - before;
    if (delta > 0) {
        // Refreshes -> trigger events: one trigger fans out to
        // 2 * blastRadius victims per affected bank, and a wide fan-out
        // (ABACuS refreshing every bank) is proportionally more blame.
        std::uint64_t fan = 2ull * std::max(1u, cfg.blastRadius);
        blame(thread, (delta + fan - 1) / fan);
        if (TraceSink::on()) {
            TraceSink::instant(
                "mitig", "breakhammer_blame", tmeta, now,
                {{"thread", static_cast<std::int64_t>(thread)},
                 {"refreshes", static_cast<std::int64_t>(delta)}});
        }
    }
}

void
BreakHammer::tick(Cycle now)
{
    base->tick(now);
    while (now >= nextEpochAt) {
        for (unsigned t = 0; t < cfg.threads; ++t)
            if (static_cast<double>(counters.value(t)) >= blameDenom)
                ++numThrottledEpochs;
        counters.swap();
        nextEpochAt += epoch;
    }
}

Cycle
BreakHammer::nextHousekeepingAt(Cycle now) const
{
    return std::min(base->nextHousekeepingAt(now), nextEpochAt);
}

double
BreakHammer::score(ThreadId thread) const
{
    if (thread < 0 || static_cast<unsigned>(thread) >= cfg.threads)
        return 0.0;
    return static_cast<double>(
               counters.value(static_cast<std::size_t>(thread))) /
        blameDenom;
}

std::uint32_t
BreakHammer::blamedTriggers(ThreadId thread) const
{
    if (thread < 0 || static_cast<unsigned>(thread) >= cfg.threads)
        return 0;
    return counters.value(static_cast<std::size_t>(thread));
}

int
BreakHammer::threadQuota(ThreadId thread) const
{
    return throttleQuota(score(thread), baseQuota);
}

void
BreakHammer::syncStats()
{
    base->syncStats();
    // Re-export the wrapped mechanism's counters and scalars so a
    // composed report reads like the base's (histograms stay with the
    // base; no wrapped mechanism publishes any today).
    for (const auto &kv : base->stats.counters())
        stats.inc(kv.first, kv.second);
    for (const auto &kv : base->stats.scalars())
        stats.set(kv.first, kv.second);
    // Publish the throttler's own counters only once it ever blamed a
    // thread: an inert wrapper must leave the wrapped system's report
    // bytes untouched (the breakhammer+baseline == baseline identity).
    if (numBlamed > 0) {
        stats.inc("bkh.blamed_triggers", numBlamed);
        stats.inc("bkh.throttled_thread_epochs", numThrottledEpochs);
    }
}

} // namespace bh
