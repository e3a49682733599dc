#include "blockhammer/attack_throttler.hh"

#include <algorithm>
#include <cmath>

namespace bh
{

int
throttleQuota(double score, int base)
{
    if (score <= 0.0)
        return -1;      // benign: unlimited
    if (score >= 1.0)
        return 0;       // certain attacker: block entirely
    double q = static_cast<double>(base) * (1.0 - score);
    return std::max(0, static_cast<int>(std::floor(q)));
}

AttackThrottler::AttackThrottler(const BlockHammerConfig &config)
    : cfg(config), denom(config.rhliDenominator()),
      // In a protected system RHLI cannot exceed 1 (the zero quota stops
      // the activations), so saturating counters suffice (Section
      // 3.2.1). Observe-only mode interferes with nothing and counts
      // exactly, so the measured RHLI can reach the paper's >>1 values.
      counters(static_cast<std::size_t>(config.threads) * config.banks,
               config.observeOnly ? 0xffffffffu
                                  : config.throttlerCounterMax())
{
}

void
AttackThrottler::onBlacklistedActivate(ThreadId thread, unsigned bank)
{
    if (thread < 0 || static_cast<unsigned>(thread) >= cfg.threads)
        return;
    counters.add(index(thread, bank));
}

double
AttackThrottler::rhli(ThreadId thread, unsigned bank) const
{
    if (thread < 0 || static_cast<unsigned>(thread) >= cfg.threads)
        return 0.0;
    if (denom <= 0.0)
        return 0.0;
    return static_cast<double>(counters.value(index(thread, bank))) / denom;
}

double
AttackThrottler::maxRhli(ThreadId thread) const
{
    double m = 0.0;
    for (unsigned b = 0; b < cfg.banks; ++b)
        m = std::max(m, rhli(thread, b));
    return m;
}

int
AttackThrottler::quota(ThreadId thread, unsigned bank) const
{
    return throttleQuota(rhli(thread, bank), cfg.baseQuota);
}

void
AttackThrottler::onEpochBoundary()
{
    counters.swap();
}

} // namespace bh
