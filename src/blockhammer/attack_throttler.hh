/**
 * @file
 * AttackThrottler (Section 3.2): per-<thread, bank> RowHammer likelihood
 * index (RHLI) tracking and in-flight request quotas.
 *
 * RHLI (Equation 2) is the number of blacklisted-row activations a thread
 * performed in a bank, normalized to the maximum number of times any
 * blacklisted row can be activated under RowBlocker's protection. Two
 * saturating counters per pair are kept in the same time-interleaved
 * manner as the D-CBFs; the quota shrinks as RHLI grows and reaches zero
 * at RHLI >= 1. BreakHammer reuses the counter pair and the quota curve.
 */

#ifndef BH_BLOCKHAMMER_ATTACK_THROTTLER_HH
#define BH_BLOCKHAMMER_ATTACK_THROTTLER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "blockhammer/config.hh"

namespace bh
{

/**
 * Per-slot pairs of saturating counters: both sides count every event,
 * and each epoch boundary (timed by the caller) clears the active side
 * and swaps, so the authoritative side covers one to two epochs.
 */
class ThrottleCounters
{
  public:
    ThrottleCounters() = default;
    ThrottleCounters(std::size_t slots, std::uint32_t max)
        : counterMax(max), sides{std::vector<std::uint32_t>(slots, 0),
                                 std::vector<std::uint32_t>(slots, 0)}
    {
    }

    /** Count `n` events of `slot` on both sides, saturating at max. */
    void
    add(std::size_t slot, std::uint64_t n = 1)
    {
        for (auto &side : sides)
            side[slot] = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(side[slot] + n, counterMax));
    }

    /** Active-side count of `slot`. */
    std::uint32_t value(std::size_t slot) const { return sides[active][slot]; }

    /** Epoch boundary: clear the active side, then swap sides. */
    void
    swap()
    {
        std::fill(sides[active].begin(), sides[active].end(), 0);
        active = 1 - active;
    }

  private:
    std::uint32_t counterMax = 0;
    unsigned active = 0;
    std::vector<std::uint32_t> sides[2];
};

/**
 * In-flight request quota for a throttling score: unlimited (-1) at
 * score <= 0, zero at score >= 1, floor(base * (1 - score)) between.
 */
int throttleQuota(double score, int base);

/** RHLI tracker + quota engine. */
class AttackThrottler
{
  public:
    explicit AttackThrottler(const BlockHammerConfig &config);

    /** Record an activation of an already-blacklisted row. */
    void onBlacklistedActivate(ThreadId thread, unsigned bank);

    /** RHLI of <thread, bank> (Equation 2). */
    double rhli(ThreadId thread, unsigned bank) const;

    /** Largest RHLI of `thread` across banks (OS-facing indicator). */
    double maxRhli(ThreadId thread) const;

    /**
     * In-flight request quota for <thread, bank>: unlimited (-1) at
     * RHLI == 0, shrinking to 0 at RHLI >= 1.
     */
    int quota(ThreadId thread, unsigned bank) const;

    /** Swap + clear active counters (synchronized with D-CBF clears). */
    void onEpochBoundary();

    const BlockHammerConfig &config() const { return cfg; }

  private:
    std::size_t
    index(ThreadId thread, unsigned bank) const
    {
        return static_cast<std::size_t>(thread) * cfg.banks + bank;
    }

    BlockHammerConfig cfg;
    double denom = 1.0;
    ThrottleCounters counters;      ///< per <thread, bank>
};

} // namespace bh

#endif // BH_BLOCKHAMMER_ATTACK_THROTTLER_HH
