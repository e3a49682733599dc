/**
 * @file
 * The complete BlockHammer mechanism (Section 3): RowBlocker +
 * AttackThrottler behind the memory controller's Mitigation interface.
 *
 * Also carries a simulation-only exact "shadow" tracker that replays the
 * D-CBF's rolling window without aliasing, giving ground truth for the
 * false-positive analyses of Section 8.4 (the hardware mechanism itself
 * never needs it; see exact_shadow.hh).
 *
 * A verdict depends only on the bank's D-CBF, the row's history-buffer
 * entries and time, so BlockHammer (not its observe-only mode, whose
 * "safe" answers still count refusals) exposes per-bank verdict stamps
 * and refusal lapse times, and the controller replays repeated verdicts
 * instead of asking again (Mitigation::verdictStamps).
 */

#ifndef BH_BLOCKHAMMER_BLOCKHAMMER_HH
#define BH_BLOCKHAMMER_BLOCKHAMMER_HH

#include <unordered_map>
#include <vector>

#include "blockhammer/attack_throttler.hh"
#include "blockhammer/exact_shadow.hh"
#include "blockhammer/row_blocker.hh"
#include "mem/mitigation.hh"

namespace bh
{

/** BlockHammer: proactive throttling via Bloom-filter blacklists. */
class BlockHammer : public Mitigation
{
  public:
    explicit BlockHammer(const BlockHammerConfig &config);

    std::string name() const override { return "BlockHammer"; }

    bool isActSafe(unsigned bank, RowId row, ThreadId thread,
                   Cycle now) override;
    void onActivate(unsigned bank, RowId row, ThreadId thread,
                    Cycle now) override;
    void tick(Cycle now) override;
    Cycle nextHousekeepingAt(Cycle now) const override;
    Cycle nextVerdictChangeAt(Cycle now) const override;
    void noteSkippedTicks(std::uint64_t n) override;
    const std::uint64_t *verdictStamps() const override;
    Cycle refusalLapsesAt(unsigned bank, RowId row,
                          Cycle now) const override;
    void noteRepeatedRefusals(std::uint64_t n) override { numUnsafe += n; }
    int quota(ThreadId thread, unsigned bank) const override;
    void syncStats() override;

    /** RHLI of <thread, bank> — the OS-facing interface (Section 3.2.3). */
    double rhli(ThreadId thread, unsigned bank) const
    {
        return throttler.rhli(thread, bank);
    }

    /** Largest RHLI of a thread across banks. */
    double maxRhli(ThreadId thread) const { return throttler.maxRhli(thread); }

    const RowBlocker &rowBlocker() const { return blocker; }
    const BlockHammerConfig &config() const { return cfg; }

    /** Activations issued to already-blacklisted rows. */
    std::uint64_t blacklistedActivations() const { return numBlacklistedActs; }

    /** Activations that were delayed at least one safety rejection. */
    std::uint64_t delayedActivations() const { return numDelayedActs; }

    /** Delayed activations whose exact count was below N_BL (aliasing). */
    std::uint64_t falsePositiveActivations() const { return numFalsePos; }

    /** Total activations observed. */
    std::uint64_t totalActivations() const { return numActs; }

    /** Safety queries answered unsafe. */
    std::uint64_t unsafeVerdicts() const { return numUnsafe; }

    /** Distribution of per-activation delays (cycles). */
    const Histogram &delayHistogram() const { return delayHist; }

  private:
    std::uint64_t
    key(unsigned bank, RowId row) const
    {
        return (static_cast<std::uint64_t>(bank) << 32) | row;
    }

    BlockHammerConfig cfg;
    RowBlocker blocker;
    AttackThrottler throttler;
    ExactShadow shadow;
    /// Per bank: moves at its activations and at every epoch swap.
    std::vector<std::uint64_t> stamps;

    /** First-blocked timestamps of rows currently being delayed. */
    std::unordered_map<std::uint64_t, Cycle> firstBlocked;

    std::uint64_t numActs = 0;
    std::uint64_t numBlacklistedActs = 0;
    std::uint64_t numDelayedActs = 0;
    std::uint64_t numFalsePos = 0;
    std::uint64_t numUnsafe = 0;
    std::uint64_t unsafeAtTickStart = 0;    ///< snapshot for skip replay
    std::uint64_t unsafeTickDelta = 0;      ///< latched per-tick query count
    bool unsafeDeltaLatched = false;
    Histogram delayHist;
    Histogram fpHist;
};

} // namespace bh

#endif // BH_BLOCKHAMMER_BLOCKHAMMER_HH
