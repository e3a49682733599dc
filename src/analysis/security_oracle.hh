/**
 * @file
 * End-to-end security-verification oracle for the paper's central claim
 * (Sections 5 and 8.2): under BlockHammer, no DRAM row is ever
 * activated N_RH times within any time window of length tREFW.
 *
 * The oracle observes every demand activation a memory channel issues
 * and maintains, per (bank, row), the activation count inside a
 * *sliding* tREFW window. Sliding windows are strictly stronger than
 * the between-refresh counters the HammerObserver keeps: an attack that
 * hammers N_RH/2 times just before a row's refresh and N_RH/2 just
 * after shows only N_RH/2 per refresh interval, yet a victim whose own
 * refresh sits half a window out of phase absorbs the full N_RH of
 * disturbance. The oracle therefore observes activations only: no
 * refresh can reset a sliding count (the straddle case), by
 * construction. The refresh-aligned count lives in HammerObserver
 * (RunResult::maxRowActs).
 *
 * The verdict of a run is its *disturbance margin*: the maximum sliding
 * window count any row ever reached, divided by N_RH. margin < 1 means
 * the activation-bounding guarantee held; margin >= 1 records the first
 * violation cycle. Mechanisms that protect by refreshing victims
 * instead of throttling aggressors (PARA, PRoHIT, MRLoc) legitimately
 * run at margin >= 1 with zero bit-flips — the bench/secsweep
 * experiment reports both so the two defense classes are
 * distinguishable as data.
 */

#ifndef BH_ANALYSIS_SECURITY_ORACLE_HH
#define BH_ANALYSIS_SECURITY_ORACLE_HH

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "common/types.hh"
#include "dram/org.hh"

namespace bh
{

/** Oracle configuration: the claim's threshold and window. */
struct SecurityOracleConfig
{
    std::uint32_t nRH = 32768;      ///< RowHammer threshold N_RH
    Cycle windowCycles = 0;         ///< tREFW in CPU cycles (> 0)
};

/** Peak sliding-window observation of a run. */
struct OraclePeak
{
    std::uint64_t acts = 0;         ///< max window count reached
    unsigned bank = 0;
    RowId row = 0;
    Cycle cycle = 0;                ///< when the max was reached
};

/** Sliding-window per-row activation counter for one memory channel. */
class SecurityOracle
{
  public:
    SecurityOracle(const DramOrg &org, const SecurityOracleConfig &config);

    /** Record a demand activation of (bank, row) at `now`. */
    void onActivate(unsigned bank, RowId row, Cycle now);

    /** Max sliding-window count any row ever reached. */
    std::uint64_t maxWindowActs() const { return peakState.acts; }

    /** maxWindowActs / N_RH — the security verdict (>= 1 = violated). */
    double
    margin() const
    {
        return static_cast<double>(peakState.acts) / cfg.nRH;
    }

    /** Where and when the peak was observed. */
    const OraclePeak &peak() const { return peakState; }

    /** First cycle any row's window count reached N_RH (kNoEventCycle
     *  when the bound held for the whole run). */
    Cycle firstViolationCycle() const { return firstViolation; }

    /** Distinct rows whose window count ever reached N_RH. */
    std::uint64_t violatingRows() const { return numViolatingRows; }

    /** Total activations observed. */
    std::uint64_t activationCount() const { return acts; }

    /** Current window count of one row at `now` (test introspection;
     *  prunes expired activations as a side effect). */
    std::uint32_t currentWindowActs(unsigned bank, RowId row, Cycle now);

    const SecurityOracleConfig &config() const { return cfg; }

  private:
    struct RowState
    {
        std::deque<Cycle> window;       ///< act cycles, oldest first
        bool violated = false;
    };

    std::size_t
    index(unsigned bank, RowId row) const
    {
        return static_cast<std::size_t>(bank) * rows + row;
    }

    // bh-lint: allow(observer-const) private helper mutating the oracle's own window state, not an observer hook
    void prune(RowState &state, Cycle now);

    SecurityOracleConfig cfg;
    unsigned rows = 0;
    /** Sparse per-row sliding windows, keyed by flat (bank, row). */
    std::unordered_map<std::size_t, RowState> touched;
    OraclePeak peakState;
    Cycle firstViolation = kNoEventCycle;
    std::uint64_t numViolatingRows = 0;
    std::uint64_t acts = 0;
};

} // namespace bh

#endif // BH_ANALYSIS_SECURITY_ORACLE_HH
