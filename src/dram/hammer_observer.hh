/**
 * @file
 * RowHammer failure model (Section 2.2 and Section 4 of the paper).
 *
 * Every row accumulates disturbance from activations of rows within the
 * blast radius: hammering a row N times disturbs a victim k rows away by
 * N * c_k, with c_k = blastImpactBase^(k-1) (paper worst case 0.5^(k-1)).
 * A victim whose accumulated disturbance reaches N_RH between two of its
 * own refreshes suffers a bit-flip. Refreshing a row (auto refresh or a
 * mitigation's victim refresh) resets its accumulator.
 *
 * The per-row state (12 MiB per channel at the paper's geometry) starts
 * as untouched zero pages, and a refresh writes zeros only inside the
 * 512-row groups some activation wrote: a group no ACT reached still
 * reads zero, so the auto-refresh sweep leaves its pages unmapped.
 *
 * This is the ground-truth oracle the simulator uses to decide whether a
 * mitigation mechanism actually prevented all bit-flips.
 */

#ifndef BH_DRAM_HAMMER_OBSERVER_HH
#define BH_DRAM_HAMMER_OBSERVER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "common/zeroed_array.hh"
#include "dram/org.hh"

namespace bh
{

/** A detected RowHammer bit-flip event. */
struct BitFlipEvent
{
    unsigned bank = 0;
    RowId victimRow = 0;
    Cycle cycle = 0;
};

/** Configuration of the failure model. */
struct HammerConfig
{
    std::uint32_t nRH = 32768;      ///< RowHammer threshold N_RH
    unsigned blastRadius = 1;       ///< r_blast (1 = adjacent only)
    double blastImpactBase = 0.5;   ///< c_k = base^(k-1)
};

/** Tracks per-row disturbance and detects bit-flips. */
class HammerObserver
{
  public:
    HammerObserver(const DramOrg &org, const HammerConfig &config);

    /** Record an activation of (bank, row) at `now`. */
    void onActivate(unsigned bank, RowId row, Cycle now);

    /** Record that (bank, row) was refreshed (disturbance resets). */
    void onRowRefresh(unsigned bank, RowId row);

    /** Record an auto-refresh of a row range in every bank. */
    void onAutoRefresh(RowId first_row, unsigned num_rows);

    /** All bit-flips detected so far. */
    const std::vector<BitFlipEvent> &bitFlips() const { return flips; }

    /** Total activations observed. */
    std::uint64_t activationCount() const { return acts; }

    /**
     * Maximum activation count any single row has received between its own
     * refreshes (the quantity BlockHammer's proof bounds).
     */
    std::uint64_t maxRowActivations() const { return maxRowActs; }

    /** Current per-row activation count since the row's last refresh. */
    std::uint32_t
    rowActivations(unsigned bank, RowId row) const
    {
        return actCount[index(bank, row)] & ~kFlipped;
    }

    /** Disturbance a row has accumulated since its last refresh. */
    double
    rowDisturbance(unsigned bank, RowId row) const
    {
        return disturbance[index(bank, row)];
    }

    const HammerConfig &config() const { return cfg; }

    /** Bytes of per-row state mapped in this process (observation-only). */
    std::size_t
    residentBytes() const
    {
        return disturbance.residentBytes() + actCount.residentBytes();
    }

  private:
    /** Rows per written-group byte: one 4 KB page of `disturbance`. */
    static constexpr std::size_t kGroupRows = 512;

    /**
     * Count-word flag: the row's flip was already reported. A count
     * stays far below it: a row takes at most tREFW / tRC activations
     * between two of its own refreshes.
     */
    static constexpr std::uint32_t kFlipped = 1u << 31;

    std::size_t
    index(unsigned bank, RowId row) const
    {
        return static_cast<std::size_t>(bank) * rows + row;
    }

    /** Zero flat rows [i, i + len), skipping groups no ACT wrote. */
    void clearRows(std::size_t i, std::size_t len);

    DramOrg org;
    HammerConfig cfg;
    unsigned rows = 0;
    unsigned banks = 0;
    ZeroedArray<double> disturbance;    ///< per (bank,row)
    /** Acts since own refresh, kFlipped in the top bit. */
    ZeroedArray<std::uint32_t> actCount;
    /** Per kGroupRows flat rows: an ACT wrote the group (never cleared). */
    std::vector<std::uint8_t> written;
    std::vector<double> impact;         ///< c_k per distance
    std::vector<BitFlipEvent> flips;
    std::uint64_t acts = 0;
    std::uint64_t maxRowActs = 0;
};

} // namespace bh

#endif // BH_DRAM_HAMMER_OBSERVER_HH
