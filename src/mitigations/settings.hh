/**
 * @file
 * Shared configuration for all baseline RowHammer mitigation mechanisms.
 *
 * Every mechanism is configured for the double-sided attack model the
 * paper evaluates (Section 7): two aggressors around a victim means each
 * aggressor only needs N_RH/2 activations, so mechanisms derive their
 * internal trigger thresholds from the halved, effective threshold.
 */

#ifndef BH_MITIGATIONS_SETTINGS_HH
#define BH_MITIGATIONS_SETTINGS_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/timing.hh"

namespace bh
{

class MemController;

/** Parameters common to all mitigation mechanisms. */
struct MitigationSettings
{
    std::uint32_t nRH = 32768;  ///< full single-aggressor threshold
    unsigned blastRadius = 1;   ///< rows refreshed on each side of a trigger
    DramTimings timings = DramTimings::ddr4();
    unsigned banks = 16;
    unsigned rowsPerBank = 65536;
    unsigned threads = 8;
    std::uint64_t seed = 1;

    /** Effective per-aggressor budget under double-sided attacks. */
    std::uint32_t effectiveNRH() const { return nRH / 2; }
};

/**
 * Schedule victim refreshes of the rows up to `settings.blastRadius`
 * away from `row` in `bank` that lie inside the bank, nearest first and
 * the lower row before the upper one. Returns how many it scheduled.
 */
unsigned scheduleNeighborRefreshes(MemController &mc,
                                   const MitigationSettings &settings,
                                   unsigned bank, RowId row);

} // namespace bh

#endif // BH_MITIGATIONS_SETTINGS_HH
