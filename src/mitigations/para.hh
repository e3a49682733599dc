/**
 * @file
 * PARA: Probabilistic Adjacent Row Activation (Kim et al., ISCA 2014).
 *
 * On every activation, with probability p the controller refreshes one of
 * the two adjacent rows (chosen uniformly). p is solved so the chance
 * that a victim survives N_RH/2 aggressor activations without a refresh
 * stays below the 1e-15 consumer reliability target the paper uses:
 * (1 - p/2)^(N_RH/2) <= 1e-15.
 */

#ifndef BH_MITIGATIONS_PARA_HH
#define BH_MITIGATIONS_PARA_HH

#include "common/rng.hh"
#include "mem/mitigation.hh"
#include "mitigations/settings.hh"

namespace bh
{

/** PARA mechanism. */
class Para : public Mitigation
{
  public:
    explicit Para(const MitigationSettings &settings);

    std::string name() const override { return "PARA"; }
    /** Keeps the default isActSafe: always safe, nothing recorded. */
    bool actQueriesObservable() const override { return false; }

    void onActivate(unsigned bank, RowId row, ThreadId thread,
                    Cycle now) override;

    /** The solved refresh probability. */
    double probability() const { return p; }

    /** Solve p for a given threshold and failure target. */
    static double solveProbability(std::uint32_t effective_nrh,
                                   double failure_target = 1e-15);

    std::uint64_t refreshesIssued() const { return numRefreshes; }

  private:
    MitigationSettings cfg;
    double p = 0.0;
    Rng rng;
    std::uint64_t numRefreshes = 0;
};

} // namespace bh

#endif // BH_MITIGATIONS_PARA_HH
