/**
 * @file
 * MRLoc: Mitigating Row-hammering based on memory Locality (You & Yang,
 * DAC 2019).
 *
 * Extends PARA with temporal locality: potential victims enter a FIFO
 * queue on every activation, and the refresh probability for a victim
 * grows with how recently it was enqueued before (high locality = likely
 * under attack). We implement the paper's published structure with its
 * empirically-determined parameters expressed as a queue size and a
 * locality-weighted probability around the PARA-equivalent base rate.
 */

#ifndef BH_MITIGATIONS_MRLOC_HH
#define BH_MITIGATIONS_MRLOC_HH

#include <unordered_map>

#include "common/rng.hh"
#include "mem/mitigation.hh"
#include "mitigations/settings.hh"

namespace bh
{

/** MRLoc mechanism. */
class MrLoc : public Mitigation
{
  public:
    explicit MrLoc(const MitigationSettings &settings);

    std::string name() const override { return "MRLoc"; }
    /** Keeps the default isActSafe: always safe, nothing recorded. */
    bool actQueriesObservable() const override { return false; }

    void onActivate(unsigned bank, RowId row, ThreadId thread,
                    Cycle now) override;

    std::uint64_t refreshesIssued() const { return numRefreshes; }
    double baseProbability() const { return pBase; }

    static constexpr unsigned kQueueSize = 1024;

  private:
    std::uint64_t
    key(unsigned bank, RowId row) const
    {
        return (static_cast<std::uint64_t>(bank) << 32) | row;
    }

    MitigationSettings cfg;
    double pBase = 0.0;
    Rng rng;
    /** Victim locality queue, tracked as last-enqueue sequence numbers. */
    std::unordered_map<std::uint64_t, std::uint64_t> lastSeen;
    std::uint64_t seqNo = 0;
    std::uint64_t numRefreshes = 0;
};

} // namespace bh

#endif // BH_MITIGATIONS_MRLOC_HH
