/**
 * @file
 * Multi-channel memory system: one channel lane per DRAM channel, each
 * with its own controller, DRAM device, scheduler queues, energy model,
 * RowHammer failure oracle, and mitigation-mechanism instance (the paper
 * evaluates one BlockHammer instance per channel, Table 5). The address
 * mapper steers requests to lanes by their channel bits; admission
 * (AttackThrottler quotas, queue-full gating) is checked against the
 * target lane.
 *
 * Lanes are self-contained: a lane's tick touches only lane-local state,
 * so the driver may run one lane through a whole chunk of ticks before
 * the next. A lane pushes each read's completion token into the one
 * delivery heap (see Delivery), and the driver delivers it to its core
 * or the LLC at cycle `done`, in (done, channel, lane-sequence) order —
 * byte-identical to ticking every lane every cycle. Single-channel
 * systems complete inline at column issue, a deliberate timing
 * difference (DESIGN.md, "Architecture").
 */

#ifndef BH_MEM_MEM_SYSTEM_HH
#define BH_MEM_MEM_SYSTEM_HH

#include <memory>
#include <vector>

#include "analysis/security_oracle.hh"
#include "dram/address_map.hh"
#include "mem/controller.hh"

namespace bh
{

/** Aggregate configuration for a memory system instance. */
struct MemSystemConfig
{
    DramOrg org = DramOrg::paperConfig();
    DramTimings timings = DramTimings::ddr4();
    MapScheme scheme = MapScheme::kMop;
    ControllerConfig ctrl;
    HammerConfig hammer;
    bool enableHammerObserver = true;
    bool enableEnergy = true;
    /**
     * Attach a per-channel SecurityOracle (sliding-tREFW-window per-row
     * ACT counting; see analysis/security_oracle.hh). Observation-only
     * and off by default: enabling it cannot change simulation results,
     * only record the security verdict. The oracle derives its
     * threshold/window from `hammer.nRH` and `timings.tREFW`.
     */
    bool enableSecurityOracle = false;
};

/** Why a submit() was rejected. */
enum class SubmitResult
{
    kAccepted,
    kQueueFull,
    kQuotaExceeded,
};

/** The full memory subsystem behind the LLC. */
class MemSystem
{
  public:
    /**
     * Multi-channel constructor: one mitigation instance per channel
     * (`mitigations.size()` must equal `config.org.channels`).
     */
    MemSystem(const MemSystemConfig &config,
              std::vector<std::unique_ptr<Mitigation>> mitigations);

    /** Single-channel convenience constructor (org.channels must be 1). */
    MemSystem(const MemSystemConfig &config,
              std::unique_ptr<Mitigation> mitigation);

    /** Lanes hold the delivery heap's address: neither copied nor moved. */
    MemSystem(const MemSystem &) = delete;
    MemSystem &operator=(const MemSystem &) = delete;

    /** Decode, check quota, and enqueue a request on its channel lane. */
    SubmitResult submit(Request req);

    /** Would a request of `type` to `addr` bounce off a full queue? */
    bool queueFull(ReqType type, Addr addr) const;

    /** Advance every lane one memory-controller cycle (serially). */
    void tick(Cycle now);

    /** Total DRAM energy in Joules across all lanes up to `now`. */
    double totalEnergy(Cycle now);

    /** Number of channel lanes. */
    unsigned channels() const
    {
        return static_cast<unsigned>(lanes.size());
    }

    /** Per-channel component access. */
    MemController &controller(unsigned ch) { return *lanes[ch].ctrl; }
    const MemController &controller(unsigned ch) const
    {
        return *lanes[ch].ctrl;
    }
    DramDevice &device(unsigned ch) { return *lanes[ch].dram; }
    Mitigation &mitigation(unsigned ch) { return *lanes[ch].mitig; }
    HammerObserver *hammerObserver(unsigned ch)
    {
        return lanes[ch].hammer.get();
    }
    SecurityOracle *securityOracle(unsigned ch)
    {
        return lanes[ch].oracle.get();
    }

    /**
     * Single-channel convenience accessors: existing single-channel
     * tests/tools read naturally; calling them on a multi-channel system
     * is a bug and fails loudly.
     */
    MemController &controller() { return *soleLane().ctrl; }
    const MemController &controller() const { return *soleLane().ctrl; }
    DramDevice &device() { return *soleLane().dram; }
    Mitigation &mitigation() { return *soleLane().mitig; }
    HammerObserver *hammerObserver() { return soleLane().hammer.get(); }

    const AddressMapper &mapper() const { return *map; }

    /**
     * Number of rejected submissions due to quota (throttling pressure).
     * A diagnostic of the polling loop: it counts retries, so it falls
     * when sleeping cores and skips retry less, and is never replayed.
     */
    std::uint64_t quotaRejects() const { return numQuotaRejects; }

    // ---- driver hooks (System::run) ------------------------------------

    /** Sum of every lane's activity stamp (quiescence check). */
    std::uint64_t activityStamp() const;

    /**
     * The activity stamp of the lane that admits requests to `addr`
     * (MemController::activityStamp): a request it rejected for a full
     * queue or a quota can be admitted only after the stamp moves.
     */
    const std::uint64_t &
    admissionStamp(Addr addr) const
    {
        return lanes[map->channelOf(addr)].ctrl->activityStamp();
    }

    /** True when every lane's last tick was idle (see MemController). */
    bool allIdleSinceLastTick() const;

    /** Min over lanes of the controller's next-event bound. */
    Cycle nextEventAt(Cycle now);

    /** Deliver every pending completion with done <= now, in order. */
    void deliverCompletionsDue(Cycle now);

    /** Earliest pending delivery, or kNoEventCycle when none. */
    Cycle nextCompletionAt() const;

    /**
     * Lower bound on (completion cycle - issue cycle) of any read or
     * write the controllers can complete: a chunk of lane ticks whose
     * length stays below this bound can never delay a delivery past its
     * due cycle.
     */
    Cycle minCompletionLatency() const;

  private:
    /** Everything one memory channel owns. */
    struct Lane
    {
        std::unique_ptr<DramDevice> dram;
        std::unique_ptr<DramEnergyModel> energy;
        std::unique_ptr<HammerObserver> hammer;
        std::unique_ptr<SecurityOracle> oracle;
        std::unique_ptr<Mitigation> mitig;
        std::unique_ptr<MemController> ctrl;
    };

    Lane &
    soleLane()
    {
        if (lanes.size() != 1)
            panic("single-channel MemSystem accessor used on a %zu-channel "
                  "system; pass a channel index",
                  lanes.size());
        return lanes[0];
    }

    const Lane &
    soleLane() const
    {
        return const_cast<MemSystem *>(this)->soleLane();
    }

    MemSystemConfig cfg;
    std::unique_ptr<AddressMapper> map;
    std::vector<Lane> lanes;
    DeliveryHeap deliveries;    ///< multi-channel; lanes hold its address
    std::uint64_t numQuotaRejects = 0;
};

} // namespace bh

#endif // BH_MEM_MEM_SYSTEM_HH
