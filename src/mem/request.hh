/**
 * @file
 * Memory request type exchanged between cores, the LLC, and the memory
 * controller.
 */

#ifndef BH_MEM_REQUEST_HH
#define BH_MEM_REQUEST_HH

#include <functional>

#include "common/types.hh"
#include "dram/org.hh"

namespace bh
{

/** Demand request kind. */
enum class ReqType
{
    kRead,
    kWrite,
};

/** A memory request at line granularity. */
struct Request
{
    Addr addr = 0;
    ReqType type = ReqType::kRead;
    ThreadId thread = kNoThread;
    Cycle arrival = 0;

    /** Decoded coordinates (filled by the memory system on submit). */
    DramCoord coord;

    /** Cached flat bank index (avoids re-deriving it on every scan). */
    unsigned flatBank = 0;

    /** Invoked with the completion cycle when data is returned (reads). */
    std::function<void(Cycle)> onComplete;

    // Scheduling bookkeeping (owned by the controller).
    bool rowHitAtIssue = false;
    bool neededPrecharge = false;
};

} // namespace bh

#endif // BH_MEM_REQUEST_HH
