/**
 * @file
 * Memory request type exchanged between cores, the LLC, and the memory
 * controller, and the completion token it carries back.
 */

#ifndef BH_MEM_REQUEST_HH
#define BH_MEM_REQUEST_HH

#include <cstdint>

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

/**
 * Where completions land: a core's window ring or the LLC's MSHR file.
 * Tokens hold its address, so it is neither copied nor moved.
 */
class CompletionTarget
{
  public:
    /** The data of the op in `slot` returns at cycle `done`. */
    virtual void complete(std::uint32_t slot, Cycle done) = 0;

  protected:
    CompletionTarget() = default;
    CompletionTarget(const CompletionTarget &) = delete;
    CompletionTarget &operator=(const CompletionTarget &) = delete;
    ~CompletionTarget() = default;
};

/** A completion token: entry `slot` of `target`, none if that is null. */
struct Completion
{
    CompletionTarget *target = nullptr;
    std::uint32_t slot = 0;

    explicit operator bool() const { return target != nullptr; }
    void deliver(Cycle done) const { target->complete(slot, done); }
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

    /** Completed with the cycle its data returns (reads). */
    Completion completion;

    // Scheduling bookkeeping (owned by the controller).
    bool rowHitAtIssue = false;
    bool neededPrecharge = false;
};

} // namespace bh

#endif // BH_MEM_REQUEST_HH
