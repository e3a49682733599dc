/**
 * @file
 * A fake completion target for the memory, cache and core tests: it
 * hands out one token per slot and records the cycle each slot's
 * completion carries and the order in which slots complete.
 */

#ifndef BH_TESTS_RECORDING_TARGET_HH
#define BH_TESTS_RECORDING_TARGET_HH

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "mem/request.hh"

namespace bh
{

class RecordingTarget final : public CompletionTarget
{
  public:
    /** A token for a new slot, whose cycle reads -1 until it completes. */
    Completion
    token()
    {
        done.push_back(-1);
        return Completion{this, static_cast<std::uint32_t>(done.size() - 1)};
    }

    void
    complete(std::uint32_t slot, Cycle at) override
    {
        EXPECT_EQ(done.at(slot), -1) << "slot " << slot << " completed twice";
        done.at(slot) = at;
        order.push_back(slot);
    }

    /** Completion cycle per slot; a deque, so addresses stay valid. */
    std::deque<Cycle> done;
    /** Slots in completion order. */
    std::vector<std::uint32_t> order;
};

} // namespace bh

#endif // BH_TESTS_RECORDING_TARGET_HH
