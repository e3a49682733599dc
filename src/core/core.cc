#include "core/core.hh"

#include <algorithm>

namespace bh
{

Core::Core(const CoreConfig &config, ThreadId thread_id, TraceSource &trace_src,
           Llc *llc_ptr, MemSystem &mem_system)
    : cfg(config), thread(thread_id), trace(trace_src), llc(llc_ptr),
      mem(mem_system), window(config.windowSize)
{
}

bool
Core::tick(Cycle now)
{
    accrueStalls(now);
    std::uint64_t stamp_at_entry = progressStamp();

    // Retire in order, up to retireWidth per cycle. A memory instruction at
    // the window head blocks retirement until its data has returned.
    // Runs of non-memory instructions retire in one arithmetic step.
    for (unsigned r = 0; r < cfg.retireWidth;) {
        if (instrRetired >= instrIssued)
            break;
        if (inFlight > 0 && window[head].pos == instrRetired) {
            Cycle done = window[head].done;
            if (done < 0 || done > now)
                break;
            head = ringIndex(1);
            --inFlight;
            ++instrRetired;
            ++r;
            continue;
        }
        std::uint64_t stop = inFlight == 0 ? instrIssued : window[head].pos;
        std::uint64_t k = std::min<std::uint64_t>(
            cfg.retireWidth - r, std::min(instrIssued, stop) - instrRetired);
        instrRetired += k;
        r += static_cast<unsigned>(k);
    }

    // Issue in order, up to issueWidth per cycle, bounded by the window.
    // Bubble runs issue in one arithmetic step.
    Stall stall = Stall::kNone;
    bool fetched = false;
    for (unsigned w = 0; w < cfg.issueWidth;) {
        std::uint64_t room = cfg.windowSize - (instrIssued - instrRetired);
        if (room == 0)
            break;
        if (pendingBubbles > 0) {
            std::uint64_t k = std::min<std::uint64_t>(
                {pendingBubbles, cfg.issueWidth - w, room});
            pendingBubbles -= static_cast<std::uint32_t>(k);
            instrIssued += k;
            w += static_cast<unsigned>(k);
            continue;
        }
        if (havePendingMem) {
            stall = issueMemOp(now);
            if (stall != Stall::kNone)
                break;      // resource rejection; retry next cycle
            havePendingMem = false;
            ++instrIssued;
            ++w;
            continue;
        }
        if (traceEnded)
            break;
        TraceEntry entry;
        if (!trace.next(entry)) {
            traceEnded = true;
            break;
        }
        pendingBubbles = entry.bubbles;
        if (entry.isMem) {
            havePendingMem = true;
            pendingMem = entry;
        }
        fetched = true;
        ++w;    // the fetch consumes this issue slot
    }
    lastStall = stall;
    if (stall != Stall::kNone)
        ++numStallCycles;
    accruedUntil = now + 1;
    bool moved = progressStamp() != stamp_at_entry;
    // Fetches mutate state without moving the stamp.
    lastTickNoop = !fetched && !moved;
    return moved;
}

void
Core::sleepIfNoop()
{
    sleepRule = SleepRule::kAwake;
    if (!lastTickNoop || (llc && !llc->quiet()))
        return;
    wakeAt = nextEventAt();
    deliveriesSeen = numDeliveries;
    // An LLC fill frees an MSHR and installs a line: it can turn an
    // MSHR-full rejection, or a cached op's queue-full or quota
    // rejection, into an accepted access.
    bool cached = llc && !pendingMem.bypassCache;
    fillWatch = (lastStall == Stall::kMshr ||
                 (lastStall == Stall::kLane && cached))
        ? &llc->fills() : &kNoWatch;
    fillsSeen = *fillWatch;
    // The lane that rejected the op admits it only after it acts. The
    // LLC submits the op's line, which lives on the same channel.
    laneWatch = lastStall == Stall::kLane
        ? &mem.admissionStamp(pendingMem.addr) : &kNoWatch;
    laneSeen = *laneWatch;
    sleepRule = quietTick() ? SleepRule::kQuiet : SleepRule::kReprobe;
}

void
Core::verifySleep(Cycle now, SleepRule rule)
{
    // A re-probing core may turn MSHR-bound (quiet) while asleep: other
    // cores' misses on other lanes can fill the MSHRs. Its wake rule
    // covers an MSHR-bound core's too, so only the stall itself and
    // quietness, which the lane-chunk driver relies on, must hold.
    // The tick must not touch shared state either: a writeback it
    // retried at its place in the cycle's core order would land there.
    auto shared = [this] {
        return mem.activityStamp() + (llc ? llc->writebacks() : 0);
    };
    bool stalled_before = lastStall != Stall::kNone;
    bool quiet_before = quietTick();
    std::uint64_t shared_before = shared();
    tick(now);
    const char *wrong = !lastTickNoop ? "retired, issued or fetched"
        : shared() != shared_before ? "changed the memory system"
        : (lastStall != Stall::kNone) != stalled_before
        ? "changed whether it stalls"
        : quiet_before && !quietTick() ? "stopped being quiet"
                                         : nullptr;
    if (wrong) {
        panic("core sleep verify: core %d %s at cycle %lld while asleep "
              "under the %s rule",
              static_cast<int>(thread), wrong, static_cast<long long>(now),
              rule == SleepRule::kQuiet ? "quiet" : "re-probe");
    }
}

Cycle
Core::nextEventAt() const
{
    Cycle best = kNoEventCycle;
    // In-order retirement: only the window head matters. Its completion
    // time is known once the memory system has issued the access.
    if (inFlight > 0 && window[head].pos == instrRetired &&
        window[head].done >= 0)
        best = window[head].done;
    // A rejected memory issue can also unblock by time alone: the
    // MSHR-style outstanding bound drops when any in-flight op reaches
    // its completion time.
    if (lastStall != Stall::kNone && !knownDone.empty())
        best = std::min(best, knownDone.top());
    return best;
}

void
Core::complete(std::uint32_t slot, Cycle done)
{
    // Loads count as unknown once issued (pos < instrIssued); the load
    // being issued gets here only as an LLC hit, before it counts.
    MemOp &op = window[slot];
    if (op.pos < instrIssued)
        --unknownDone;
    op.done = done;
    knownDone.push(done);
    ++numDeliveries;
}

Core::Stall
Core::issueMemOp(Cycle now)
{
    // L1-MSHR-style bound on memory-level parallelism. The bound drops
    // by time alone (knownDone) or at a completion delivery — both
    // boundaries the chunked driver observes, so this stall flavor is
    // chunk-safe.
    if (outstandingAt(now) >= cfg.maxOutstandingMem)
        return Stall::kMlp;

    // The op takes the ring entry past the youngest in-flight op (the
    // window has room for it); a rejected attempt leaves it free. Stores
    // are posted, so they carry no token; a hit completes a load's token
    // before access() returns.
    bool write = pendingMem.isWrite;
    std::uint32_t slot = ringIndex(inFlight);
    MemOp &op = window[slot];
    op = MemOp{instrIssued};
    Completion on_done = write ? Completion{} : Completion{this, slot};

    // Past the MLP gate, rejections hinge on queue/quota state a channel
    // lane can change on any tick: the core must retry whenever the lane
    // acts (kLane), unless the LLC's MSHRs are full (kMshr).
    if (pendingMem.bypassCache || !llc) {
        ReqType type = write ? ReqType::kWrite : ReqType::kRead;
        // Cheap pre-gate: a full target queue rejects the submit anyway.
        if (mem.queueFull(type, pendingMem.addr))
            return Stall::kLane;
        Request req;
        req.addr = pendingMem.addr;
        req.type = type;
        req.thread = thread;
        req.arrival = now;
        req.completion = on_done;
        if (mem.submit(std::move(req)) != SubmitResult::kAccepted)
            return Stall::kLane;
    } else {
        LlcResult res = llc->access(pendingMem.addr, write, thread, now,
                                    on_done);
        if (res == LlcResult::kReject)
            return Stall::kMshr;
        if (res == LlcResult::kRejectQueueFull)
            return Stall::kLane;
    }
    // A posted store completes once accepted. A load whose completion is
    // still unknown (not a hit) counts as outstanding until it returns.
    if (write) {
        op.done = now + 1;
        knownDone.push(op.done);
    } else if (op.done < 0) {
        ++unknownDone;
    }
    ++inFlight;
    ++numMemOps;
    return Stall::kNone;
}

} // namespace bh
