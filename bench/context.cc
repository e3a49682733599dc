/**
 * @file
 * BenchContext::runCells — the one entry point every experiment's sweep
 * cells go through, and the seam where sharding, cell enumeration, and
 * bh_collect replay plug into the bench layer.
 */

#include <chrono>
#include <mutex>

#include "bench/bench_util.hh"
#include "sim/system.hh"

namespace bh
{

namespace
{

/** Serializes cellPerf insertion from pool workers. */
std::mutex perfMutex;

} // namespace

std::vector<Json>
BenchContext::runCells(const std::string &label, std::size_t n,
                       const std::function<Json(std::size_t)> &fn)
{
    const std::uint64_t first = nextCell;
    nextCell += n;
    phases.push_back({label, first, n});

    std::vector<Json> out(n);
    if (mode == CellMode::Enumerate)
        return out;

    if (mode == CellMode::Replay) {
        if (!replayCells)
            panic("runCells: Replay mode without replay cells");
        for (std::size_t i = 0; i < n; ++i) {
            const Json *payload =
                replayCells->find(std::to_string(first + i));
            if (!payload || payload->isNull())
                fatal("replay: cell %llu (phase \"%s\") missing from "
                      "merged shards",
                      static_cast<unsigned long long>(first + i),
                      label.c_str());
            out[i] = *payload;
        }
    } else {
        // Block-local indices of the cells this shard owns; cells keep
        // their block-local index in `fn`, so a sharded run executes
        // exactly the same fn(i) calls an unsharded run would. A
        // one-cell run additionally drops every other cell.
        std::vector<std::size_t> owned;
        owned.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            if (!shardOwns(shard, first + i))
                continue;
            if (onlyCell && *onlyCell != first + i)
                continue;
            owned.push_back(i);
        }
        if (!runner)
            panic("runCells: no runner configured");
        runner->forEach(owned.size(), [&](std::size_t k) {
            // Self-profile every executed cell: wall-clock around fn()
            // plus the simulated cycles the worker thread covers inside
            // it (System::run accumulates a thread-local counter).
            resetSimCyclesThisThread();
            // bh-lint: allow(nondet) wall-clock self-profile sidecar; never feeds simulation state
            auto t0 = std::chrono::steady_clock::now();
            out[owned[k]] = fn(owned[k]);
            // bh-lint: allow(nondet) wall-clock self-profile sidecar; never feeds simulation state
            auto t1 = std::chrono::steady_clock::now();
            CellPerf perf;
            perf.wallS = std::chrono::duration<double>(t1 - t0).count();
            perf.simCycles = simCyclesThisThread();
            std::lock_guard<std::mutex> lock(perfMutex);
            cellPerf[first + owned[k]] = perf;
        });
        for (std::size_t i : owned)
            if (out[i].isNull())
                panic("runCells: cell %llu (phase \"%s\") produced a null "
                      "payload",
                      static_cast<unsigned long long>(first + i),
                      label.c_str());
    }

    // Record the produced payloads by global index (ascending: `out` is
    // walked in order, so shard files and replayed reports serialize
    // their cells identically).
    for (std::size_t i = 0; i < n; ++i) {
        if (out[i].isNull())
            continue;       // unowned cell of a sharded run
        cells[std::to_string(first + i)] = out[i];
        ++cellsRun;
    }
    return out;
}

} // namespace bh
