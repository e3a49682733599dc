/**
 * @file
 * BenchContext::runCells — the one entry point every experiment's sweep
 * cells go through, and the seam where one-cell runs, cell enumeration,
 * and bh_farm replay plug into the bench layer.
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
                      "the collected cells",
                      static_cast<unsigned long long>(first + i),
                      label.c_str());
            out[i] = *payload;
        }
    } else {
        // Block-local indices of the cells to execute; cells keep their
        // block-local index in `fn`, so a one-cell run executes exactly
        // the fn(i) call a full run would for that cell.
        std::vector<std::size_t> owned;
        owned.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            if (!onlyCell || *onlyCell == first + i)
                owned.push_back(i);
        if (!runner)
            panic("runCells: no runner configured");
        runner->forEach(owned.size(), [&](std::size_t k) {
            // Self-profile every executed cell: wall-clock around fn()
            // plus the simulated cycles the worker thread covers inside
            // it (System::run accumulates a thread-local counter).
            resetSimCyclesThisThread();
            resetWorkThisThread();
            // bh-lint: allow(nondet) wall-clock self-profile sidecar; never feeds simulation state
            auto t0 = std::chrono::steady_clock::now();
            out[owned[k]] = fn(owned[k]);
            // bh-lint: allow(nondet) wall-clock self-profile sidecar; never feeds simulation state
            auto t1 = std::chrono::steady_clock::now();
            CellPerf perf;
            perf.wallS = std::chrono::duration<double>(t1 - t0).count();
            perf.simCycles = simCyclesThisThread();
            perf.work = workThisThread();
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
    // walked in order, so partial and replayed reports serialize their
    // cells identically).
    for (std::size_t i = 0; i < n; ++i) {
        if (out[i].isNull())
            continue;    // skipped by a one-cell run
        cells[std::to_string(first + i)] = out[i];
        ++cellsRun;
    }
    return out;
}

Json
BenchContext::CellPerf::toJson() const
{
    auto count = [](std::uint64_t n) { return static_cast<std::int64_t>(n); };
    Json w = Json::object();
    w["ticks_executed"] = count(work.ticksExecuted);
    w["ticks_acted"] = count(work.ticksActed);
    w["act_queries"] = count(work.actQueries);
    w["refusals_replayed"] = count(work.refusalsReplayed);
    w["entries_scanned"] = count(work.entriesScanned);
    w["entries_recomputed"] = count(work.entriesRecomputed);
    Json c = Json::object();
    c["wall_ms"] = wallS * 1e3;
    c["sim_cycles"] = count(simCycles);
    c["work"] = std::move(w);
    return c;
}

} // namespace bh
