/**
 * @file
 * Parallel experiment runner: a persistent thread pool that executes
 * independent sweep cells (workload x mitigation x N_RH) concurrently.
 *
 * Determinism contract: results are collected by cell index, and each
 * cell must be self-deterministic — any randomness it uses has to come
 * from values fixed by the cell's identity (a seed baked into its
 * config, or cellSeed(base, index) for ad-hoc streams), never from
 * execution order or shared RNG state. The existing experiments bake
 * fixed seeds into their ExperimentConfigs; cellSeed is the helper for
 * sweeps that need a distinct stream per cell. Cells must not share
 * mutable state beyond what the simulator already guards (see
 * aloneIpc's memo table).
 */

#ifndef BH_SIM_RUNNER_HH
#define BH_SIM_RUNNER_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bh
{

/** Fixed-size thread pool with index-ordered fork/join helpers. */
class Runner
{
  public:
    /** @param jobs worker count; 0 = hardware concurrency, 1 = inline. */
    explicit Runner(unsigned jobs = 0);
    ~Runner();

    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    /** Number of workers this pool runs (>= 1). */
    unsigned jobs() const { return numJobs; }

    /**
     * Execute fn(0..n-1), blocking until all cells finish. Cells run
     * concurrently across the pool; any exception is rethrown here (the
     * remaining cells still run to completion).
     */
    void forEach(std::size_t n, const std::function<void(std::size_t)> &fn);

    /** forEach that collects fn(i) into a vector indexed by cell. */
    template <typename T>
    std::vector<T>
    map(std::size_t n, const std::function<T(std::size_t)> &fn)
    {
        std::vector<T> out(n);
        forEach(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /**
     * Deterministic per-cell seed: a SplitMix64-style mix of the base
     * seed and the cell index. Stable across platforms and job counts.
     *
     * The bench layer folds this function into every run manifest's
     * grid fingerprint (see runBench), so changing the mix makes
     * bh_farm refuse to work on or merge a farm initialized by an older
     * binary instead of silently combining differently-seeded cells.
     */
    static std::uint64_t cellSeed(std::uint64_t base, std::uint64_t cell);

  private:
    void workerLoop();

    unsigned numJobs = 0;
    std::vector<std::thread> workers;
    std::queue<std::function<void()>> tasks;
    std::mutex mtx;
    std::condition_variable cv;
    bool stopping = false;
};

} // namespace bh

#endif // BH_SIM_RUNNER_HH
