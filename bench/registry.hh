/**
 * @file
 * Experiment registry for the bh_bench driver: maps each reproduced
 * paper artifact (fig4, table1, ...) to its title, paper reference, and
 * entry point. Experiments share one Runner pool; the driver executes
 * experiments sequentially and each experiment fans its independent
 * sweep cells out across the pool (cells must not re-enter the pool).
 */

#ifndef BH_BENCH_REGISTRY_HH
#define BH_BENCH_REGISTRY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.hh"

namespace bh
{

/** One registered experiment. */
struct BenchInfo
{
    const char *name;       ///< CLI name, e.g. "fig4"
    const char *title;      ///< human-readable headline
    const char *paperRef;   ///< which paper artifact it reproduces
    void (*fn)(BenchContext &ctx);
};

/** All registered experiments, in canonical (paper) order. */
const std::vector<BenchInfo> &benchRegistry();

/** Lookup by CLI name; nullptr when unknown. */
const BenchInfo *findBench(const std::string &name);

/**
 * Run one experiment: prints its header (except in Enumerate mode),
 * executes it, and stamps the result JSON with the experiment name,
 * scale, a run manifest (cell counts, grid fingerprint, per-cell
 * digests), and the recorded cell payloads. The caller provides the
 * context (scale, runner, cell mode, onlyCell) and owns the filled
 * result; bh_farm merge replays one-cell results back together.
 * fatal()s when ctx.onlyCell lies outside an experiment's cell grid.
 */
void runBench(const BenchInfo &info, BenchContext &ctx);

/** Parse a `--cell N` value (a decimal cell index); fatal() otherwise. */
std::uint64_t parseCellIndex(const char *text);

/**
 * Grid identity hash of an experiment at the context's scale/channels:
 * call after an Enumerate pass has filled ctx.phases/nextCell. Farm
 * cells only combine when their fingerprints agree.
 */
std::string benchGridFingerprint(const BenchInfo &info,
                                 const BenchContext &ctx);

} // namespace bh

#endif // BH_BENCH_REGISTRY_HH
