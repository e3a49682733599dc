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
 * Value of a whole-number flag `name` of bh_bench or bh_farm: all of
 * `text` must be decimal digits naming a value in [lo, hi]. Anything
 * else (empty, junk, trailing junk, a sign, out of range) fatal()s
 * naming `name` and `text`; a malformed value never falls back to a
 * default.
 */
unsigned parseFlagCount(const char *name, const char *text, unsigned lo,
                        unsigned hi);

/**
 * Value of a real-number flag (or environment variable) `name`: all of
 * `text` must be one finite number >= `min`. Anything else (empty,
 * junk, trailing junk, leading space, inf, nan, overflow, below `min`)
 * fatal()s naming `name` and `text`.
 */
double parseFlagReal(const char *name, const char *text, double min);

/**
 * Default `--scale`: the BH_SCALE environment variable, which must then
 * parse as `--scale` does (a finite number >= 0.1), else 1.0 when unset.
 */
double benchScale();

/**
 * Grid identity hash of an experiment at the context's scale/channels:
 * call after an Enumerate pass has filled ctx.phases/nextCell. Farm
 * cells only combine when their fingerprints agree.
 */
std::string benchGridFingerprint(const BenchInfo &info,
                                 const BenchContext &ctx);

} // namespace bh

#endif // BH_BENCH_REGISTRY_HH
