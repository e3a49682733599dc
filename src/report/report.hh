/**
 * @file
 * Report primitives shared by bh_bench, bh_farm and bh_collect.
 *
 * Every BENCH_*.json carries a run manifest (experiment, scale, cell
 * counts, a grid fingerprint, and a digest per recorded sweep cell).
 * This module provides the hash behind the fingerprint and the cell
 * digests, the structural diff (with per-field numeric tolerance) used
 * for golden-file CI gating via the bh_collect CLI, and the parser of
 * bh_collect's numeric flags. It is simulation-free: everything here
 * operates on JSON documents and command-line text alone.
 */

#ifndef BH_REPORT_REPORT_HH
#define BH_REPORT_REPORT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"

namespace bh
{

/** Version stamped into every run manifest and perf sidecar. */
constexpr int kBenchFormatVersion = 1;

/** FNV-1a 64-bit hash, the digest/fingerprint primitive. */
std::uint64_t fnv1a64(const std::string &data,
                      std::uint64_t seed = 1469598103934665603ull);

/** Fixed-width lowercase hex encoding of a 64-bit hash. */
std::string hex64(std::uint64_t value);

/**
 * Digest of one sweep-cell payload, as recorded in (and validated
 * against) the run manifest. Hashes the payload's serialized bytes
 * minus its top-level "stats" key: stats snapshots are deterministic
 * observability data, excluded so payloads with and without them (and
 * goldens predating the `stats` export) digest identically.
 */
std::string cellDigest(const Json &payload);

/** Options for the structural diff. */
struct DiffOptions
{
    double absTol = 0.0;        ///< absolute tolerance for numeric fields
    double relTol = 0.0;        ///< relative tolerance for numeric fields
    /** Subtrees to skip, dotted; a "*" segment matches one segment. */
    std::vector<std::string> ignorePaths;
    std::size_t maxDiffs = 1000;            ///< stop reporting after this
};

/**
 * Structural diff of two JSON documents. Objects compare by key (order
 * ignored), arrays by index, numbers within absTol/relTol (Int and
 * Double interchangeable), everything else exactly. Returns one
 * human-readable "path: difference" line per mismatch, empty when the
 * documents agree within tolerance.
 */
std::vector<std::string> structuralDiff(const Json &a, const Json &b,
                                        const DiffOptions &opts);

/**
 * Value of a numeric bh_collect flag (`--min-ratio`, `--abs-tol`,
 * `--rel-tol`). The whole of `text` must be a finite number, > 0, or
 * >= 0 when `allowZero`. Anything else (empty, junk, trailing junk,
 * inf, nan, out of range) prints an error naming `flag` and `text` and
 * exits 2, the report tools' usage-error code: a malformed bound must
 * never fall back to a default.
 */
double parseFlagNumber(const std::string &flag, const std::string &text,
                       bool allowZero);

} // namespace bh

#endif // BH_REPORT_REPORT_HH
