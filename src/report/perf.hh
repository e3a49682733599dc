/**
 * @file
 * Performance-trajectory gate over bh_bench self-profiles.
 *
 * Every bh_bench run writes a BENCH_perf.json sidecar: wall-clock and
 * simulated-cycle counts per experiment, phase, and cell. This module
 * compares such a measurement against a checked-in golden of reference
 * simulation rates (simulated cycles per wall-clock second) and fails
 * when an experiment has slowed below a tolerance band — the CI tripwire
 * for accidental simulator slowdowns that byte-identical outputs cannot
 * catch.
 *
 * The band is deliberately wide (default min_ratio 0.2: a gated
 * experiment may run at one fifth of the golden rate before failing)
 * because CI machines vary; the gate exists to catch order-of-magnitude
 * regressions, not percent-level noise.
 */

#ifndef BH_REPORT_PERF_HH
#define BH_REPORT_PERF_HH

#include <string>
#include <vector>

#include "common/json.hh"

namespace bh
{

/** Outcome of gating one measurement against a perf golden. */
struct PerfGateResult
{
    bool pass = false;
    /** One human-readable verdict line per golden entry (plus errors). */
    std::vector<std::string> lines;
};

/**
 * Gate `measured` (a BENCH_perf.json document) against `golden`, whose
 * "entries" array holds objects of the form
 *
 *   { "experiment": "fig4", "scale": 4, "ref_cps": 2.0e8,
 *     "min_ratio": 0.2 }
 *
 * An entry applies when its experiment ran at the entry's scale (the
 * experiment's own `scale`, else the file's: a BENCH_perf.json merges
 * invocations at different scales); non-matching entries are reported
 * as skipped. Each applicable entry requires measured
 * cycles-per-second (the experiment's `sim_cycles`
 * over its `wall_s`, both without the memoized alone runs, which
 * BENCH_perf.json counts apart) >= ref_cps * min_ratio (the
 * override, when > 0, replaces every entry's min_ratio). The gate fails
 * if any applicable entry fails, if an applicable experiment is missing
 * from the measurement, or if no entry applied at all — a scale mismatch
 * must not produce a vacuous pass.
 *
 * An entry may also gate work counts exactly: with `"work": {...}`,
 * `"cells": [139]` (or "all") and `"channels": 1` (the default), an
 * experiment that ran exactly those cells at that channel count (its
 * own, else the file's) must sum each `work` field over its cells to
 * the golden's value, and a cell without `work` fails. Another run is
 * reported as skipped, and the gate fails when no applicable entry's
 * work was checked.
 */
PerfGateResult perfGate(const Json &golden, const Json &measured,
                        double minRatioOverride = 0.0);

} // namespace bh

#endif // BH_REPORT_PERF_HH
