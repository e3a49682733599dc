#!/usr/bin/env python3
"""Simulator benchmark: build perfbench_driver from source, run one workload
(or all of them), check the simulated outputs, and print the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # table of every metric
    python3 perfbench/run.py --record                # rewrite reference.json

Run it from the repository root. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. A cell fails
when its output digest differs from perfbench/reference.json (default seed
only), when a secsweep-zoo-2ch cell differs from the checked-in
bench/golden/BENCH_secsweep.scale1.json (default seed only), when its second
run (the traced one with --trace 1) does not reproduce its digest, or when
it breaks a seed-independent invariant. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 42
REFERENCE = os.path.join(HERE, "reference.json")
SECSWEEP_GOLDEN = os.path.join(ROOT, "bench", "golden",
                               "BENCH_secsweep.scale1.json")
GOLDEN_FIELDS = ("margin", "max_window_acts", "first_violation_cycle",
                 "violating_rows", "bit_flips", "blocked_acts",
                 "victim_refreshes", "demand_acts", "attack_ipc",
                 "benign_ipc_mean")
DRIVER_TIMEOUT_S = 170

# Host seconds per cell on a 4-vCPU x86-64 container (Release build), which
# turns --seconds into a fixed cell count: every run of a workload simulates
# the same cells, whatever the host speed. `step` keeps secsweep-zoo-2ch to
# whole patterns (one cell per mechanism); `max_cells` is what the catalog
# and the recorded references hold.
WORKLOADS = {
    "attack-blockhammer-1ch": {"cell_s": 6.0, "step": 1, "max_cells": 13},
    "benign-baseline-4ch": {"cell_s": 8.0, "step": 1, "max_cells": 10},
    "secsweep-zoo-2ch": {"cell_s": 1.2, "step": 6, "max_cells": 54},
}
# Every cell runs twice (see driver.cc), so a run gets cells for half its
# seconds; a traced run's second pass costs ~1.7x, so it gets less.
PASS_SHARE = {False: 0.5, True: 0.37}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cell_count(workload, seconds):
    w = WORKLOADS[workload]
    n = int(seconds / w["cell_s"] / w["step"] + 0.5) * w["step"]
    return min(max(w["step"], n), w["max_cells"])


def build():
    """Configure and build (incrementally); returns the driver path."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"), "perfbench")
    env = dict(os.environ, CCACHE_DISABLE="1")
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", out, "-j", "4"],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(out, "perfbench_driver")


def run_driver(driver, args):
    proc = subprocess.run([driver] + [str(a) for a in args],
                          stdout=subprocess.PIPE, check=True,
                          timeout=DRIVER_TIMEOUT_S, text=True)
    return json.loads(proc.stdout)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def invariant_error(cell):
    """Checks that hold for every seed."""
    out = cell["outputs"]
    benign = [v for v, a in zip(out["ipc"], out["is_attack"]) if not a]
    if not all(math.isfinite(v) and v >= 0.0 for v in out["ipc"]):
        return "IPC not finite and non-negative"
    if not benign or sum(benign) <= 0.0:
        return "benign threads made no progress"
    if out["demand_acts"] <= 0:
        return "no demand activations"
    if cell["mechanism"] == "BlockHammer":
        # BlockHammer bounds every row's activations below N_RH.
        if out["bit_flips"] != 0:
            return "BlockHammer let bits flip"
        if cell["oracle"] and out["margin"] >= 1.0:
            return "BlockHammer margin >= 1"
    return None


def golden_cells():
    grid = load_json(SECSWEEP_GOLDEN)["grid"]
    cells = {}
    for pattern, mechs in grid.items():
        for mech, by_channels in mechs.items():
            if "ch2" in by_channels:
                cells[pattern + "/" + mech] = by_channels["ch2"]
    return cells


def check_cells(doc, trace):
    """Returns the number of failed cells and prints one line per cell."""
    workload, seed = doc["workload"], doc["seed"]
    reference, golden = [], {}
    if seed == DEFAULT_SEED:
        reference = load_json(REFERENCE)["workloads"].get(workload, [])
        if workload == "secsweep-zoo-2ch":
            golden = golden_cells()
    failed = 0
    for i, cell in enumerate(doc["cells"]):
        errors = []
        if i < len(reference):
            ref = reference[i]
            if (ref["cell"], ref["digest"]) != (cell["cell"], cell["digest"]):
                errors.append("digest differs from reference %s %s"
                              % (ref["cell"], ref["digest"]))
        if golden:
            want = golden.get(cell["cell"])
            if want is None:
                errors.append("cell missing from the secsweep golden")
            else:
                errors += ["%s %r != golden %r" % (k, cell["outputs"][k],
                                                   want[k])
                           for k in GOLDEN_FIELDS
                           if cell["outputs"][k] != want[k]]
        if cell["rerun_digest"] != cell["digest"]:
            errors.append("%s run gave digest %s"
                          % ("traced" if trace else "second",
                             cell["rerun_digest"]))
        err = invariant_error(cell)
        if err:
            errors.append(err)
        failed += bool(errors)
        print("digest %s seed=%d %s %s %s"
              % (workload, seed, cell["cell"], cell["digest"],
                 "FAIL: " + "; ".join(errors) if errors else "ok"))
    return failed


def declared_metrics(trace):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(driver, workload, seed, seconds, trace):
    cells = cell_count(workload, seconds * PASS_SHARE[bool(trace)])
    log("perfbench: %s seed %d, %d cells%s"
        % (workload, seed, cells, ", traced" if trace else ""))
    doc = run_driver(driver, ["--workload", workload, "--seed", seed,
                              "--cells", cells, "--trace", int(trace)])
    if "raw" in doc:
        log("perfbench: unscaled %s" % json.dumps(doc["raw"]))
    attempted = len(doc["cells"])
    failed = check_cells(doc, trace)
    metrics = doc["metrics"]
    metrics["pass_frac"] = {"value": 1.0 - failed / attempted,
                            "unit": "ratio"}
    result = {}
    for name in declared_metrics(trace):
        if name not in metrics:
            raise SystemExit("perfbench: metric %s missing" % name)
        result[name] = metrics[name]
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": result}


def record(driver):
    ref = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload, w in WORKLOADS.items():
        doc = run_driver(driver, ["--workload", workload,
                                  "--seed", DEFAULT_SEED, "--record",
                                  "--cells", w["max_cells"]])
        ref["workloads"][workload] = doc["cells"]
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")
    log("perfbench: wrote %s" % REFERENCE)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS) + ["all"],
                   default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite reference.json from runExperiment()")
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    driver = build()
    if a.record:
        record(driver)
        return
    if a.workload != "all":
        print(json.dumps(run_workload(driver, a.workload, a.seed,
                                      a.seconds, a.trace)))
        return
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        r = run_workload(driver, workload, a.seed, a.seconds, a.trace)
        for name, m in r["metrics"].items():
            print("%-24s %-40s %14.6g %s"
                  % (workload, name, m["value"], m["unit"]))
            total["metrics"][workload + "." + name] = m
        total["correct"] = total["correct"] and r["correct"]
        total["attempted"] += r["attempted"]
        total["failed"] += r["failed"]
    print(json.dumps(total))


if __name__ == "__main__":
    main()
