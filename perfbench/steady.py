#!/usr/bin/env python3
"""Steadiness mode of the repository benchmark.

Runs two independent sets of the benchmark on the same code, each set
once per workload and seed, and reports per workload and end-to-end
metric:

* the spread of each set: the distance between the first and third
  quartile of its values as a share of their median;
* whether the two set medians agree: the second is not worse than the
  first by more than the metric's bound from BENCHMARK.json.

A metric is steady when its spread is below a third of its bound
(``setup_s`` is exempt from the spread rule but not from agreement).
Exits 1 if any metric of any workload disagrees or spreads wider than
its bound, 0 otherwise. Run from the repository root:

    python3 perfbench/steady.py [--runs 10]

Each run measures for BENCHMARK.json's run_seconds. Set 1 runs seeds
1 .. runs and set 2 the next runs seeds, so the sets share no seed. The
raw results go to .bench_out/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SPREAD_EXEMPT = {"setup_s"}
# independent sets whose medians must agree
SETS = 2


def spread(values):
    """Interquartile distance over the median (Python's default quantiles)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def run_once(command, workload, seed, seconds):
    """One benchmark invocation; returns its parsed result line."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    opts = parser.parse_args()

    # the build directory the benchmark is run with everywhere
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    # values[set][workload][metric] -> list of values, one per run
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(SETS)]
    for k in range(SETS):
        for w in workloads:
            for i in range(opts.runs):
                seed = 1 + k * opts.runs + i
                start = time.monotonic()
                result = run_once(spec["command"], w, seed, seconds)
                took = time.monotonic() - start
                for m in metrics:
                    values[k][w][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"set {k + 1} {w} seed {seed}: {took:.1f} s", file=sys.stderr)

    ok = True
    report = []
    print(f"{'workload':<14} {'metric':<14} {'median 1':>12} {'median 2':>12} "
          f"{'spread 1':>9} {'spread 2':>9} {'worse':>8} {'bound':>6}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [values[k][w][name] for k in range(SETS)]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            worse = worse_by(medians[0], medians[1], m["better"])
            steady = all(s < bound / 3 for s in spreads) or name in SPREAD_EXEMPT
            within = all(s <= bound for s in spreads) or name in SPREAD_EXEMPT
            agree = worse <= bound
            verdict = "steady" if steady and agree else ("ok" if within and agree else "FAIL")
            ok = ok and within and agree
            cells = [f"{x:>12.6g}" for x in medians]
            spread_cells = [f"{s:>9.4f}" for s in spreads]
            print(f"{w:<14} {name:<14} {''.join(c + ' ' for c in cells)}"
                  f"{''.join(c + ' ' for c in spread_cells)}{worse:>8.4f} {bound:>6}  {verdict}")
            report.append({"workload": w, "metric": name, "bound": bound,
                           "medians": medians, "spreads": spreads, "worse_by": worse,
                           "verdict": verdict, "values": sets})
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", "steady.json"), "w", encoding="utf-8") as f:
        json.dump({"seconds": seconds, "runs": opts.runs, "report": report}, f, indent=2)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
