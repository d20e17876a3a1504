#!/usr/bin/env python3
"""Records perfbench/baseline.json: two batches, one after the other, each
running every workload of BENCHMARK.json with seeds 1-10 and its
run_seconds. For each end-to-end metric it keeps each batch's median and
spread (the distance between the first and third quartile as a share of
the median) and the gap between the two medians (as a share of the first)
next to the metric's bound; then the medians of each workload's own named
metrics and facts over both batches, and one traced run's per-layer
metrics.

    python3 perfbench/baseline.py

Takes about 40 minutes on a 4-core machine.
"""

import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEEDS = range(1, 11)
BATCHES = 2

with open(os.path.join(REPO, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SECONDS = BENCH["run_seconds"]
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, cwd=REPO)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = os.path.join(REPO, ".bench_build", "out",
                       f"{workload}-{'trace' if trace else 'base'}")
    with open(os.path.join(out, "result.json")) as f:
        return result, json.load(f)


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def machine():
    compiler = subprocess.run(["c++", "--version"], capture_output=True,
                              text=True).stdout.splitlines()[0]
    cpu = ""
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            m = re.search(r"model name\s*:\s*(.*)", f.read())
            cpu = m.group(1) if m else ""
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": "Release", "os": platform.platform()}


def main():
    # e2e[w][metric] is one list of values per batch.
    e2e = {w: {} for w in WORKLOADS}
    named = {w: {} for w in WORKLOADS}
    facts = {w: {} for w in WORKLOADS}
    for b in range(BATCHES):
        for w in WORKLOADS:
            for s in SEEDS:
                result, report = run(w, s, 0)
                for k, v in result["metrics"].items():
                    e2e[w].setdefault(k, [[] for _ in range(BATCHES)])
                    e2e[w][k][b].append(v["value"])
                for k, v in report["named"].items():
                    named[w].setdefault(k, []).append(v["value"])
                for k, v in report["facts"].items():
                    facts[w].setdefault(k, []).append(v)
                print(f"batch {b + 1} {w} seed {s}: " + " ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in result["metrics"].items()), flush=True)
    record = {"machine": machine(), "seeds": f"{SEEDS[0]}-{SEEDS[-1]}",
              "batches": BATCHES, "run_seconds": SECONDS, "workloads": {}}
    for w in WORKLOADS:
        traced, _ = run(w, SEEDS[0], 1)
        metrics = {}
        for k, batches in e2e[w].items():
            medians = [statistics.median(v) for v in batches]
            metrics[k] = {"bound": BOUNDS[k], "medians": medians,
                          "spreads": [spread(v) for v in batches],
                          "gap": (medians[1] - medians[0]) / medians[0]}
            print(f"{w} {k}: medians " +
                  " ".join(f"{m:.4g}" for m in medians) + " spreads " +
                  " ".join(f"{s:.3f}" for s in metrics[k]["spreads"]) +
                  f" gap {metrics[k]['gap']:+.3f} bound {BOUNDS[k]}",
                  flush=True)
        record["workloads"][w] = {
            "end_to_end": metrics,
            "named": {k: statistics.median(v) for k, v in named[w].items()},
            "facts": {k: statistics.median(v) for k, v in facts[w].items()},
            "per_layer_seed_%d" % SEEDS[0]: {
                k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(os.path.join(HERE, "baseline.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
