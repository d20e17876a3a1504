#!/usr/bin/env python3
"""End-to-end benchmark of pxq: one workload per run, through the public API.

    python3 perfbench/run.py --workload xmark_read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first run builds perfbench/ (a Release build of libpxq from the
repository's sources plus the workload program) into .bench_build/ at the
repository root. A run checks the program's outputs and prints, as its
last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the workload once untraced and once traced, derives the per-layer metrics
from the traced run's span file and reports those. The exit code is 0 only
when every correctness check passed. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build")
BINARY = os.path.join(BUILD, "pxq_perfbench")
WORKLOADS = ("xmark_read", "update_durable", "xmark_fig9")
RUN_BUDGET_S = 170  # a run must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds pxq_perfbench; False when impossible."""
    if not (os.path.isdir(os.path.join(REPO, "src")) and
            os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))):
        log("perfbench: the pxq sources (src/, CMakeLists.txt) are missing")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=300).returncode:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "--target", "pxq_perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, timeout=850).returncode == 0


def run_program(workload, seed, seconds, trace, deadline):
    """Runs one workload in pxq_perfbench; returns (report, out_dir) or None."""
    out = os.path.join(BUILD, "out", f"{workload}-{'trace' if trace else 'base'}")
    shutil.rmtree(out, ignore_errors=True)
    cmd = [BINARY, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", out]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in time")
        return None
    path = os.path.join(out, "result.json")
    if proc.returncode not in (0, 1) or not os.path.isfile(path):
        log(f"perfbench: pxq_perfbench exited with {proc.returncode}")
        return None
    with open(path) as f:
        return json.load(f), out


# ------------------------------------------------------------ the trace

def pct(values, p):
    """Linear-interpolated percentile p in [0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    v = sorted(values)
    rank = p / 100.0 * (len(v) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (rank - lo)


def ratio(a, b):
    return a / b if b else 0.0


def rate(report):
    """The workload's throughput: queries, updates or up-store queries/s."""
    named = report["named"]
    for key in ("queries_per_s", "updates_per_s", "up_queries_per_s"):
        if key in named:
            return named[key]["value"]
    return 0.0


class Trace:
    """The records of one trace.tsv (format: perfbench/trace.h)."""

    def __init__(self, path):
        self.spans = []  # (id, parent, request, name, start, end, n)
        self.counters = {}  # window deltas, of counters and gauges alike
        self.gauges, self.hists, self.facts = {}, {}, {}
        with open(path) as f:
            for line in f:
                r = line.rstrip("\n").split("\t")
                if r[0] == "S":
                    self.spans.append((int(r[1]), int(r[2]), int(r[3]), r[4],
                                       int(r[5]), int(r[6]), int(r[7])))
                elif r[0] == "C":
                    self.counters[r[1]] = int(r[2])
                elif r[0] == "G":
                    self.gauges[r[1]] = int(r[2])
                    self.counters[r[1]] = int(r[3])  # change over the window
                elif r[0] == "H":
                    self.hists[r[1]] = dict(zip(
                        ("count", "sum", "p50", "p95", "p99"),
                        (float(x) for x in r[2:7])))
                elif r[0] == "F":
                    self.facts[r[1]] = float(r[2])
        self.by_name = {}
        for s in self.spans:
            self.by_name.setdefault(s[3], []).append(s)

    def durations(self, name, n=None):
        return [s[5] - s[4] for s in self.by_name.get(name, ())
                if n is None or s[6] == n]

    def count(self, name, n=None):
        return len(self.durations(name, n))

    def p(self, name, q, scale=1.0):
        return pct(self.durations(name), q) / scale

    def mean_n(self, name):
        ns = [s[6] for s in self.by_name.get(name, ()) if s[6] >= 0]
        return sum(ns) / len(ns) if ns else 0.0

    def hist(self, name, key, scale=1.0):
        h = self.hists.get(name)
        return h[key] / scale if h and h["count"] > 0 else 0.0

    def self_time_by_layer(self):
        """Per layer (the span name's prefix): total self time in ns, the
        span's duration minus the part of it its child spans cover."""
        children = {}
        for s in self.spans:
            if s[1]:
                children.setdefault(s[1], []).append((s[4], s[5]))
        out = {}
        for s in self.spans:
            covered, cur_lo, cur_hi = 0, None, None
            for lo, hi in sorted(children.get(s[0], ())):
                lo, hi = max(lo, s[4]), min(hi, s[5])
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            layer = s[3].split(".")[0]
            out[layer] = out.get(layer, 0) + (s[5] - s[4] - covered)
        return out


def per_layer(t, base, traced):
    """Every per-layer metric, in BENCHMARK.json's order: name -> (value,
    unit). Counts come from the window's metric deltas, times from spans."""
    queries = t.facts.get("queries", 0)
    commits = t.facts.get("commits", 0)
    updates = t.count("db.update")
    c = t.counters
    probes = c.get("pxq_index_probes_total", 0)
    memo_hits = c.get("pxq_index_memo_hits_total", 0) + \
        c.get("pxq_index_memo_value_hits_total", 0)
    memo_all = memo_hits + c.get("pxq_index_memo_misses_total", 0) + \
        c.get("pxq_index_memo_value_misses_total", 0)
    plan_hits = c.get("pxq_plan_cache_hits", 0)
    plan_all = plan_hits + c.get("pxq_plan_cache_misses", 0)
    base_rate = rate(base)
    m = {
        "storage.generate_s": (t.p("storage.generate", 50, 1e9), "s"),
        "storage.shred_s": (t.p("storage.shred", 50, 1e9), "s"),
        "storage.build_s": (t.p("storage.build", 50, 1e9), "s"),
        "storage.snapshot_bytes_per_xml_byte": (
            ratio(t.facts.get("snapshot_bytes", 0), t.facts.get("xml_bytes", 0)),
            "ratio"),
    }
    for q in range(1, 21):
        up = pct(t.durations("storage.fig9.up", q), 50)
        ro = pct(t.durations("storage.fig9.ro", q), 50)
        m[f"storage.fig9_ratio.q{q:02d}"] = (ratio(up, ro), "ratio")
    m.update({
        "index.rebuild_s": (t.p("index.rebuild", 50, 1e9), "s"),
        "index.probes_per_query": (ratio(probes, queries), "count"),
        "index.probe_decline_ratio": (
            ratio(c.get("pxq_index_probe_declines_total", 0), probes), "ratio"),
        "index.memo_hit_ratio": (ratio(memo_hits, memo_all), "ratio"),
        "index.apply_dirty_us": (
            t.hist("pxq_index_apply_dirty_ns", "p50", 1e3), "us"),
        "index.bytes_per_node": (
            ratio(t.gauges.get("pxq_index_bytes", 0), t.facts.get("nodes", 0)),
            "B"),
        "xpath.parse_us": (t.p("xpath.parse", 50, 1e3), "us"),
        "xpath.compile_us": (t.p("xpath.compile", 50, 1e3), "us"),
        "xpath.plan_cache_hit_ratio": (ratio(plan_hits, plan_all), "ratio"),
        "xpath.plan_cache_evictions": (
            float(c.get("pxq_plan_cache_evictions", 0)), "count"),
        "xpath.execute_us": (t.p("xpath.evaluate", 50, 1e3), "us"),
        "xpath.materialize_us": (t.p("xpath.materialize", 50, 1e3), "us"),
        "xpath.results_per_query": (t.mean_n("xpath.evaluate"), "count"),
        "txn.read_lock_wait_us": (t.p("txn.read_lock", 99, 1e3), "us"),
        "txn.lock_writer_wait_us": (
            t.hist("pxq_lock_writer_wait_ns", "p99", 1e3), "us"),
        "txn.begin_us": (t.p("txn.begin", 50, 1e3), "us"),
        "txn.commit_us": (t.p("txn.commit", 50, 1e3), "us"),
        "txn.commit_window_us": (
            t.hist("pxq_commit_window_ns", "p50", 1e3), "us"),
        "txn.commits_per_group": (
            ratio(t.hist("pxq_commits_per_group", "sum"),
                  t.hist("pxq_commits_per_group", "count")), "count"),
        "txn.conflict_retries_per_update": (
            ratio(t.count("txn.begin") - updates, updates), "count"),
        "txn.wal_bytes_per_commit": (
            ratio(c.get("pxq_wal_appended_bytes_total", 0), commits), "B"),
        "txn.wal_append_us": (t.hist("pxq_wal_append_ns", "p50", 1e3), "us"),
        "txn.checkpoint_ms": (t.p("txn.checkpoint", 50, 1e6), "ms"),
        "txn.recovery_replay_ms": (
            t.facts.get("recovery_replay_ns", 0.0) / 1e6, "ms"),
        "xupdate.parse_us": (t.p("xupdate.parse", 50, 1e3), "us"),
        "xupdate.apply_us": (t.p("xupdate.apply", 50, 1e3), "us"),
        "xupdate.nodes_per_update": (t.mean_n("xupdate.apply"), "count"),
        "obs.trace_overhead_pct": (
            100.0 * ratio(base_rate - rate(traced), base_rate), "%"),
    })
    return m


# ------------------------------------------------------------ reporting

def describe(report, label):
    for name, v in report["named"].items():
        n = f"  (n={v['samples']})" if "samples" in v else ""
        log(f"  {label}{name:<22} {v['value']:>14.4f} {v['unit']}{n}")
    for name, h in report["hashes"].items():
        log(f"  {label}hash.{name:<17} {h}")
    for c in report["checks"]:
        log(f"  {label}check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: "
            f"{c['detail']}")


def run(args):
    if not build():
        return 2
    # After a build that compiled nothing (every run but the first) this is
    # within a few seconds of the process start.
    deadline = time.monotonic() + RUN_BUDGET_S
    log(f"== {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}")
    got = run_program(args.workload, args.seed, args.seconds, False, deadline)
    if got is None:
        return 2
    base, _ = got
    describe(base, "")
    reports = [base]
    if args.trace:
        got = run_program(args.workload, args.seed, args.seconds, True,
                         deadline)
        if got is None:
            return 2
        traced, out = got
        reports.append(traced)
        describe(traced, "traced ")
        t = Trace(os.path.join(out, "trace.tsv"))
        metrics = per_layer(t, base, traced)
        log("  self time by layer (traced run):")
        for layer, ns in sorted(t.self_time_by_layer().items()):
            log(f"    {layer:<10} {ns / 1e6:>12.1f} ms")
        for name, (value, unit) in metrics.items():
            log(f"  {name:<38} {value:>14.4f} {unit}")
    else:
        metrics = {k: (v["value"], v["unit"])
                   for k, v in base["end_to_end"].items()}
    correct = all(r["correct"] for r in reports)
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


# ------------------------------------------------------------ self-test

def self_test():
    """Same seed -> byte-identical streams; another seed -> other query and
    XUpdate streams over the same (fixed per factor) document; every metric
    a run prints is one BENCHMARK.json names, with its unit."""
    if not build():
        return 2
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    failures = []

    def hashes(workload, seed):
        out = subprocess.run([BINARY, "hashes", "--workload", workload,
                              "--seed", str(seed)], capture_output=True,
                             text=True, check=True).stdout
        return json.loads(out)

    for w in WORKLOADS:
        a, b, other = hashes(w, 7), hashes(w, 7), hashes(w, 8)
        if a != b:
            failures.append(f"{w}: seed 7 gave different streams: {a} {b}")
        if a["xml"] != other["xml"]:
            failures.append(f"{w}: the document changed with the seed")
        for stream in ("queries", "xupdates"):
            if a[stream] != "0" * 16 and a[stream] == other[stream]:
                failures.append(f"{w}: {stream} did not change with the seed")
        log(f"{w}: streams {a}")

    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", w,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=REPO)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{w} trace={trace}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != got:
                failures.append(f"{w} trace={trace}: metrics {sorted(got)} "
                                f"!= BENCHMARK.json {sorted(want)}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{w} trace={trace}: incorrect run")
            log(f"{w} trace={trace}: {len(got)} metrics ok")
    for f in failures:
        log("FAIL " + f)
    log("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
