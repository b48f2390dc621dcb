#!/usr/bin/env python3
"""End-to-end benchmark of the Distributed GraphLab reproduction.

One command builds the benchmark binary from ../src, runs one workload
for a fixed time in fresh processes (one per repetition), checks every
repetition's result and prints every metric with its unit, then one JSON
line:

    python3 perfbench/run.py --workload pagerank_chromatic --seed 1 \
        --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
repetitions.  --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics: the traced ones record spans around the
benchmark's calls into each layer, the untraced ones price the tracing
(trace.overhead_frac), and the traced repetition with the median solve
time prints its worker-seconds ledger.

    python3 perfbench/run.py --smoke

is the benchmark's own test: tiny inputs, one repetition per workload and
mode, every named metric present with its unit, ledgers that add up, and
a negative self-test per workload in which one result is corrupted and
the check must trip.

The build lands in .bench_build/perfbench and traces in .bench_out, both
under the checkout root.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "perfbench_e2e"

# The end-to-end metric and workload each per-layer metric is expected to
# move (BENCHMARK.json allows no extra keys, so the mapping lives here and
# is printed beside the per-layer table).
MOVES = {
    "graph.color_s": "setup_s, mostly pagerank_chromatic",
    "graph.partition_s": "setup_s, mostly pagerank_chromatic",
    "graph.ingest_s": "setup_s, mostly pagerank_chromatic",
    "graph.colors": "solve_s on chromatic workloads (barriers/sweep)",
    "graph.ghosts": "net_mb",
    "graph.delta_batches_sent": "net_mb on chromatic workloads",
    "graph.coalesced_merges": "net_mb on chromatic workloads",
    "engine.updates": "solve_s, cpu_s on pagerank_locking",
    "engine.updates_per_s": "solve_s, cpu_s on pagerank_locking",
    "engine.busy_s": "cpu_s",
    "engine.overhead_frac": "solve_s; high on locking, low on als_tcp",
    "chromatic.sweeps": "solve_s on pagerank_chromatic",
    "lock.stall_ns.p50": "solve_s on pagerank_locking",
    "lock.stall_ns.p99": "solve_s on pagerank_locking",
    "lock.stall_count": "solve_s on pagerank_locking",
    "sched.steals": "solve_s on pagerank_locking",
    "apps.update_ns.p50": "solve_s, cpu_s on als_tcp",
    "apps.update_ns.p99": "solve_s, cpu_s on als_tcp",
    "gas.gather_ns.p50": "solve_s on pagerank_chromatic",
    "gas.apply_ns.p50": "solve_s on pagerank_chromatic",
    "gas.scatter_ns.p50": "solve_s on pagerank_chromatic",
    "rpc.messages": "solve_s on pagerank_locking (lock traffic)",
    "rpc.bytes_per_msg": "net_mb, largest on als_tcp",
    "rpc.bytes_per_update": "net_mb, largest on als_tcp",
    "snapshot.bytes": "solve_s on pagerank_locking",
    "snapshot.restore_s": "none; validates the snapshot (pagerank_locking)",
    "trace.overhead_frac": "none; the price of the traced run",
}

# A repetition that runs longer than this is killed and counted failed.
REP_TIMEOUT_S = 150
# Every invocation after the build ends within this, whatever happens.
RUN_BUDGET_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench_e2e"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def input_seed(seed, instance):
    """Seed of the run's instance-th input.  Each repetition solves its own
    input, so a run's medians average over inputs as well as over timing
    noise, and the same --seed always yields the same input sequence."""
    return seed * 1000 + instance


def run_rep(workload, seed, instance, trace, smoke, corrupt, timeout):
    """One repetition in a fresh process, on the run's instance-th input.
    Returns its parsed record, with 'ok' False when it crashed, hung,
    failed a check or printed nothing."""
    cmd = [str(BINARY), "--workload=" + workload,
           "--seed=%d" % input_seed(seed, instance),
           "--trace=%d" % trace, "--smoke=%d" % smoke,
           "--corrupt=%d" % corrupt, "--out=" + str(OUT)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timed out after %.0f s" % timeout,
                "wall_s": time.monotonic() - start, "trace": trace,
                "instance": instance}
    wall = time.monotonic() - start
    record = None
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            record = json.loads(lines[-1])
        except ValueError:
            record = None
    if record is None:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"ok": False, "wall_s": wall, "trace": trace,
                "instance": instance, "error": "exit %d, no result: %s"
                         % (proc.returncode, " | ".join(tail))}
    if proc.returncode != 0 and record.get("ok"):
        record["ok"] = False
        record["error"] = "exit %d" % proc.returncode
    record["wall_s"] = wall
    record["trace"] = trace
    record["instance"] = instance
    return record


def measure(workload, seed, seconds, trace, smoke=False):
    """Runs repetitions until the next one would overrun `seconds` (at
    least one of each kind the mode needs).  With tracing, untraced and
    traced repetitions alternate in pairs that share an input.  Returns
    the records."""
    start = time.monotonic()
    kinds = [0, 1] if trace else [0]
    reps = []
    while True:
        kind = kinds[len(reps) % len(kinds)]
        instance = len(reps) // len(kinds)
        elapsed = time.monotonic() - start
        timeout = min(REP_TIMEOUT_S, max(5.0, RUN_BUDGET_S - elapsed))
        reps.append(run_rep(workload, seed, instance, kind, int(smoke), 0,
                            timeout))
        if not reps[-1]["ok"]:
            log("repetition %d failed: %s %s"
                % (len(reps), reps[-1].get("error", ""),
                   [c for c in reps[-1].get("checks", []) if not c["ok"]]))
        elapsed = time.monotonic() - start
        typical = statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= len(kinds) and (elapsed + typical > seconds or
                                        elapsed + typical > RUN_BUDGET_S):
            return reps


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value), or None when there are too few samples for any
    percentile at or above the median."""
    n = len(values)
    p = math.floor(100.0 * (1.0 - 10.0 / n)) if n else 0
    if p < 50:
        return None
    ordered = sorted(values)
    return p, ordered[min(n - 1, math.ceil(p / 100.0 * n) - 1)]


def summarize(metric_specs, reps, overhead=None):
    """Median of each metric over the given repetitions, printed as a
    table.  Returns the JSON metrics object."""
    out = {}
    print("%-26s %-8s %13s %16s %3s  %s" % ("metric", "unit", "median",
                                             "tail", "n", "moves"))
    for spec in metric_specs:
        name, unit = spec["name"], spec["unit"]
        if name == "trace.overhead_frac":
            values = overhead or []
        else:
            values = [r["metrics"][name] for r in reps
                      if r["metrics"].get(name) is not None]
        if not values:
            continue
        median = statistics.median(values)
        tail = tail_percentile(values)
        tail_text = ("p%d=%.6g" % tail) if tail else "n/a (n<20)"
        print("%-26s %-8s %13.6g %16s %3d  %s" % (name, unit, median,
                                                   tail_text, len(values),
                                                   MOVES.get(name, "")))
        out[name] = {"value": median, "unit": unit}
    return out


def print_ledger(rep):
    rows = rep.get("ledger", [])
    total = sum(v for _, v in rows)
    print("\nworker-seconds ledger (traced repetition, %s):"
          % os.path.basename(rep.get("trace_file", "")))
    for name, value in rows:
        share = 100.0 * value / total if total else 0.0
        print("  %-40s %10.4f  %5.1f%%" % (name, value, share))
    print("  %-40s %10.4f  100.0%%" % ("total", total))
    print("  (solve rows share solve_s x workers; unattributed is scheduler,"
          " barrier,\n   network wait and termination time the benchmark"
          " cannot see from outside)")


def report(workload, seed, trace, reps, spec):
    ok = [r for r in reps if r["ok"]]
    failed = len(reps) - len(ok)
    print("workload %s seed %d: %d repetitions, %d failed"
          % (workload, seed, len(reps), failed))
    for r in reps:
        for c in r.get("checks", []):
            if not c["ok"]:
                print("  check failed: %s = %s (bound %s)"
                      % (c["name"], c["value"], c["bound"]))
    if trace:
        traced = [r for r in ok if r["trace"] == 1]
        # Tracing cost: traced over untraced solve time of each pair that
        # shares an input.
        plain = {r["instance"]: r for r in ok if r["trace"] == 0}
        overhead = [r["metrics"]["solve_s"] /
                    plain[r["instance"]]["metrics"]["solve_s"] - 1.0
                    for r in traced if r["instance"] in plain]
        metrics = summarize(spec["per_layer"], traced, overhead)
        if traced:
            by_solve = sorted(traced, key=lambda r: r["metrics"]["solve_s"])
            shown = by_solve[(len(by_solve) - 1) // 2]
            keep = OUT / (workload + ".trace.json")
            for r in traced:
                if r is shown:
                    os.replace(r["trace_file"], keep)
                    r["trace_file"] = str(keep)
                elif os.path.exists(r["trace_file"]):
                    os.remove(r["trace_file"])
            print_ledger(shown)
    else:
        metrics = summarize(spec["end_to_end"], ok)
    result = {"correct": failed == 0, "attempted": len(reps),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return failed == 0


def smoke(spec):
    """Self-test: every metric emitted with its unit, ledgers add up, and
    each workload's checks trip on a corrupted result."""
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            reps = measure(name, 1, 0, trace, smoke=True)
            bad = [r for r in reps if not r["ok"]]
            if bad:
                problems.append("%s trace=%d: %s" % (name, trace,
                                                     bad[0].get("error")))
                continue
            for m in spec[kind]:
                if m["name"] == "trace.overhead_frac":
                    continue  # derived by report() from both kinds
                values = [r["metrics"].get(m["name"]) for r in reps
                          if r["trace"] == trace]
                if not values or not all(isinstance(v, (int, float))
                                         for v in values):
                    problems.append("%s: metric %s missing"
                                    % (name, m["name"]))
            for r in reps:
                if r["trace"] != 1:
                    continue
                rows = r.get("ledger", [])
                if not any(n == "solve: unattributed" for n, _ in rows):
                    problems.append("%s: ledger lacks its unattributed row"
                                    % name)
                if not os.path.exists(r.get("trace_file", "")):
                    problems.append("%s: no trace file written" % name)
                else:
                    os.remove(r["trace_file"])
        corrupted = run_rep(name, 1, 0, 0, 1, 1, REP_TIMEOUT_S)
        checks = corrupted.get("checks", [])
        if corrupted["ok"] or not checks or any(c["ok"] for c in checks):
            problems.append("%s: a corrupted result passed its checks: %s"
                            % (name, checks))
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke: %s" % ("ok" if not problems else
                         "%d problems" % len(problems)))
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if not args.smoke and args.workload not in names:
        log("--workload must be one of %s" % ", ".join(names))
        return 2
    if not build():
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    if args.smoke:
        return 0 if smoke(spec) else 1
    reps = measure(args.workload, args.seed, args.seconds, args.trace)
    return 0 if report(args.workload, args.seed, args.trace, reps,
                       spec) else 1


if __name__ == "__main__":
    sys.exit(main())
