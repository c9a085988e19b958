#!/usr/bin/env python3
"""Steadiness check: two sets of N runs per workload, compared.

    python3 perfbench/steady.py [--runs 10] [--seconds S]
                                [--workloads pipeline,serve,embed]

Workloads and run length default to BENCHMARK.json's. For each workload
it makes two sets of N runs each, set A with seeds 1..N and set B with
seeds N+1..2N. For every metric of each set it prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)), min and
max, and the spread (q3 - q1) / median, followed by the ungated figures
each run prints on stderr. Then it compares the sets metric by metric.

It exits non-zero when a run failed, when a workload's failed/attempted
share differs between runs, when sim_cycles_per_op differs between runs,
when the spread of a gated metric other than setup_s exceeds its bound in
either set, or when either set's median of a gated metric, setup_s
included, is worse than the other's by more than the metric's bound.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else None
    # Ungated figures the run prints on stderr (ops_per_s, p50_ms, p10_ms).
    m = re.search(r"ops_per_s (\S+), p50_ms (\S+), p10_ms (\S+)", p.stderr)
    if result is not None and m:
        result["ungated"] = {"ops_per_s": float(m.group(1)),
                             "p50_ms": float(m.group(2)),
                             "p10_ms": float(m.group(3))}
    return p.returncode, result


def run_set(workload, seeds, seconds):
    """Runs one set; returns ({metric: [values]}, ok)."""
    ok = True
    results = []
    for seed in seeds:
        rc, res = run_once(workload, seed, seconds)
        if rc != 0 or res is None or not res["correct"]:
            print(f"{workload}: run with seed {seed} failed (exit {rc})")
            ok = False
            continue
        results.append(res)
    if len(results) < 2:
        return {}, False
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{workload}, seeds {seeds[0]}-{seeds[-1]}: {len(results)} runs, "
          f"attempted {min(r['attempted'] for r in results)}-"
          f"{max(r['attempted'] for r in results)}, failed share "
          f"{sorted(shares)}")
    if len(shares) != 1:
        print(f"{workload}: failed share differs between runs")
        ok = False
    values = {n: [r["metrics"][n]["value"] for r in results]
              for n in results[0]["metrics"]}
    if all("ungated" in r for r in results):
        for n in results[0]["ungated"]:
            values[f"({n}, ungated)"] = [r["ungated"][n] for r in results]
    return values, ok


def spread(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    bench = load_bench()
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    help="comma-separated (default: BENCHMARK.json's)")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    n = args.runs
    ok = True
    for w in workloads:
        sets = []
        for label, seeds in (("A", range(1, n + 1)),
                             ("B", range(n + 1, 2 * n + 1))):
            values, set_ok = run_set(w, list(seeds), args.seconds)
            ok = ok and set_ok
            if not values:
                continue
            sets.append(values)
            print(f"  set {label} {'metric':34s} {'median':>12s} {'q1':>12s} "
                  f"{'q3':>12s} {'min':>12s} {'max':>12s} {'spread':>8s} "
                  f"{'bound':>6s}")
            for name, vals in values.items():
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                s = spread(vals)
                bound = bounds.get(name)
                flag = ""
                if bound is not None and name != "setup_s" and s > bound:
                    flag = "  OVER BOUND"
                    ok = False
                elif bound is not None and s > bound / 3:
                    flag = "  over bound/3"
                print(f"        {name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{min(vals):12.6g} {max(vals):12.6g} {s:8.4f} "
                      f"{'' if bound is None else bound:>6}{flag}")
                if name == "sim_cycles_per_op" and len(set(vals)) != 1:
                    print(f"{w}: sim_cycles_per_op differs between runs")
                    ok = False
        if len(sets) != 2:
            ok = False
            continue
        a, b = sets
        if a.get("sim_cycles_per_op") and b.get("sim_cycles_per_op") and \
                set(a["sim_cycles_per_op"]) != set(b["sim_cycles_per_op"]):
            print(f"{w}: sim_cycles_per_op differs between the sets")
            ok = False
        print(f"\n{w}: set A vs set B (worse = the larger median's excess "
              f"over the smaller)")
        print(f"  {'metric':34s} {'median A':>12s} {'median B':>12s} "
              f"{'spread A':>9s} {'spread B':>9s} {'worse':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            if name not in a or name not in b:
                print(f"{w}: metric {name} missing")
                ok = False
                continue
            ma, mb = statistics.median(a[name]), statistics.median(b[name])
            # How far either set's median is from the other's, as a share
            # of the smaller: covers "worse" in both directions.
            worse = max(ma / mb, mb / ma) - 1 if ma and mb else float("inf")
            flag = ""
            if worse > bound:
                flag = "  MEDIANS DISAGREE"
                ok = False
            print(f"  {name:34s} {ma:12.6g} {mb:12.6g} {spread(a[name]):9.4f} "
                  f"{spread(b[name]):9.4f} {worse:8.4f} {bound:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
