#!/usr/bin/env python3
"""Steadiness report: runs each workload N times on distinct seeds and
prints, per metric, the median, the quartiles and the relative spreads beside
the bound BENCHMARK.json fixes for it.

    python3 perfbench/steadiness.py                    # every workload, 10 runs
    python3 perfbench/steadiness.py --workloads cold_check --runs 5
    python3 perfbench/steadiness.py --sets 2           # two sets, median drift

iqr/med is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4); a metric is steady when it stays within
its bound (the target is a third of it). range/med is (max - min) / median.
With --sets 2 the script also prints the second set's iqr/med and how far
its median moved from the first set's, in the metric's worse direction.
setup_s's spread is reported but not held to its bound; its median drift is.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, med, med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med), (max(values) - min(values)) / abs(med)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--save", help="write every run's metrics to this JSON file")
    args = ap.parse_args()

    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    verdict_ok = True
    raw = {}
    for workload in args.workloads:
        sets = []
        for s in range(args.sets):
            seeds = range(args.first_seed + s * args.runs,
                          args.first_seed + (s + 1) * args.runs)
            sets.append([run_once(workload, seed, args.seconds, args.trace) for seed in seeds])
        raw[workload] = sets
        print(f"\n== {workload}: {args.runs} runs x {args.sets} set(s), {args.seconds} s each")
        print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}"
              + (f" {'iqr2/med':>8s} {'drift':>7s}" if args.sets == 2 else ""))
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            vals = [r[name] for r in sets[0]]
            med, q1, q3, iqr, rng = spread(vals)
            line = (f"{name:40s} {med:12.4g} {q1:12.4g} {q3:12.4g} {iqr:8.3f} {rng:9.3f} "
                    f"{bound if bound is not None else '-':>6}")
            if bound is not None and name != "setup_s" and iqr > bound:
                line += "  SPREAD OVER BOUND"
                verdict_ok = False
            if args.sets == 2:
                vals2 = [r[name] for r in sets[1]]
                med2, _, _, iqr2, _ = spread(vals2)
                sign = 1 if m["better"] == "lower" else -1
                drift = sign * (med2 - med) / abs(med) if med else 0.0
                line += f" {iqr2:8.3f} {drift:7.3f}"
                if bound is not None and name != "setup_s" and iqr2 > bound:
                    line += "  SET 2 SPREAD OVER BOUND"
                    verdict_ok = False
                if bound is not None and drift > bound:
                    line += "  DRIFT OVER BOUND"
                    verdict_ok = False
            print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f, indent=1)
    print("\nsteady" if verdict_ok else "\nNOT steady")
    return 0 if verdict_ok else 1


if __name__ == "__main__":
    sys.exit(main())
