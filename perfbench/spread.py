#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

    python3 perfbench/spread.py --workload sparse_wide --seeds 1-10 [--trace 0]

For every metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread, the distance between
the quartiles as a share of the median. For an end-to-end metric it also
prints the spread as a share of the metric's bound in BENCHMARK.json.
The summary is printed as JSON on the last line.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, attempted, failed, correct = {}, 0, 0, True
    for seed in seeds(a.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", a.trace]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if r.returncode != 0:
            sys.exit(f"seed {seed}: run failed with code {r.returncode}")
        result = json.loads(r.stdout.strip().split("\n")[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)

    summary = {}
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        row = {"n": len(vs), "median": med, "q1": q1, "q3": q3, "spread": spread}
        if name in bounds:
            row["spread_over_bound"] = spread / bounds[name]
        summary[name] = row
        extra = f"  spread/bound {row['spread_over_bound']:.2f}" if name in bounds else ""
        print(f"{name:28s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {spread:.4f}{extra}")
    print(json.dumps({"workload": a.workload, "seeds": a.seeds, "correct": correct,
                      "attempted": attempted, "failed": failed, "metrics": summary}))


if __name__ == "__main__":
    main()
