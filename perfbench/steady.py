"""Steadiness check: sets of benchmark runs of the same code, one seed each.

    python3 perfbench/steady.py [--sets 2] [--runs 10]
                                [--workloads distance,towers,cli] [--first-seed 1]

Run from the root of a checkout.  Each set runs every workload once per
seed (seeds first-seed .. first-seed+runs-1, workloads interleaved) for
BENCHMARK.json's run_seconds.  For each workload and end-to-end metric it
prints each set's median and quartiles, the spread (quartile distance over
median) against the metric's bound in BENCHMARK.json, and the shift of the
set medians; and the share of failed operations of each set.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    results = {w: [] for w in workloads}
    for s in range(args.sets):
        runs = {w: [] for w in workloads}
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for w in workloads:
                res = one_run(w, seed, bench["run_seconds"])
                runs[w].append(res)
                print(f"set {s} seed {seed} {w}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} " + " ".join(
                          f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      flush=True)
        for w in workloads:
            results[w].append(runs[w])
    for w in workloads:
        print(f"\n== {w}")
        for s, runs in enumerate(results[w]):
            share = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            print(f"  set {s}: failed share {share:.6f}, all correct "
                  f"{all(r['correct'] for r in runs)}")
        for metric, (bound, better) in bounds.items():
            medians = []
            for s, runs in enumerate(results[w]):
                values = [r["metrics"][metric]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                print(f"  {metric:14s} set {s}: median {med:.5g} quartiles "
                      f"[{q1:.5g}, {q3:.5g}] spread {(q3 - q1) / med:.3f} "
                      f"(bound {bound}, third {bound / 3:.3f})")
            for s in range(1, len(medians)):
                worse = (medians[s] - medians[0]) / medians[0]
                if better == "higher":
                    worse = -worse
                print(f"  {metric:14s} set {s} vs set 0: {worse:+.3f} worse")
    return 0


if __name__ == "__main__":
    sys.exit(main())
