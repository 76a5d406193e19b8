"""Benchmark of surfcodes: three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload {distance,towers,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its ``src/``
with nothing installed.  One process, one thread, closed loop: the job list
of the workload (a round) runs again and again until S seconds have passed,
and every round attempts the same operations.  Each job's result is checked
against ``oracle``; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A readable report
goes to stderr.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics: the layer
totals of one traced set-up plus one traced round, and the traced minus
untraced median round time.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 5

# per-layer metric -> (unit, summary name, field); "field" is busy, calls,
# work, or a derived figure named below
PER_LAYER = {
    "codes.exact_min_distance.busy_s": ("s", "codes.exact_min_distance", "busy"),
    "codes.kernel_msgs_per_s": ("1/s", "codes.exact_min_distance", "rate"),
    "codes.build_code.busy_s": ("s", "codes.build_code", "busy"),
    "codes.rational_points.busy_s": ("s", "codes.rational_points", "busy"),
    "codes.load_code.busy_s": ("s", "codes.load_code", "busy"),
    "gf.field_build.busy_s": ("s", "gf.field_build", "busy"),
    "gf.numpy_tables.busy_s": ("s", "gf.numpy_tables", "busy"),
    "gf.poly_factor.busy_s": ("s", "gf.poly_factor", "busy"),
    "gf.poly_factor.calls": ("count", "gf.poly_factor", "calls"),
    "gf.poly_pow_mod.calls": ("count", "gf.poly_pow_mod", "calls"),
    "towers.certificate.busy_s": ("s", "towers.certificate", "busy"),
    "towers.certificate.calls": ("count", "towers.certificate", "calls"),
    "towers.search.skipped": ("count", "towers.certificate", "raised_in_search"),
    "towers.two_torsion_frobenius.calls": ("count", "towers.two_torsion_frobenius", "calls"),
    "towers.hyperelliptic_point_count.busy_s": ("s", "towers.hyperelliptic_point_count", "busy"),
    "towers.tensor_invariant_dim.busy_s": ("s", "towers.tensor_invariant_dim", "busy"),
    "f2.rank.busy_s": ("s", "f2.rank", "busy"),
    "f2.rank.calls": ("count", "f2.rank", "calls"),
    "f2.rank.cells": ("count", "f2.rank", "work"),
    "bounds.parameter_report.busy_s": ("s", "bounds.parameter_report", "busy"),
    "surfaces.ampleness_flags.calls": ("count", "surfaces.ampleness_flags", "calls"),
    "asymptotic.emit_diagram.busy_s": ("s", "asymptotic.emit_diagram", "busy"),
    "cli.import.busy_s": ("s", "cli.import", "busy"),
    "cli.main.busy_s": ("s", "cli.main", "busy"),
    "cli.process_overhead_s": ("s", "cli.process_overhead", "busy"),
    "cli.output_bytes": ("B", "cli.output", "work"),
    "trace.overhead_s": ("s", None, "overhead"),
}


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def setup_probe(workload: str, tmpdir: str, traced: bool):
    """One fresh interpreter's set-up time, and its span summary if traced."""
    trace_path = os.path.join(tmpdir, "setup-trace.json") if traced else "-"
    proc = subprocess.run([sys.executable, CHILD, "setup", trace_path, workload],
                          cwd=tmpdir, capture_output=True, timeout=150, check=True)
    summary = None
    if traced:
        with open(trace_path, encoding="utf-8") as fh:
            summary = json.load(fh)
        os.remove(trace_path)
    return json.loads(proc.stdout)["seconds"], summary


def run_round(wl, traced: bool) -> dict:
    """Run every job of the workload once; checks run after the timed part."""
    tracer = spans.Tracer() if traced else None
    if hasattr(wl, "tracer"):
        wl.tracer = tracer
    if tracer is not None:
        tracer.install()
    outcomes = []
    try:
        for job in wl.jobs:
            t0 = time.perf_counter()
            try:
                outcome, error = job.run(), None
            except Exception as exc:    # an operation that fails is counted
                outcome, error = None, exc
            outcomes.append((job, time.perf_counter() - t0, outcome, error))
    finally:
        if tracer is not None:
            tracer.uninstall()
    rnd = {"times": [], "failed": 0, "work": 0, "problems": [], "traced": traced}
    for job, dt, outcome, error in outcomes:
        rnd["times"].append(dt)
        if error is not None:
            rnd["failed"] += 1
            log(f"  {job.name}: failed with {error!r}")
            continue
        failed, problems = job.check(outcome)
        rnd["failed"] += failed
        rnd["work"] += 0 if failed else job.work
        rnd["problems"] += [f"{job.name}: {p}" for p in problems]
    rnd["wall"] = sum(rnd["times"])
    if traced:
        summary = spans.summarize(tracer.spans)
        spans.merge(summary, tracer.children)
        rnd["summary"] = summary
        rnd["absent"] = set(tracer.absent)
    return rnd


def layer_metrics(rounds: list[dict], probes: list) -> tuple[dict, set]:
    total: dict = {}
    traced = [r for r in rounds if r["traced"]]
    absent = set()
    for parts in ([r["summary"] for r in traced], [p["summary"] for p in probes]):
        for part in parts:
            spans.merge(total, {name: {k: v / len(parts) for k, v in agg.items()}
                                for name, agg in part.items()})
    for r in traced:
        absent |= r["absent"]
    for p in probes:
        absent |= set(p["absent"])
    untraced = [r["wall"] for r in rounds if not r["traced"]]
    overhead = (statistics.median(r["wall"] for r in traced)
                - statistics.median(untraced))
    metrics = {}
    for metric, (unit, name, fld) in PER_LAYER.items():
        agg = total.get(name, {})
        if fld == "overhead":
            value = overhead
        elif fld == "rate":
            value = agg["work"] / agg["busy"] if agg.get("busy") else 0.0
        else:
            value = float(agg.get(fld, 0))
        metrics[metric] = {"value": value, "unit": unit}
    report = sorted(total.items(), key=lambda kv: -kv[1]["self"])
    log("  layer                                   calls      busy_s      self_s")
    for name, agg in report:
        log(f"  {name:38s} {agg['calls']:7.0f} {agg['busy']:11.4f} {agg['self']:11.4f}")
    return metrics, absent


def run(args, tmpdir: str) -> dict:
    import workloads
    rng = random.Random(args.seed)
    wl = workloads.WORKLOADS[args.workload](rng, tmpdir)
    probes = [setup_probe(args.workload, tmpdir, bool(args.trace))
              for _ in range(SETUP_PROBES)]
    wl.warmup()
    # start another round while it is expected to end within the run time;
    # a traced run needs one untraced and one traced round
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(wl, bool(args.trace) and len(rounds) % 2 == 1))
        expected_end = (time.perf_counter() - start
                        + statistics.median(r["wall"] for r in rounds))
        if expected_end > args.seconds and (not args.trace or len(rounds) >= 2):
            break
    problems, info = wl.after()
    for r in rounds:
        problems += r["problems"]
    for p in problems[:20]:
        log(f"  PROBLEM {p}")
    walls = [r["wall"] for r in rounds]
    log(f"{args.workload}: {len(rounds)} rounds of {len(wl.jobs)} jobs, round walls "
        + " ".join(f"{w:.3f}" for w in walls) + f" s; {json.dumps(info)}")
    if args.trace:
        metrics, absent = layer_metrics(rounds, [p[1] for p in probes])
        for name in sorted(absent):
            log(f"  absent: {name} (its metrics read 0)")
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": {"value": statistics.median(p[0] for p in probes), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "job_p50_ms": {"value": 1000 * statistics.median(
                t for r in rounds for t in r["times"]), "unit": "ms"},
            "work_per_s": {"value": sum(r["work"] for r in rounds) / sum(walls),
                           "unit": "1/s"},
            "peak_rss_mib": {"value": resource.getrusage(who).ru_maxrss / 1024,
                             "unit": "MiB"},
        }
    return {"correct": not problems,
            "attempted": len(rounds) * len(wl.jobs),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("distance", "towers", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "surfcodes", "__init__.py")):
        log(f"no surfcodes sources under {SRC}; run from the root of a checkout")
        return 2
    sys.path.insert(0, SRC)
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        result = run(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
