#!/usr/bin/env python3
"""Benchmark of the pseudoarcs verdicts: pseudo-arc, MDS, complete
intersection and erasure decode.

    python3 bench/run.py --workload arcs --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

One process, one client, closed loop: a job starts when the previous
one ends.  Jobs come in cycles; every cycle of a workload holds the same
parameter points, and the seed sets the order, the planted defects, the
messages and the erasure patterns.  Whole cycles run until another one
would overrun --seconds (at least two run).  Every answer is checked.

Times are normalized to a reference loop timed around and during each
job (see clock.py).  With --trace 0 the run reports the end-to-end
metrics.  With --trace 1
it runs the same cycles untraced, then again with spans around every
call into a layer, then one small job of every kind and the layer
probes, and reports the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

See bench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

from clock import Clock
from spans import NullTracer, Tracer, self_times, write_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("arcs", "distance", "roundtrip", "quadrics")
MIN_CYCLES = 2
SETUP_SAMPLES = 5  # this process plus fresh child processes
CHILD_TIMEOUT_S = 170
TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9)

WORK_UNIT = {"arcs": "subsets", "distance": "words", "roundtrip": "symbols",
             "quadrics": "points"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring time; whole cycles, at least %d" % MIN_CYCLES)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up in this fresh process and print it")
    return ap.parse_args(argv)


def tail_percentile(n):
    """Highest percentile on the ladder with at least ten samples beyond
    its nearest-rank position, or None when n is too small."""
    best = None
    for p in TAIL_LADDER:
        if n - math.ceil(p * n / 100) >= 10:
            best = p
    return best


def nearest_rank(sorted_values, p):
    return sorted_values[max(math.ceil(p * len(sorted_values) / 100), 1) - 1]


class Done:
    """A finished job: normalized seconds (see clock.py), wall seconds,
    and the scale factor between them."""

    __slots__ = ("job", "job_id", "outcome", "seconds", "wall", "factor")

    def __init__(self, job, job_id, outcome, clocked):
        self.job, self.job_id, self.outcome = job, job_id, outcome
        self.wall, self.seconds, self.factor = clocked


def timed(jobs, job, ctx, clock, job_id):
    ctx.tr.job = job_id
    clock.start()
    try:
        with ctx.tr.span("job"):
            outcome = jobs.run_job(job, ctx)
    except Exception:
        outcome = jobs.Outcome("", 0, {}, False, traceback.format_exc())
    done = Done(job, job_id, outcome, clock.stop())
    if not outcome.ok:
        print("FAILED %s %s\n%s" % (job_id, job, outcome.detail), file=sys.stderr)
    return done


def measure(jobs, workload, ctx, clock, rng, seconds, digest, keep_jobs):
    """Whole cycles until the next one, judged by the last, would overrun.

    The first MIN_CYCLES cycles' outputs go into the digest.  Outputs,
    and the inputs unless kept for a replay, are dropped as the run goes,
    so that memory does not grow with the number of jobs.
    """
    cycles = []
    start = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        n = len(cycles)
        cycle = [timed(jobs, job, ctx, clock, "c%d.%d" % (n, i))
                 for i, job in enumerate(jobs.plan_cycle(workload, rng))]
        for d in cycle:
            if n < MIN_CYCLES:
                data = d.outcome.output.encode()
                digest.update(b"%d:" % len(data))
                digest.update(data)
            d.outcome.output = None
            if not keep_jobs:
                d.job = None
        cycles.append(cycle)
        now = time.perf_counter()
        if len(cycles) >= MIN_CYCLES and now - start + (now - c0) > seconds:
            return cycles


def replay(jobs, cycles, ctx, clock):
    return [[timed(jobs, d.job, ctx, clock, "t%d.%d" % (n, i))
             for i, d in enumerate(cyc)] for n, cyc in enumerate(cycles)]


def child_setup_seconds(workload):
    """(normalized, wall) set-up seconds of a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--setup-only"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["setup_wall_s"]


def report(name, value, unit, note=""):
    print("  %-24s %14.6g %-6s %s" % (name, value, unit, note))


def main(argv=None):
    args = parse_args(argv)
    if not __debug__:
        print("error: run under plain python, not -O: the package's "
              "invariant asserts are part of the verdicts", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "pseudoarcs", "__init__.py")):
        print("error: no package source at %s; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    clock = Clock()
    clock.start()
    sys.path.insert(0, SRC)
    import jobs
    tracer = Tracer() if args.trace else NullTracer()
    ctx = jobs.Context(tracer)
    tracer.job = "setup"
    setup_counts = jobs.setup(args.workload, ctx)
    setup = clock.stop()
    import pseudoarcs
    if not os.path.realpath(pseudoarcs.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        print("error: imported %s, not the checkout's package"
              % pseudoarcs.__file__, file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup[1], "setup_wall_s": setup[0]}))
        return 0

    rng = random.Random(args.seed)
    digest = hashlib.sha256()
    if args.trace:
        ctx.tr = NullTracer()
        cycles = measure(jobs, args.workload, ctx, clock, rng, args.seconds / 2,
                         digest, keep_jobs=True)
        ctx.tr = tracer
        traced = replay(jobs, cycles, ctx, clock)
        coverage = [timed(jobs, job, ctx, clock, "probe.%d" % i)
                    for i, job in enumerate(jobs.COVERAGE_JOBS)]
        runs = [d for cyc in cycles + traced for d in cyc] + coverage
        metrics = layer_metrics(ctx, clock, tracer, setup, setup_counts,
                                cycles, traced, coverage)
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, "spans-%s-seed%d.jsonl"
                            % (args.workload, args.seed))
        write_spans(path, tracer.spans)
        print("%d spans written to %s" % (len(tracer.spans),
                                          os.path.relpath(path, ROOT)))
    else:
        cycles = measure(jobs, args.workload, ctx, clock, rng, args.seconds,
                         digest, keep_jobs=False)
        runs = [d for cyc in cycles for d in cyc]
        setups = [(setup[1], setup[0])] + [child_setup_seconds(args.workload)
                                           for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end_metrics(args.workload, runs, setups)

    failed = sum(1 for d in runs if not d.outcome.ok)
    first = sum(len(cyc) for cyc in cycles[:MIN_CYCLES])
    print("workload %s, seed %d, trace %d: %d cycles, %d jobs, %d failed "
          "(fail_ratio %.6g)" % (args.workload, args.seed, args.trace,
                                 len(cycles), len(runs), failed,
                                 failed / len(runs)))
    print("digest %s seed %d: sha256 %s over the %d jobs of the first %d cycles"
          % (args.workload, args.seed, digest.hexdigest(), first, MIN_CYCLES))
    for name, m in metrics.items():
        report(name, m["value"], m["unit"], m.pop("note", ""))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


def end_to_end_metrics(workload, runs, setups):
    """`setups` holds (normalized, wall) seconds per set-up sample."""
    times = sorted(d.seconds for d in runs)
    busy = sum(times)
    wall = sum(d.wall for d in runs)
    work = sum(d.outcome.work for d in runs)
    setup = [s[0] for s in setups]
    out = {
        "setup_s": {"value": statistics.median(setup), "unit": "s",
                    "note": "median of %d fresh processes; wall %s" % (
                        len(setups), " ".join("%.4g" % s[1] for s in setups))},
        "job_p50_s": {"value": statistics.median(times), "unit": "s",
                      "note": "of %d jobs; wall %.4g" % (
                          len(times), statistics.median(d.wall for d in runs))},
        "jobs_per_s": {"value": len(times) / busy, "unit": "1/s",
                       "note": "wall %.4g" % (len(times) / wall)},
        "work_per_s": {"value": work / busy, "unit": "1/s",
                       "note": "%s per second of job time; wall %.4g" % (
                           WORK_UNIT[workload], work / wall)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "unit": "MB"},
    }
    p = tail_percentile(len(times))
    if p is not None:
        # printed with the report, not part of the result line
        print("  %-24s %14.6g %-6s p%g of %d jobs" % (
            "job_tail_s", nearest_rank(times, p), "s", p, len(times)))
    return out


def layer_metrics(ctx, clock, tracer, setup, setup_counts, cycles, traced,
                  coverage):
    import probes
    scale = {"setup": setup[2]}
    counts = Counter(setup_counts)
    for d in [d for cyc in traced for d in cyc] + coverage:
        scale[d.job_id] = d.factor
        counts.update(d.outcome.counts)
    st = self_times(tracer.spans, scale)

    def total(name):
        return st.get(name, (0.0, 0))[0]

    def per_call_us(name):
        seconds, calls = st.get(name, (0.0, 0))
        return seconds / calls * 1e6 if calls else 0.0

    def probe(fn, *args):
        clock.start()
        value = fn(*args)
        return value * clock.stop()[2]

    base_s = sum(d.seconds for cyc in cycles for d in cyc)
    traced_s = sum(d.seconds for cyc in traced for d in cyc)
    values = [
        ("gf.tower_s", total("gf.tower"), "s"),
        ("gf.table_entries", ctx.table_entries(), "count"),
        ("gf.mul_ns", probe(probes.field_op_ns, ctx.fields, "mul"), "ns"),
        ("gf.add_ns", probe(probes.field_op_ns, ctx.fields, "add"), "ns"),
        ("linalg.det_us", probe(probes.determinants), "us"),
        ("linalg.dets", counts["linalg.dets"], "count"),
        ("linalg.solve_us", probe(probes.solves, ctx.code((2, 2, 5, True))), "us"),
        ("linalg.rref_us", probe(probes.row_reductions), "us"),
        ("nrc.orbit_reps_s", total("nrc.orbit_reps"), "s"),
        ("nrc.reps", counts["nrc.reps"], "count"),
        ("projgeo.points_us", probe(probes.points), "us"),
        ("pseudoarc.construct_s", total("pseudoarc.construct"), "s"),
        ("pseudoarc.verify_s", total("pseudoarc.verify"), "s"),
        ("pseudoarc.subsets", counts["pseudoarc.subsets"], "count"),
        ("codes.gen_s", total("codes.gen"), "s"),
        ("codes.min_distance_s", total("codes.min_distance"), "s"),
        ("codes.is_mds_s", total("codes.is_mds"), "s"),
        ("codes.words", counts["codes.words"], "count"),
        ("codes.encode_us", per_call_us("codes.encode"), "us"),
        ("codes.decode_us", per_call_us("codes.decode"), "us"),
        ("codes.refused", counts["codes.refused"], "count"),
        ("quadrics.vanishing_s", total("quadrics.vanishing"), "s"),
        ("quadrics.conditions", counts["quadrics.conditions"], "count"),
        ("quadrics.certify_s", total("quadrics.certify"), "s"),
        ("quadrics.points_scanned", counts["quadrics.points_scanned"], "count"),
        ("jsonio.dump_s", total("jsonio.dump"), "s"),
        ("jsonio.load_s", total("jsonio.load"), "s"),
        ("jsonio.bytes", counts["jsonio.bytes"], "count"),
        ("trace.overhead_ratio", traced_s / base_s, "ratio"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in values}


def run_all(args):
    """Every workload in its own fresh process, then one summary table."""
    results = {}
    ok = True
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("workload %s exited with status %d" % (workload, proc.returncode))
            ok = False
            continue
        results[workload] = json.loads(lines[-1])
        ok = ok and results[workload]["correct"]
    names = []
    for res in results.values():
        names += [n for n in res["metrics"] if n not in names]
    print("\n%-26s" % "metric" + "".join("%14s" % w for w in results))
    for name in names:
        cells = []
        for res in results.values():
            m = res["metrics"].get(name)
            cells.append("%14.6g" % m["value"] if m else "%14s" % "-")
        unit = next(r["metrics"][name]["unit"] for r in results.values()
                    if name in r["metrics"])
        print("%-26s" % ("%s [%s]" % (name, unit)) + "".join(cells))
    print("%-26s" % "fail_ratio" + "".join(
        "%14.6g" % (r["failed"] / r["attempted"]) for r in results.values()))
    print(json.dumps({"correct": ok and len(results) == len(WORKLOADS),
                      "workloads": results}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
