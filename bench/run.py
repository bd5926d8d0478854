"""The etd benchmark.

Run from the root of an etd checkout:

    python3 bench/run.py --workload q8_lift --seed 1 --seconds 36 --trace 0

Set-up imports ``etd`` afresh and writes the workload's input files
under ``.bench_run/work-<pid>/``, ``SETUP_REPEATS`` times; the last set of files
is used.  Then whole passes over the workload's jobs run, in one
process and one thread, for ``--seconds``: no pass starts that would
likely end past them, but at least one runs.  Every time reported is
a wall time divided by the slowdown that the reference loop of
``pace`` read around it, so it is in seconds at that loop's nominal
speed.  A job that raises, exits non-zero or gives a wrong answer
counts as failed and the run goes on.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics; the spans
are written to ``.bench_run/trace-<workload>.json``.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
holds diagnostics: seed, Python version, nproc, sample counts, tail
times and, when traced, the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from functools import partial
from pathlib import Path

import pace
from tracing import BREAKDOWN_SPANS, COUNT_NAMES, TOP_SPANS, NullTracer, Tracer, breakdown, by_group, patched
from workloads import LARGEST_JOB, SETUP

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
WORK = RUN_DIR / ("work-%d" % os.getpid())
SETUP_REPEATS = 5
MODULES = ("cli", "catalog", "diagio", "diagram", "invariants", "quotient", "symmetry")


def import_etd():
    """Import etd from this checkout, afresh: earlier imports are dropped,
    so each set-up pays the import again."""
    for name in [n for n in sys.modules if n == "etd" or n.startswith("etd.")]:
        del sys.modules[name]
    etd = types.SimpleNamespace(**{m: importlib.import_module("etd." + m) for m in MODULES})
    if Path(etd.cli.__file__).resolve().parent != SRC / "etd":
        raise ImportError("etd was imported from %s, not from this checkout" % etd.cli.__file__)
    return etd


def tail(samples):
    """The highest of p99, p95, p90, p75 and p50 with at least ten samples
    above it, else the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return "p%d" % p, ordered[math.ceil(n * p / 100) - 1]
    return "max", ordered[-1]


def quartiles(samples):
    return statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3


def timed(fn, expect_s, share=pace.SHARE):
    """Call ``fn()``; return its result, its wall time, and the time and
    nominal time of the reference loop run around it.

    Before the call, untimed, garbage is collected, so that ``fn`` starts
    from a clean heap, as in a fresh ``etd`` process, and the loop runs
    for ``share`` of ``expect_s``.  After it, garbage is collected again
    and the loop runs for ``share`` of the call's time.
    """
    gc.collect()
    before = pace.units_for(expect_s, share)
    ref_s = pace.run(before)
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    gc.collect()
    after = pace.units_for(wall, share)
    ref_s += pace.run(after)
    return result, wall, ref_s, (before + after) * pace.UNIT_S


def run_pass(jobs, etd, tracer, group, failures, last_s):
    """Run every job once; return the pass's time, each job's time and
    the pass's slowdown.

    Each job runs between two runs of the reference loop, sized by the
    job's time in the last pass (``last_s``, updated) and in this one.
    A job's slowdown is the loop's time around it over the loop's
    nominal time; the pass's slowdown is the same over all its jobs.
    A job's time is its wall time over its own slowdown; the pass's time
    is its jobs' summed wall time over the pass's slowdown.
    """
    shutil.rmtree(WORK / "out", ignore_errors=True)
    (WORK / "out").mkdir()

    def call(job):
        tracer.job = "%s/%s" % (group, job.name)
        try:
            with tracer.span("job"):
                job.run(etd, tracer)
        except Exception:
            failures.append((job.name, traceback.format_exc()))

    job_s = {}
    wall_s = ref_s = nominal_s = 0.0
    for job in jobs:
        _, wall, ref, nominal = timed(partial(call, job), last_s.get(job.name, 0.0))
        if tracer.enabled:
            breakdown(tracer, etd)
        last_s[job.name] = wall
        job_s[job.name] = wall * nominal / ref
        wall_s += wall
        ref_s += ref
        nominal_s += nominal
    slow = ref_s / nominal_s
    return wall_s / slow, job_s, slow


def measure(args):
    tracer = Tracer() if args.trace else NullTracer()
    setup_s, setup_slow = [], []

    def set_up(k):
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        tracer.job = "setup%d/setup" % k
        etd = import_etd()
        return etd, SETUP[args.workload](etd, WORK, args.seed, tracer)

    wall = 0.0
    for k in range(SETUP_REPEATS):
        (etd, jobs), wall, ref, nominal = timed(partial(set_up, k), wall, pace.SETUP_SHARE)
        setup_slow.append(ref / nominal)
        setup_s.append(wall / setup_slow[-1])

    failures, plain, traced, spent, last_s = [], [], [], [], {}
    deadline = time.perf_counter() + args.seconds
    while True:
        n = len(spent)
        t0 = time.perf_counter()
        if args.trace and n % 2:
            with patched(etd.cli, tracer):
                traced.append(run_pass(jobs, etd, tracer, "pass%d" % n, failures, last_s))
        else:
            plain.append(run_pass(jobs, etd, NullTracer(), "pass%d" % n, failures, last_s))
        spent.append(time.perf_counter() - t0)
        # stop before a pass that would end past the deadline
        if (traced or not args.trace) and time.perf_counter() + statistics.median(spent) > deadline:
            break
    attempted = len(spent) * len(jobs)

    largest = LARGEST_JOB[args.workload]
    pass_s = [wall for wall, _, _ in plain]
    label, value = tail(pass_s)
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs_per_pass": len(jobs),
        "untraced_passes": len(plain),
        "pass_s": {"samples": len(pass_s), "quartiles": quartiles(pass_s), label: value},
        "largest_job_s": {"quartiles": quartiles([j[largest] for _, j, _ in plain])},
        "largest_job": largest,
        "setup_s": setup_s,
        "slowdown": {"setup": setup_slow, "passes": quartiles([slow for _, _, slow in plain])},
        "failures": [name for name, _ in failures],
    }
    for name, text in failures[:3]:
        print("job %s failed:\n%s" % (name, text), file=sys.stderr)

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "pass_s": (statistics.median(pass_s), "s"),
            "largest_job_s": (statistics.median(j[largest] for _, j, _ in plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        times, counts = by_group(tracer)
        groups = ["pass%d" % n for n in range(1, len(spent), 2)]
        setups = ["setup%d" % k for k in range(SETUP_REPEATS)]
        slow = dict(zip(groups, [s for _, _, s in traced]))
        slow.update(zip(setups, setup_slow))
        metrics = {}
        for name in TOP_SPANS + BREAKDOWN_SPANS:
            where = setups if name == "catalog.build" else groups
            metrics[name + "_s"] = (statistics.median(times[g][name] / slow[g] for g in where), "s")
        for name in COUNT_NAMES:
            metrics[name] = (counts[groups[0]][name], "count")
        metrics["fail_ratio"] = (len(failures) / attempted, "ratio")
        top = statistics.median(t for t, _, _ in traced)
        layer = statistics.median(sum(times[g][s] for s in TOP_SPANS) / slow[g] for g in groups)
        diagnostics["trace"] = {
            "traced_passes": len(traced),
            "overhead": top / statistics.median(pass_s) - 1,
            "top_level_share_of_job_time": layer / top,
            "counts_repeat": all(counts[g] == counts[groups[0]] for g in groups),
            "missing_stages": sorted(tracer.missing),
            "file": str((RUN_DIR / ("trace-%s.json" % args.workload)).relative_to(ROOT)),
        }
        tracer.write(RUN_DIR / ("trace-%s.json" % args.workload), diagnostics)

    print(json.dumps(diagnostics))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "etd" / "__init__.py").is_file():
        print("no etd sources at %s: run from the root of an etd checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = measure(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
