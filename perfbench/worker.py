"""One fresh benchmark process: set a workload up, then (optionally) measure it.

    python3 perfbench/worker.py setup   --workload W --seed N
    python3 perfbench/worker.py measure --workload W --seed N --seconds S [--trace]

``setup`` times importing trirank, building the field tables and caches the
workload touches and generating its inputs.  ``measure`` does the same set-up,
then runs the workload's fixed job list, one job after another, until
``--seconds`` have passed (at least once), checking every job's output after
each pass.  With ``--trace`` it runs one untraced and one traced pass instead.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

T0 = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

MAX_FAILURE_LINES = 20


def run_pass(wl, tracer=None):
    """Run every job once; returns (wall seconds, [(job, raw, error)])."""
    outputs = []
    start = time.perf_counter()
    for job in wl.jobs:
        if tracer is not None:
            tracer.job = job.name
        try:
            outputs.append((job, job.run(), None))
        except Exception:  # a failing job is counted, the run goes on
            outputs.append((job, None, traceback.format_exc(limit=3)))
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.job = None
    return wall, outputs


def finish_pass(outputs):
    """Check every job's output: ({item: (digest, [failures])}, exact, sampled)."""
    from workloads import digest

    items, exact, sampled = {}, 0, 0
    for job, raw, error in outputs:
        if error is None:
            try:
                done, (e, s) = job.finish(raw)
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is not None:
            done, e, s = {item: (b"", [error]) for item in job.items}, 0, 0
        exact, sampled = exact + e, sampled + s
        for item in job.items:
            data, fails = done.get(item, (b"", ["no output checked"]))
            items[item] = (digest(data) if data else "", fails)
    return items, exact, sampled


def measure(wl, seconds, tracer):
    import speed  # imports numpy, so not before T0

    passes = []  # (wall, items)
    ref_s, probe_s = [], []
    exact = sampled = 0
    traced = None
    if tracer is None:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            with speed.SpeedProbe() as probe:
                wall, outputs = run_pass(wl)
            if not probe.samples:
                probe.calibrate()
            ref_s.append(speed.reference_seconds(wall, probe))
            probe_s.append(sum(probe.samples) / len(probe.samples))
            items, e, s = finish_pass(outputs)
            passes.append((wall, items))
            exact, sampled = exact + e, sampled + s
    else:
        for traced_pass in (False, True):
            if traced_pass:
                tracer.install()
            wall, outputs = run_pass(wl, tracer if traced_pass else None)
            tracer.uninstall()
            items, e, s = finish_pass(outputs)
            passes.append((wall, items))
            exact, sampled = exact + e, sampled + s
        traced = passes[-1][0]

    failures = []
    failed = 0
    first = passes[0][1]
    for i, (_, items) in enumerate(passes):
        for item, (dig, fails) in sorted(items.items()):
            if dig and dig != first[item][0]:
                fails = fails + [f"report differs from pass 0 (pass {i})"]
            if fails:
                failed += 1
                failures.append(f"pass {i} {item}: " + "; ".join(fails))
    failed_items = sorted(item for item, (_, fails) in first.items() if fails)
    return {
        "pass_s": [p[0] for p in passes],
        "pass_ref_s": ref_s,
        "probe_s": probe_s,
        "traced_pass_s": traced,
        "attempted": sum(len(items) for _, items in passes),
        "failed": failed,
        "failed_items": failed_items,
        "failures": failures[:MAX_FAILURE_LINES],
        "exact_records": exact,
        "sampled_records": sampled,
        "digests": {item: dig for item, (dig, _) in sorted(first.items())},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--trace-out", default=None, help="write the spans here (JSON lines)")
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = p.parse_args(argv)

    import workloads
    import tracing

    capture = workloads.SRCapture()
    capture.install()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.job = "setup"
    traced_setup_start = time.perf_counter()
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "_work"))
    try:
        wl = workloads.setup(args.workload, args.seed, workdir, capture, tiny=args.tiny)
        setup_s = time.perf_counter() - T0
        result = {"setup_s": setup_s}
        if args.mode == "measure":
            if tracer is not None:
                tracer.job = None
                traced_setup_s = time.perf_counter() - traced_setup_start
                tracer.uninstall()
            result.update(measure(wl, args.seconds, tracer))
            if tracer is not None:
                result["trace"] = trace_summary(tracer, result, traced_setup_s)
                if args.trace_out:
                    tracer.dump(args.trace_out)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wl.close()
    finally:
        capture.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def trace_summary(tracer, result, traced_setup_s):
    from trirank import slicerank

    untraced, traced = result["pass_s"][0], result["traced_pass_s"]
    wall = traced_setup_s + traced
    return {
        "layers": tracer.summary(),
        "spans": len(tracer.spans),
        "traced_setup_s": traced_setup_s,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "overhead_s": traced - untraced,
        "wall_s": wall,
        "untimed_s": wall - tracer.covered_seconds(),
        "subspace_builds": len(slicerank._subspace_cache),
    }


if __name__ == "__main__":
    sys.exit(main())
