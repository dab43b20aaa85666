"""The trirank benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 7 --seconds 5 --trace 0

Workloads: corpus, tower, slice_search, counting (see workloads.py for why
each is here).  Every process this starts is single-threaded and runs after
the previous one ended, so the benchmark never uses more than one core.

With ``--trace 0`` it prints the end-to-end metrics:

- wall_s: median seconds to run the workload's fixed job list once, tracing
  off, after set-up; the job list is repeated until ``--seconds`` have passed.
  Each pass's wall time is corrected to a reference core speed sampled during
  the pass (speed.py); the raw wall times are kept in the record;
- setup_s: median, over SETUP_SAMPLES fresh processes, of the seconds to import
  trirank, build every field table and cache the workload touches and
  generate its inputs (a CLI user pays for these on every invocation);
- peak_rss_mb: peak resident memory of the measuring process;
- exact_count_share: exact / all rank-stratum and kernel CountRecords in the
  reports (1 where a workload produces none);
- pass_share: jobs whose every output check held / jobs attempted.

With ``--trace 1`` it runs one untraced and one traced pass in a fresh
process and prints the per-layer metrics: self time, calls and exact counts
per layer function, plus tracing overhead and the time no span covers.
Variety point counting (``count_points``, ``szcheck``) is on no workload's
path and goes unmeasured; tensor file I/O falls inside ``cli.run`` self time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A full record (environment, per-pass times,
report digests, failures) goes to perfbench/_out/, and with --trace 1 the
spans too.  Digests of each job's reports are kept per (workload, seed,
source) in perfbench/_out/digests.json; a later run with the same seed whose
reports differ counts those jobs as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

START = time.monotonic()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "trirank")
OUT = os.path.join(HERE, "_out")

WORKLOADS = ("corpus", "tower", "slice_search", "counting")
SETUP_SAMPLES = 7  # fresh processes timing set-up; the measuring one is the last
DEADLINE_S = 175  # the whole run, every child process included
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",  # the same dict layouts in every process
}
GOLDEN = os.path.join(HERE, "golden.json")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "exact_count_share": "share",
    "pass_share": "share",
}

# (metric, layer span, key in the span summary, unit)
PER_LAYER = [
    ("fields.extension.s", "fields.extension", "s", "s"),
    ("fields.extension.calls", "fields.extension", "calls", "count"),
    ("linalg.batched_rank.s", "linalg.batched_rank", "s", "s"),
    ("linalg.batched_rank.calls", "linalg.batched_rank", "calls", "count"),
    ("linalg.batched_rank.matrices", "linalg.batched_rank", "matrices", "count"),
    ("linalg.rref.s", "linalg.rref", "s", "s"),
    ("linalg.rref.calls", "linalg.rref", "calls", "count"),
    ("geometric.rank_strata_counts.s", "geometric.rank_strata_counts", "s", "s"),
    ("geometric.rank_strata_counts.calls", "geometric.rank_strata_counts", "calls", "count"),
    ("geometric.kernel_codim.s", "geometric.kernel_codim", "s", "s"),
    ("geometric.kernel_codim.matrices", "geometric.kernel_codim", "matrices", "count"),
    ("analytic.zero_count.s", "analytic.zero_count", "s", "s"),
    ("analytic.zero_count.fibers", "analytic.zero_count", "fibers", "count"),
    ("analytic.min_entropy.s", "analytic.min_entropy", "s", "s"),
    ("analytic.min_entropy.pairs", "analytic.min_entropy", "pairs", "count"),
    ("analytic.bias_char_sum.s", "analytic.bias_char_sum", "s", "s"),
    ("analytic.bias_char_sum.pairs", "analytic.bias_char_sum", "pairs", "count"),
    ("slicerank.slice_rank_exact.s", "slicerank.slice_rank_exact", "s", "s"),
    ("slicerank.slice_rank_exact.calls", "slicerank.slice_rank_exact", "calls", "count"),
    ("slicerank.subspaces.s", "slicerank.subspaces", "s", "s"),
    ("slicerank.vertex_cover_sr.s", "slicerank.vertex_cover_sr", "s", "s"),
    ("decomp.slice_decompose.s", "decomp.slice_decompose", "s", "s"),
    ("decomp.slice_decompose.calls", "decomp.slice_decompose", "calls", "count"),
    ("decomp.slice_decompose.retries", "decomp.slice_decompose", "retries", "count"),
    ("decomp.slice_decompose.flagged", "decomp.slice_decompose", "flagged", "count"),
    ("decomp.verify_decomposition.s", "decomp.verify_decomposition", "s", "s"),
    ("biascx.closeness_report.s", "biascx.closeness_report", "s", "s"),
    ("biascx.complexity_bound.s", "biascx.complexity_bound", "s", "s"),
    ("cli.run.s", "cli.run", "s", "s"),
]
TRACE_METRICS = [
    ("linalg.batched_rank.matrices_per_s", "1/s"),
    ("geometric.exact_records", "count"),
    ("geometric.sampled_records", "count"),
    ("slicerank.subspaces.builds", "count"),
    ("trace.spans", "count"),
    ("trace.setup_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untimed_s", "s"),
]


class BenchError(Exception):
    pass


def run_worker(mode, args, extra=()):
    """Run worker.py in a fresh process; its last stdout line is JSON.

    The child is killed, and waited for, if it outlives the run's deadline.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, **WORKER_ENV)
    timeout = DEADLINE_S - (time.monotonic() - START)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process outlived the {DEADLINE_S} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{mode} process exited with {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def _file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _py_files(directory):
    return [os.path.join(directory, f) for f in os.listdir(directory) if f.endswith(".py")]


def _git_sha() -> str:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def environment(args) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "source_digest": _file_digest(_py_files(SRC)),
        "bench_digest": _file_digest(_py_files(HERE)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "worker_env": WORKER_ENV,
        "worker_processes_at_once": 1,
    }


def _load_json(path, default):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def _write_json(path, obj):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def check_determinism(env, digests) -> list:
    """Items whose report digest differs from an earlier run with this seed."""
    path = os.path.join(OUT, "digests.json")
    store = _load_json(path, {})
    key = "/".join(str(env[k]) for k in ("workload", "seed", "tiny", "source_digest", "bench_digest"))
    before = store.setdefault(key, {})
    changed = [item for item, dig in digests.items() if item in before and before[item] != dig]
    for item, dig in digests.items():
        before.setdefault(item, dig)
    _write_json(path, store)
    return changed


def corpus_digest(digests) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="trirank benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs (smoke test only)")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: trirank sources not found under {os.path.relpath(SRC, ROOT)}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = environment(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    try:
        if args.trace:
            trace_path = os.path.join(OUT, f"spans-{tag}.jsonl")
            res = run_worker("measure", args, ["--trace", "--trace-out", trace_path])
        else:
            setups = [run_worker("setup", args)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
            res = run_worker("measure", args, ["--seconds", str(args.seconds)])
            res["setup_samples_s"] = setups + [res["setup_s"]]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    changed = check_determinism(env, res["digests"])
    res["failed"] += len(set(changed) - set(res["failed_items"]))
    res["failures"] += [f"{item}: report differs from an earlier run with this seed"
                        for item in changed]
    metrics = per_layer_metrics(res["trace"]) if args.trace else end_to_end_metrics(res)
    if args.workload == "corpus" and not args.tiny:
        res["corpus_digest"] = corpus_digest(res["digests"])
        golden = _load_json(GOLDEN, {}).get("corpus", {}).get(str(args.seed))
        if golden:
            res["golden_match"] = golden == res["corpus_digest"]

    record = {"env": env, "result": res, "metrics": metrics}
    _write_json(os.path.join(OUT, f"result-{tag}.json"), record)
    report(env, res, metrics)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }, sort_keys=True))
    return 0


def end_to_end_metrics(res) -> dict:
    records = res["exact_records"] + res["sampled_records"]
    values = {
        "wall_s": statistics.median(res["pass_ref_s"]),
        "setup_s": statistics.median(res["setup_samples_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "exact_count_share": res["exact_records"] / records if records else 1.0,
        "pass_share": (res["attempted"] - res["failed"]) / res["attempted"],
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def per_layer_metrics(trace) -> dict:
    layers = trace["layers"]
    out = {}
    for metric, layer, key, unit in PER_LAYER:
        out[metric] = {"value": layers[layer].get(key, 0), "unit": unit}
    br = layers["linalg.batched_rank"]
    rsc, kc = layers["geometric.rank_strata_counts"], layers["geometric.kernel_codim"]
    values = {
        "linalg.batched_rank.matrices_per_s": br.get("matrices", 0) / br["s"] if br["s"] else 0.0,
        "geometric.exact_records": rsc.get("exact_records", 0) + kc.get("exact_records", 0),
        "geometric.sampled_records": rsc.get("sampled_records", 0) + kc.get("sampled_records", 0),
        "slicerank.subspaces.builds": trace["subspace_builds"],
        "trace.spans": trace["spans"],
        "trace.setup_s": trace["traced_setup_s"],
        "trace.untraced_pass_s": trace["untraced_pass_s"],
        "trace.traced_pass_s": trace["traced_pass_s"],
        "trace.overhead_s": trace["overhead_s"],
        "trace.wall_s": trace["wall_s"],
        "trace.untimed_s": trace["untimed_s"],
    }
    for metric, unit in TRACE_METRICS:
        out[metric] = {"value": values[metric], "unit": unit}
    return out


def report(env, res, metrics) -> None:
    """Human-readable lines ahead of the final JSON line."""
    print("env " + json.dumps(env, sort_keys=True))
    if res.get("pass_ref_s"):
        print(f"passes: {len(res['pass_s'])}; wall " + ", ".join(f"{t:.3f}s" for t in res["pass_s"])
              + "; at reference speed " + ", ".join(f"{t:.3f}s" for t in res["pass_ref_s"])
              + "; probe " + ", ".join(f"{t * 1e6:.0f}us" for t in res["probe_s"]))
    if "setup_samples_s" in res:
        print("setup samples: " + ", ".join(f"{t:.3f}s" for t in res["setup_samples_s"]))
    if "golden_match" in res:
        state = "matches" if res["golden_match"] else "DIFFERS FROM"
        print(f"corpus reports digest {res['corpus_digest']} {state} the golden digest")
    trace = res.get("trace")
    if trace:
        wall = trace["wall_s"]
        print(f"traced wall {wall:.3f}s (set-up {trace['traced_setup_s']:.3f}s + pass "
              f"{trace['traced_pass_s']:.3f}s); overhead {trace['overhead_s']:+.3f}s; "
              f"untimed {trace['untimed_s']:.3f}s")
        rows = sorted(trace["layers"].items(), key=lambda kv: -kv[1]["s"])
        for layer, agg in rows:
            counts = " ".join(f"{k}={v}" for k, v in sorted(agg.items()) if k != "s")
            print(f"  {layer:32s} self {agg['s']:9.3f}s {100 * agg['s'] / wall:6.1f}%  {counts}")
    else:
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    for line in res["failures"]:
        print("FAILED " + " | ".join(line.strip().splitlines())[:400])


if __name__ == "__main__":
    sys.exit(main())
