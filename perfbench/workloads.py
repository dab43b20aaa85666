"""The benchmark's workloads: inputs made from a seed, fixed job lists, checks.

Why each workload is in the benchmark:

- corpus: ``trirank corpus --seed S --workers 1`` through ``cli.run``, the
  run users make and the golden-output anchor.  50 of its 56 tensors are
  small 3x3x3, so fixed per-call cost in geometric, linalg and decomp weighs
  as much as batch throughput.
- tower: ``chain --cross-check --kmax 3`` on identity_4 and T_2 plus
  ``gr --cross-check --kmax 3`` on a seeded random 4x4x4 over F_3.  Large
  ``linalg.batched_rank`` batches, both the exact and the Monte Carlo stratum
  paths, and ``kernel_codim`` re-eliminating the x-axis matrices.  Both chain
  tensors have antichain support, so SR goes by vertex cover.
- slice_search: ``trirank sr`` with no AR/GR lower bound on seeded random
  tensors inside the exact scope; nearly all time is the exhaustive subspace
  search, with no ``batched_rank``.
- counting: the corollary experiments (zero count, min-entropy, character-sum
  bias, complexity bound, closeness) over F_5, F_7, F_9 and the extremal
  pairs: the only workload that enumerates all q^(n1+n2) input pairs, and
  the F_9 entries are outside the prime field.

A job's ``run`` is the timed work; its ``finish`` (untimed) returns the
report bytes of each item the job covers and the failed checks of each.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

import numpy as np

from trirank import analytic, biascx, cli, slicerank, tensor
from trirank.fields import parse_field

WORKLOADS = ("corpus", "tower", "slice_search", "counting")

# Known values the checks compare against; the smoke test corrupts one.
KNOWN = {
    "levi_civita": {"zeros": 105, "gr": 2, "sr": 3},
    "t2_direct_sum": {"gr": 4, "sr": 6},
}

# Extremal closeness pairs (field, r, t, n): f on r coordinates, g on t more.
EXTREMAL = [("3^1", 1, 1, 2), ("5^1", 2, 1, 3), ("3^2", 1, 2, 4)]
TINY_EXTREMAL = [("3^1", 1, 1, 2)]

TINY_CORPUS = ("identity_1", "identity_2", "levi_civita", "random_00", "random_01")


def program_seed(seed: int) -> int:
    """The seed handed to the program, mapped into the range it accepts."""
    return seed % 2 ** 31


def _sub_seed(seed: int, i: int) -> int:
    return program_seed(seed) * 8 + i


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _canonical(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def known_values(name: str, q: int):
    """Expected zero count / GR / SR for named tensors, or {}."""
    if name.startswith("identity_"):
        n = int(name.split("_")[1])
        return {"zeros": (2 * q - 1) ** n, "gr": n, "sr": n}
    return KNOWN.get(name, {})


class SRCapture:
    """Keeps every exact SR search result, whose witness no report holds."""

    def __init__(self):
        self.found = []
        self._orig = None

    def install(self):
        orig = self._orig = slicerank.slice_rank_exact

        def capturing(T, *args, **kwargs):
            res = orig(T, *args, **kwargs)
            self.found.append((T, res))
            return res

        slicerank.slice_rank_exact = capturing

    def uninstall(self):
        slicerank.slice_rank_exact = self._orig

    def take(self):
        found, self.found = self.found, []
        return found


class Job:
    def __init__(self, name, items, run, finish):
        self.name = name
        self.items = items  # item names this job reports on
        self.run = run  # () -> raw output (timed)
        self.finish = finish  # raw -> ({item: (report bytes, [failures])}, (exact, sampled))


class Workload:
    def __init__(self, name, jobs, cleanup=None):
        self.name = name
        self.jobs = jobs
        self.cleanup = cleanup

    def close(self):
        if self.cleanup:
            self.cleanup()


# ---------------------------------------------------------------------------
# checks shared by the CLI workloads
# ---------------------------------------------------------------------------

def _min_span_dim(T) -> int:
    return min(tensor.slice_space(T, axis).dim for axis in "xyz")


def _record_counts(gr: dict):
    """(exact, sampled) rank-stratum and kernel CountRecords in a GR report."""
    records = [c for est in gr["strata"].values() for c in est["counts"]]
    if gr.get("kernel"):
        records += gr["kernel"]["counts"]
    exact = sum(1 for c in records if c["exact"])
    return exact, len(records) - exact


def _sr_failures(T, sr: dict, srs, lower: int) -> list:
    """Bounds lower <= SR <= min slice-span dim, and every exact witness."""
    out = []
    upper = _min_span_dim(T)
    if not lower <= sr["lo"] <= sr["hi"] <= upper:
        out.append(f"SR [{sr['lo']}, {sr['hi']}] outside [{lower}, {upper}]")
    for Tc, res in srs:
        if Tc != T or res.method != "annihilator_exact":
            continue
        if not slicerank.check_witness(T, res):
            out.append("exact SR witness does not annihilate the tensor")
        if res.value != sr["lo"]:
            out.append(f"exact search gave {res.value}, report {sr['lo']}")
    return out


def _kernel_k1(gr: dict):
    for c in gr["kernel"]["counts"]:
        if c["k"] == 1:
            return c["count"]
    return None


def _chain_failures(name, T, chain: dict, srs) -> list:
    out = []
    holds = [k for k in chain if k.startswith("holds_") and chain[k] is False]
    if holds:
        out.append("chain check false: " + ", ".join(sorted(holds)))
    ar, gr, sr = chain["ar"], chain["gr"], chain["sr"]
    lower = gr["gr"]
    if ar is not None and math.isfinite(ar["value"]):
        lower = max(lower, math.ceil(ar["value"] - 1e-9))
    out += _sr_failures(T, sr, srs, lower)
    if gr.get("kernel") and ar is not None and _kernel_k1(gr) != ar["zero_count"]:
        out.append(f"k=1 kernel count {_kernel_k1(gr)} != zero count {ar['zero_count']}")
    want = known_values(name, T.field.q)
    if "zeros" in want and (ar is None or ar["zero_count"] != want["zeros"]):
        out.append(f"zero count {ar and ar['zero_count']} != known {want['zeros']}")
    if "gr" in want and gr["gr"] != want["gr"]:
        out.append(f"GR {gr['gr']} != known {want['gr']}")
    if "sr" in want and (sr["lo"], sr["hi"]) != (want["sr"], want["sr"]):
        out.append(f"SR [{sr['lo']}, {sr['hi']}] != known {want['sr']}")
    return out


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _cli_run(argv, capture):
    rc = cli.run(argv)
    return rc, capture.take()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _corpus(seed, workdir, capture, tiny):
    F3 = parse_field("3^1")
    for k in (2, 3):  # kmax 3 strata and the k_work 3 decomposition field
        F3.extension(k)
    slicerank.subspaces(F3, 3)
    cleanup = None
    if tiny:
        orig = cli.builtin_corpus
        cli.builtin_corpus = lambda s: [it for it in orig(s) if it[0] in TINY_CORPUS]

        def cleanup():
            cli.builtin_corpus = orig

    pseed = program_seed(seed)
    tensors = dict(cli.builtin_corpus(pseed))
    out_dir = os.path.join(workdir, "corpus")
    summary_path = os.path.join(workdir, "corpus_summary.json")
    argv = ["corpus", "--seed", str(pseed), "--workers", "1",
            "--out-dir", out_dir, "--out", summary_path]

    def finish(raw):
        rc, srs = raw
        items, exact, sampled = {}, 0, 0
        for name, T in tensors.items():
            path = os.path.join(out_dir, name + ".json")
            if not os.path.exists(path):
                items[name] = (b"", ["no report written"])
                continue
            data = _read(path)
            os.remove(path)
            row = json.loads(data)
            if row.get("error"):
                items[name] = (data, [row["error"]])
                continue
            fails = _chain_failures(name, T, row["chain"], srs)
            dec = row["decomposition"]
            if not dec["verified"] or dec["flagged"]:
                fails.append(f"decomposition verified={dec['verified']} flagged={dec['flagged']}")
            e, s = _record_counts(row["chain"]["gr"])
            exact, sampled = exact + e, sampled + s
            items[name] = (data, fails)
        data = _read(summary_path) + _read(os.path.join(out_dir, "summary.csv"))
        summary = json.loads(_read(summary_path))["summary"]
        fails = []
        if rc != cli.EXIT_OK:
            fails.append(f"exit code {rc}")
        if summary["items"] != len(tensors) or summary["errors"]:
            fails.append(f"summary items={summary['items']} errors={summary['errors']}")
        items["summary"] = (data, fails)
        return items, (exact, sampled)

    job = Job("corpus", list(tensors) + ["summary"], lambda: _cli_run(argv, capture), finish)
    return [job], cleanup


def _write_tensor(workdir, name, T):
    path = os.path.join(workdir, name + ".t")
    tensor.dump(T, path)
    return path


def _tower(seed, workdir, capture, tiny):
    F3 = parse_field("3^1")
    kmax = 2 if tiny else 3
    for k in range(2, kmax + 1):
        F3.extension(k)
    pseed = str(program_seed(seed))
    if tiny:
        chains = [("identity_2", tensor.identity_tensor(F3, 2)),
                  ("levi_civita", tensor.levi_civita(F3))]
        rand = tensor.random_tensor(F3, (3, 3, 3), seed=_sub_seed(seed, 0))
    else:
        chains = [("identity_4", tensor.identity_tensor(F3, 4)),
                  ("t2_direct_sum", tensor.tk_family(F3, 2))]
        rand = tensor.random_tensor(F3, (4, 4, 4), seed=_sub_seed(seed, 0))
    jobs = []
    for name, T in chains:
        out = os.path.join(workdir, name + "_chain.json")
        argv = ["chain", "--tensor", _write_tensor(workdir, name, T), "--kmax", str(kmax),
                "--cross-check", "--seed", pseed, "--out", out]

        def finish(raw, name=name, T=T, out=out):
            rc, srs = raw
            data = _read(out)
            chain = json.loads(data)["chain"]
            fails = _chain_failures(name, T, chain, srs)
            if chain["gr"]["kernel"] is None:
                fails.append("cross-check did not run")
            if rc != cli.EXIT_OK:
                fails.append(f"exit code {rc}")
            return {name: (data, fails)}, _record_counts(chain["gr"])

        jobs.append(Job("chain:" + name, [name],
                        lambda argv=argv: _cli_run(argv, capture), finish))

    out = os.path.join(workdir, "random_gr.json")
    argv = ["gr", "--tensor", _write_tensor(workdir, "random", rand), "--kmax", str(kmax),
            "--cross-check", "--seed", pseed, "--out", out]

    def finish_gr(raw):
        rc, _ = raw
        data = _read(out)
        gr = json.loads(data)["gr"]
        fails = []
        if rc != cli.EXIT_OK:
            fails.append(f"exit code {rc}")
        zeros = analytic.zero_count(rand)
        if _kernel_k1(gr) != zeros:
            fails.append(f"k=1 kernel count {_kernel_k1(gr)} != zero count {zeros}")
        if not 0 <= gr["gr"] <= _min_span_dim(rand):
            fails.append(f"GR {gr['gr']} above the min slice-span dim")
        return {"random_gr": (data, fails)}, _record_counts(gr)

    jobs.append(Job("gr:random", ["random_gr"], lambda: _cli_run(argv, capture), finish_gr))
    return jobs, None


def _slice_search(seed, workdir, capture, tiny):
    if tiny:
        cases = [("3^1", (3, 3, 3)), ("2^1", (3, 3, 3)), ("3^1", (2, 2, 2))]
    else:
        cases = [("3^1", (4, 4, 4)), ("2^1", (4, 4, 4)), ("3^1", (3, 3, 3))]
    jobs = []
    for i, (fld, dims) in enumerate(cases):
        F = parse_field(fld)
        for n in set(dims):
            slicerank.subspaces(F, n)
        T = tensor.random_tensor(F, dims, seed=_sub_seed(seed, i))
        name = f"random_{'x'.join(map(str, dims))}_F{F.q}"
        out = os.path.join(workdir, name + "_sr.json")
        argv = ["sr", "--tensor", _write_tensor(workdir, name, T), "--out", out]

        def finish(raw, name=name, T=T, out=out):
            rc, srs = raw
            data = _read(out)
            sr = json.loads(data)["sr"]
            fails = []
            if rc != cli.EXIT_OK:
                fails.append(f"exit code {rc}")
            if sr["method"] != "annihilator_exact" or not srs:
                fails.append(f"method {sr['method']}, expected an exact search")
            ar = analytic.analytic_rank(T).value
            fails += _sr_failures(T, sr, srs, math.ceil(ar - 1e-9))
            return {name: (data, fails)}, (0, 0)

        jobs.append(Job("sr:" + name, [name], lambda argv=argv: _cli_run(argv, capture), finish))
    return jobs, None


def _counting_jobs(name, f, g):
    """Zero count / min-entropy / bias, the complexity bound, and closeness."""
    q = f.field.q
    n1, n2, _ = f.dims
    domain = q ** (n1 + n2)

    def run_counts():
        return (analytic.zero_count(f), analytic.min_entropy(f), analytic.bias_char_sum(f))

    def finish_counts(raw):
        zc, me, bias = raw
        report = {
            "zero_count": zc,
            "histogram_0": int(me.histogram[0]),
            "histogram_sha": digest(me.histogram.astype(np.int64).tobytes()),
            "max_count": me.max_count,
            "me": me.me,
            "bias": [bias.real, bias.imag],
        }
        fails = []
        scaled = round(bias.real * domain)
        if not zc == report["histogram_0"] == me.max_count == scaled:
            fails.append(
                f"zero count {zc}, histogram[0] {report['histogram_0']}, "
                f"max bucket {me.max_count}, bias*q^(n1+n2) {scaled} disagree"
            )
        if abs(bias.imag) * domain > 0.5:
            fails.append(f"bias has imaginary part {bias.imag}")
        return {name + ":counts": (_canonical(report), fails)}, (0, 0)

    def finish_complexity(cb):
        fails = []
        if not cb.me_identity_holds:
            fails.append("min-entropy max bucket != zero count")
        if cb.bound != cb.n * cb.sr.hi:
            fails.append(f"bound {cb.bound} != n * SR hi {cb.n * cb.sr.hi}")
        if not cb.sr.lo <= cb.sr.hi <= _min_span_dim(f):
            fails.append(f"SR [{cb.sr.lo}, {cb.sr.hi}] above the min slice-span dim")
        return {name + ":complexity": (_canonical(cb.to_dict()), fails)}, (0, 0)

    return [
        Job("counts:" + name, [name + ":counts"], run_counts, finish_counts),
        Job("complexity:" + name, [name + ":complexity"],
            lambda: biascx.complexity_bound(f), finish_complexity),
        _closeness_job(name, f, g, None),
    ]


def _closeness_job(name, f, g, expected_delta):
    def finish(rep):
        fails = []
        if rep.subadditivity_holds is False or rep.ar_bound_holds is False:
            fails.append("closeness trade-off inequality false")
        ar = rep.ar_diff
        if rep.delta != Fraction(ar.zero_count, ar.domain_size):
            fails.append(f"delta {rep.delta} != zero fraction of f - g")
        if expected_delta is not None and rep.delta != expected_delta:
            fails.append(f"delta {rep.delta} != extremal_delta {expected_delta}")
        return {name + ":closeness": (_canonical(rep.to_dict()), fails)}, (0, 0)

    return Job("closeness:" + name, [name + ":closeness"],
               lambda: biascx.closeness_report(f, g), finish)


def _counting(seed, workdir, capture, tiny):
    if tiny:
        cases = [("5^1", (3, 3, 3)), ("7^1", (2, 2, 2)), ("3^2", (2, 2, 2))]
    else:
        cases = [("5^1", (4, 4, 4)), ("7^1", (4, 4, 4)), ("3^2", (3, 3, 3))]
    jobs = []
    for i, (fld, dims) in enumerate(cases):
        F = parse_field(fld)
        f = tensor.random_tensor(F, dims, seed=_sub_seed(seed, 2 * i))
        g = tensor.random_tensor(F, dims, seed=_sub_seed(seed, 2 * i + 1))
        jobs += _counting_jobs(f"random_{'x'.join(map(str, dims))}_F{F.q}", f, g)
    for fld, r, t, n in TINY_EXTREMAL if tiny else EXTREMAL:
        F = parse_field(fld)
        f, g = biascx.extremal_pair(F, r, t, n)
        jobs.append(_closeness_job(f"extremal_F{F.q}_r{r}_t{t}_n{n}", f, g,
                                   biascx.extremal_delta(F.q, r, t)))
    return jobs, None


_BUILDERS = {
    "corpus": _corpus,
    "tower": _tower,
    "slice_search": _slice_search,
    "counting": _counting,
}


def setup(name: str, seed: int, workdir: str, capture: SRCapture, tiny: bool = False) -> Workload:
    """Build the field tables and caches the workload touches and its inputs."""
    jobs, cleanup = _BUILDERS[name](seed, workdir, capture, tiny)
    return Workload(name, jobs, cleanup)
