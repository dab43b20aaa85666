"""Command-line front end: rank computations, decompositions, and corpus runs.

Exit codes: 0 success, 1 an inequality under test failed, 2 usage or budget
error.  Reports are JSON with a schema version; with a fixed seed the bytes
are identical across runs (timings go to stderr, never into reports).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from . import analytic, biascx, decomp, geometric, slicerank, tensor, variety
from .errors import BadParams, BudgetExceeded, TrirankError
from .fields import parse_field
from .rankprofile import point_block, rank_profiles, within_budget

SCHEMA = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _default_budget(fallback: int = analytic.ENUM_BUDGET) -> int:
    env = os.environ.get("TRIRANK_BUDGET")
    if not env:
        return fallback
    try:
        return int(env)
    except ValueError:
        raise BadParams(f"TRIRANK_BUDGET={env!r} is not an integer") from None


def _nonneg_int(text: str) -> int:
    """A --seed or --nvars value: an integer >= 0 (numpy takes no negative seed)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _tensor_id(T: tensor.Tensor3) -> str:
    return hashlib.sha256(tensor.dumps(T).encode()).hexdigest()[:16]


def _emit(report: dict, out: str | None) -> None:
    report = {"schema": SCHEMA, **report}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_value(path: str, section: str, key: str, kinds):
    """report[section][key] of a JSON report, checked to be a number >= 0 of the given type."""
    with open(path, encoding="utf-8") as fh:
        try:
            value = json.load(fh)[section][key]
        except (ValueError, KeyError, TypeError):
            raise BadParams(f"{path}: not a JSON report with {section}.{key}") from None
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise BadParams(f"{path}: {section}.{key} = {value!r} is not a number")
    if not value >= 0:  # NaN fails every comparison
        raise BadParams(f"{path}: {section}.{key} = {value!r} is negative or NaN")
    return value


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_ar(args) -> int:
    T = tensor.load(args.tensor)
    ar = analytic.analytic_rank(T, budget=args.budget)
    if args.histogram:
        me = analytic.min_entropy(T, budget=args.budget)
        with open(args.histogram, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["b_vector", "count"])
            n3, q = T.dims[2], T.field.q
            for b, count in zip(point_block(q, n3, 0, q ** n3), me.histogram):
                w.writerow([":".join(map(str, b)), int(count)])
    _emit({"tensor": _tensor_id(T), "ar": ar.to_dict()}, args.out)
    return EXIT_OK


def _cmd_gr(args) -> int:
    T = tensor.load(args.tensor)
    rep = geometric.geometric_rank(
        T,
        kmax=args.kmax,
        axis=args.axis,
        budget=args.budget,
        mc_samples=args.mc_samples,
        seed=args.seed,
        cross_check=args.cross_check,
    )
    _emit({"tensor": _tensor_id(T), "gr": rep.to_dict()}, args.out)
    if args.cross_check and rep.consistent is False:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_sr(args) -> int:
    T = tensor.load(args.tensor)
    ar = gr = None
    if args.ar_from:
        ar = _report_value(args.ar_from, "ar", "value", (int, float))
    if args.gr_from:
        gr = _report_value(args.gr_from, "gr", "gr", int)
    if args.exact:
        res = slicerank.slice_rank_exact(T)
    elif args.bounds:
        res = slicerank.slice_rank_bounds(T, ar=ar, gr=gr)
    else:
        res = slicerank.slice_rank(T, ar=ar, gr=gr)
    _emit({"tensor": _tensor_id(T), "sr": res.to_dict()}, args.out)
    return EXIT_OK


def _cmd_chain(args) -> int:
    T = tensor.load(args.tensor)
    if args.field and parse_field(args.field) != T.field:
        raise TrirankError(
            f"--field {args.field} does not match tensor field "
            f"{T.field.designation()}"
        )
    rep = slicerank.verify_rank_chain(
        T, kmax=args.kmax, ar_budget=args.budget, seed=args.seed,
        cross_check=args.cross_check,
    )
    _emit({"tensor": _tensor_id(T), "chain": rep.to_dict()}, args.out)
    return EXIT_OK if rep.all_hold else EXIT_CHECK_FAILED


def _cmd_decompose(args) -> int:
    T = tensor.load(args.tensor)
    D = decomp.slice_decompose(T, k_work=args.kwork, seed=args.seed)
    verified = decomp.verify_decomposition(T, D)
    _emit(
        {"tensor": _tensor_id(T), "decomposition": D.to_dict(), "verified": verified},
        args.out,
    )
    return EXIT_OK if verified else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    T = tensor.load(args.tensor)
    with open(args.decomp, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError:
            raise BadParams(f"{args.decomp}: not a JSON file") from None
    if isinstance(payload, dict):
        payload = payload.get("decomposition", payload)
    D = decomp.decomposition_from_dict(payload)
    ok = decomp.verify_decomposition(T, D)
    _emit({"tensor": _tensor_id(T), "verified": ok}, args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_szcheck(args) -> int:
    F = parse_field(args.field)
    if not within_budget(F.q, args.nvars, args.budget):  # sz_check needs the exact k = 1 count
        raise BudgetExceeded(f"szcheck: {F.q}^{args.nvars} points exceed budget {args.budget}")
    with open(args.system, encoding="utf-8") as fh:
        S = variety.parse_poly_system(fh.read(), F, args.nvars)
    est = variety.estimate_dim(S, kmax=args.kmax, budget=args.budget, seed=args.seed)
    rep = variety.sz_check(S, est)
    _emit(
        {
            "estimate": est.to_dict(),
            "sz": {
                "holds": rep.holds,
                "lhs": str(rep.lhs),
                "rhs": str(rep.rhs),
                "vacuous": rep.vacuous,
                "degree": rep.degree,
                "codim": rep.codim,
            },
        },
        args.out,
    )
    return EXIT_OK if rep.holds else EXIT_CHECK_FAILED


def _cmd_closeness(args) -> int:
    f = tensor.load(args.f)
    g = tensor.load(args.g)
    rep = biascx.closeness_report(f, g, budget=args.budget)
    _emit({"f": _tensor_id(f), "g": _tensor_id(g), "closeness": rep.to_dict()}, args.out)
    failed = rep.subadditivity_holds is False or rep.ar_bound_holds is False
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_extremal(args) -> int:
    F = parse_field(args.field)
    budget = analytic.ENUM_BUDGET  # closeness counts the q^(2n) input pairs
    if not within_budget(F.q, 2 * args.n, budget):  # checked before any file is written
        raise BudgetExceeded(f"extremal: {F.q}^{2 * args.n} input pairs exceed budget {budget}")
    f, g = biascx.extremal_pair(F, args.r, args.t, args.n)
    f_path = args.out_prefix + "_f.t"
    g_path = args.out_prefix + "_g.t"
    tensor.dump(f, f_path)
    tensor.dump(g, g_path)
    delta = biascx.closeness(f, g, budget=budget)
    closed = biascx.extremal_delta(F.q, args.r, args.t)
    _emit(
        {
            "f_file": f_path,
            "g_file": g_path,
            "delta": str(delta),
            "delta_closed_form": str(closed),
            "matches": delta == closed,
        },
        args.out,
    )
    return EXIT_OK if delta == closed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def builtin_corpus(seed: int):
    """(name, tensor) pairs: identities, Levi-Civita, T_2, 50 random 3x3x3."""
    F3 = parse_field("3^1")
    items = [(f"identity_{n}", tensor.identity_tensor(F3, n)) for n in range(1, 5)]
    items.append(("levi_civita", tensor.levi_civita(F3)))
    items.append(("t2_direct_sum", tensor.tk_family(F3, 2)))
    for i in range(50):
        items.append(
            (f"random_{i:02d}", tensor.random_tensor(F3, (3, 3, 3), seed=seed ^ (100 + i)))
        )
    return items


CORPUS_KMAX = 3  # the chain's tower depth for every corpus item


def _corpus_item(name, T, seed, kwork, profiles):
    t0 = time.time()
    try:
        chain = slicerank.verify_rank_chain(T, kmax=CORPUS_KMAX, seed=seed, profiles=profiles)
        D = decomp.slice_decompose(T, k_work=kwork, seed=seed, gr_report=chain.gr)
        verified = decomp.verify_decomposition(T, D)
        row = {
            "name": name,
            "tensor": _tensor_id(T),
            "chain": chain.to_dict(),
            "decomposition": {
                "term_count": D.term_count,
                "working_field": D.working_field.designation(),
                "verified": verified,
                "flagged": D.flagged,
                "retries": D.retries,
            },
            "error": None,
        }
        ratio = chain.ratio_sr_gr
        sr_ar = None
        if chain.sr.exact and chain.ar is not None and chain.ar.value > 0:
            sr_ar = chain.sr.value / chain.ar.value
        ok = chain.all_hold and verified
    except TrirankError as exc:
        row = {"name": name, "error": f"{type(exc).__name__}: {exc}"}
        ratio, sr_ar, ok = None, None, True  # recorded, batch continues
    print(f"[corpus] {name}: {time.time() - t0:.2f}s", file=sys.stderr)
    return row, ratio, sr_ar, ok


def _cmd_corpus(args) -> int:
    items = builtin_corpus(args.seed)
    items[0][1].field.extension(args.kwork)  # build the working field: a bad --kwork fails here
    seeds = [args.seed ^ i for i in range(len(items))]
    tensors = [T for _, T in items]
    try:  # every item's x-axis levels at once; on an error each item ranks and reports its own
        levels = [rank_profiles(tensors, k, seeds=seeds) for k in range(1, CORPUS_KMAX + 1)]
        profiles = [list(p) for p in zip(*levels)]
    except TrirankError:
        profiles = [None] * len(items)
    jobs = zip(items, seeds, profiles)
    if args.workers > 1:
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            results = list(
                pool.map(lambda t: _corpus_item(t[0][0], t[0][1], t[1], args.kwork, t[2]), jobs)
            )
    else:
        results = [_corpus_item(name, T, s, args.kwork, p) for (name, T), s, p in jobs]
    rows = [r[0] for r in results]
    ratios = [r[1] for r in results if r[1] is not None]
    sr_ars = [r[2] for r in results if r[2] is not None]
    all_ok = all(r[3] for r in results)
    summary = {
        "items": len(items),
        "errors": sum(1 for r in rows if r.get("error")),
        "max_sr_gr_ratio": str(max(ratios)) if ratios else None,
        "min_sr_ar_ratio": min(sr_ars) if sr_ars else None,
    }
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for row in rows:
            text = json.dumps({"schema": SCHEMA, **row}, indent=2, sort_keys=True)
            with open(
                os.path.join(args.out_dir, row["name"] + ".json"), "w", encoding="utf-8"
            ) as fh:
                fh.write(text)
        with open(
            os.path.join(args.out_dir, "summary.csv"), "w", newline="", encoding="utf-8"
        ) as fh:
            w = csv.writer(fh)
            w.writerow(
                ["name", "ar", "gr", "sr_lo", "sr_hi", "ratio_sr_gr", "terms", "verified", "error"]
            )
            for row in rows:
                if row.get("error"):
                    w.writerow([row["name"], "", "", "", "", "", "", "", row["error"]])
                    continue
                ch = row["chain"]
                w.writerow(
                    [
                        row["name"],
                        ch["ar"]["value"] if ch["ar"] else "",
                        ch["gr"]["gr"],
                        ch["sr"]["lo"],
                        ch["sr"]["hi"],
                        ch["ratio_sr_gr"] or "",
                        row["decomposition"]["term_count"],
                        row["decomposition"]["verified"],
                        "",
                    ]
                )
    _emit({"summary": summary}, args.out)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="trirank",
        description="Analytic, geometric, and slice rank of 3-tensors over finite fields.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    enum_budget = _default_budget()

    def add_common(sp, seed=True, budget=None):
        if budget is not None:
            sp.add_argument("--budget", type=int, default=budget)
        sp.add_argument("--out", default=None, help="report path (default: stdout)")
        if seed:
            sp.add_argument("--seed", type=_nonneg_int, default=0)

    sp = sub.add_parser("ar", help="exact analytic rank by enumeration")
    sp.add_argument("--tensor", required=True)
    sp.add_argument("--histogram", default=None, help="output-histogram CSV path")
    add_common(sp, seed=False, budget=enum_budget)
    sp.set_defaults(func=_cmd_ar)

    sp = sub.add_parser("gr", help="geometric rank via rank strata over a tower")
    sp.add_argument("--tensor", required=True)
    sp.add_argument("--kmax", type=int, default=3)
    sp.add_argument("--axis", choices=("x", "y", "z"), default="x")
    sp.add_argument("--mc-samples", type=int, default=geometric.MC_SAMPLES)
    sp.add_argument("--cross-check", action="store_true")
    add_common(sp, budget=_default_budget(geometric.ELIM_BUDGET))
    sp.set_defaults(func=_cmd_gr)

    sp = sub.add_parser("sr", help="slice rank (exact, vertex cover, or bounds)")
    sp.add_argument("--tensor", required=True)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--bounds", action="store_true")
    sp.add_argument("--ar-from", default=None, help="ar report JSON for the lower bound")
    sp.add_argument("--gr-from", default=None, help="gr report JSON for the lower bound")
    add_common(sp, seed=False)
    sp.set_defaults(func=_cmd_sr)

    sp = sub.add_parser("chain", help="verify SR <= 3 GR <= 8.13 AR and reverses")
    sp.add_argument("--tensor", required=True)
    sp.add_argument("--field", default=None, help="assert the tensor field, e.g. 3^1")
    sp.add_argument("--kmax", type=int, default=3)
    sp.add_argument("--cross-check", action="store_true")
    add_common(sp, budget=enum_budget)
    sp.set_defaults(func=_cmd_chain)

    sp = sub.add_parser("decompose", help="explicit slice decomposition")
    sp.add_argument("--tensor", required=True)
    sp.add_argument("--kwork", type=int, default=3)
    add_common(sp)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("verify", help="re-verify a decomposition JSON")
    sp.add_argument("--tensor", required=True)
    sp.add_argument("--decomp", required=True)
    add_common(sp, seed=False)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("szcheck", help="dimension estimate + Schwartz-Zippel check")
    sp.add_argument("--system", required=True)
    sp.add_argument("--field", required=True)
    sp.add_argument("--nvars", type=_nonneg_int, required=True)
    sp.add_argument("--kmax", type=int, default=3)
    add_common(sp, budget=enum_budget)
    sp.set_defaults(func=_cmd_szcheck)

    sp = sub.add_parser("closeness", help="delta-closeness trade-off report")
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    add_common(sp, seed=False, budget=enum_budget)
    sp.set_defaults(func=_cmd_closeness)

    sp = sub.add_parser("extremal", help="write a sharp closeness pair to files")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--field", required=True)
    sp.add_argument("--out-prefix", required=True)
    add_common(sp, seed=False)
    sp.set_defaults(func=_cmd_extremal)

    sp = sub.add_parser("corpus", help="run the built-in corpus and summarize")
    sp.add_argument("--out-dir", default=None)
    sp.add_argument("--kwork", type=int, default=3)
    sp.add_argument("--workers", type=int, default=1)
    add_common(sp)
    sp.set_defaults(func=_cmd_corpus)

    return p


def run(argv=None) -> int:
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code else EXIT_OK
        return args.func(args)
    except (TrirankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
