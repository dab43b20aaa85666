"""Command-line front end: rank computations, decompositions, and corpus runs.

Exit codes: 0 success, 1 an inequality under test failed, 2 usage or budget
error.  Every report, on stdout, at --out or in a corpus --out-dir, is
``json.dumps(report, sort_keys=True)`` and a newline: one line, marked
``"schema": 2``.  Schema 1 wrote the same objects indented; the commands
that read a report (verify --decomp, sr --ar-from, sr --gr-from) parse
either.  With a fixed seed the bytes are identical across runs.  No command
prints timings.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys

from . import analytic, biascx, decomp, geometric, slicerank, tensor, variety
from .errors import BadParams, BudgetExceeded, TrirankError, UnstableEstimate
from .fields import parse_field
from .rankprofile import CHUNK, point_block, within_budget

SCHEMA = 2

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _budget(args, fallback: int = analytic.ENUM_BUDGET) -> int:
    """--budget if given, else TRIRANK_BUDGET if set, else `fallback`; either must be >= 0."""
    budget = args.budget
    if budget is None:
        env = os.environ.get("TRIRANK_BUDGET")
        if not env:
            return fallback
        try:
            budget = int(env)
        except ValueError:
            raise BadParams(f"TRIRANK_BUDGET={env!r} is not an integer") from None
    if budget < 0:
        raise BadParams(f"budget must be >= 0, not {budget}")
    return budget


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


def _report_text(report: dict) -> str:
    """A report's bytes: the report and its schema as one line of sorted-key JSON."""
    return json.dumps({"schema": SCHEMA, **report}, sort_keys=True) + "\n"


def _emit(report: dict, out: str | None) -> None:
    text = _report_text(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_section(path: str, section: str, key: str, kinds) -> dict:
    """report[section] of a JSON report, checked to hold `key`: finite, >= 0 and of type `kinds`."""
    with open(path, encoding="utf-8") as fh:
        try:
            part = json.load(fh)[section]
            value = part[key]
        except (ValueError, KeyError, TypeError):
            raise BadParams(f"{path}: not a JSON report with {section}.{key}") from None
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise BadParams(f"{path}: {section}.{key} = {value!r} is not a number")
    if not 0 <= value < float("inf"):  # NaN fails every comparison
        raise BadParams(f"{path}: {section}.{key} = {value!r} is negative, infinite or NaN")
    return part


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_ar(args) -> int:
    budget = _budget(args)
    T = tensor.load(args.tensor)
    ar = analytic.analytic_rank(T, budget=budget)
    if args.histogram:
        me = analytic.min_entropy(T, budget=budget)
        with open(args.histogram, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["b_vector", "count"])
            n3, q = T.dims[2], T.field.q
            for start in range(0, q ** n3, CHUNK):  # the b vectors CHUNK at a time
                b = point_block(q, n3, start, min(start + CHUNK, q ** n3))
                w.writerows([":".join(map(str, v)), int(c)] for v, c in zip(b, me.histogram[start:]))
    _emit({"tensor": _tensor_id(T), "ar": ar.to_dict()}, args.out)
    return EXIT_OK


def _cmd_gr(args) -> int:
    T = tensor.load(args.tensor)
    rep = geometric.geometric_rank(
        T,
        kmax=args.kmax,
        axis=args.axis,
        budget=_budget(args, geometric.ELIM_BUDGET),
        mc_samples=args.mc_samples,
        seed=args.seed,
        cross_check=args.cross_check,
    )
    _emit({"tensor": _tensor_id(T), "gr": rep.to_dict()}, args.out)
    return EXIT_CHECK_FAILED if rep.consistent is False else EXIT_OK  # None without --cross-check


def _cmd_sr(args) -> int:
    T = tensor.load(args.tensor)
    ar = gr = None
    if args.ar_from:
        ar = _report_section(args.ar_from, "ar", "value", (int, float))["value"]
    if args.gr_from:
        rep = _report_section(args.gr_from, "gr", "gr", int)
        # an unstable GR bounds nothing, as in GRReport.stable_gr; one without `stable` is read
        gr = None if rep.get("stable") is False else rep["gr"]
    if args.bounds:
        res = slicerank.slice_rank_bounds(T, ar=ar, gr=gr)
    else:
        res = slicerank.slice_rank(T, ar=ar, gr=gr, exact=args.exact)
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
        T, kmax=args.kmax, ar_budget=_budget(args), seed=args.seed,
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
    budget = _budget(args)
    F = parse_field(args.field)
    if args.kmax < 2:  # refused before the system is read and expanded
        raise UnstableEstimate("kmax must be >= 2")
    if not within_budget(F.q, args.nvars, budget):  # sz_check needs the exact k = 1 count
        raise BudgetExceeded(f"szcheck: {F.q}^{args.nvars} points exceed budget {budget}")
    with open(args.system, encoding="utf-8") as fh:
        S = variety.parse_poly_system(fh.read(), F, args.nvars)
    est = variety.estimate_dim(S, kmax=args.kmax, budget=budget, seed=args.seed)
    rep = variety.sz_check(S, est)
    _emit({"estimate": est.to_dict(), "sz": rep.to_dict()}, args.out)
    return EXIT_OK if rep.holds else EXIT_CHECK_FAILED


def _cmd_closeness(args) -> int:
    f = tensor.load(args.f)
    g = tensor.load(args.g)
    rep = biascx.closeness_report(f, g, budget=_budget(args))
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


def _isolated(stage, *columns) -> list:
    """stage(*columns) on all items at once; on a TrirankError, on each half in turn.

    `columns` hold one value per item.  An item whose stage raises alone gets
    its error in its place; every other item's outcome is its own.  The halves
    are split again until they pass or hold one item, so one failing item
    among n costs about 2 log2 n calls.
    """
    try:
        return stage(*columns)
    except TrirankError as exc:
        if len(columns[0]) <= 1:
            return [exc] * len(columns[0])
    half = len(columns[0]) // 2
    return _isolated(stage, *(c[:half] for c in columns)) + _isolated(
        stage, *(c[half:] for c in columns)
    )


def _corpus_row(name, T, chain, D):
    """(row, chain or None, ok) of one item.

    `chain` is its chain report and `D` its decomposition, or `D` is the
    error that ended the item, at its chain or at its decomposition.
    """
    try:
        if isinstance(D, TrirankError):
            raise D
        verified = decomp.verify_decomposition(T, D)
    except TrirankError as exc:  # recorded, batch continues
        return {"name": name, "error": f"{type(exc).__name__}: {exc}"}, None, True
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
    return row, chain, chain.all_hold and verified


def _cmd_corpus(args) -> int:
    items = builtin_corpus(args.seed)
    items[0][1].field.extension(args.kwork)  # build the working field: a bad --kwork fails here
    names, tensors = [name for name, _ in items], [T for _, T in items]
    seeds = [args.seed ^ i for i in range(len(items))]
    chains = _isolated(
        lambda Ts, ss: slicerank.verify_rank_chains(Ts, CORPUS_KMAX, seeds=ss), tensors, seeds
    )
    live = [i for i, chain in enumerate(chains) if not isinstance(chain, TrirankError)]
    found = _isolated(
        lambda Ts, ss, reps: decomp.slice_decompositions(Ts, args.kwork, ss, reps),
        [tensors[i] for i in live], [seeds[i] for i in live], [chains[i].gr for i in live],
    )
    decomps = list(chains)  # an item without a chain keeps the chain's error
    for i, D in zip(live, found):
        decomps[i] = D
    if args.workers <= 1:
        results = list(map(_corpus_row, names, tensors, chains, decomps))
    else:
        # imported here, so that a run with one worker does not import it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_corpus_row, names, tensors, chains, decomps))
    rows = [r[0] for r in results]
    chains = [r[1] for r in results if r[1] is not None]  # none for an error row
    ratios = [c.ratio_sr_gr for c in chains if c.ratio_sr_gr is not None]
    sr_ars = [c.sr.value / c.ar.value for c in chains if c.sr.exact and c.ar and c.ar.value > 0]
    all_ok = all(r[2] for r in results)
    summary = {
        "items": len(items),
        "errors": sum(1 for r in rows if r.get("error")),
        "max_sr_gr_ratio": str(max(ratios)) if ratios else None,
        "min_sr_ar_ratio": min(sr_ars) if sr_ars else None,
    }
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for row in rows:
            with open(
                os.path.join(args.out_dir, row["name"] + ".json"), "w", encoding="utf-8"
            ) as fh:
                fh.write(_report_text(row))
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

_COMMANDS = tuple("ar gr sr chain decompose verify szcheck closeness extremal corpus".split())


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `trirank` parser with every subcommand, or with `command`'s alone."""
    p = argparse.ArgumentParser(
        prog="trirank",
        description="Analytic, geometric, and slice rank of 3-tensors over finite fields.",
    )
    # one command's usage line names all ten, as the full parser's does; the
    # full parser keeps argparse's metavar, which its choice errors name
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)

    def add_common(sp, seed=True, budget=False):
        if budget:  # None unless given: the command resolves it (_budget)
            sp.add_argument("--budget", type=int)
        sp.add_argument("--out", default=None, help="report path (default: stdout)")
        if seed:
            sp.add_argument("--seed", type=_nonneg_int, default=0)

    if command in (None, "ar"):
        sp = sub.add_parser("ar", help="exact analytic rank by enumeration")
        sp.add_argument("--tensor", required=True)
        sp.add_argument("--histogram", default=None, help="output-histogram CSV path")
        add_common(sp, seed=False, budget=True)
        sp.set_defaults(func=_cmd_ar)

    if command in (None, "gr"):
        sp = sub.add_parser("gr", help="geometric rank via rank strata over a tower")
        sp.add_argument("--tensor", required=True)
        sp.add_argument("--kmax", type=int, default=3)
        sp.add_argument("--axis", choices=("x", "y", "z"), default="x")
        sp.add_argument("--mc-samples", type=int, default=geometric.MC_SAMPLES)
        sp.add_argument("--cross-check", action="store_true")
        add_common(sp, budget=True)
        sp.set_defaults(func=_cmd_gr)

    if command in (None, "sr"):
        sp = sub.add_parser("sr", help="slice rank (exact, vertex cover, or bounds)")
        sp.add_argument("--tensor", required=True)
        mode = sp.add_mutually_exclusive_group()
        mode.add_argument("--exact", action="store_true")
        mode.add_argument("--bounds", action="store_true")
        sp.add_argument("--ar-from", default=None, help="ar report JSON for the lower bound")
        sp.add_argument("--gr-from", default=None, help="gr report JSON for the lower bound")
        add_common(sp, seed=False)
        sp.set_defaults(func=_cmd_sr)

    if command in (None, "chain"):
        sp = sub.add_parser("chain", help="verify SR <= 3 GR <= 8.13 AR and reverses")
        sp.add_argument("--tensor", required=True)
        sp.add_argument("--field", default=None, help="assert the tensor field, e.g. 3^1")
        sp.add_argument("--kmax", type=int, default=3)
        sp.add_argument("--cross-check", action="store_true")
        add_common(sp, budget=True)
        sp.set_defaults(func=_cmd_chain)

    if command in (None, "decompose"):
        sp = sub.add_parser("decompose", help="explicit slice decomposition")
        sp.add_argument("--tensor", required=True)
        sp.add_argument("--kwork", type=int, default=3)
        add_common(sp)
        sp.set_defaults(func=_cmd_decompose)

    if command in (None, "verify"):
        sp = sub.add_parser("verify", help="re-verify a decomposition JSON")
        sp.add_argument("--tensor", required=True)
        sp.add_argument("--decomp", required=True)
        add_common(sp, seed=False)
        sp.set_defaults(func=_cmd_verify)

    if command in (None, "szcheck"):
        sp = sub.add_parser("szcheck", help="dimension estimate + Schwartz-Zippel check")
        sp.add_argument("--system", required=True)
        sp.add_argument("--field", required=True)
        sp.add_argument("--nvars", type=_nonneg_int, required=True)
        sp.add_argument("--kmax", type=int, default=3)
        add_common(sp, budget=True)
        sp.set_defaults(func=_cmd_szcheck)

    if command in (None, "closeness"):
        sp = sub.add_parser("closeness", help="delta-closeness trade-off report")
        sp.add_argument("--f", required=True)
        sp.add_argument("--g", required=True)
        add_common(sp, seed=False, budget=True)
        sp.set_defaults(func=_cmd_closeness)

    if command in (None, "extremal"):
        sp = sub.add_parser("extremal", help="write a sharp closeness pair to files")
        sp.add_argument("--r", type=int, required=True)
        sp.add_argument("--t", type=int, required=True)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--field", required=True)
        sp.add_argument("--out-prefix", required=True)
        add_common(sp, seed=False)
        sp.set_defaults(func=_cmd_extremal)

    if command in (None, "corpus"):
        sp = sub.add_parser("corpus", help="run the built-in corpus and summarize")
        sp.add_argument("--out-dir", default=None)
        sp.add_argument("--kwork", type=int, default=3)
        sp.add_argument("--workers", type=int, default=1)
        add_common(sp)
        sp.set_defaults(func=_cmd_corpus)

    return p


def run(argv=None) -> int:
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's help (0) or usage error (2)
        return EXIT_USAGE if exc.code else EXIT_OK
    except (TrirankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
