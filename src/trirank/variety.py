"""Polynomial systems and variety dimension estimation over extension towers.

A polynomial is a sparse map from exponent vectors to nonzero field codes.
Dimension is estimated from point counts over F_{q^k} for k = 1..kmax, using
consecutive count slopes log_q(N_{k+1}/N_k); the leading constants (component
counts and degrees) cancel in the ratio.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import PolySyntaxError, UnknownVariable, UnstableEstimate
from .fields import MAX_Q, Field
from .rankprofile import point_block, within_budget

EXACT_POINT_BUDGET = 10 ** 8
MC_SAMPLES = 10 ** 6
SLOPE_MARGIN = 0.35
POWER_BUDGET = 1 << 21  # term products one power, or the products of one system, may expand


# ---------------------------------------------------------------------------
# sparse polynomials: dict {exponent tuple: nonzero code}
# ---------------------------------------------------------------------------

def poly_add(a, b, F: Field):
    out = dict(a)
    for e, c in b.items():
        s = F.add_codes(out.get(e, 0), c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_neg(a, F: Field):
    return {e: F.neg_code(c) for e, c in a.items()}


def poly_mul(a, b, F: Field):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = F.add_codes(out.get(e, 0), F.mul_codes(ca, cb))
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def poly_degree(a) -> int:
    return max((sum(e) for e in a), default=0)


class PolySystem:
    """A list of multivariate polynomials over a common field."""

    def __init__(self, field: Field, nvars: int, polys):
        self.field = field
        self.nvars = nvars
        self.polys = [dict(p) for p in polys]
        for p in self.polys:
            for e, c in p.items():
                if len(e) != nvars:
                    raise UnknownVariable("exponent vector length mismatch")
                if not 0 < c < field.q:
                    raise UnknownVariable("coefficient not a nonzero field code")

    @property
    def maxdeg(self) -> int:
        return max((poly_degree(p) for p in self.polys), default=0)


# ---------------------------------------------------------------------------
# parser: variables x1..xn, integer coefficients, + - * ^ ( ) ;
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s+|(\d+)|x(\d*)|([-+*^();])|(.)")


def parse_poly_system(text: str, field: Field, nvars: int) -> PolySystem:
    """Parse `;`-separated polynomials; every error names its line and column."""

    def where(at):
        return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)

    toks, i = [], 0  # tokens (kind, value, offset): kind is INT, VAR, EOF or the operator
    spent = 0  # term products of the system's products so far
    for m in _TOKEN.finditer(text):
        num, index, op, bad = m.groups()
        if bad is not None:
            raise PolySyntaxError(f"unexpected character {bad!r}", *where(m.start()))
        if index == "":
            raise PolySyntaxError("variable needs an index", *where(m.start()))
        digits = num or index  # either is None or nonempty here
        if digits:
            try:
                toks.append(("INT" if num else "VAR", int(digits), m.start()))
            except ValueError:  # past Python's int-string conversion limit (4300 digits)
                raise PolySyntaxError(
                    f"integer too long: {len(digits)} digits", *where(m.start())
                ) from None
        elif op is not None:
            toks.append((op, None, m.start()))
    toks.append(("EOF", None, len(text)))

    def expect(kind):
        nonlocal i
        got, value, at = toks[i]
        if got != kind:
            raise PolySyntaxError(f"expected {kind}, got {got}", *where(at))
        i += 1
        return value

    def expression():
        nonlocal i
        acc, op = {}, "+"
        if toks[i][0] in "+-":
            op, i = toks[i][0], i + 1
        while True:
            t = term()
            acc = poly_add(acc, t if op == "+" else poly_neg(t, field), field)
            op = toks[i][0]
            if op not in "+-":
                return acc
            i += 1

    def term():
        nonlocal i, spent
        acc = factor()
        while toks[i][0] == "*":
            at, i = toks[i][2], i + 1
            f = factor()
            if poly_degree(acc) + poly_degree(f) > MAX_Q:
                raise PolySyntaxError(f"product of degree above {MAX_Q}", *where(at))
            spent += len(acc) * len(f)
            if spent > POWER_BUDGET:
                raise PolySyntaxError(
                    f"product of more than {POWER_BUDGET} term products", *where(at)
                )
            acc = poly_mul(acc, f, field)
        return acc

    def factor():
        nonlocal i
        base = atom()
        if toks[i][0] != "^":
            return base
        i += 1
        at, e = toks[i][2], expect("INT")
        deg = poly_degree(base) * e
        if max(deg, e) > MAX_Q:  # beyond every field's q: SZ is vacuous
            raise PolySyntaxError(f"power of degree above {MAX_Q}", *where(at))
        # each of the e products below pairs len(base) terms with at most `terms`:
        # monomials of degree <= deg, and products of e terms of the base
        terms = min(math.comb(nvars + deg, nvars), math.comb(max(len(base), 1) + e - 1, e))
        if e * len(base) * terms > POWER_BUDGET:
            raise PolySyntaxError(
                f"power expands to more than {POWER_BUDGET} term products", *where(at)
            )
        out = {(0,) * nvars: 1}
        for _ in range(e):
            out = poly_mul(out, base, field)
        return out

    def atom():
        nonlocal i
        kind, value, at = toks[i]
        i += 1
        if kind == "INT":
            code = value % field.p  # integer coefficients live in the prime subfield
            return {(0,) * nvars: code} if code else {}
        if kind == "VAR":
            if not 1 <= value <= nvars:
                line, col = where(at)
                raise UnknownVariable(f"x{value} out of range 1..{nvars} (line {line}, col {col})")
            return {tuple(int(j == value - 1) for j in range(nvars)): 1}
        if kind == "(":
            inner = expression()
            expect(")")
            return inner
        raise PolySyntaxError(f"unexpected token {kind}", *where(at))

    polys = []
    while toks[i][0] != "EOF":
        p = expression()
        if p:
            polys.append(p)
        kind, _, at = toks[i]
        if kind == ";":
            i += 1
        elif kind != "EOF":
            raise PolySyntaxError(f"unexpected token {kind}", *where(at))
    return PolySystem(field, nvars, polys)


# ---------------------------------------------------------------------------
# point counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountRecord:
    k: int
    count: float  # exact integer count, or MC estimate
    exact: bool
    samples: int | None = None


def _eval_zero_mask(S: PolySystem, Fk: Field, X: np.ndarray) -> np.ndarray:
    """Boolean mask of points (rows of X) where every polynomial vanishes."""
    powtbl = Fk.pow_table(max(1, S.maxdeg))
    mask = np.ones(X.shape[0], dtype=bool)
    for p in S.polys:
        acc = np.zeros(X.shape[0], dtype=np.int32)
        for e, c in p.items():
            term = np.full(X.shape[0], c, dtype=np.int32)  # base-field codes embed as-is
            for i, ei in enumerate(e):
                if ei:
                    term = Fk.mul[term, powtbl[X[:, i], ei]]
            acc = Fk.add[acc, term]
        mask &= acc == 0
        if not mask.any():
            break
    return mask


def count_points(
    S: PolySystem,
    k: int,
    budget: int = EXACT_POINT_BUDGET,
    mc_samples: int = MC_SAMPLES,
    seed: int = 0,
) -> CountRecord:
    """Count common zeros in F_{q^k}^n, exactly if within budget."""
    Fk = S.field.extension(k)
    n = S.nvars
    if within_budget(Fk.q, n, budget):
        total = Fk.q ** n
        count = 0
        chunk = 1 << 18
        for start in range(0, total, chunk):
            X = point_block(Fk.q, n, start, min(start + chunk, total))
            count += int(_eval_zero_mask(S, Fk, X).sum())
        return CountRecord(k=k, count=count, exact=True)
    rng = np.random.default_rng(seed ^ (k * 0x9E3779B9))
    hits = 0
    remaining = mc_samples
    while remaining > 0:
        m = min(remaining, 1 << 18)
        X = rng.integers(0, Fk.q, size=(m, n), dtype=np.int64).astype(np.int32)
        hits += int(_eval_zero_mask(S, Fk, X).sum())
        remaining -= m
    estimate = hits / mc_samples * Fk.q ** n
    return CountRecord(k=k, count=estimate, exact=False, samples=mc_samples)


# ---------------------------------------------------------------------------
# dimension estimation
# ---------------------------------------------------------------------------

@dataclass
class DimEstimate:
    nvars: int
    dim: int
    codim: int
    counts: list = dc_field(default_factory=list)
    status: str = "unstable"  # stable | unstable | empty
    method: str = "exact_enumeration"  # or monte_carlo

    def to_dict(self):
        return {
            "nvars": self.nvars,
            "dim": self.dim,
            "codim": self.codim,
            "status": self.status,
            "method": self.method,
            "counts": [
                {"k": c.k, "count": c.count, "exact": c.exact, "samples": c.samples}
                for c in self.counts
            ],
        }


def exact_estimate(nvars: int, dim: int, counts=()) -> DimEstimate:
    """A DimEstimate known exactly (linear algebra, no tower needed)."""
    return DimEstimate(nvars, dim, nvars - dim, list(counts), status="stable")


def estimate_from_counts(q: int, nvars: int, counts) -> DimEstimate:
    """Slope-based dimension estimate from tower counts (k = 1..kmax)."""
    counts = list(counts)
    method = "exact_enumeration" if all(c.exact for c in counts) else "monte_carlo"
    if all(c.count == 0 for c in counts):
        return DimEstimate(nvars, -1, nvars, counts, "empty", method)
    slopes = []
    for a, b in zip(counts, counts[1:]):
        if a.count > 0 and b.count > 0:
            slopes.append(math.log(b.count / a.count, q))
        else:
            slopes.append(None)
    if not slopes or slopes[-1] is None:
        return DimEstimate(nvars, -1, nvars, counts, "unstable", method)
    dim = min(max(round(slopes[-1]), 0), nvars)
    status = "unstable"
    good = [s for s in slopes[-2:] if s is not None]
    if len(good) == 2:
        r0, r1 = round(good[0]), round(good[1])
        if r0 == r1 and all(abs(s - r1) <= SLOPE_MARGIN for s in good):
            status = "stable"
    # exact-integer slopes (linear systems, full space) are stable on their own
    if all(s is not None and abs(s - round(s)) < 1e-9 for s in slopes) and len(
        {round(s) for s in slopes}
    ) == 1:
        status = "stable"
    if status == "stable" and method == "monte_carlo":
        # sampled counts only support codim <= 2 (relative error control)
        if nvars - dim > 2:
            status = "unstable"
    return DimEstimate(nvars, dim, nvars - dim, counts, status, method)


def estimate_dim(
    S: PolySystem,
    kmax: int,
    budget: int = EXACT_POINT_BUDGET,
    mc_samples: int = MC_SAMPLES,
    seed: int = 0,
) -> DimEstimate:
    if kmax < 2:
        raise UnstableEstimate("kmax must be >= 2")
    counts = [
        count_points(S, k, budget=budget, mc_samples=mc_samples, seed=seed)
        for k in range(1, kmax + 1)
    ]
    return estimate_from_counts(S.field.q, S.nvars, counts)


# ---------------------------------------------------------------------------
# Schwartz-Zippel bound check
# ---------------------------------------------------------------------------

@dataclass
class SZReport:
    holds: bool
    lhs: Fraction
    rhs: Fraction
    vacuous: bool
    degree: int
    q: int
    codim: int


def sz_check(S: PolySystem, est: DimEstimate) -> SZReport:
    """Check rational-point density against (d/q)^codim."""
    if est.status == "unstable":
        raise UnstableEstimate("sz_check requires a stable (or empty) estimate")
    first = est.counts[0] if est.counts else None
    if first is None or first.k != 1 or not first.exact:
        raise UnstableEstimate("sz_check requires an exact k=1 count")
    q = S.field.q
    n = S.nvars
    d = max(S.maxdeg, 1)
    codim = est.codim
    lhs = Fraction(int(first.count), q ** n)
    rhs = Fraction(d, q) ** codim
    vacuous = d >= q
    holds = True if vacuous else lhs <= rhs
    return SZReport(holds, lhs, rhs, vacuous, d, q, codim)
