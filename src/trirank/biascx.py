"""Closeness, min-entropy, and multiplicative-complexity corollaries.

Two bilinear maps are delta-close when they agree on a delta fraction of
inputs; that fraction is exactly the zero count of the difference tensor, so
the closeness trade-off |SR(f) - SR(g)| <= SR(f - g) <= 8.13 AR(f - g) becomes
an integer-level experiment.  The extremal diagonal pairs show the trade-off
is sharp with delta = ((2q - 1) / q^2)^(r + t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import analytic, slicerank
from .errors import BadParams
from .fields import Field
from .tensor import Tensor3, sub

AR_DIFF_CONSTANT = slicerank.SR_AR_CONSTANT  # 8.13


def closeness(f: Tensor3, g: Tensor3, budget: int = analytic.ENUM_BUDGET) -> Fraction:
    """Exact Pr[f(x, y) = g(x, y)] = zero fraction of f - g."""
    diff = sub(f, g)
    n1, n2, _ = diff.dims
    return Fraction(analytic.zero_count(diff, budget=budget), diff.field.q ** (n1 + n2))


@dataclass
class ClosenessReport:
    delta: Fraction
    log_term: float  # log_q(1 / delta)
    sr_f: slicerank.SRResult
    sr_g: slicerank.SRResult
    sr_diff: slicerank.SRResult
    ar_diff: analytic.ARValue
    subadditivity_holds: bool | None  # |SR(f) - SR(g)| <= SR(f - g)
    ar_bound_holds: bool | None  # SR(f - g) <= 8.13 AR(f - g)
    exact: bool

    def to_dict(self):
        return {
            "delta": str(self.delta),
            "log_term": self.log_term,
            "sr_f": self.sr_f.to_dict(),
            "sr_g": self.sr_g.to_dict(),
            "sr_diff": self.sr_diff.to_dict(),
            "ar_diff": self.ar_diff.to_dict(),
            "subadditivity_holds": self.subadditivity_holds,
            "ar_bound_holds": self.ar_bound_holds,
            "exact": self.exact,
        }


def closeness_report(
    f: Tensor3, g: Tensor3, budget: int = analytic.ENUM_BUDGET
) -> ClosenessReport:
    """Both inequalities of the closeness trade-off with explicit constants."""
    diff = sub(f, g)
    ar_diff = analytic.analytic_rank(diff, budget=budget)
    delta = Fraction(ar_diff.zero_count, ar_diff.domain_size)
    log_term = -math.log(delta) / math.log(f.field.q)
    sr_f = slicerank.slice_rank(f)
    sr_g = slicerank.slice_rank(g)
    sr_diff = slicerank.slice_rank(diff)
    exact = sr_f.exact and sr_g.exact and sr_diff.exact
    if exact:
        subadd = abs(sr_f.value - sr_g.value) <= sr_diff.value
        ar_bound = sr_diff.value <= AR_DIFF_CONSTANT * ar_diff.value + 1e-12
    else:
        subadd = ar_bound = None
    return ClosenessReport(
        delta=delta,
        log_term=log_term,
        sr_f=sr_f,
        sr_g=sr_g,
        sr_diff=sr_diff,
        ar_diff=ar_diff,
        subadditivity_holds=subadd,
        ar_bound_holds=ar_bound,
        exact=exact,
    )


@dataclass
class ComplexityBound:
    n: int
    sr: slicerank.SRResult
    bound: int  # n * sr, an upper bound on non-scalar multiplications
    me: analytic.EntropyReport
    me_identity_holds: bool  # max bucket equals zero count, so ME = AR log2(q)

    def to_dict(self):
        return {
            "n": self.n,
            "sr": self.sr.to_dict(),
            "bound_upper": self.bound,
            "me": self.me.me,
            "me_identity_holds": self.me_identity_holds,
        }


def complexity_bound(T: Tensor3, budget: int = analytic.ENUM_BUDGET) -> ComplexityBound:
    """Upper bound n * SR on multiplicative complexity, plus the ME identity."""
    sr = slicerank.slice_rank(T)
    n = T.dims[2]
    me = analytic.min_entropy(T, budget=budget)
    zc = analytic.zero_count(T, budget=budget)
    return ComplexityBound(
        n=n,
        sr=sr,
        bound=n * sr.hi,
        me=me,
        me_identity_holds=(me.max_count == zc),
    )


def extremal_pair(field: Field, r: int, t: int, n: int):
    """The sharp diagonal pair: f on coordinates 1..r, g on r+1..r+t."""
    if r < 1 or t < 1:
        raise BadParams("r and t must be >= 1")
    if n < r + t:
        raise BadParams("n must be >= r + t")
    ef = np.zeros((n, n, n), dtype=np.int32)
    eg = np.zeros((n, n, n), dtype=np.int32)
    for i in range(r):
        ef[i, i, i] = 1
    for i in range(r, r + t):
        eg[i, i, i] = 1
    return Tensor3(field, ef), Tensor3(field, eg)


def extremal_delta(q: int, r: int, t: int) -> Fraction:
    """Closed form ((2q - 1) / q^2)^(r + t) for the extremal pair."""
    return Fraction(2 * q - 1, q * q) ** (r + t)
