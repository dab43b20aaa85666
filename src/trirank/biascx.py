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
    ar = analytic.analytic_rank(sub(f, g), budget=budget)
    return Fraction(ar.zero_count, ar.domain_size)


@dataclass
class ClosenessReport:
    sr_f: slicerank.SRResult
    sr_g: slicerank.SRResult
    sr_diff: slicerank.SRResult
    ar_diff: analytic.ARValue

    @property
    def delta(self) -> Fraction:
        return Fraction(self.ar_diff.zero_count, self.ar_diff.domain_size)

    @property
    def log_term(self) -> float:  # log_q(1 / delta)
        return -math.log(self.delta) / math.log(self.ar_diff.q)

    @property
    def exact(self) -> bool:
        return self.sr_f.exact and self.sr_g.exact and self.sr_diff.exact

    @property
    def subadditivity_holds(self) -> bool | None:  # |SR(f) - SR(g)| <= SR(f - g)
        return abs(self.sr_f.value - self.sr_g.value) <= self.sr_diff.value if self.exact else None

    @property
    def ar_bound_holds(self) -> bool | None:  # SR(f - g) <= 8.13 AR(f - g)
        bound = AR_DIFF_CONSTANT * self.ar_diff.value + 1e-12
        return self.sr_diff.value <= bound if self.exact else None

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
    return ClosenessReport(*slicerank.slice_ranks([f, g, diff]), ar_diff)


@dataclass
class ComplexityBound:
    n: int
    sr: slicerank.SRResult
    me: analytic.EntropyReport
    zero_count: int

    @property
    def bound(self) -> int:  # n * SR, an upper bound on non-scalar multiplications
        return self.n * self.sr.hi

    @property
    def me_identity_holds(self) -> bool:  # max bucket equals zero count, so ME = AR log2(q)
        return self.me.max_count == self.zero_count

    def to_dict(self):
        return {
            "n": self.n,
            "sr": self.sr.to_dict(),
            "bound_upper": self.bound,
            "me": self.me.me,
            "me_identity_holds": self.me_identity_holds,
        }


def complexity_bound(T: Tensor3) -> ComplexityBound:
    """Upper bound n * SR on multiplicative complexity, plus the ME identity."""
    sr = slicerank.slice_rank(T)
    return ComplexityBound(T.dims[2], sr, analytic.min_entropy(T), analytic.zero_count(T))


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
