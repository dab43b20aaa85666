"""Exact analytic rank, bias, and min-entropy by exhaustive counting.

The source of truth is the exact integer count of zeros of the bilinear map:
for fixed x the map y -> f(x, y) is linear, so its zero count is
q^(n2 - rank(sum_i x_i A_i)) and the total is an exact sum over all x.  The
character sum is computed independently as a redundant float cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded
from .linalg import mat_mul
from .rankprofile import Contraction, point_block, rank_profile
from .tensor import Tensor3, slices

ENUM_BUDGET = 10 ** 8


@dataclass(frozen=True)
class ARValue:
    zero_count: int
    log_domain: int  # domain size is q^log_domain
    q: int

    @property
    def domain_size(self) -> int:
        return self.q ** self.log_domain

    @property
    def value(self) -> float:
        if self.zero_count == 0:
            return float("inf")
        return self.log_domain - math.log(self.zero_count, self.q)

    def to_dict(self):
        return {
            "zero_count": self.zero_count,
            "domain_size": self.domain_size,
            "value": self.value,
        }


@dataclass
class EntropyReport:
    histogram: np.ndarray  # counts indexed by packed output code
    log_domain: int
    q: int
    n3: int

    @property
    def max_count(self) -> int:
        return int(self.histogram.max()) if self.histogram.size else 0

    @property
    def me(self) -> float:
        return math.log2(self.q ** self.log_domain / self.max_count)

    @property
    def argmax_is_zero(self) -> bool:
        return bool(self.histogram.argmax() == 0)


def zero_count(T: Tensor3, budget: int = ENUM_BUDGET) -> int:
    """Exact |{(x, y) : f(x, y) = 0}| over the tensor's own field."""
    F = T.field
    n1, n2, _ = T.dims
    if F.q ** (n1 + n2) > budget:
        raise BudgetExceeded(f"q^(n1+n2) = {F.q}^{n1 + n2} exceeds budget {budget}")
    return rank_profile(T, 1, "x", budget=budget, allow_sampling=False).fiber_sum(n2)


def analytic_rank(T: Tensor3, budget: int = ENUM_BUDGET) -> ARValue:
    n1, n2, _ = T.dims
    return ARValue(zero_count(T, budget=budget), n1 + n2, T.field.q)


def _values(T: Tensor3):
    """f(x, y) for every y, one chunk of x at a time: int32 (chunk, q^n2, n3)."""
    F = T.field
    n1, n2, _ = T.dims
    Y = point_block(F.q, n2, 0, F.q ** n2)
    contract = Contraction(slices(T, "x"), F)
    total_x, chunk = F.q ** n1, 1 << 12
    for start in range(0, total_x, chunk):
        X = point_block(F.q, n1, start, min(start + chunk, total_x))
        yield mat_mul(Y[None], contract(X), F)


def bias_char_sum(T: Tensor3, budget: int = ENUM_BUDGET) -> complex:
    """Exp_{x,y,z} chi(T(x,y,z)), with the z-average taken analytically.

    For each (x, y) the average over z factors into per-coordinate character
    sums S(c) = sum_z chi(c z), each evaluated from an exact residue histogram.
    """
    F = T.field
    n1, n2, n3 = T.dims
    if F.q ** (n1 + n2) * max(n3, 1) > budget:
        raise BudgetExceeded("character-sum budget exceeded")
    # S(c) for every code c, from exact residue counts
    roots = np.exp(2j * np.pi * np.arange(F.p) / F.p)
    S = np.empty(F.q, dtype=np.complex128)
    codes = np.arange(F.q, dtype=np.int32)
    for c in range(F.q):
        residues = F.trace_res[F.mul[c, codes]]
        S[c] = np.bincount(residues, minlength=F.p) @ roots
    acc = 0.0 + 0.0j
    for vals in _values(T):
        acc += (S[vals].prod(axis=2) / (F.q ** n3)).sum()
    return complex(acc / (F.q ** (n1 + n2)))


def min_entropy(T: Tensor3, budget: int = ENUM_BUDGET) -> EntropyReport:
    """Exact output histogram of the bilinear map under uniform inputs."""
    F = T.field
    n1, n2, n3 = T.dims
    if F.q ** (n1 + n2) > budget or F.q ** n3 > budget:
        raise BudgetExceeded("min-entropy budget exceeded")
    weights = F.q ** np.arange(n3, dtype=np.int64)
    hist = np.zeros(F.q ** n3, dtype=np.int64)
    for vals in _values(T):
        hist += np.bincount((vals * weights).sum(axis=2).ravel(), minlength=hist.size)
    return EntropyReport(histogram=hist, log_domain=n1 + n2, q=F.q, n3=n3)
