"""Exact analytic rank, bias and min-entropy from slice ranks.

The zero count of the bilinear map comes from the x-axis ranks: for fixed x
the map y -> f(x, y) is linear, so its zero count is
q^(n2 - rank(sum_i x_i A_i)), and the total is an exact sum over all x.

The bias and the output histogram come from the z-axis ranks of
A_z = sum_k z_k T(., ., k).  The character average of x^T A_z y over (x, y) is
q^(-rank A_z), so the bias is the average of q^(-rank A_z) over z.  Fourier
inversion over z, with the scalar multiples of each z summed first, gives

    N(b) q^n3 = q^n2 (q^n1 - sum_[z] g(z) + q sum_{[z].b = 0} g(z)),

where g(z) = q^(n1 - rank A_z) and [z] runs over the projective points of
F_q^n3.  Every count is an exact integer, and the zero count (x axis) checks
histogram[0] and the bias (z axis) through independent eliminations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded
from .linalg import mat_mul
from .rankprofile import point_block, projective_ranks, rank_profile
from .tensor import Tensor3

ENUM_BUDGET = 10 ** 8
_B_ROWS = 1 << 9  # outputs b tested against one block of points z at once


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


def bias_char_sum(T: Tensor3, budget: int = ENUM_BUDGET) -> complex:
    """Exp_{x,y,z} chi(T(x,y,z)) = Exp_z q^(-rank A_z), from the z-axis rank profile.

    The value is the exact fraction (zero count) / q^(n1+n2), returned as a
    complex number; the budget bounds the q^n3 points z.
    """
    n1, n2, n3 = T.dims
    q = T.field.q
    prof = rank_profile(T, 1, "z", budget=budget, allow_sampling=False)
    return complex(Fraction(prof.fiber_sum(n1 + n2), q ** (n1 + n2 + n3)))


def min_entropy(T: Tensor3, budget: int = ENUM_BUDGET) -> EntropyReport:
    """Exact output histogram of the bilinear map under uniform inputs.

    Counts N(b) by the module's formula from the z-axis ranks.  The budget
    bounds the incidence [z].b = 0 of every projective point [z] with every
    output b: (q^n3 - 1) / (q - 1) * q^n3 entries.
    """
    F = T.field
    n1, n2, n3 = T.dims
    q = F.q
    if (q ** n3 - 1) // (q - 1) * q ** n3 > budget:
        raise BudgetExceeded(f"min-entropy: {q}^{n3} outputs x points exceed budget {budget}")
    B = point_block(q, n3, 0, q ** n3)  # every output b, in histogram order
    rmax = min(n1, n2)
    onehot = np.eye(rmax + 1, dtype=np.int64)
    # W[b, r]: projective points [z] with [z].b = 0 and rank A_z = r
    W = np.zeros((B.shape[0], rmax + 1), dtype=np.int64)
    for start, ranks in projective_ranks(T, 1, "z"):
        Zt = point_block(q, n3, start, start + ranks.size).T
        for b0 in range(0, B.shape[0], _B_ROWS):
            orthogonal = mat_mul(B[b0 : b0 + _B_ROWS], Zt, F) == 0
            W[b0 : b0 + _B_ROWS] += orthogonal @ onehot[ranks]
    G = W @ np.array([q ** (n1 - r) for r in range(rmax + 1)], dtype=object)
    scaled = q ** n2 * (q ** n1 - G[0] + q * G)  # b = 0 is orthogonal to every [z]
    if (scaled % q ** n3).any():
        raise ArithmeticError(f"output counts times {q}^{n3} are not divisible by it")
    hist = (scaled // q ** n3).astype(np.int64)
    return EntropyReport(histogram=hist, log_domain=n1 + n2, q=q, n3=n3)
