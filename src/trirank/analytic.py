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
from .rankprofile import CHUNK, RankProfile, SummandRanks, point_block, rank_profile, within_budget
from .tensor import Tensor3

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
        return int(self.histogram.max())

    @property
    def me(self) -> float:
        return math.log2(self.q ** self.log_domain / self.max_count)


def zero_count(T: Tensor3, budget: int = ENUM_BUDGET, profile: RankProfile | None = None) -> int:
    """Exact |{(x, y) : f(x, y) = 0}| over the tensor's own field.

    Reads `profile`, T's k = 1 x-axis rank profile, when given and exact.
    """
    F = T.field
    n1, n2, _ = T.dims
    if not within_budget(F.q, n1 + n2, budget):
        raise BudgetExceeded(f"q^(n1+n2) = {F.q}^{n1 + n2} exceeds budget {budget}")
    if profile is None or not profile.exact:
        profile = rank_profile(T, 1, "x", budget=budget)
    return profile.fiber_sum(n2)


def analytic_rank(T: Tensor3, budget: int = ENUM_BUDGET, profile=None) -> ARValue:
    n1, n2, _ = T.dims
    return ARValue(zero_count(T, budget=budget, profile=profile), n1 + n2, T.field.q)


def bias_char_sum(T: Tensor3, budget: int = ENUM_BUDGET) -> complex:
    """Exp_{x,y,z} chi(T(x,y,z)) = Exp_z q^(-rank A_z), from the z-axis rank profile.

    The value is the exact fraction (zero count) / q^(n1+n2), summed as
    hist[r] / q^(n3 + r) so that q^(n1+n2) is never formed, and returned as a
    complex number; the budget bounds the q^n3 points z.
    """
    n3, q = T.dims[2], T.field.q
    if not within_budget(q, n3, budget):
        raise BudgetExceeded(f"bias: {q}^{n3} points z exceed budget {budget}")
    prof = rank_profile(T, 1, "z", budget=budget)
    return complex(sum(Fraction(int(c), q ** (n3 + r)) for r, c in enumerate(prof.hist)))


def min_entropy(T: Tensor3, budget: int = ENUM_BUDGET) -> EntropyReport:
    """Exact output histogram of the bilinear map under uniform inputs.

    Counts N(b) by the module's formula from the z-axis ranks.  W[b, r], the
    number of projective points [z] with [z].b = 0 and rank A_z = r, comes
    from a hyperplane-sum transform over the coordinates of z: every z != 0
    starts at s = 0, and each coordinate z_i in turn is replaced by b_i,
    moving the count from s to s + z_i b_i.  z.b = 0 does not change under
    scaling, so each [z] is counted once per nonzero multiple, q - 1 times.
    The budget bounds the q^(n3 + 1) entries (s, b) of the transform.
    """
    F = T.field
    n1, n2, n3 = T.dims
    q = F.q
    if not within_budget(q, n3 + 1, budget):
        raise BudgetExceeded(f"min-entropy: {q}^{n3 + 1} transform entries exceed budget {budget}")
    rmax = min(n1, n2)
    ranks_at = SummandRanks(T, 1, "z", q ** n3)  # every summand is read from its table
    rank_of = np.empty(q ** n3, dtype=np.int64)
    for start in range(0, q ** n3, CHUNK):
        stop = min(start + CHUNK, q ** n3)
        rank_of[start:stop] = ranks_at(point_block(q, n3, start, stop))
    # entries count affine points, fewer than q^n3
    dtype = np.int32 if q ** n3 < 2 ** 31 else np.int64
    sub = F.add[:, F.neg[F.mul]]  # sub[s, z, b] = s - z b
    W = np.empty((q ** n3, rmax + 1), dtype=np.int64)
    for r in range(rmax + 1):  # one rank at a time keeps the transform small
        X = np.zeros((q, q ** n3), dtype=dtype)  # [s, z or b]
        X[0] = rank_of == r
        X[0, 0] = 0  # z = 0 is no projective point
        for _ in range(n3):
            X = X.reshape(q, q, -1)  # [s, most significant coordinate, the rest]
            X = sum(X[sub[:, z], z] for z in range(q))
            X = X.transpose(0, 2, 1)  # the coordinate done becomes the least significant
        W[:, r] = X.reshape(q, q ** n3)[0] // (q - 1)  # in histogram order: coordinate 0 lowest
    G = W @ np.array([q ** (n1 - r) for r in range(rmax + 1)], dtype=object)
    scaled = q ** n2 * (q ** n1 - G[0] + q * G)  # b = 0 is orthogonal to every [z]
    if (scaled % q ** n3).any():
        raise ArithmeticError(f"output counts times {q}^{n3} are not divisible by it")
    hist = (scaled // q ** n3).astype(np.int64)
    return EntropyReport(histogram=hist, log_domain=n1 + n2, q=q, n3=n3)
