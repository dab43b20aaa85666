"""The rank-profile kernel: the histogram of rank(sum_i x_i A_i) over F_{q^k}.

AR (k = 1), the GR strata and the kernel-variety count all read it, and the
bias and min-entropy read its z-axis ranks at k = 1.  The exact path
eliminates one matrix per projective point, since rank(c x) = rank(x) for
c != 0.  The contraction is one matrix product mod p on base-p digits, since
digits(sum_i x_i a_i) is F_p-linear in digits(x).  The budget compares the
affine count q^(k n); above it, uniform affine points are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BudgetExceeded
from .fields import Field
from .tensor import Tensor3, slices

ELIM_BUDGET = 2 ** 21  # most affine points per tower level that are counted exactly
MC_SAMPLES = 10 ** 5
CHUNK = 1 << 13  # points contracted and eliminated at once (bounds peak memory)
_DRAW = 1 << 15  # Monte Carlo points per rng draw (fixes the sample stream)


def point_block(q: int, n: int, start: int, stop: int) -> np.ndarray:
    """Points of F_q^n with base-q indices in [start, stop), coordinate 0 lowest."""
    idx = np.arange(start, stop, dtype=np.int64)
    X = np.empty((idx.size, n), dtype=np.int32)
    for i in range(n):
        X[:, i] = idx % q
        idx //= q
    return X


class Contraction:
    """The stack sum_i x_i A_i for batches of points x, as a matrix product mod p.

    Row (i, t) of the product matrix holds digit s of A_i * alpha^t in column
    block s, where alpha^t (code p^t) is the t-th power-basis element of F.
    The digit sums are reduced mod p, and weighted by p^s, by table lookup.
    """

    def __init__(self, A: np.ndarray, F: Field):
        n, m1, m2 = A.shape
        e, p = F.k, F.p
        self.field = F
        self.n_digits = n * e
        self.shape = (m1, m2)
        basis = p ** np.arange(e)
        W = F._digits[F.mul[A[:, None], basis[None, :, None, None]]]  # (i, t, j, l, s)
        bound = n * e * (p - 1) ** 2  # largest digit sum
        self._dtype = np.float32 if bound < 2 ** 24 else np.float64
        self._W = W.transpose(0, 1, 4, 2, 3).reshape(n * e, e * m1 * m2).astype(self._dtype)
        residues = np.arange(bound + 1, dtype=np.int32) % p
        self._digit_codes = [residues * int(w) for w in basis]

    def from_digits(self, D: np.ndarray) -> np.ndarray:
        """Matrices for points given as (N, n*e) base-p digit rows."""
        m1, m2 = self.shape
        sums = (D.astype(self._dtype) @ self._W).astype(np.int32)
        sums = sums.reshape(D.shape[0], len(self._digit_codes), m1 * m2)
        codes = self._digit_codes[0].take(sums[:, 0])
        for s in range(1, len(self._digit_codes)):
            codes += self._digit_codes[s].take(sums[:, s])
        return codes.reshape(D.shape[0], *self.shape)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Matrices for points given as (N, n) field codes."""
        return self.from_digits(self.field._digits[X].reshape(X.shape[0], self.n_digits))


@dataclass(frozen=True)
class RankProfile:
    """hist[r] counts points x with rank(sum_i x_i A_i) = r.

    Exact: over all q^(k n) affine points.  Sampled: over `samples` uniform
    draws, to be scaled by total / samples.
    """

    k: int
    q: int  # size of F_{q^k}
    hist: np.ndarray
    exact: bool
    total: int  # q^(k n) affine points
    samples: int | None = None

    def fiber_sum(self, n2: int) -> int:
        """sum_x q^(n2 - rank x): the kernel-variety count when the slices are n2 x n3."""
        return sum(int(c) * self.q ** (n2 - r) for r, c in enumerate(self.hist))


def projective_ranks(T: Tensor3, k: int, axis: str):
    """Yield (start, ranks) for each block of projective points of F_{q^k}^n.

    ranks[j] is rank(sum_i x_i A_i) at the point x with base-q index start + j.
    Base-q indices [q^i, 2 q^i) are the points whose last nonzero coordinate
    is x_i = 1; as base-p indices they are the points' digit rows.
    """
    Fk = T.field.extension(k)
    C = Contraction(np.asarray(slices(T, axis), dtype=np.int32), Fk)
    for i in range(C.n_digits // Fk.k):
        lo = Fk.q ** i
        for start in range(lo, 2 * lo, CHUNK):
            D = point_block(Fk.p, C.n_digits, start, min(start + CHUNK, 2 * lo))
            yield start, linalg.batched_rank(C.from_digits(D), Fk)


def rank_profile(
    T: Tensor3,
    k: int,
    axis: str = "x",
    budget: int = ELIM_BUDGET,
    mc_samples: int = MC_SAMPLES,
    seed: int = 0,
    allow_sampling: bool = True,
) -> RankProfile:
    """Rank histogram of the slices along `axis`, contracted over F_{q^k}."""
    Fk = T.field.extension(k)
    A = np.asarray(slices(T, axis), dtype=np.int32)
    n = A.shape[0]
    rmax = min(A.shape[1:])
    total = Fk.q ** n
    hist = np.zeros(rmax + 1, dtype=np.int64)
    if total <= budget:
        for _, ranks in projective_ranks(T, k, axis):
            hist += np.bincount(ranks, minlength=rmax + 1)
        hist *= Fk.q - 1
        hist[0] += 1  # x = 0
        return RankProfile(k=k, q=Fk.q, hist=hist, exact=True, total=total)
    if not allow_sampling:
        raise BudgetExceeded(f"{Fk.q}^{n} contractions exceed budget {budget}")
    C = Contraction(A, Fk)
    rng = np.random.default_rng(seed ^ (k * 0x9E3779B9))
    remaining = mc_samples
    while remaining > 0:
        m = min(remaining, _DRAW)
        X = rng.integers(0, Fk.q, size=(m, n), dtype=np.int64)
        for start in range(0, m, CHUNK):
            ranks = linalg.batched_rank(C(X[start : start + CHUNK]), Fk)
            hist += np.bincount(ranks, minlength=rmax + 1)
        remaining -= m
    return RankProfile(
        k=k, q=Fk.q, hist=hist, exact=False, total=total, samples=mc_samples
    )
