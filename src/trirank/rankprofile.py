"""The rank-profile kernel: the histogram of rank(sum_i x_i A_i) over F_{q^k}.

AR (k = 1), the GR strata and the kernel-variety count all read it, and the
bias and min-entropy read its z-axis ranks at k = 1.  The exact path
eliminates one matrix per projective point, since rank(c x) = rank(x) for
c != 0.  A direct sum splits the work: up to permutations every matrix
sum_i x_i A_i is block-diagonal, one block per direct summand of T
(``tensor.direct_summands``), so ``SummandRanks`` contracts and eliminates
each summand's block on its own coordinates and adds the ranks.  Both paths
contract field codes by table lookups (``Contraction``) and map the very
points they did before the split, so histograms and sampled counts are
unchanged.  The budget compares the affine count q^(k n); above it, uniform
affine points are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadParams, BudgetExceeded
from .fields import Field
from .tensor import AXES, Tensor3, direct_summands, slices

ELIM_BUDGET = 2 ** 21  # most affine points per tower level that are counted exactly
MC_SAMPLES = 10 ** 5
CHUNK = 1 << 13  # points contracted and eliminated at once (bounds peak memory)
_DRAW = 1 << 15  # Monte Carlo points per rng draw (fixes the sample stream)


def within_budget(q: int, n: int, budget: int) -> bool:
    """q^n <= budget, without forming q^n when n alone exceeds it (q >= 2)."""
    return n < budget.bit_length() and q ** n <= budget


def point_block(q: int, n: int, start: int, stop: int) -> np.ndarray:
    """Points of F_q^n with base-q indices in [start, stop), coordinate 0 lowest."""
    idx = np.arange(start, stop, dtype=np.int64)
    X = np.empty((idx.size, n), dtype=np.int32)
    for i in range(n):
        X[:, i] = idx % q
        idx //= q
    return X


class Contraction:
    """The stack sum_i x_i A_i for batches of points x given as field codes.

    The sums over the first j coordinates are tabulated once, for the largest
    j with q^j <= CHUNK; each further coordinate adds its term c A_i by a row
    gather from a (q, m1 m2) table of the multiples of A_i and one add lookup.
    """

    def __init__(self, A: np.ndarray, F: Field):
        n, m1, m2 = A.shape
        self.field = F
        self.shape = (m1, m2)
        # multiples[i, c] = c A_i, flattened; intp, since add.take is several
        # times faster on intp indices than on int32 ones
        multiples = F.mul[np.arange(F.q)[:, None], A.reshape(n, 1, m1 * m2)]
        self._multiples = multiples.astype(np.intp)
        add = F.add.ravel()
        j, low = 0, np.zeros((1, m1 * m2), dtype=np.int32)
        while j < n and F.q ** (j + 1) <= CHUNK:
            # low[x] = sum_{i <= j} x_i A_i, with coordinate j the most significant
            low = add.take(self._multiples[j][:, None] * F.q + low[None])
            low = low.reshape(F.q ** (j + 1), m1 * m2)
            j += 1
        self._j, self._low = j, low

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Matrices for points given as (N, n) field codes."""
        F, j = self.field, self._j
        add = F.add.ravel()
        Ms = self._low[X[:, :j] @ F.q ** np.arange(j)]
        for i in range(j, len(self._multiples)):
            Ms = add.take(Ms * F.q + self._multiples[i][X[:, i]])
        return Ms.reshape(X.shape[0], *self.shape)


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


class SummandRanks:
    """rank(sum_i x_i A_i) for batches of points x, summed over direct summands.

    Each summand keeps only its own coordinates, rows and columns and has its
    own Contraction; coordinates in no summand do not change the rank.
    """

    def __init__(self, T: Tensor3, k: int, axis: str):
        self.field = T.field.extension(k)
        a = AXES.index(axis)
        A = slices(T, axis)
        self._parts = []
        for sets in direct_summands(T):
            coords = sets[a]
            rows, cols = (s for i, s in enumerate(sets) if i != a)
            C = Contraction(A[np.ix_(coords, rows, cols)], self.field)
            if coords[-1] - coords[0] == len(coords) - 1:  # a run: take X[:, coords] as a view
                coords = slice(coords[0], coords[-1] + 1)
            self._parts.append((coords, C))

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Ranks for points given as (N, n) field codes."""
        ranks = np.zeros(X.shape[0], dtype=np.int64)
        for coords, C in self._parts:
            ranks += linalg.batched_rank(C(X[:, coords]), self.field)
        return ranks


def projective_ranks(T: Tensor3, k: int, axis: str):
    """Yield (start, ranks) for each block of projective points of F_{q^k}^n.

    ranks[j] is rank(sum_i x_i A_i) at the point x with base-q index start + j.
    Base-q indices [q^i, 2 q^i) are the points whose last nonzero coordinate
    is x_i = 1.
    """
    ranks_at = SummandRanks(T, k, axis)
    q, n = ranks_at.field.q, T.dims[AXES.index(axis)]
    for i in range(n):
        lo = q ** i
        for start in range(lo, 2 * lo, CHUNK):
            yield start, ranks_at(point_block(q, n, start, min(start + CHUNK, 2 * lo)))


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
    n, *shape = slices(T, axis).shape
    rmax = min(shape)
    hist = np.zeros(rmax + 1, dtype=np.int64)
    if within_budget(Fk.q, n, budget):
        for _, ranks in projective_ranks(T, k, axis):
            hist += np.bincount(ranks, minlength=rmax + 1)
        hist *= Fk.q - 1
        hist[0] += 1  # x = 0
        return RankProfile(k=k, q=Fk.q, hist=hist, exact=True, total=Fk.q ** n)
    if not allow_sampling:
        raise BudgetExceeded(f"{Fk.q}^{n} contractions exceed budget {budget}")
    if mc_samples < 1:
        raise BadParams(f"{Fk.q}^{n} points exceed budget {budget}; mc_samples must be >= 1")
    ranks_at = SummandRanks(T, k, axis)
    rng = np.random.default_rng(seed ^ (k * 0x9E3779B9))
    remaining = mc_samples
    while remaining > 0:
        m = min(remaining, _DRAW)
        X = rng.integers(0, Fk.q, size=(m, n), dtype=np.int64)
        for start in range(0, m, CHUNK):
            hist += np.bincount(ranks_at(X[start : start + CHUNK]), minlength=rmax + 1)
        remaining -= m
    return RankProfile(
        k=k, q=Fk.q, hist=hist, exact=False, total=Fk.q ** n, samples=mc_samples
    )
