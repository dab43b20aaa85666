"""The rank-profile kernel: the histogram of rank(sum_i x_i A_i) over F_{q^k}.

AR (k = 1), the GR strata and the kernel-variety count all read it, and the
bias and min-entropy read its z-axis ranks at k = 1.  Up to permutations
every matrix sum_i x_i A_i is block-diagonal, one block per direct summand of
T (``Tensor3.summands``), so a point's rank is the sum of its summands'
ranks, and each summand is ranked once, on the projective points of its own
coordinates (rank(c x) = rank(x) for c != 0).  When the summand's entries lie
in F_p, the Frobenius sigma(a) = a^p keeps every rank too, so only one point
per sigma-orbit is eliminated: about a k-th of them over F_{p^k}.  An affine
histogram weights its rank by the orbit's size, and a rank table writes it at
every nonzero multiple of every point of the orbit.  The exact path convolves
the summands' affine histograms and multiplies by q^k for every coordinate in
no summand.  The sampled path draws the same uniform affine points as ever and
reads each summand's rank at a draw from a table over its affine points
(``SummandRanks``), unless that table would have more entries than there are
draws: such a summand is eliminated at the draws.  Either way the ranks,
histograms and sampled counts are those of the whole tensor at the same
points.  The budget compares the whole tensor's affine count q^(k n); above
it, points are drawn.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadParams, BudgetExceeded
from .fields import Field
from .tensor import AXES, Tensor3, slices

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
        # sigma(a) = a^p and its powers keep every rank when each A_i lies in F_p,
        # whose elements are the codes below p
        self.frobenius_order = F.k if (A < F.p).all() else 1
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


def _summands(T: Tensor3, k: int, axis: str) -> list[tuple[np.ndarray, Contraction]]:
    """(coordinates, Contraction of its block) for each direct summand of T along `axis`."""
    Fk = T.field.extension(k)
    a = AXES.index(axis)
    A = slices(T, axis)
    parts = []
    for sets in T.summands:
        rows, cols = (s for i, s in enumerate(sets) if i != a)
        parts.append((sets[a], Contraction(A[np.ix_(sets[a], rows, cols)], Fk)))
    return parts


_orbit_cache: dict = {}


def _orbit_search(F: Field, n: int, m: int):
    """Yield batches of orbits: one projective point x of F^n per sigma-orbit.

    The projective points are the base-q indices [q^i, 2 q^i): last nonzero
    coordinate x_i = 1.  orbits[:, j] holds sigma^j(x) for sigma(a) = a^p and
    j < m, and x is the orbit's point of least index (at m = 1, every point).
    sigma fixes 0 and 1, so it maps each index range to itself.  The orbits of
    consecutive ranges are gathered into batches of up to CHUNK.
    """
    q = F.q
    if m > 1:
        frob = F.pow_table(F.p)[:, F.p]
        # sigma on base-q indices, digit by digit: i -> s[i % Q] + Q s[i // Q]
        h = (n + 1) // 2
        Q = q ** h
        s = frob[point_block(q, h, 0, Q)] @ q ** np.arange(h, dtype=np.int64)
    batch, size = [], 0
    for i in range(n):
        lo = q ** i
        for start in range(lo, 2 * lo, CHUNK):
            stop = min(start + CHUNK, 2 * lo)
            least = image = idx = np.arange(start, stop)
            for _ in range(1, m):  # keep each orbit's point of least index
                image = s[image % Q] + Q * s[image // Q]
                least = np.minimum(least, image)
            X = point_block(q, n, start, stop)
            orbit = [X[least == idx] if m > 1 else X]
            for _ in range(1, m):
                orbit.append(frob[orbit[-1]])
            orbits = np.stack(orbit, axis=1)
            if size + len(orbits) > CHUNK:
                yield np.concatenate(batch)
                batch, size = [], 0
            batch.append(orbits)
            size += len(orbits)
    if batch:
        yield np.concatenate(batch)


def _orbit_batches(F: Field, n: int, m: int):
    """(codes, orbits, sizes) per batch of ``_orbit_search``; one batch is kept per (F, n, m).

    codes = orbits[:, 0], and sizes = m / #{j < m : sigma^j x = x} counts an
    orbit's points.  A search of one batch is cached read-only for every tensor
    and level; a longer one is streamed, so its peak memory stays CHUNK-bounded.
    """
    if (F, n, m) in _orbit_cache:
        return _orbit_cache[F, n, m]
    search = ((o[:, 0], o, m // (o == o[:, :1]).all(2).sum(1)) for o in _orbit_search(F, n, m))
    head = tuple(itertools.islice(search, 2))
    if len(head) == 2:
        return itertools.chain(head, search)
    for a in itertools.chain(*head):
        a.setflags(write=False)
    _orbit_cache[F, n, m] = head
    return head


def _affine_hist(C: Contraction, n: int) -> np.ndarray:
    """Rank histogram of one summand over the q^n affine points of its coordinates."""
    hist = np.zeros(min(C.shape) + 1, dtype=np.int64)
    for codes, _, sizes in _orbit_batches(C.field, n, C.frobenius_order):
        np.add.at(hist, linalg.batched_rank(C(codes), C.field), sizes)
    hist *= C.field.q - 1
    hist[0] += 1  # x = 0
    return hist


def _rank_table(C: Contraction, n: int) -> np.ndarray:
    """Rank at every affine point of F_q^n, by base-q index.

    One projective point x per Frobenius orbit is eliminated, and its rank is
    written at every c sigma^j(x), c != 0, in one indexed assignment.
    """
    F, q = C.field, C.field.q
    table = np.zeros(q ** n, dtype=np.min_scalar_type(min(C.shape)))
    powers = q ** np.arange(n, dtype=np.int64)
    c = np.arange(1, q)[:, None, None, None]  # c != 0 against (N, m, n) orbits
    for codes, orbits, _ in _orbit_batches(F, n, C.frobenius_order):
        table[F.mul[c, orbits] @ powers] = linalg.batched_rank(C(codes), F)[:, None]
    return table


class SummandRanks:
    """rank(sum_i x_i A_i) for batches of points x, summed over direct summands.

    Each summand keeps only its own coordinates, rows and columns.  A summand
    with at most `points` affine points (`points` being the number of points
    the caller ranks) is read from its ``_rank_table``, so tabulating never
    eliminates more matrices, nor fills more table entries, than there are
    points; any other is contracted and eliminated at the points.  Coordinates
    in no summand do not change the rank.
    """

    def __init__(self, T: Tensor3, k: int, axis: str, points: int):
        self.field = T.field.extension(k)
        q = self.field.q
        self._parts = []
        for coords, C in _summands(T, k, axis):
            n = coords.size
            if coords[-1] - coords[0] == n - 1:  # a run: take X[:, coords] as a view
                coords = slice(coords[0], coords[-1] + 1)
            if within_budget(q, n, points):
                self._parts.append((coords, q ** np.arange(n, dtype=np.int64), _rank_table(C, n)))
            else:
                self._parts.append((coords, None, C))

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Ranks for points given as (N, n) field codes."""
        ranks = np.zeros(X.shape[0], dtype=np.int64)
        for coords, powers, part in self._parts:
            if powers is None:
                ranks += linalg.batched_rank(part(X[:, coords]), self.field)
            else:
                ranks += part.take(X[:, coords] @ powers)
        return ranks


def rank_profile(
    T: Tensor3,
    k: int,
    axis: str = "x",
    budget: int = ELIM_BUDGET,
    mc_samples: int = MC_SAMPLES,
    seed: int = 0,
) -> RankProfile:
    """Rank histogram of the slices along `axis`, contracted over F_{q^k}."""
    Fk = T.field.extension(k)
    n, *shape = slices(T, axis).shape
    rmax = min(shape)
    if within_budget(Fk.q, n, budget):
        total = Fk.q ** n
        if total >= 2 ** 63:
            raise BudgetExceeded(f"{Fk.q}^{n} points overflow the int64 histogram")
        # a point's rank is the sum of its summands' ranks: convolve their histograms
        hist, free = np.zeros(rmax + 1, dtype=np.int64), n
        hist[0] = 1
        for coords, C in _summands(T, k, axis):  # the summands' ranks add up to at most rmax
            hist = np.convolve(hist, _affine_hist(C, coords.size))[: rmax + 1]
            free -= coords.size
        hist *= Fk.q ** free
        return RankProfile(k=k, q=Fk.q, hist=hist, exact=True, total=total)
    if mc_samples < 1:
        raise BadParams(f"{Fk.q}^{n} points exceed budget {budget}; mc_samples must be >= 1")
    ranks_at = SummandRanks(T, k, axis, mc_samples)
    rng = np.random.default_rng(seed ^ (k * 0x9E3779B9))
    hist = np.zeros(rmax + 1, dtype=np.int64)
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
