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
no summand; ``rank_profiles`` ranks the summands of many tensors together, one
stack per block shape.  The sampled path draws the same uniform affine points
as ever and reads each summand's rank at a draw from a table over its affine
points (``SummandRanks``), unless that table would have more entries than
there are draws: such a summand is eliminated at the draws.  Either way the
ranks, histograms and sampled counts are those of the whole tensor at the
same points.  The budget compares the whole tensor's affine count q^(k n);
above it, points are drawn.
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


def _frobenius_order(A: np.ndarray, F: Field) -> int:
    """k over F_{p^k} if every A_i lies in F_p (codes below p), so a -> a^p keeps ranks; else 1."""
    return F.k if (A < F.p).all() else 1


class Contraction:
    """The stack sum_i x_i A_i for batches of points x given as field codes.

    A is one block (n, m1, m2) or a stack of blocks (n, G, m1, m2).  The sums
    over the first j coordinates are tabulated once, for the largest j with
    q^j <= `points`, the points contracted per call; each further coordinate
    adds its term c A_i by a row gather from a (q, entries) table of the
    multiples of A_i and one add lookup.
    """

    def __init__(self, A: np.ndarray, F: Field, points: int = CHUNK):
        n, *shape = A.shape
        size = int(np.prod(shape))
        self.field = F
        self.shape = tuple(shape)
        self.frobenius_order = _frobenius_order(A, F)
        # multiples[i, c] = c A_i, flattened; intp, since add.take is several
        # times faster on intp indices than on int32 ones
        multiples = F.mul[np.arange(F.q)[:, None], A.reshape(n, 1, size)]
        self._multiples = multiples.astype(np.intp)
        add = F.add.ravel()
        j, low = 0, np.zeros((1, size), dtype=np.int32)
        while j < n and F.q ** (j + 1) <= points:
            # low[x] = sum_{i <= j} x_i A_i, with coordinate j the most significant
            low = add.take(self._multiples[j][:, None] * F.q + low[None])
            low = low.reshape(F.q ** (j + 1), size)
            j += 1
        self._j, self._low = j, low

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Matrices for points given as (N, n) field codes, shape (N, *shape)."""
        F, j = self.field, self._j
        add = F.add.ravel()
        Ms = self._low[X[:, :j] @ F.q ** np.arange(j)]
        for i in range(j, len(self._multiples)):
            idx = self._multiples[i][X[:, i]]
            idx += Ms * F.q  # in place: one intp array per step bounds peak memory
            Ms = add.take(idx)
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


def _blocks(T: Tensor3, axis: str):
    """(coordinates, block of the slices) for each direct summand of T along `axis`."""
    a = AXES.index(axis)
    A = slices(T, axis)
    for sets in T.summands:
        rows, cols = (s for i, s in enumerate(sets) if i != a)
        yield sets[a], A[np.ix_(sets[a], rows, cols)]


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


def _affine_hists(blocks: list[np.ndarray], F: Field, m: int) -> np.ndarray:
    """Rank histogram over the q^n affine points of each block (n, m1, m2), Frobenius order m.

    The blocks are contracted as one stack, in slices of at most CHUNK matrices
    per orbit batch; each slice is one batched_rank call and one bincount.
    """
    n, m1, m2 = blocks[0].shape
    A = np.stack(blocks, axis=1)  # (n, G, m1, m2)
    hists = np.zeros((len(blocks), min(m1, m2) + 1), dtype=np.int64)
    for codes, _, sizes in _orbit_batches(F, n, m):
        step = CHUNK // len(codes)  # a batch holds at most CHUNK points
        for start in range(0, len(blocks), step):
            C = Contraction(A[:, start : start + step], F, points=len(codes))
            ranks = linalg.batched_rank(C(codes).reshape(-1, m1, m2), F).reshape(len(codes), -1)
            # bin block * width + rank, in point-major order like the weights
            bins = ranks + hists.shape[1] * np.arange(start, start + ranks.shape[1])
            counts = np.bincount(bins.ravel(), np.repeat(sizes, ranks.shape[1]), hists.size)
            hists += counts.reshape(hists.shape).astype(np.int64)
    hists *= F.q - 1
    hists[:, 0] += 1  # x = 0
    return hists


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
        for coords, A in _blocks(T, axis):
            C, n = Contraction(A, self.field), coords.size
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


def rank_profiles(
    tensors: list[Tensor3],
    k: int,
    axis: str = "x",
    budget: int = ELIM_BUDGET,
    mc_samples: int = MC_SAMPLES,
    seeds: list[int] | None = None,
) -> list[RankProfile]:
    """Rank histograms of each tensor's slices along `axis`, contracted over F_{q^k}.

    The summands of all tensors exact at level k are ranked together, one
    ``_affine_hists`` per (field, block shape, Frobenius order).  A tensor above
    the budget is sampled on its own, with its seed (default 0).
    """
    seeds = [0] * len(tensors) if seeds is None else seeds
    groups: dict = {}  # (F_{q^k}, block shape, Frobenius order) -> blocks of every tensor
    plans = []  # per tensor: (group key, position) of each summand, or None when sampled
    for T in tensors:
        Fk, n = T.field.extension(k), slices(T, axis).shape[0]
        if not within_budget(Fk.q, n, budget):
            plans.append(None)
            continue
        if Fk.q ** n >= 2 ** 63:
            raise BudgetExceeded(f"{Fk.q}^{n} points overflow the int64 histogram")
        plans.append([])
        for _, A in _blocks(T, axis):
            key = (Fk, A.shape, _frobenius_order(A, Fk))
            plans[-1].append((key, len(groups.setdefault(key, []))))
            groups[key].append(A)
    hists = {key: _affine_hists(blocks, key[0], key[2]) for key, blocks in groups.items()}
    profiles = []
    for T, seed, plan in zip(tensors, seeds, plans):
        Fk = T.field.extension(k)
        n, *shape = slices(T, axis).shape
        hist = np.zeros(min(shape) + 1, dtype=np.int64)
        if plan is None:
            if mc_samples < 1:
                raise BadParams(
                    f"{Fk.q}^{n} points exceed budget {budget}; mc_samples must be >= 1"
                )
            ranks_at = SummandRanks(T, k, axis, mc_samples)
            rng = np.random.default_rng(seed ^ (k * 0x9E3779B9))
            for draw in range(0, mc_samples, _DRAW):
                X = rng.integers(0, Fk.q, size=(min(_DRAW, mc_samples - draw), n), dtype=np.int64)
                for start in range(0, len(X), CHUNK):
                    hist += np.bincount(ranks_at(X[start : start + CHUNK]), minlength=len(hist))
        else:  # a point's rank is the sum of its summands' ranks: convolve their histograms
            hist[0], free = 1, n
            for key, i in plan:  # the summands' ranks add up to at most min(shape)
                hist = np.convolve(hist, hists[key][i])[: len(hist)]
                free -= key[1][0]
            hist *= Fk.q ** free
        exact = plan is not None
        profiles.append(RankProfile(k, Fk.q, hist, exact, Fk.q ** n, None if exact else mc_samples))
    return profiles


def rank_profile(
    T: Tensor3,
    k: int,
    axis: str = "x",
    budget: int = ELIM_BUDGET,
    mc_samples: int = MC_SAMPLES,
    seed: int = 0,
) -> RankProfile:
    """Rank histogram of the slices along `axis`, contracted over F_{q^k}."""
    return rank_profiles([T], k, axis, budget, mc_samples, [seed])[0]
