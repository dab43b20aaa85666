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
same points.  Every point set (an orbit batch, a rank table's orbit
representatives, a batch of draws, the slice-rank search's pruning points)
takes one step, ``_ranks``: ``contract`` at its points, then one
batched_rank call per slice of at most CHUNK matrices.  The budget compares
the whole tensor's affine count q^(k n); above it, points are drawn.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadParams, BudgetExceeded
from .fields import Field
from .tensor import AXES, Tensor3, slices

ELIM_BUDGET = 2 ** 21  # most affine points per tower level that are counted exactly
MC_SAMPLES = 10 ** 5
CHUNK = 1 << 13  # points or (U, V) pairs handled at once by every caller (bounds peak memory)


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


def uniform_points(q: int, n: int, samples: int, seed: int, k: int):
    """`samples` uniform points of F_q^n, seeded by (seed, k), as int64 rows CHUNK at a time.

    numpy draws every value from one bit stream, so the points do not depend on
    the split.  Fewer than one sample raises BadParams at the call.
    """
    if samples < 1:
        raise BadParams(f"mc_samples must be >= 1 to sample {q}^{n} points, not {samples}")
    rng = np.random.default_rng(seed ^ (k * 0x9E3779B9))
    sizes = (min(CHUNK, samples - start) for start in range(0, samples, CHUNK))
    return (rng.integers(0, q, size=(size, n), dtype=np.int64) for size in sizes)


def _frobenius_order(A: np.ndarray, F: Field) -> int:
    """k over F_{p^k} if every A_i lies in F_p (codes below p), so a -> a^p keeps ranks; else 1."""
    return F.k if (A < F.p).all() else 1


def contract(A: np.ndarray, F: Field, X: np.ndarray) -> np.ndarray:
    """sum_i x_i A_i for the points X, given as (N, n) field codes: shape (N, *A.shape[1:]).

    A is one block (n, m1, m2) or a stack of blocks (n, G, m1, m2).  The sums
    over the first j coordinates are tabulated for the largest j with
    q^j <= N; each further coordinate adds its term c A_i by a row gather from
    a (q, entries) table of the multiples of A_i and one add lookup.
    """
    n, *shape = A.shape
    size = int(np.prod(shape))
    # multiples[i, c] = c A_i, flattened; intp, since add.take is several
    # times faster on intp indices than on int32 ones
    multiples = F.mul[np.arange(F.q)[:, None], A.reshape(n, 1, size)].astype(np.intp)
    add = F.add.ravel()
    j, low = 0, np.zeros((1, size), dtype=np.int32)
    while j < n and F.q ** (j + 1) <= len(X):
        # low[x] = sum_{i <= j} x_i A_i, with coordinate j the most significant
        low = add.take(multiples[j][:, None] * F.q + low[None]).reshape(F.q ** (j + 1), size)
        j += 1
    Ms = low[X[:, :j] @ F.q ** np.arange(j)]
    for i in range(j, n):
        idx = multiples[i][X[:, i]]
        idx += Ms * F.q  # in place: one intp array per step bounds peak memory
        Ms = add.take(idx)
    return Ms.reshape(len(X), *shape)


def _ranks(A: np.ndarray, F: Field, X: np.ndarray) -> np.ndarray:
    """Ranks (N, G) of each block of the stack A (n, G, m1, m2) at N <= CHUNK points X.

    Each slice of at most CHUNK matrices is contracted and eliminated in one
    batched_rank call.
    """
    _, G, m1, m2 = A.shape
    step, ranks = CHUNK // len(X), []
    for s in range(0, G, step):  # a slice's matrices live only through its call
        ranks.append(linalg.batched_rank(contract(A[:, s : s + step], F, X).reshape(-1, m1, m2), F))
    return np.concatenate([r.reshape(len(X), -1) for r in ranks], axis=1)


@dataclass(frozen=True)
class RankProfile:
    """hist[r] counts points x with rank(sum_i x_i A_i) = r.

    Exact: over all q^(k n) affine points.  Sampled: over `samples` uniform
    draws, to be scaled by total / samples.
    """

    k: int
    q: int  # size of F_{q^k}
    hist: np.ndarray
    total: int  # q^(k n) affine points
    samples: int | None = None  # None for an exact profile

    @property
    def exact(self) -> bool:
        return self.samples is None

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
    """Yield (codes, orbits, sizes) per batch: one projective point x of F^n per sigma-orbit.

    The projective points are the base-q indices [q^i, 2 q^i): last nonzero
    coordinate x_i = 1.  orbits[:, j] holds sigma^j(x) for sigma(a) = a^p and
    j < m; codes = orbits[:, 0] is the orbit's point of least index (at m = 1,
    every point), and sizes = m / #{j < m : sigma^j x = x} counts an orbit's
    points.  sigma fixes 0 and 1, so it maps each index range to itself.  The
    orbits of consecutive ranges are gathered into batches of up to CHUNK.
    """
    q, frob = F.q, F.pow_table(F.p)[:, F.p] if m > 1 else None
    powers = q ** np.arange(n, dtype=np.int64)

    def batch_of(parts):
        orbits = np.concatenate(parts)
        return orbits[:, 0], orbits, m // (orbits == orbits[:, :1]).all(2).sum(1)

    batch, size = [], 0
    for i in range(n):
        for start in range(q ** i, 2 * q ** i, CHUNK):
            X = image = point_block(q, n, start, min(start + CHUNK, 2 * q ** i))
            least = idx = np.arange(start, start + len(X))
            for _ in range(1, m):  # keep each orbit's point of least index
                image = frob[image]
                least = np.minimum(least, image @ powers)
            orbit = [X[least == idx]]
            for _ in range(1, m):
                orbit.append(frob[orbit[-1]])
            orbits = np.stack(orbit, axis=1)
            if size + len(orbits) > CHUNK:
                yield batch_of(batch)
                batch, size = [], 0
            batch.append(orbits)
            size += len(orbits)
    if batch:
        yield batch_of(batch)


def _orbit_batches(F: Field, n: int, m: int):
    """The batches of ``_orbit_search``, of which one batch is kept per (F, n, m).

    A search of one batch is cached read-only for every tensor and level; a
    longer one is streamed, so its peak memory stays CHUNK-bounded.
    """
    if (F, n, m) in _orbit_cache:
        return _orbit_cache[F, n, m]
    search = _orbit_search(F, n, m)
    head = tuple(itertools.islice(search, 2))
    if len(head) == 2:
        return itertools.chain(head, search)
    for a in itertools.chain(*head):
        a.setflags(write=False)
    _orbit_cache[F, n, m] = head
    return head


def _affine_hists(blocks: list[np.ndarray], F: Field, m: int) -> np.ndarray:
    """Rank histogram over the q^n affine points of each block (n, m1, m2), Frobenius order m.

    The blocks are ranked as one stack per orbit batch, and one bincount bins
    the batch's ranks.
    """
    A = np.stack(blocks, axis=1)  # (n, G, m1, m2)
    hists = np.zeros((len(blocks), min(A.shape[2:]) + 1), dtype=np.int64)
    for codes, _, sizes in _orbit_batches(F, len(A), m):
        ranks = _ranks(A, F, codes)
        # bin block * width + rank, in point-major order like the weights
        bins = ranks + hists.shape[1] * np.arange(len(blocks))
        counts = np.bincount(bins.ravel(), np.repeat(sizes, len(blocks)), hists.size)
        hists += counts.reshape(hists.shape).astype(np.int64)
    hists *= F.q - 1
    hists[:, 0] += 1  # x = 0
    return hists


def _rank_table(A: np.ndarray, F: Field) -> np.ndarray:
    """Rank of the block A (n, m1, m2) at every affine point of F_q^n, by base-q index.

    One projective point x per Frobenius orbit is eliminated, and its rank is
    written at every c sigma^j(x), c != 0, in one indexed assignment.
    """
    n, q = len(A), F.q
    table = np.zeros(q ** n, dtype=np.min_scalar_type(min(A.shape[1:])))
    powers = q ** np.arange(n, dtype=np.int64)
    c = np.arange(1, q)[:, None, None, None]  # c != 0 against (N, m, n) orbits
    for codes, orbits, _ in _orbit_batches(F, n, _frobenius_order(A, F)):
        table[F.mul[c, orbits] @ powers] = _ranks(A[:, None], F, codes)
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
        self.field = F = T.field.extension(k)
        self._parts = []
        for coords, A in _blocks(T, axis):
            n = coords.size
            if coords[-1] - coords[0] == n - 1:  # a run: take X[:, coords] as a view
                coords = slice(coords[0], coords[-1] + 1)
            if within_budget(F.q, n, points):
                self._parts.append((coords, F.q ** np.arange(n, dtype=np.int64), _rank_table(A, F)))
            else:
                self._parts.append((coords, None, A[:, None]))

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Ranks for at most CHUNK points given as (N, n) field codes."""
        ranks = np.zeros(X.shape[0], dtype=np.int64)
        for coords, powers, part in self._parts:
            if powers is None:
                ranks += _ranks(part, self.field, X[:, coords])[:, 0]
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
    groups: dict = {}  # (F_{q^k}, block shape, Frobenius order) -> blocks, in tensor order
    summands = []  # per tensor: the group key of each block in _blocks order, or None when sampled
    for T in tensors:
        Fk, n = T.field.extension(k), slices(T, axis).shape[0]
        if not within_budget(Fk.q, n, budget):
            if not within_budget(Fk.q, n, int(sys.float_info.max)):  # sampled counts scale by it
                raise BudgetExceeded(f"{Fk.q}^{n} points are past the float range")
            summands.append(None)
            continue
        if Fk.q ** n >= 2 ** 63:
            raise BudgetExceeded(f"{Fk.q}^{n} points overflow the int64 histogram")
        summands.append([])
        for _, A in _blocks(T, axis):
            summands[-1].append((Fk, A.shape, _frobenius_order(A, Fk)))
            groups.setdefault(summands[-1][-1], []).append(A)
    rows = {key: iter(_affine_hists(blocks, key[0], key[2])) for key, blocks in groups.items()}
    profiles = []
    for T, seed, keys in zip(tensors, seeds, summands):
        Fk = T.field.extension(k)
        n, *shape = slices(T, axis).shape
        hist = np.zeros(min(shape) + 1, dtype=np.int64)
        if keys is None:
            ranks_at = SummandRanks(T, k, axis, mc_samples)
            for X in uniform_points(Fk.q, n, mc_samples, seed, k):
                hist += np.bincount(ranks_at(X), minlength=len(hist))
        else:  # a point's rank is the sum of its summands' ranks: convolve their histograms
            hist[0] = 1
            for key in keys:  # the summands' ranks add up to at most min(shape)
                hist = np.convolve(hist, next(rows[key]))[: len(hist)]  # in tensor order
            hist *= Fk.q ** (n - sum(block[0] for _, block, _ in keys))
        profiles.append(RankProfile(k, Fk.q, hist, Fk.q ** n, mc_samples if keys is None else None))
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
