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
no summand; ``rank_profiles`` ranks the summands of many tensors at many
levels in one pass, one stack per field and block shape.  The sampled path
draws the same uniform affine points as ever and reads each summand's rank
at a draw from a table over its affine points (``SummandRanks``), unless
that table would have more entries than there are draws: such a summand is
eliminated at the draws.  Either way the
ranks, histograms and sampled counts are those of the whole tensor at the
same points.  Every point set (an orbit batch, a rank table's orbit
representatives, a batch of draws, the slice-rank search's pruning points)
takes one step, ``_ranks``: its contraction at the points is one
``linalg.mat_mul``, the package's one product over F, then one batched_rank
call per slice of at most CHUNK matrices.  At an exact level a
square s x s block (s <= DET_MAX) whose level repays it (``_det_route``,
decided per block from its shape and field) is tested for full rank by
det(sum_i x_i A_i) as a polynomial instead: its coefficients come from one
``_determinants`` call (a Laplace expansion) on n^s matrices, it is
evaluated on every projective point a coordinate at a time by table
lookups, and only its zeros are contracted and eliminated.  A block whose
polynomial is zero keeps the orbit batches.  No other module takes a
determinant: ``linalg.batched_rank`` only eliminates.  The budget compares
the largest summand's affine count q^(k n_s): a level is exact when every
summand has at most `budget` points, so it eliminates at most (#summands)
budget / (q^k - 1) matrices; otherwise its points are drawn.  An exact
histogram of the whole q^(k n) points is int64 below 2^63 points and Python
ints from there on.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadParams, BudgetExceeded
from .fields import Field
from .tensor import AXES, Tensor3, slices

ELIM_BUDGET = 2 ** 21  # most affine points of each summand of a tower level counted exactly
MC_SAMPLES = 10 ** 5
CHUNK = 1 << 13  # points or (U, V) pairs handled at once by every caller (bounds peak memory)


def within_budget(q: int, n: int, budget: int) -> bool:
    """q^n <= budget, without forming q^n when n alone exceeds it (q >= 2)."""
    return n < budget.bit_length() and q ** n <= budget


def point_block(q: int, n: int, start: int, stop: int) -> np.ndarray:
    """Points of F_q^n with base-q indices in [start, stop), coordinate 0 lowest."""
    return points_at(q, n, np.arange(start, stop, dtype=np.int64))


def points_at(q: int, n: int, idx: np.ndarray) -> np.ndarray:
    """Points of F_q^n with the base-q indices idx, coordinate 0 lowest."""
    X = np.empty((idx.size, n), dtype=np.int32)
    for i in range(n):
        X[:, i] = idx % q
        idx = idx // q
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


def _ranks(A: np.ndarray, F: Field, X: np.ndarray) -> np.ndarray:
    """Ranks (N, G) of each block of the stack A (n, G, m1, m2) at N <= CHUNK points X.

    Each slice of at most CHUNK matrices is contracted, sum_i x_i A_i as one
    ``linalg.mat_mul`` of X by the slice's (n, entries) coefficients, and
    eliminated in one batched_rank call.
    """
    n, G, m1, m2 = A.shape
    step, ranks = CHUNK // len(X), []
    for s in range(0, G, step):  # a slice's matrices live only through its call
        g = min(step, G - s)  # sizes spelt out: numpy cannot resolve -1 when m1 m2 = 0
        Ms = linalg.mat_mul(X, A[:, s : s + g].reshape(n, g * m1 * m2), F)
        ranks.append(linalg.batched_rank(Ms.reshape(len(X) * g, m1, m2), F))
    return np.concatenate([r.reshape(len(X), -1) for r in ranks], axis=1)


@dataclass(frozen=True)
class RankProfile:
    """hist[r] counts points x with rank(sum_i x_i A_i) = r.

    Exact: over all q^(k n) affine points, counted when every direct summand
    has at most the budget's affine points; int64, or Python ints from 2^63
    points on.  Sampled: over `samples` uniform draws, to be scaled by total /
    samples.
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


def _blocks(T: Tensor3, axis: str) -> list:
    """(coordinates, block of the slices) for each direct summand of T along `axis`."""
    a = AXES.index(axis)
    A = slices(T, axis)
    blocks = []
    for sets in T.summands:
        rows, cols = (s for i, s in enumerate(sets) if i != a)
        if sets[a].size * rows.size * cols.size == A.size:  # the summand is all of T
            blocks.append((sets[a], A))
        else:
            blocks.append((sets[a], A[np.ix_(sets[a], rows, cols)]))
    return blocks


_orbit_cache: dict = {}


def _orbit_search(F: Field, n: int, m: int):
    """Yield (codes, orbits, sizes) per batch: one projective point x of F^n per sigma-orbit.

    The projective points are the base-q indices [q^i, 2 q^i): last nonzero
    coordinate x_i = 1.  orbits[:, j] holds sigma^j(x) for sigma(a) = a^p and
    j < m; codes = orbits[:, 0] is the orbit's point of least index (at m = 1,
    every point), and sizes = m / #{j < m : sigma^j x = x} counts an orbit's
    points.  sigma fixes 0 and 1, so it maps each index range to itself.  The
    orbits of consecutive ranges are regrouped into batches of CHUNK
    (``_rebatched``; the last fewer).
    """
    q = F.q

    def ranges():
        for i in range(n):
            for start in range(q ** i, 2 * q ** i, CHUNK):
                idx = np.arange(start, min(start + CHUNK, 2 * q ** i))
                yield (_least_orbits(points_at(q, n, idx), idx, F, m)[1],)

    for (orbits,) in _rebatched(ranges()):
        yield orbits[:, 0], orbits, _orbit_sizes(orbits)


def _least_orbits(X: np.ndarray, idx: np.ndarray, F: Field, m: int):
    """(keep, orbits): keep marks the points X (base-q indices idx) of least index in their
    sigma-orbit, and orbits[:, j] holds sigma^j of each kept point, j < m."""
    if m == 1:
        return np.ones(len(X), dtype=bool), X[:, None]
    images = [X]
    for _ in range(1, m):
        images.append(F.pow_table(F.p)[images[-1], F.p])
    images = np.stack(images, axis=1)
    keep = (images @ F.q ** np.arange(X.shape[1], dtype=np.int64)).min(1) == idx
    return keep, images[keep]


def _orbit_sizes(orbits: np.ndarray) -> np.ndarray:
    """m / #{j < m : sigma^j x = x}: the number of points of each orbit (N, m, n)."""
    return orbits.shape[1] // (orbits == orbits[:, :1]).all(2).sum(1)


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

    A square block whose level repays its determinant polynomial
    (``_det_route``), and whose polynomial is not zero, is ranked by
    ``_singular_hists``; the others as one stack per orbit batch, where one
    bincount bins the batch's ranks.
    """
    A = np.stack(blocks, axis=1)  # (n, G, m1, m2)
    n, G, m1, m2 = A.shape
    hists = np.zeros((G, min(m1, m2) + 1), dtype=np.int64)
    rest = slice(None)  # the blocks ranked by orbit batches
    if m1 == m2 and _det_route(F.q, n, m1, m):
        coefs = _det_coefficients(A, F)
        by_det = coefs.any(axis=1)
        if by_det.any():
            hists[by_det] = _singular_hists(A[:, by_det], coefs[by_det], F, m)
        rest = np.flatnonzero(~by_det)
    B = A[:, rest]
    width, others = hists.shape[1], B.shape[1]
    for codes, _, sizes in _orbit_batches(F, n, m) if others else ():
        # bin block * width + rank, in point-major order like the weights
        bins = _ranks(B, F, codes) + width * np.arange(others)
        counts = np.bincount(bins.ravel(), np.repeat(sizes, others), others * width)
        hists[rest] += counts.reshape(others, width).astype(np.int64)
    hists *= F.q - 1
    hists[:, 0] += 1  # x = 0
    return hists


DET_ORBITS = 8  # least orbits of a level per unit of a block's determinant work (_det_route)
DET_MAX = 4  # largest side of a block ranked by determinant


def _det_route(q: int, n: int, s: int, m: int) -> bool:
    """Whether s x s blocks of n coordinates, Frobenius order m, are ranked by determinant.

    A block's polynomial costs n^s determinants and (s + 1) C(n+s, s+2) plan
    slots; the larger must be at most a DET_ORBITS-th of the level's
    (q^n - 1) / ((q - 1) m) orbits, the measured crossover.  The table of
    a v^d, (s + 1) q^2 entries, must fit a contraction slice (CHUNK s^2).
    """
    work = max(n ** s, (s + 1) * math.comb(n + s, s + 2))
    return (
        0 < s <= DET_MAX
        and DET_ORBITS * work * m * (q - 1) <= q ** n - 1
        and (s + 1) * q * q <= CHUNK * s * s
    )


@functools.lru_cache(maxsize=16)
def _det_plan(n: int, s: int):
    """(tuples, sums, ranges): how det(sum_i x_i A_i) of s x s blocks is built and read.

    The determinant is multilinear in the rows, so the coefficient of the
    degree-s monomial x_{t_1} ... x_{t_s} is the sum of det(row 1 of A_{t_1},
    ..., row s of A_{t_s}) over the index tuples t with that multiset.
    ``tuples`` (n^s, s) lists every t, and row j of ``sums`` the tuples of the
    j-th monomial, padded by n^s, a zero.  ranges[i] = (monomials, steps)
    evaluates the polynomial on the base-q indices [q^i, 2 q^i), where
    x_i = 1 and x_j = 0 for j > i: ``monomials`` are those in x_0..x_i, and
    each step (one per coordinate j = i - 1, ..., 0) maps the coefficients
    of the monomials in x_0..x_j to those in x_0..x_{j-1}: slots[e, d] is the
    row of x^e x_j^d, or the padded zero row.
    """
    tuples = np.indices((n,) * s).reshape(s, -1).T
    multisets, inverse = np.unique(np.sort(tuples, axis=1), axis=0, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    starts = np.searchsorted(inverse[order], np.arange(len(multisets)))
    sums = np.full((len(multisets), np.bincount(inverse).max()), len(tuples))
    sums[inverse[order], np.arange(len(order)) - starts[inverse[order]]] = order
    exps = (multisets[:, :, None] == np.arange(n)).sum(axis=1)  # (monomials, n)
    ranges = []
    for i in range(n):
        rows = np.flatnonzero(~exps[:, i + 1 :].any(axis=1))
        e, steps = exps[rows, :i], []
        for j in reversed(range(i)):
            key = e[:, :j] @ (s + 1) ** np.arange(j, dtype=np.int64)
            _, first, group = np.unique(key, return_index=True, return_inverse=True)
            slots = np.full((len(first), s + 1), len(e))
            slots[group, e[:, j]] = np.arange(len(e))
            steps.append(slots)
            e = e[first, :j]
        ranges.append((rows, steps))
    for a in [tuples, sums] + [a for rows, steps in ranges for a in [rows, *steps]]:
        a.setflags(write=False)  # shared by every caller through the cache
    return tuples, sums, ranges


def _expansions(n: int) -> list:
    """Per row r = 1..n-1 of an n x n matrix, the Laplace expansion of its minors on rows 0..r.

    Each is (cols, rest): row i of ``cols`` is a column set S of size r + 1, and
    rest[i, t] indexes S without S_t among the column sets of row r - 1, in
    ``itertools.combinations`` order, which row 0's singletons follow too.
    """
    levels, subsets = [], [(c,) for c in range(n)]
    for r in range(1, n):
        index = {S: i for i, S in enumerate(subsets)}
        subsets = list(itertools.combinations(range(n), r + 1))
        rest = [[index[S[:t] + S[t + 1 :]] for t in range(r + 1)] for S in subsets]
        levels.append((np.array(subsets), np.array(rest)))
    return levels


_EXPANSION = {n: _expansions(n) for n in range(1, DET_MAX + 1)}


def _determinants(Ms, F: Field) -> np.ndarray:
    """Determinants of a stack (N, n, n), n <= DET_MAX, each up to a sign fixed by n.

    The minors on the leading r + 1 rows, one per column set S, are
    sum_t (-1)^t M[r, S_t] minor(S without S_t) over those on the leading r
    rows; only the two levels in use are kept.
    """
    q, mul, add, neg = F.q, F.mul.ravel(), F.add.ravel(), F.neg
    minors = Ms[:, 0]  # the 1 x 1 minors of row 0
    for r, (cols, rest) in enumerate(_EXPANSION[Ms.shape[1]], start=1):
        terms = mul.take(Ms[:, r, cols] * q + minors[:, rest])  # (N, column sets, r + 1)
        terms[:, :, 1::2] = neg.take(terms[:, :, 1::2])
        minors = terms[:, :, 0]
        for t in range(1, r + 1):
            minors = add.take(minors * q + terms[:, :, t])
    return minors[:, 0]


def _det_coefficients(A: np.ndarray, F: Field) -> np.ndarray:
    """The coefficients (G, monomials) of det(sum_i x_i A_i) for each block of A (n, G, s, s).

    Each is up to the sign ``_determinants`` fixes by s, which moves
    no zero.  The G n^s (block, tuple) determinants are taken CHUNK at a time.
    """
    n, G, s, _ = A.shape
    tuples, sums, _ = _det_plan(n, s)
    T = len(tuples)
    dets = np.zeros(G * T + 1, dtype=np.intp)  # the last is the padded zero
    for start in range(0, G * T, CHUNK):
        b, t = np.divmod(np.arange(start, min(start + CHUNK, G * T)), T)
        # Ms[p, r] = row r of A_{t_r} of block b
        dets[start : start + len(b)] = _determinants(A[tuples[t], b[:, None], np.arange(s)], F)
    index = np.where(sums == T, G * T, np.arange(G)[:, None, None] * T + sums)
    add, acc = F.add.ravel(), dets[index[..., 0]]
    for c in range(1, sums.shape[1]):
        acc = add.take(acc * F.q + dets[index[..., c]])
    return acc


def _grid_values(V: np.ndarray, steps: list, F: Field, scaled: np.ndarray, start: int = 0):
    """Yield (start, values): the polynomials of the coefficient columns V on every point of the grid.

    Each step multiplies the coefficient of x^e x_j^d by x_j^d for every x_j
    in F, one row of scaled[d] (a v^d at column v) per coefficient a, and
    sums over d, so a column of V becomes q columns, the point of the last
    coordinate the most significant.  A step that would hold more than
    CHUNK s^2 entries (the contraction slice of CHUNK s x s matrices) is
    taken a slice of columns at a time; values of consecutive columns follow
    one another, from index `start`.
    """
    q, add, s = F.q, F.add.ravel(), len(scaled) - 1
    for j, slots in enumerate(steps):
        if V.shape[1] > 1 and V.shape[1] * q * slots.size > CHUNK * s * s:
            cols, span = max(1, CHUNK * s * s // (q * slots.size)), q ** (len(steps) - j)
            for c in range(0, V.shape[1], cols):
                yield from _grid_values(V[:, c : c + cols], steps[j:], F, scaled, start + c * span)
            return
        V = np.concatenate([V, np.zeros((1, V.shape[1]), dtype=V.dtype)])  # the padded zero
        acc = V[slots[:, 0], :, None]
        for d in range(1, s + 1):
            acc = add.take(acc * q + scaled[d].take(V[slots[:, d]], axis=0))
        V = acc.reshape(len(slots), -1)
    yield start, V[0]


def _det_zeros(coefs: np.ndarray, F: Field, n: int, s: int):
    """Yield (blocks, indices): the projective points where each block's polynomial vanishes.

    coefs (G, monomials) are ``_det_coefficients``.  On each range
    [q^i, 2 q^i) the polynomials are evaluated on the whole grid F^i
    (``_grid_values``), and the zeros are read from the values.
    """
    scaled = F.mul[:, F.pow_table(s).T].transpose(1, 0, 2).astype(np.intp)  # [d, a, v] = a v^d
    for i, (rows, steps) in enumerate(_det_plan(n, s)[2]):
        for start, values in _grid_values(coefs[:, rows].T, steps, F, scaled):
            g, idx = np.divmod(start + np.flatnonzero(values == 0), F.q ** i)
            yield g, idx + F.q ** i


def _singular_hists(A: np.ndarray, coefs: np.ndarray, F: Field, m: int) -> np.ndarray:
    """Projective rank histograms (G, s + 1) of the blocks A (n, G, s, s) from their determinants.

    A point where the polynomial does not vanish has rank s.  The singular
    orbit representatives (least index; ``_det_zeros``) are contracted and
    eliminated, CHUNK (block, point) pairs per batched_rank call, and weighted
    by their orbit sizes.
    """
    n, G, s, _ = A.shape
    hists = np.zeros((G, s + 1), dtype=np.int64)
    hists[:, s] = (F.q ** n - 1) // (F.q - 1)

    def singular():  # (blocks, points, orbit sizes) of the singular orbit representatives
        for g, idx in _det_zeros(coefs, F, n, s):
            keep, orbits = _least_orbits(points_at(F.q, n, idx), idx, F, m)
            yield g[keep], orbits[:, 0], _orbit_sizes(orbits)

    coefficients = A.transpose(1, 0, 2, 3).reshape(G, n, s * s)  # a copy: rows gather fast
    for g, X, sizes in _rebatched(singular()):  # sum_i x_i A_i, each point with its own block
        Ms = linalg.mat_mul(X[:, None], coefficients[g], F).reshape(len(g), s, s)
        ranks = linalg.batched_rank(Ms, F)
        hists += np.bincount(g * (s + 1) + ranks, sizes, hists.size).reshape(G, -1).astype(np.int64)
        hists[:, s] -= np.bincount(g, sizes, G).astype(np.int64)
    return hists


def _rebatched(parts):
    """The rows of the array tuples `parts`, regrouped into tuples of CHUNK rows (the last fewer)."""
    held, size = [], 0
    for part in parts:
        while len(part[0]):
            take = min(CHUNK - size, len(part[0]))
            held.append([a[:take] for a in part])
            part, size = [a[take:] for a in part], size + take
            if size == CHUNK:
                yield [np.concatenate(a) for a in zip(*held)]
                held, size = [], 0
    if size:
        yield [np.concatenate(a) for a in zip(*held)]


def _rank_tables(A: np.ndarray, F: Field, m: int) -> np.ndarray:
    """Rank of each block of the stack A (n, G, m1, m2) at every affine point of F_q^n: (G, q^n).

    Points are base-q indices, and m is the blocks' common Frobenius order.
    One projective point x per Frobenius orbit is eliminated, and its ranks
    are written at every c sigma^j(x), c != 0, by one index shared by the
    stack.
    """
    n, G, m1, m2 = A.shape
    table = np.zeros((G, F.q ** n), dtype=np.min_scalar_type(min(m1, m2)))
    c = np.arange(1, F.q)[:, None, None, None]  # c != 0 against (N, m, n) orbits
    for codes, orbits, _ in _orbit_batches(F, n, m):
        scaled = F.mul[c, orbits]
        index = np.zeros(scaled.shape[:-1], dtype=np.int64)  # base-q index of each c sigma^j(x)
        for i in reversed(range(n)):
            index *= F.q
            index += scaled[..., i]
        for row, ranks in zip(table, _ranks(A, F, codes).T):
            row[index] = ranks[:, None]
    return table


class SummandRanks:
    """rank(sum_i x_i A_i) for batches of points x over F, summed over direct summands.

    `blocks` are a tensor's ``_blocks``, F its field or an extension of it;
    each summand keeps only its own coordinates, rows and columns.  A summand with at most `points`
    affine points (`points` being the number of points the caller ranks) is
    read from a rank table, so tabulating never eliminates more matrices, nor
    fills more table entries, than there are points; any other is contracted
    and eliminated at the points.  The tabled summands of one (block shape,
    Frobenius order) are ranked as one stack (``_rank_tables``), all tables
    are one flat array, and one product gives every tabled summand's table
    index at a batch of points.  Coordinates in no summand do not change the
    rank.
    """

    def __init__(self, F: Field, blocks: list, points: int):
        self.field = F
        self._eliminated = []  # (coordinates, block as a stack of one)
        tabled: dict = {}  # (block shape, Frobenius order) -> [(coordinates, block)]
        for coords, A in blocks:
            if within_budget(F.q, len(coords), points):
                tabled.setdefault((A.shape, _frobenius_order(A, F)), []).append((coords, A))
            else:
                self._eliminated.append((coords, A[:, None]))
        self._n = max((coords[-1] + 1 for coords, _ in blocks), default=0)
        tables, powers, offsets = [], [], []
        start = 0
        for (shape, m), parts in tabled.items():
            stacked = _rank_tables(np.stack([A for _, A in parts], axis=1), F, m)
            for g, (coords, _) in enumerate(parts):
                powers.append(np.zeros(self._n))
                powers[-1][coords] = F.q ** np.arange(shape[0], dtype=np.int64)
                offsets.append(start + g * stacked.shape[1])
            tables.append(stacked.ravel())
            start += stacked.size
        self._table = np.concatenate([np.zeros(0, dtype=np.uint8)] + tables)
        # _powers @ X.T + _offsets: each tabled summand's index into _table, a row per
        # summand.  A float product runs in BLAS; it is exact, since every index is
        # below the table's size, far under 2^53.
        self._powers = np.array(powers).reshape(len(powers), self._n)
        self._offsets = np.array(offsets, dtype=np.int64)[:, None]

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Ranks for at most CHUNK points given as (N, n) field codes."""
        index = (self._powers @ X[:, : self._n].T).astype(np.intp) + self._offsets
        ranks = self._table.take(index).sum(axis=0, dtype=np.int64)
        for coords, A in self._eliminated:
            ranks += _ranks(A, self.field, X[:, coords])[:, 0]
        return ranks


def rank_profiles(
    tensors: list[Tensor3],
    levels: Sequence[int],
    axis: str = "x",
    budget: int = ELIM_BUDGET,
    mc_samples: int = MC_SAMPLES,
    seeds: list[int] | None = None,
) -> list[list[RankProfile]]:
    """Rank histograms of each tensor's slices along `axis`, contracted over F_{q^k}.

    Returns each tensor's profiles, one per level k of `levels`.  Each tensor
    is cut into its summand blocks once.  The summands of all tensors exact at
    a level are ranked together, one ``_affine_hists`` per (field, block
    shape, Frobenius order).  A tensor is exact at a level when its largest
    summand has at most `budget` affine points over F_{q^k}, and is sampled
    on its own otherwise, with its seed (default 0).  An exact histogram of
    2^63 points or more holds Python ints.  A summand within the budget that
    has 2^63 points or more is refused (its own histogram is int64), and so
    is every level whose q^(k n) points are past the float range.
    """
    seeds = [0] * len(tensors) if seeds is None else seeds
    a = AXES.index(axis)
    blocks = [_blocks(T, axis) for T in tensors]
    # a block with every entry in F_p has Frobenius order k over F_{p^k} (_frobenius_order)
    in_fp = [[bool((A < T.field.p).all()) for _, A in cut] for T, cut in zip(tensors, blocks)]
    groups: dict = {}  # (F_{q^k}, block shape, Frobenius order) -> blocks, level by level
    plans = {}  # (tensor, level) -> (F_{q^k}, the group key of each block, or None when sampled)
    for k in levels:
        for i, T in enumerate(tensors):
            Fk, n = T.field.extension(k), T.dims[a]
            if not within_budget(Fk.q, n, int(sys.float_info.max)):  # counts are read as floats
                raise BudgetExceeded(f"{Fk.q}^{n} points are past the float range")
            largest = max((coords.size for coords, _ in blocks[i]), default=0)
            if not within_budget(Fk.q, largest, budget):
                plans[i, k] = Fk, None
                continue
            if Fk.q ** largest >= 2 ** 63:  # a summand's own histogram is int64
                raise BudgetExceeded(f"{Fk.q}^{largest} points of a summand overflow int64")
            keys = [(Fk, A.shape, Fk.k if fp else 1) for (_, A), fp in zip(blocks[i], in_fp[i])]
            for key, (_, A) in zip(keys, blocks[i]):
                groups.setdefault(key, []).append(A)
            plans[i, k] = Fk, keys
    rows = {key: iter(_affine_hists(cut, key[0], key[2])) for key, cut in groups.items()}
    free = [T.dims[a] - sum(coords.size for coords, _ in cut) for T, cut in zip(tensors, blocks)]
    profiles = [[] for _ in tensors]
    for k in levels:
        for i, T in enumerate(tensors):
            (Fk, keys), n = plans[i, k], T.dims[a]
            # an exact count of 2^63 points or more is held in Python ints
            dtype = np.int64 if keys is None or Fk.q ** n < 2 ** 63 else object
            hist = np.zeros(min(T.dims[:a] + T.dims[a + 1 :]) + 1, dtype=dtype)
            if keys is None:
                ranks_at = SummandRanks(Fk, blocks[i], mc_samples)
                for X in uniform_points(Fk.q, n, mc_samples, seeds[i], k):
                    hist += np.bincount(ranks_at(X), minlength=len(hist))
            else:  # a point's rank is the sum of its summands' ranks: convolve their histograms
                hist[0] = 1
                for key in keys:  # the summands' ranks add up to at most min(shape)
                    hist = np.convolve(hist, next(rows[key]))[: len(hist)]  # in level, tensor order
                if free[i]:  # a coordinate in no summand leaves every rank as it is
                    hist *= Fk.q ** free[i]
            total, samples = Fk.q ** n, mc_samples if keys is None else None
            profiles[i].append(RankProfile(k, Fk.q, hist, total, samples))
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
    return rank_profiles([T], [k], axis, budget, mc_samples, [seed])[0][0]
