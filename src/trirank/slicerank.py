"""Exact slice rank for small tensors, bounds, and the rank-chain verifier.

Exact slice rank uses the annihilator characterization: SR(T) <= c1 + c2 + c3
iff T vanishes identically on some triple of subspaces of those codimensions.
For fixed (U, V) the least codim W is the rank of the form matrix
T(u_a, v_b, .), whose right kernel is the largest W: only pairs are searched.

Each U is pruned by one element of T(U, ., .), M_U = sum_a t^a T(u_a, ., .)
over F_{q^3}.  Any (V, W) with T(U, V, W) = 0 gives rank M_U <= codim V +
codim W (the bound behind SR = min_U (codim U + ncrk T(U, ., .)), Fortin and
Reutenauer 2004), so no pair with this U totals less than codim U + rank M_U.
A U at or above the best total so far is never searched; it could not beat
that total, so the first minimal pair, and the witness, are unchanged.

For antichain supports the vertex-cover route gives exact values beyond the
subspace-search scope (identity tensors, Levi-Civita, and their direct sums).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import analytic, geometric, linalg
from .errors import ContradictoryBounds, OutOfExactScope
from .fields import Field
from .tensor import Tensor3, slice_dims

EXACT_DIM_LIMIT = 4
EXACT_Q_LIMIT = 3
CHUNK = 1 << 8  # (U, V) pairs contracted and eliminated at once (bounds peak memory)


# ---------------------------------------------------------------------------
# subspace enumeration (RREF canonical form)
# ---------------------------------------------------------------------------

_subspace_cache: dict = {}
_pruning_cache: dict = {}  # (F, n) -> the vectors w_U of slice_rank_exact, one per subspace


def subspaces(F: Field, n: int):
    """All subspaces of F^n as {dim: read-only (N, dim, n) stack of RREF bases}."""
    key = (F, n)
    if key in _subspace_cache:
        return _subspace_cache[key]
    by_dim = {0: np.zeros((1, 0, n), dtype=np.int32)}
    for d in range(1, n + 1):
        blocks = []
        for pivots in itertools.combinations(range(n), d):
            free_pos = [
                (i, c)
                for i in range(d)
                for c in range(n)
                if c > pivots[i] and c not in pivots
            ]
            rows, cols = np.array(free_pos, dtype=np.intp).reshape(-1, 2).T
            values = list(itertools.product(range(F.q), repeat=len(free_pos)))
            B = np.zeros((len(values), d, n), dtype=np.int32)
            B[:, range(d), pivots] = 1
            B[:, rows, cols] = values
            blocks.append(B)
        by_dim[d] = np.concatenate(blocks)
    for stack in by_dim.values():
        stack.setflags(write=False)
    _subspace_cache[key] = by_dim
    return by_dim


def _forms(T: Tensor3, Us: np.ndarray, Vs: np.ndarray) -> np.ndarray:
    """Form matrices T(u_a, v_b, .) of every pair in Us x Vs, U-major."""
    (n1, n2, n3), F = T.dims, T.field
    (NU, d1), (NV, d2) = Us.shape[:2], Vs.shape[:2]
    A = linalg.mat_mul(Us, T.entries.reshape(n1, n2 * n3), F).reshape(NU, d1, n2, n3)
    B = linalg.mat_mul(Vs[None, :, None], A[:, None], F)  # (NU, NV, d1, d2, n3)
    return B.reshape(NU * NV, d1 * d2, n3)


@dataclass
class SRResult:
    lo: int
    hi: int
    method: str  # annihilator_exact | vertex_cover | bounds_only
    witness: tuple | None = None  # (V1, V2, V3) bases for exact results
    three_gr_bound: int | None = None  # bound implied by the chain, never shrinks hi

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> int:
        if not self.exact:
            raise OutOfExactScope(f"slice rank only bounded in [{self.lo}, {self.hi}]")
        return self.lo

    def to_dict(self):
        return {
            "lo": self.lo,
            "hi": self.hi,
            "method": self.method,
            "exact": self.exact,
            "three_gr_bound": self.three_gr_bound,
        }


def slice_rank_exact(T: Tensor3, lower_bound: int = 0) -> SRResult:
    """Minimum of c1 + c2 + rank T(U, V, .) over subspace pairs, by exhaustion.

    The witness is the first minimal pair, codim blocks (c1, c2) in lexicographic
    order and U-major within a block, with W the kernel of its form matrix.
    A block below `lower_bound` raises ContradictoryBounds.  Reaching the bound
    does not stop the search: the rest of it is what proves no pair lies below.

    Each U is pruned by the rank of M_U = sum_a t^a T(u_a, ., .) over F_{q^3}
    (t the class of code p): a pair with T(U, V, W) = 0 has rank M_U <=
    codim V + codim W, so no V can bring U below c1 + rank M_U.  Only U with
    c1 + rank M_U < best are searched.  A pruned U cannot beat `best`, so
    the first minimal pair, and with it the witness, is the unpruned one's.
    """
    n1, n2, n3 = T.dims
    if max(T.dims) > EXACT_DIM_LIMIT or T.field.q > EXACT_Q_LIMIT:
        raise OutOfExactScope(
            f"dims {T.dims} / q = {T.field.q} outside exact scope "
            f"(dims <= {EXACT_DIM_LIMIT}, q <= {EXACT_Q_LIMIT})"
        )
    F, Fk = T.field, T.field.extension(3)
    subs_u, subs_v = subspaces(F, n1), subspaces(F, n2)
    if (F, n1) not in _pruning_cache:  # w_U = sum_a t^a u_a for every U, in subs_u order
        t = Fk.pow_table(n1)[F.p]  # t^0, ..., t^n1
        w = np.concatenate([linalg.mat_mul(t[None, :d], Us, Fk) for d, Us in subs_u.items()])
        w.setflags(write=False)
        _pruning_cache[F, n1] = w
    w = _pruning_cache[F, n1]
    M = linalg.mat_mul(w, T.entries.reshape(n1, n2 * n3), Fk).reshape(len(w), n2, n3)
    ends = np.cumsum([len(Us) for Us in subs_u.values()])[:-1]
    bound = dict(zip(subs_u, np.split(linalg.batched_rank(M, Fk), ends)))  # dim U -> rank M_U
    best = n1 + n2 + n3 + 1
    for c1, c2 in itertools.product(range(n1 + 1), range(n2 + 1)):
        if c1 + c2 >= best:
            continue
        Us, Vs = subs_u[n1 - c1][c1 + bound[n1 - c1] < best], subs_v[n2 - c2]
        if not len(Us):
            continue
        step = max(1, CHUNK // len(Vs))  # whole U rows of the block, U-major
        Ms = (_forms(T, Us[s : s + step], Vs) for s in range(0, len(Us), step))
        ranks = np.concatenate([linalg.batched_rank(M, F) for M in Ms])
        i = int(ranks.argmin())
        total = c1 + c2 + int(ranks[i])
        if total < lower_bound:
            raise ContradictoryBounds(f"slice rank {total} is below the lower bound {lower_bound}")
        if total < best:
            best, U, V = total, Us[i // len(Vs)], Vs[i % len(Vs)]
    W = linalg.row_space_basis(linalg.kernel_basis(_forms(T, U[None], V[None])[0], F), F)
    return SRResult(best, best, "annihilator_exact", (U, V, W))


def check_witness(T: Tensor3, result: SRResult) -> bool:
    """Re-check an exact witness: T vanishes on it and codims sum to value."""
    if result.witness is None:
        return False
    U, V, W = result.witness
    codims = sum(n - B.shape[0] for n, B in zip(T.dims, (U, V, W)))
    M = _forms(T, U[None], V[None])[0]
    return codims == result.value and not linalg.mat_mul(M, W.T, T.field).any()


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _ar_bound(ar: float | None) -> int:
    """ceil AR, the lower bound proven by the exact zero count (0 without AR)."""
    return math.ceil(ar - 1e-9) if ar is not None and math.isfinite(ar) else 0


def slice_rank_bounds(T: Tensor3, ar: float | None = None, gr: int | None = None) -> SRResult:
    """Interval [max(ceil AR, GR), min axis slice-span dim] from an AR value and a GR.

    Raises ContradictoryBounds when the lower bound exceeds the upper one.
    """
    lo = max(_ar_bound(ar), gr or 0)
    hi = min(slice_dims(T))
    if hi < lo:
        raise ContradictoryBounds(
            f"slice-rank lower bound {lo} exceeds upper bound {hi}: "
            "an AR or GR value is wrong"
        )
    return SRResult(lo, hi, "bounds_only", three_gr_bound=3 * gr if gr is not None else None)


# ---------------------------------------------------------------------------
# vertex-cover method for antichain supports
# ---------------------------------------------------------------------------

def _is_antichain(triples) -> bool:
    for a in triples:
        for b in triples:
            if a != b and all(x <= y for x, y in zip(a, b)):
                return False
    return True


def _min_vertex_cover(edges) -> int:
    """Exact minimum vertex cover of a 3-partite 3-uniform hypergraph."""
    edges = [tuple((ax, e[ax]) for ax in range(3)) for e in edges]

    def matching_lb(es):
        used = set()
        m = 0
        for e in es:
            if not any(v in used for v in e):
                used.update(e)
                m += 1
        return m

    best = len(edges)  # one vertex per edge always covers

    def bb(es, chosen):
        nonlocal best
        if not es:
            best = min(best, chosen)
            return
        if chosen + matching_lb(es) >= best:
            return
        e = es[0]
        for v in e:
            rest = [f for f in es if v not in f]
            bb(rest, chosen + 1)

    bb(edges, 0)
    return best


def vertex_cover_sr(T: Tensor3):
    """SR via the cover number when the support is an antichain, else None.

    The support is accepted when the support of every direct summand is an
    antichain in the product order: summands occupy disjoint index sets per
    axis, so the axes can always be reordered to make the union an antichain.
    """
    supports = [np.argwhere(T.entries[np.ix_(I, J, K)]).tolist() for I, J, K in T.summands]
    if not all(_is_antichain(c) for c in supports):
        return None
    return sum(_min_vertex_cover(c) for c in supports)


# ---------------------------------------------------------------------------
# the rank-chain verifier
# ---------------------------------------------------------------------------

GR_AR_CONSTANT = 2.71
SR_AR_CONSTANT = 8.13


@dataclass
class ChainReport:
    sr: SRResult
    gr: geometric.GRReport
    ar: analytic.ARValue | None
    holds_sr_3gr: bool
    holds_gr_271ar: bool | None
    holds_sr_813ar: bool | None
    holds_ar_le_sr: bool | None
    holds_gr_le_sr: bool
    ratio_sr_gr: Fraction | None
    ar_skipped: bool = False

    @property
    def all_hold(self) -> bool:
        checks = [
            self.holds_sr_3gr,
            self.holds_gr_271ar,
            self.holds_sr_813ar,
            self.holds_ar_le_sr,
            self.holds_gr_le_sr,
        ]
        return all(c is not False for c in checks)

    def to_dict(self):
        return {
            "sr": self.sr.to_dict(),
            "gr": self.gr.to_dict(),
            "ar": self.ar.to_dict() if self.ar else None,
            "holds_sr_3gr": self.holds_sr_3gr,
            "holds_gr_271ar": self.holds_gr_271ar,
            "holds_sr_813ar": self.holds_sr_813ar,
            "holds_ar_le_sr": self.holds_ar_le_sr,
            "holds_gr_le_sr": self.holds_gr_le_sr,
            "ratio_sr_gr": str(self.ratio_sr_gr) if self.ratio_sr_gr is not None else None,
            "ar_skipped": self.ar_skipped,
        }


def slice_rank(T: Tensor3, ar: float | None = None, gr: int | None = None) -> SRResult:
    """Best available slice-rank determination: exact, vertex cover, or bounds.

    The exact search raises at the first block below ceil AR, which the exact
    zero count proves; a value below max(ceil AR, GR) raises
    ContradictoryBounds too (a GR estimate can be too high).
    """
    bounds = slice_rank_bounds(T, ar=ar, gr=gr)
    vc = vertex_cover_sr(T)
    if vc is not None:
        res = SRResult(vc, vc, "vertex_cover")
    else:
        try:
            res = slice_rank_exact(T, lower_bound=_ar_bound(ar))
        except OutOfExactScope:
            return bounds
    if res.value < bounds.lo:
        raise ContradictoryBounds(f"slice rank {res.value} is below the lower bound {bounds.lo}")
    res.three_gr_bound = bounds.three_gr_bound
    return res


def verify_rank_chain(
    T: Tensor3,
    kmax: int = 3,
    ar_budget: int = analytic.ENUM_BUDGET,
    seed: int = 0,
    cross_check: bool = False,
    profiles: list | None = None,
) -> ChainReport:
    """Compute AR, GR, SR and evaluate the inequality chain with its constants.

    `profiles`: T's x-axis rank profiles for k = 1..kmax, if the caller has them.
    AR's zero count reads GR's k = 1 profile when it is exact.
    """
    gr = geometric.geometric_rank(T, kmax, seed=seed, cross_check=cross_check, profiles=profiles)
    ar_skipped = T.field.q == 2
    k1 = gr.profiles[0] if gr.profiles else None
    ar = None if ar_skipped else analytic.analytic_rank(T, budget=ar_budget, profile=k1)
    sr = slice_rank(T, ar=ar.value if ar is not None else None, gr=gr.gr)
    holds_sr_3gr = sr.hi <= 3 * gr.gr
    holds_gr_le_sr = gr.gr <= sr.hi
    if ar is None:
        holds_gr_271ar = holds_sr_813ar = holds_ar_le_sr = None
    else:
        holds_gr_271ar = gr.gr <= GR_AR_CONSTANT * ar.value + 1e-12
        holds_sr_813ar = sr.hi <= SR_AR_CONSTANT * ar.value + 1e-12
        holds_ar_le_sr = ar.value <= sr.hi + 1e-12
    ratio = Fraction(sr.value, gr.gr) if sr.exact and gr.gr > 0 else None
    return ChainReport(
        sr, gr, ar,
        holds_sr_3gr, holds_gr_271ar, holds_sr_813ar,
        holds_ar_le_sr, holds_gr_le_sr, ratio, ar_skipped,
    )
