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

``slice_ranks`` runs the pair search of many tensors of one (field, dims)
as one stack: one pruning rank call for all of them, then each codim block
eliminates every tensor's surviving pairs together, at most CHUNK per
batched_rank call.  Each tensor keeps its own best total, so its outcome is
its search alone.  Each minimal pair's W is read from the subspace table, as
U and V are: it is the one subspace of its dim that the pair's form matrix
annihilates.  Only ``slice_ranks`` compares a value with the chain's lower
bound max(ceil AR, GR).

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
from .errors import BudgetExceeded, ContradictoryBounds, OutOfExactScope
from .fields import Field
from .rankprofile import CHUNK, _ranks, rank_profiles
from .tensor import AXES, Tensor3, slice_space

EXACT_DIM_LIMIT = 4
EXACT_Q_LIMIT = 3


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
    A = linalg.mat_mul(Us, T.entries.reshape(n1, n2 * n3), F)
    return _pair_forms(A.reshape(len(Us), Us.shape[1], n2, n3), Vs, F)


def _pair_forms(A: np.ndarray, Vs: np.ndarray, F: Field) -> np.ndarray:
    """Form matrices of each U's rows T(u_a, ., .), A (R, d1, n2, n3), with every V, U-major."""
    R, d1, _, n3 = A.shape
    B = linalg.mat_mul(Vs[None, :, None], A[:, None], F)  # (R, NV, d1, d2, n3)
    return B.reshape(R * len(Vs), d1 * Vs.shape[1], n3)


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


def _in_exact_scope(T: Tensor3) -> bool:
    return max(T.dims) <= EXACT_DIM_LIMIT and T.field.q <= EXACT_Q_LIMIT


def _pair_searches(tensors: list[Tensor3]) -> list[SRResult]:
    """The pruned pair search of tensors of one field and dims, as one stack.

    The M_U of all tensors are ranked together, by ``rankprofile._ranks`` at
    the points w_U with one block per tensor; then each codim block (c1, c2)
    forms every tensor's surviving U times every V and eliminates them
    together: at most CHUNK matrices or pairs per batched_rank call.  Each tensor keeps
    its own best total, so it prunes U and skips blocks as it would alone.

    W = ker T(U, V, .) of its first minimal pair has dim n3 - rank, and it is
    the one subspace of that dim the pair's form matrix annihilates: it is
    read from the ``subspaces(F, n3)`` table, whose rows are RREF bases.  With
    each U and V padded by zero rows, which only add zero form rows, the forms
    are one (G, n1 n2, n3) stack; each kernel dim's forms meet that dim's
    bases in one mat_mul, at most CHUNK (form, basis) products at a time.
    """
    (n1, n2, n3), F = tensors[0].dims, tensors[0].field
    Fk = F.extension(3)
    subs_u, subs_v = subspaces(F, n1), subspaces(F, n2)
    if (F, n1) not in _pruning_cache:  # w_U = sum_a t^a u_a for every U, in subs_u order
        t = Fk.pow_table(n1)[F.p]  # t^0, ..., t^n1
        w = np.concatenate([linalg.mat_mul(t[None, :d], Us, Fk)[:, 0] for d, Us in subs_u.items()])
        w.setflags(write=False)
        _pruning_cache[F, n1] = w
    w = _pruning_cache[F, n1]
    E = np.array([T.entries for T in tensors]).reshape(len(tensors), n1, n2 * n3)
    # rank M_U of every U of every tensor, (G, len(w)) with U in subs_u order
    m_ranks = _ranks(E.reshape(len(E), n1, n2, n3).transpose(1, 0, 2, 3), Fk, w).T
    starts = list(itertools.accumulate((len(Us) for Us in subs_u.values()), initial=0))
    bound = {d: m_ranks[:, a:b] for d, a, b in zip(subs_u, starts, starts[1:])}  # dim U -> ranks
    best, pairs = np.full((len(E), 1), n1 + n2 + n3 + 1), [None] * len(E)
    for c1, c2 in itertools.product(range(n1 + 1), range(n2 + 1)):
        if c1 + c2 >= max(best.flat):  # no tensor searches it; cheaper than best.max() at small G
            continue
        # a U survives while c1 + rank M_U < best; a block at or above best keeps none
        keep = (c1 + bound[n1 - c1] < best) & (c1 + c2 < best)
        g, u = np.nonzero(keep)  # tensor-major, then U-major
        if not len(g):
            continue
        Us, Vs = subs_u[n1 - c1], subs_v[n2 - c2]
        ranks, step = [], max(1, CHUNK // len(Vs))
        for s in range(0, len(g), step):
            A = linalg.mat_mul(Us[u[s : s + step]], E[g[s : s + step]], F)  # (r, d1, n2 n3)
            A = A.reshape(len(A), n1 - c1, n2, n3)
            ranks.append(linalg.batched_rank(_pair_forms(A, Vs, F), F))
        ranks, hi = np.concatenate(ranks).reshape(len(g), len(Vs)), 0
        for i, rows in enumerate(keep.sum(axis=1).tolist()):  # tensor i's rows of the block
            lo, hi = hi, hi + rows
            if not rows:
                continue
            j = int(ranks[lo:hi].argmin())  # its first minimal pair, U-major
            rank = int(ranks[lo:hi].flat[j])
            if c1 + c2 + rank < best[i, 0]:
                best[i, 0] = c1 + c2 + rank
                pairs[i] = (Us[u[lo + j // len(Vs)]], Vs[j % len(Vs)], n3 - rank)
    G = len(E)
    Up, Vp = np.zeros((G, n1, n1), np.int32), np.zeros((G, n2, n2), np.int32)
    kernels: dict = {}  # dim W -> the tensors whose pair has it
    for g, (U, V, d) in enumerate(pairs):
        Up[g, : len(U)], Vp[g, : len(V)] = U, V
        kernels.setdefault(d, []).append(g)
    A = linalg.mat_mul(Up, E, F).reshape(G, n1, n2, n3)
    forms, Ws = linalg.mat_mul(Vp[:, None], A, F).reshape(G, n1 * n2, n3), [None] * G
    for d, g in kernels.items():
        Bs = subspaces(F, n3)[d]
        step = max(1, CHUNK // len(Bs))
        for s in range(0, len(g), step):
            P = linalg.mat_mul(forms[g[s : s + step], None], Bs.transpose(0, 2, 1), F)
            for i, j in zip(g[s : s + step], (~P.any(axis=(2, 3))).argmax(axis=1).tolist()):
                Ws[i] = Bs[j]
    results = zip(best[:, 0].tolist(), pairs, Ws)
    return [SRResult(b, b, "annihilator_exact", (U, V, W)) for b, (U, V, _), W in results]


def slice_rank_exact(T: Tensor3, search: SRResult | None = None) -> SRResult:
    """Minimum of c1 + c2 + rank T(U, V, .) over subspace pairs, by exhaustion.

    The witness is the first minimal pair, codim blocks (c1, c2) in lexicographic
    order and U-major within a block, with W the RREF basis of the kernel of
    its form matrix, read from the subspace table.  No lower bound is checked:
    the search always runs to its end.

    Each U is pruned by the rank of M_U = sum_a t^a T(u_a, ., .) over F_{q^3}
    (t the class of code p): a pair with T(U, V, W) = 0 has rank M_U <=
    codim V + codim W, so no V can bring U below c1 + rank M_U.  Only U with
    c1 + rank M_U < best are searched.  A pruned U cannot beat `best`, so
    the first minimal pair, and with it the witness, is the unpruned one's.

    Each block is eliminated in slices of at most CHUNK pairs.  Block (0, 0)
    leaves best <= n3, so only blocks with c1 + c2 < n3 follow; in the exact
    scope the largest of them is 40 x 130 = 5,200 pairs (q = 3, codims 1 and 2
    in F^4), one slice.  `search`: T's result from ``_pair_searches``, which
    is returned, if the caller has it; without one, T is searched alone.
    """
    if not _in_exact_scope(T):
        raise OutOfExactScope(
            f"dims {T.dims} / q = {T.field.q} outside exact scope "
            f"(dims <= {EXACT_DIM_LIMIT}, q <= {EXACT_Q_LIMIT})"
        )
    return search or _pair_searches([T])[0]


def check_witness(T: Tensor3, result: SRResult) -> bool:
    """Re-check an exact witness: independent (d_i, n_i) bases killing T, codims summing to SR.

    A basis with a code outside [0, q) is no witness.
    """
    if result.witness is None:
        return False
    U, V, W = result.witness
    for n, B in zip(T.dims, (U, V, W)):
        if B.ndim != 2 or B.shape[1] != n or (B.size and (B.min() < 0 or B.max() >= T.field.q)):
            return False
        if linalg.rank(B, T.field) != len(B):
            return False
    codims = sum(n - len(B) for n, B in zip(T.dims, (U, V, W)))
    M = _forms(T, U[None], V[None])[0]
    return codims == result.value and not linalg.mat_mul(M, W.T, T.field).any()


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _chain_bounds(ar: float | None, gr: int | None = None) -> tuple[int, int | None]:
    """The lower bound max(ceil AR, GR), 0 without either, and 3 GR, None without GR."""
    ar_bound = math.ceil(ar - 1e-9) if ar is not None else 0
    return max(ar_bound, gr or 0), 3 * gr if gr is not None else None


def slice_rank_bounds(T: Tensor3, ar: float | None = None, gr: int | None = None) -> SRResult:
    """Interval [max(ceil AR, GR), min axis slice-span dim] from an AR value and a GR.

    Raises ContradictoryBounds when the lower bound exceeds the upper one.
    """
    lo, three_gr = _chain_bounds(ar, gr)
    hi = min(slice_space(T, axis).dim for axis in AXES)
    if hi < lo:
        raise ContradictoryBounds(
            f"slice-rank lower bound {lo} exceeds upper bound {hi}: "
            "an AR or GR value is wrong"
        )
    return SRResult(lo, hi, "bounds_only", three_gr_bound=three_gr)


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
    support = T.entries != 0
    size = np.count_nonzero(support)
    # two support triples that differ on one axis alone are comparable, and lie in
    # one summand: projecting the support along that axis merges them
    if any(np.count_nonzero(support.any(axis=a)) < size for a in range(3)):
        return None
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
    ar: analytic.ARValue | None  # None over F_2

    @property
    def checks(self) -> dict[str, bool | None]:
        """The five inequalities of the chain; those that read AR or an unstable GR are None."""
        sr, gr, ar = self.sr.hi, self.gr.stable_gr, self.ar.value if self.ar else None
        return {
            "holds_sr_3gr": None if gr is None else sr <= 3 * gr,
            "holds_gr_271ar": None if None in (ar, gr) else gr <= GR_AR_CONSTANT * ar + 1e-12,
            "holds_sr_813ar": None if ar is None else sr <= SR_AR_CONSTANT * ar + 1e-12,
            "holds_ar_le_sr": None if ar is None else ar <= sr + 1e-12,
            "holds_gr_le_sr": None if gr is None else gr <= sr,
        }

    @property
    def all_hold(self) -> bool:
        return all(c is not False for c in self.checks.values())

    @property
    def ratio_sr_gr(self) -> Fraction | None:
        gr = self.gr.stable_gr
        return Fraction(self.sr.value, gr) if self.sr.exact and gr else None

    def to_dict(self):
        return {
            "sr": self.sr.to_dict(),
            "gr": self.gr.to_dict(),
            "ar": self.ar.to_dict() if self.ar else None,
            **self.checks,
            "ratio_sr_gr": str(self.ratio_sr_gr) if self.ratio_sr_gr is not None else None,
            "ar_skipped": self.ar is None,
        }


def slice_ranks(
    tensors: list[Tensor3], ars: list | None = None, grs: list | None = None, exact: bool = False
) -> list[SRResult]:
    """Best available slice rank of each tensor: vertex cover, exact search, else bounds.

    The exact searches of the tensors of one (field, dims) run as one stack.
    `ars`, `grs`: each tensor's AR value and GR, or None.  An exact value below
    max(ceil AR, GR) raises ContradictoryBounds: one of the inputs is wrong (a
    GR estimate can be too high).  `exact`: the annihilator search alone,
    raising OutOfExactScope outside its scope.
    """
    ars, grs = ars or [None] * len(tensors), grs or [None] * len(tensors)
    covers = [None if exact else vertex_cover_sr(T) for T in tensors]
    groups: dict = {}  # (field, dims) -> indices of the tensors searched
    for i, (T, vc) in enumerate(zip(tensors, covers)):
        if vc is None and _in_exact_scope(T):
            groups.setdefault((T.field, T.dims), []).append(i)
        elif exact:
            slice_rank_exact(T)  # raises OutOfExactScope before any search
    searches: dict = {}
    for group in groups.values():
        searches.update(zip(group, _pair_searches([tensors[i] for i in group])))
    results = []
    for i, (T, vc, ar, gr) in enumerate(zip(tensors, covers, ars, grs)):
        if i in searches:
            res = slice_rank_exact(T, searches[i])
        elif vc is not None:
            res = SRResult(vc, vc, "vertex_cover")
        else:
            results.append(slice_rank_bounds(T, ar=ar, gr=gr))
            continue
        lo, res.three_gr_bound = _chain_bounds(ar, gr)
        if res.value < lo:
            raise ContradictoryBounds(f"slice rank {res.value} is below the lower bound {lo}")
        results.append(res)
    return results


def slice_rank(
    T: Tensor3, ar: float | None = None, gr: int | None = None, exact: bool = False
) -> SRResult:
    """``slice_ranks`` of T alone."""
    return slice_ranks([T], [ar], [gr], exact)[0]


def verify_rank_chains(
    tensors: list[Tensor3],
    kmax: int = 3,
    ar_budget: int = analytic.ENUM_BUDGET,
    seeds: list[int] | None = None,
    cross_check: bool = False,
) -> list[ChainReport]:
    """Compute AR, GR, SR of each tensor and evaluate the inequality chain with its constants.

    The levels k = 1..kmax of the nonzero tensors' x-axis rank profiles are
    one ``rank_profiles`` call (``geometric_rank`` answers a zero tensor
    without counting).  AR's zero count reads the k = 1 level when it is
    exact, and ``slice_ranks`` checks every SR against max(ceil AR, stable GR).
    """
    if kmax < 2:  # refused before any count, as geometric_rank refuses it
        raise BudgetExceeded("kmax must be >= 2")
    seeds = [0] * len(tensors) if seeds is None else seeds
    live = [i for i, T in enumerate(tensors) if T.summands]
    levels = rank_profiles(
        [tensors[i] for i in live], range(1, kmax + 1), seeds=[seeds[i] for i in live]
    )
    profiles = dict(zip(live, levels))  # tensor index -> its levels
    grs = [
        geometric.geometric_rank(T, kmax, seed=s, cross_check=cross_check, profiles=profiles.get(i))
        for i, (T, s) in enumerate(zip(tensors, seeds))
    ]
    ars = [
        None if T.field.q == 2
        else analytic.analytic_rank(T, ar_budget, profiles[i][0] if i in profiles else None)
        for i, T in enumerate(tensors)
    ]
    srs = slice_ranks(tensors, [ar and ar.value for ar in ars], [gr.stable_gr for gr in grs])
    return [ChainReport(sr, gr, ar) for sr, gr, ar in zip(srs, grs, ars)]


def verify_rank_chain(
    T: Tensor3, kmax: int = 3, ar_budget: int = analytic.ENUM_BUDGET, seed: int = 0,
    cross_check: bool = False,
) -> ChainReport:
    """``verify_rank_chains`` of T alone."""
    return verify_rank_chains([T], kmax, ar_budget, [seed], cross_check)[0]
