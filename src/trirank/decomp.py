"""Explicit slice-rank decompositions via tangent spaces of determinantal varieties.

The algorithm works over an extension F_{q^k_work} standing in for the closure.
Let L be the span of the x-axis slices and r the minimizing rank of the
stratification.  At a rank-r point A of L the tangent space to the rank-<=-r
locus is {CA + AC'}; every slice component inside that tangent space splits
into 2r slice-rank-1 terms built from a rank factorization of A, and the
complement contributes one term per basis matrix.  Total: 2r + codim terms.
At r = 0 the point is A = 0 and its tangent space is {0}, so every basis
matrix of L is a complement term: the SR(L) <= dim L base case is the same
construction.

``slice_decompositions`` decomposes many tensors as stacks, one per
(working field, dims): one elimination gives every span L, and each round
of attempts (an item steps down in r or retries in the next round) solves
its r > 0 attempts in one, at most CHUNK matrices per ``batched_rref`` call,
a lone matrix included.  An r = 0 attempt solves nothing: its coefficients
are read off L's RREF at the pivots.  The rank factorization of each drawn
point is read from the ``rref`` that tested its rank.  Each item draws its
own point from its own seed, so its decomposition is the one it gets alone;
``slice_decompose`` is the one-tensor case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometric, linalg
from .errors import (
    BadParams,
    DimensionMismatch,
    FieldMismatch,
    NoPointFound,
    VerificationFailed,
)
from .fields import Field, parse_field
from .rankprofile import CHUNK
from .tensor import MatrixSpace, SliceTerm, Tensor3

MAX_RETRIES = 5
SAMPLE_BUDGET = 1000  # rank-r point draws per tangent attempt


@dataclass
class SliceDecomposition:
    working_field: Field
    dims: tuple
    terms: list  # SliceTerm values
    r_used: int
    gr: int | None = None
    flagged: bool = False
    retries: int = 0

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def to_dict(self):
        return {
            "field": self.working_field.designation(),
            "dims": list(self.dims),
            "r_used": self.r_used,
            "gr": self.gr,
            "flagged": self.flagged,
            "retries": self.retries,
            "term_count": self.term_count,
            "terms": [
                {
                    "direction": t.direction,
                    "linear": t.linear.tolist(),
                    "bilinear": t.bilinear.tolist(),
                    "source": t.source,
                }
                for t in self.terms
            ],
        }


def _codes(codes, q: int):
    """`codes` as given, once every entry of its nested lists is an int in [0, q)."""
    entries = [codes]
    while entries:
        c = entries.pop()
        if isinstance(c, list):
            entries.extend(c)
        elif type(c) is not int:  # a bool, float or string is no code
            raise TypeError(f"coefficient code {c!r} is not an integer")
        elif not 0 <= c < q:
            raise ValueError(f"coefficient codes outside [0, {q})")
    return codes


def decomposition_from_dict(d) -> SliceDecomposition:
    """The inverse of `to_dict`; a missing or ill-typed key or code raises BadParams."""
    try:
        F = parse_field(d["field"])
        terms = [
            SliceTerm(
                F,
                t["direction"],
                _codes(t["linear"], F.q),
                _codes(t["bilinear"], F.q),
                t.get("source", ""),
            )
            for t in d["terms"]
        ]
        return SliceDecomposition(
            working_field=F,
            dims=tuple(d["dims"]),
            terms=terms,
            r_used=d.get("r_used", 0),
            gr=d.get("gr"),
            flagged=d.get("flagged", False),
            retries=d.get("retries", 0),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise BadParams(f"not a decomposition: {type(exc).__name__}: {exc}") from None


# ---------------------------------------------------------------------------
# matrix-level building blocks
# ---------------------------------------------------------------------------

def _rrefs(Ms, F: Field):
    """The ``rref`` of every matrix of a nonempty stack: (R stacked, list of pivot lists).

    ``linalg.batched_rref`` takes at most CHUNK matrices per call.
    """
    parts = [linalg.batched_rref(Ms[s : s + CHUNK], F) for s in range(0, len(Ms), CHUNK)]
    return np.concatenate([R for R, _ in parts]), [p for _, ps in parts for p in ps]


def _sylvester_matrix(A) -> np.ndarray:
    """The map (C, Cp) -> CA + ACp on row-major flattenings: [kron(I_m, A^T) | kron(A, I_n)].

    For a stack (..., m, n), one such (m n, m^2 + n^2) matrix per A, filled by
    index: row (a, b) holds A[c, b] at column (a, c) and A[a, d] at m^2 + (d, b).
    """
    A = np.asarray(A, dtype=np.int32)
    *batch, m, n = A.shape
    S = np.zeros((*batch, m, n, m * m + n * n), dtype=np.int32)
    a, b, c = np.ogrid[:m, :n, :m]
    S[..., a, b, a * m + c] = A[..., c, b]
    a, b, d = np.ogrid[:m, :n, :n]
    S[..., a, b, m * m + d * n + b] = A[..., a, d]
    return S.reshape(*batch, m * n, m * m + n * n)


def sample_rank_point(L: MatrixSpace, r: int, seed: int = 0):
    """(A, left, right): a matrix A of rank exactly r in L, by rejection, and A = left^T right.

    The factors have min(m, n) rows.  Rows i < r of left and right are A's
    pivot columns and the nonzero rows of the ``rref`` that tests A's rank
    (R[:r, pivots] = I, so A = A[:, pivots] R[:r]); the rest are zero.
    """
    if r < 0:
        raise BadParams("rank must be >= 0")
    if r > min(L.shape):
        raise NoPointFound(f"rank {r} exceeds min shape {min(L.shape)}")
    F, (m, n) = L.field, L.shape
    left = np.zeros((min(m, n), m), dtype=np.int32)
    if r == 0:
        return np.zeros(L.shape, dtype=np.int32), left, np.zeros((min(m, n), n), dtype=np.int32)
    if L.dim == 0:
        raise NoPointFound("zero space contains no nonzero-rank point")
    rng = np.random.default_rng(seed)
    basis = L.flat_basis()
    for _ in range(SAMPLE_BUDGET):
        coeffs = rng.integers(0, F.q, size=L.dim).astype(np.int32)
        A = linalg.mat_mul(coeffs[None], basis, F).reshape(L.shape)
        R, pivots = linalg.rref(A, F)
        if len(pivots) == r:
            left[:r] = A[:, pivots].T
            return A, left, R[: min(m, n)]
    raise NoPointFound(f"no rank-{r} point in {SAMPLE_BUDGET} samples")


# ---------------------------------------------------------------------------
# the decomposition algorithm
# ---------------------------------------------------------------------------

def _tangent_attempts(attempts: list) -> list[SliceDecomposition | None]:
    """One 2r + codim attempt per (Tw, L, r, seed), all of one field and dims, as one stack.

    L is the span of Tw's x-slices; None where L has no rank-r point.  Each
    attempt draws its own point A, with the factors A = left^T right of the
    ``rref`` that tested its rank.  At r > 0, one elimination of
    [S | L basis | slices] per attempt, S the map (C, Cp) -> CA + ACp, splits
    slice l into C_l A + A Cp_l (the tangent part) plus sum_m mu_lm L_m.  A
    basis matrix L_m gets a pivot exactly when it extends T_A +
    span(L_0 .. L_{m-1}), so the L_m with nonzero mu are the complement terms.
    The basis block has a column per slice, zero past dim L: a zero column
    gets no pivot, so the solution is that of L alone.  At r = 0, S = 0 and
    that solve would find C = Cp = 0 and slice l's coordinates in L: L's basis
    is an RREF with pivot columns p_m, so mu_lm = X_l[p_m] is read off the
    slices and nothing is eliminated.
    """
    points = []  # (A, left, right) per attempt, or None
    for _, L, r, seed in attempts:
        try:
            points.append(sample_rank_point(L, r, seed=seed))
        except NoPointFound:
            points.append(None)
    live = [j for j, point in enumerate(points) if point is not None]
    found = [None] * len(attempts)
    if not live:
        return found
    F, (n1, n2, n3) = attempts[0][0].field, attempts[0][0].dims
    N, nC = len(live), n2 * n2 + n3 * n3
    X = np.array([attempts[j][0].entries for j in live], dtype=np.int32).reshape(N, n1, n2 * n3)
    B = np.zeros_like(X)  # each L basis, zero rows past dim L
    for row, j in enumerate(live):
        L = attempts[j][1]
        B[row, : L.dim] = L.flat_basis()
    # mu_lm = X_l[p_m] = (X P^T)_lm, row m of P the indicator of p_m (zero past dim L)
    nonzero = B != 0
    P = nonzero & (np.cumsum(nonzero, axis=2) == 1)
    mu = np.matmul(X, P.transpose(0, 2, 1).astype(np.int32))  # a sum of one term at most
    tangent_sum = np.zeros_like(X)  # the tangent part of each slice, zero at r = 0
    terms = [[] for _ in live]  # per attempt: its z and y terms, then its x terms
    solved = [row for row, j in enumerate(live) if attempts[j][2] > 0]
    if solved:
        nv = nC + n1  # unknowns: C, Cp, then mu
        A, left, right = (
            np.array([points[live[row]][i] for row in solved], dtype=np.int32) for i in range(3)
        )
        system = [_sylvester_matrix(A), B[solved].transpose(0, 2, 1), X[solved].transpose(0, 2, 1)]
        R, pivots = _rrefs(np.concatenate(system, axis=2), F)
        x = np.zeros((len(solved), nv, n1), dtype=np.int32)  # column l solves slice l
        for t, p in enumerate(pivots):
            if p and p[-1] >= nv:  # a pivot in the right-hand side
                raise VerificationFailed("a slice lies outside the span it is solved in")
            x[t, p] = R[t, : len(p), nv:]  # free variables 0
        x = x.transpose(0, 2, 1)
        Cs = x[:, :, : n2 * n2].reshape(-1, n1, n2, n2)
        Cps = x[:, :, n2 * n2 : nC].reshape(-1, n1, n3, n3)
        mu[solved] = x[:, :, nC:]
        # H[i][l] = C_l f_i and Hp[i][l] = g_i Cp_l, for every attempt and every i at once
        H = linalg.mat_mul(Cs, left.transpose(0, 2, 1)[:, None], F).transpose(0, 3, 1, 2)
        Hp = linalg.mat_mul(right[:, None], Cps, F).transpose(0, 2, 1, 3)
        # zero terms included: z terms g_i (x) H[i], y terms f_i (x) Hp[i]
        z = linalg.mat_mul(H.transpose(0, 2, 3, 1), right[:, None], F)
        y = linalg.mat_mul(left.transpose(0, 2, 1)[:, None], Hp.transpose(0, 2, 1, 3), F)
        tangent_sum[solved] = F.add[z, y].reshape(len(solved), n1, n2 * n3)
        for t, row in enumerate(solved):
            r = attempts[live[row]][2]
            for i, (f_i, g_i) in enumerate(zip(left[t, :r], right[t])):
                if H[t, i].any() and g_i.any():
                    terms[row].append(SliceTerm(F, "z", g_i, H[t, i], source="tangent_z_slice"))
                if Hp[t, i].any() and f_i.any():
                    terms[row].append(SliceTerm(F, "y", f_i, Hp[t, i], source="tangent_y_slice"))
    # the term sum, x terms sum_m mu_lm L_m included
    if not np.array_equal(F.add[tangent_sum, linalg.mat_mul(mu, B, F)], X):
        raise VerificationFailed("tangent decomposition does not reconstruct the tensor")
    for row, j in enumerate(live):
        Tw, L, r, _ = attempts[j]
        for m in range(L.dim):
            if mu[row, :, m].any():
                terms[row].append(
                    SliceTerm(F, "x", mu[row, :, m], L.basis[m], source="complement_x_slice")
                )
        found[j] = SliceDecomposition(working_field=F, dims=Tw.dims, terms=terms[row], r_used=r)
    return found


def _decompose_group(Tws: list[Tensor3], seeds: list[int], reports: list) -> list:
    """The decompositions of tensors of one working field and dims, in rounds of stacked attempts.

    A round makes one attempt for every item still pending.  An item starts
    at r = argmin_r and steps down while L has no rank-r point (r = 0 always
    succeeds: A = 0).  A decomposition with more than 2 GR terms is retried
    from argmin_r under the next seed, MAX_RETRIES times in all; the item then
    keeps its fewest terms, flagged.
    """
    F, (n1, n2, n3) = Tws[0].field, Tws[0].dims
    R, pivots = _rrefs(np.array([Tw.entries for Tw in Tws]).reshape(len(Tws), n1, n2 * n3), F)
    Ls = [MatrixSpace(F, (n2, n3), R[g, : len(p)], reduced=True) for g, p in enumerate(pivots)]
    r = [rep.argmin_r for rep in reports]
    retries, best, done = [0] * len(Tws), [None] * len(Tws), [None] * len(Tws)
    pending = list(range(len(Tws)))
    while pending:
        attempts = [
            (Tws[g], Ls[g], r[g], seeds[g] + 0x517CC1B7 * retries[g] + r[g]) for g in pending
        ]
        still = []
        for g, D in zip(pending, _tangent_attempts(attempts)):
            if D is None:
                r[g] -= 1
                still.append(g)
                continue
            D.gr, D.retries = reports[g].stable_gr, retries[g]
            if best[g] is None or D.term_count < best[g].term_count:
                best[g] = D
            if D.gr is None or D.term_count <= 2 * D.gr:
                done[g] = D
            elif retries[g] + 1 < MAX_RETRIES:
                retries[g] += 1
                r[g] = reports[g].argmin_r
                still.append(g)
            else:
                best[g].flagged = True  # never beat the 2*GR bound within the retry budget
                done[g] = best[g]
        pending = still
    return done


def slice_decompositions(
    tensors: list[Tensor3], k_work: int, seeds: list[int], gr_reports: list
) -> list[SliceDecomposition]:
    """``slice_decompose`` of every tensor, one stack per (working field, dims).

    `seeds` and `gr_reports` are per tensor; a report of None is computed as
    ``slice_decompose`` would.  Each tensor's decomposition is the one it gets
    alone: its point draws and its retries are its own.
    """
    Tws = [T.lift(T.field.extension(k_work)) for T in tensors]
    reports = [
        geometric.geometric_rank(T, seed=s) if rep is None else rep
        for T, s, rep in zip(tensors, seeds, gr_reports)
    ]
    groups: dict = {}  # (working field, dims) -> indices of its tensors
    for i, Tw in enumerate(Tws):
        groups.setdefault((Tw.field, Tw.dims), []).append(i)
    found = [None] * len(tensors)
    for group in groups.values():
        Ds = _decompose_group(
            [Tws[i] for i in group], [seeds[i] for i in group], [reports[i] for i in group]
        )
        for i, D in zip(group, Ds):
            found[i] = D
    return found


def slice_decompose(
    T: Tensor3,
    k_work: int = 3,
    seed: int = 0,
    gr_report=None,
) -> SliceDecomposition:
    """Explicit slice decomposition over F_{q^k_work} with <= 2r + codim terms."""
    return slice_decompositions([T], k_work, [seed], [gr_report])[0]


def verify_decomposition(T: Tensor3, D: SliceDecomposition) -> bool:
    """Exact coefficient equality of the term sum with T over the working field."""
    if tuple(T.dims) != tuple(D.dims):
        return False
    F = D.working_field
    try:
        Tw = T if T.field == F else T.lift(F)
    except (FieldMismatch, BadParams):
        return False
    acc = np.zeros(T.dims, dtype=np.int32)
    try:
        for term in D.terms:
            acc = F.add[acc, term.dense(T.dims)]
    except DimensionMismatch:
        return False
    return np.array_equal(acc, Tw.entries)
