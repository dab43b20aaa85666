"""Explicit slice-rank decompositions via tangent spaces of determinantal varieties.

The algorithm works over an extension F_{q^k_work} standing in for the closure.
Let L be the span of the x-axis slices and r the minimizing rank of the
stratification.  At a rank-r point A of L the tangent space to the rank-<=-r
locus is {CA + AC'}; every slice component inside that tangent space splits
into 2r slice-rank-1 terms built from a rank factorization of A, and the
complement contributes one term per basis matrix.  Total: 2r + codim terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import geometric, linalg
from .errors import (
    BadParams,
    DimensionMismatch,
    FieldMismatch,
    NoPointFound,
    NotInTangentSpace,
    VerificationFailed,
)
from .fields import Field
from .tensor import MatrixSpace, SliceTerm, Tensor3, slice_space


@dataclass
class RankFactorization:
    """A = sum_i outer(left[i], right[i]) with independent factors."""

    r: int
    left: np.ndarray  # (r, m)
    right: np.ndarray  # (r, n)


@dataclass
class CongruencePair:
    """Witness of tangency: B = C A + A Cp."""

    C: np.ndarray
    Cp: np.ndarray


@dataclass
class SliceDecomposition:
    working_field: Field
    dims: tuple
    terms: list  # SliceTerm values
    r_used: int
    gr: int | None = None
    flagged: bool = False
    retries: int = 0
    sampled_point: np.ndarray | None = None

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


def decomposition_from_dict(d) -> SliceDecomposition:
    from .fields import parse_field

    F = parse_field(d["field"])
    terms = [
        SliceTerm(F, t["direction"], t["linear"], t["bilinear"], t.get("source", ""))
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


# ---------------------------------------------------------------------------
# matrix-level building blocks
# ---------------------------------------------------------------------------

def rank_factorize(A, F: Field) -> RankFactorization:
    """A = sum of r outer products, read off the reduced echelon form."""
    A = linalg.as_matrix(A)
    R, pivots = linalg.rref(A, F)
    r = len(pivots)
    right = R[:r].copy()  # rows are independent (echelon)
    left = A[:, pivots].T.copy()  # A = A[:, pivots] @ R[:r] since R[:r, pivots] = I
    return RankFactorization(r=r, left=left, right=right)


def check_factorization(A, fact: RankFactorization, F: Field) -> bool:
    if not np.array_equal(linalg.mat_mul(fact.left.T, fact.right, F), A):
        return False
    return (
        linalg.rank(fact.left, F) == fact.r and linalg.rank(fact.right, F) == fact.r
    )


def tangent_space_at(A, F: Field) -> MatrixSpace:
    """Span of {E_ab A} union {A E_ab}: the tangent {CA + AC'} at A."""
    A = linalg.as_matrix(A)
    m, n = A.shape
    rows = []
    for a in range(m):
        for b in range(m):
            M = np.zeros((m, n), dtype=np.int32)
            M[a] = A[b]
            rows.append(M.ravel())
    for a in range(n):
        for b in range(n):
            M = np.zeros((m, n), dtype=np.int32)
            M[:, b] = A[:, a]
            rows.append(M.ravel())
    basis = linalg.row_space_basis(np.array(rows, dtype=np.int32), F)
    return MatrixSpace(F, (m, n), basis.reshape(-1, m, n))


def sylvester_solve(B, A, F: Field) -> CongruencePair:
    """A solution (C, Cp) of B = CA + ACp, deterministic (free variables 0)."""
    A = linalg.as_matrix(A)
    B = linalg.as_matrix(B)
    if A.shape != B.shape:
        raise DimensionMismatch("B and A must have equal shape")
    m, n = A.shape
    nvars = m * m + n * n
    M = np.zeros((m * n, nvars), dtype=np.int32)
    for a in range(m):
        for b in range(n):
            eq = a * n + b
            for c in range(m):
                M[eq, a * m + c] = A[c, b]  # C[a, c] coefficient
            for d in range(n):
                M[eq, m * m + d * n + b] = A[a, d]  # Cp[d, b] coefficient
    x = linalg.solve(M, B.ravel(), F)
    if x is None:
        raise NotInTangentSpace("target is outside {CA + AC'}")
    C = x[: m * m].reshape(m, m)
    Cp = x[m * m:].reshape(n, n)
    return CongruencePair(C=C, Cp=Cp)


def sample_rank_point(
    L: MatrixSpace, r: int, k: int = 1, budget: int = 1000, seed: int = 0
) -> np.ndarray:
    """A matrix of rank exactly r in L (coefficients over F_{q^k}), by rejection."""
    if r < 0:
        raise BadParams("rank must be >= 0")
    if r > min(L.shape):
        raise NoPointFound(f"rank {r} exceeds min shape {min(L.shape)}")
    Fk = L.field if k == 1 else L.field.extension(k)
    if r == 0:
        return np.zeros(L.shape, dtype=np.int32)
    if L.dim == 0:
        raise NoPointFound("zero space contains no nonzero-rank point")
    rng = np.random.default_rng(seed)
    basis = L.flat_basis()  # base-field codes are valid codes of F_{q^k}
    for _ in range(budget):
        coeffs = rng.integers(0, Fk.q, size=L.dim).astype(np.int32)
        A = linalg.mat_mul(coeffs[None], basis, Fk).reshape(L.shape)
        if linalg.rank(A, Fk) == r:
            return A
    raise NoPointFound(f"no rank-{r} point in {budget} samples")


# ---------------------------------------------------------------------------
# the decomposition algorithm
# ---------------------------------------------------------------------------

def _base_decomposition(Tw: Tensor3, gr: int | None, retries: int) -> SliceDecomposition:
    """One x-direction term per basis slice: the SR(L) <= dim L base case."""
    F = Tw.field
    L = slice_space(Tw, "x")
    S = L.flat_basis()
    terms = []
    if L.dim:
        coords = np.array(
            [linalg.solve(S.T, Tw.entries[l].ravel(), F) for l in range(Tw.dims[0])],
            dtype=np.int32,
        )
        for m in range(L.dim):
            terms.append(
                SliceTerm(F, "x", coords[:, m], L.basis[m], source="base_x_slice")
            )
    D = SliceDecomposition(
        working_field=F, dims=Tw.dims, terms=terms, r_used=0, gr=gr, retries=retries
    )
    if not verify_decomposition(Tw, D):
        raise VerificationFailed("base decomposition does not reconstruct the tensor")
    return D


def _tangent_decomposition(
    Tw: Tensor3, r: int, seed: int, sample_budget: int
) -> SliceDecomposition | None:
    """One attempt at the 2r + codim construction; None if no rank-r point."""
    F = Tw.field
    n1, n2, n3 = Tw.dims
    L = slice_space(Tw, "x")
    try:
        A = sample_rank_point(L, r, budget=sample_budget, seed=seed)
    except NoPointFound:
        return None
    tangent = tangent_space_at(A, F)
    P = linalg.intersect_row_spaces(L.flat_basis(), tangent.flat_basis(), F)
    complement = linalg.extend_basis(P, list(L.flat_basis()), F)
    stack = np.vstack([P, np.array(complement, dtype=np.int32).reshape(-1, n2 * n3)])
    # coordinates of every slice in the [tangent part; complement part] basis
    coords = np.array(
        [linalg.solve(stack.T, Tw.entries[l].ravel(), F) for l in range(n1)],
        dtype=np.int32,
    )
    lam = coords[:, : P.shape[0]]  # (n1, dim P)
    mu = coords[:, P.shape[0]:]  # (n1, codim)
    fact = rank_factorize(A, F)
    pairs = [sylvester_solve(B.reshape(n2, n3), A, F) for B in P]
    Cs = np.array([pair.C for pair in pairs], dtype=np.int32).reshape(len(pairs), n2, n2)
    Cps = np.array([pair.Cp for pair in pairs], dtype=np.int32).reshape(len(pairs), n3, n3)
    # H[i] = sum_j lam_j (C_j f_i) and Hp[i] = sum_j lam_j (g_i Cp_j), for every i at once
    H = linalg.mat_mul(lam, linalg.mat_mul(Cs, fact.left.T, F).transpose(2, 0, 1), F)
    Hp = linalg.mat_mul(lam, linalg.mat_mul(fact.right, Cps, F).transpose(1, 0, 2), F)
    terms = []
    for i in range(fact.r):
        f_i, g_i = fact.left[i], fact.right[i]
        if H[i].any() and g_i.any():
            terms.append(SliceTerm(F, "z", g_i, H[i], source="tangent_z_slice"))
        if Hp[i].any() and f_i.any():
            terms.append(SliceTerm(F, "y", f_i, Hp[i], source="tangent_y_slice"))
    for m, D_m in enumerate(complement):
        if mu[:, m].any():
            terms.append(
                SliceTerm(
                    F, "x", mu[:, m], D_m.reshape(n2, n3), source="complement_x_slice"
                )
            )
    D = SliceDecomposition(
        working_field=F, dims=Tw.dims, terms=terms, r_used=r, sampled_point=A
    )
    if not verify_decomposition(Tw, D):
        raise VerificationFailed("tangent decomposition does not reconstruct the tensor")
    return D


MAX_RETRIES = 5


def slice_decompose(
    T: Tensor3,
    k_work: int = 3,
    kmax: int = 3,
    seed: int = 0,
    sample_budget: int = 1000,
    gr_report=None,
) -> SliceDecomposition:
    """Explicit slice decomposition over F_{q^k_work} with <= 2r + codim terms."""
    Fw = T.field if k_work == 1 else T.field.extension(k_work)
    Tw = T.lift(Fw)
    if gr_report is None:
        gr_report = geometric.geometric_rank(T, kmax=kmax, seed=seed)
    gr = gr_report.gr if gr_report.stable else None
    if T.is_zero():
        return SliceDecomposition(
            working_field=Fw, dims=Tw.dims, terms=[], r_used=0, gr=gr
        )
    best = None
    for retry in range(MAX_RETRIES):
        D = None
        for r in range(gr_report.argmin_r, 0, -1):
            D = _tangent_decomposition(
                Tw, r, seed=seed + 0x517CC1B7 * retry + r, sample_budget=sample_budget
            )
            if D is not None:
                break
        if D is None:
            D = _base_decomposition(Tw, gr, retry)
        D.gr = gr
        D.retries = retry
        if best is None or D.term_count < best.term_count:
            best = D
        if gr is None or D.term_count <= 2 * gr:
            return D
    best.flagged = True  # never beat the 2*GR bound within the retry budget
    return best


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
