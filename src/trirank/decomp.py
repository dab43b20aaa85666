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
    VerificationFailed,
)
from .fields import Field, parse_field
from .tensor import MatrixSpace, SliceTerm, Tensor3, slice_space

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
    """The inverse of `to_dict`; a missing or ill-typed key raises BadParams."""
    try:
        F = parse_field(d["field"])
        terms = [
            SliceTerm(F, t["direction"], t["linear"], t["bilinear"], t.get("source", ""))
            for t in d["terms"]
        ]
        codes = [c for t in terms for c in (t.linear, t.bilinear) if c.size]
        if any(c.min() < 0 or c.max() >= F.q for c in codes):
            raise ValueError(f"coefficient codes outside [0, {F.q})")
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

def rank_factorize(A, F: Field) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) with A = left^T right, r independent rows each, read off the RREF."""
    A = linalg.as_matrix(A)
    R, pivots = linalg.rref(A, F)
    # A = A[:, pivots] @ R[:r] since R[:r, pivots] = I; the rows of R[:r] are independent
    return A[:, pivots].T.copy(), R[: len(pivots)].copy()


def _sylvester_matrix(A) -> np.ndarray:
    """The map (C, Cp) -> CA + ACp on row-major flattenings: [kron(I_m, A^T) | kron(A, I_n)]."""
    m, n = A.shape
    I_m, I_n = np.eye(m, dtype=np.int32), np.eye(n, dtype=np.int32)
    return np.hstack([np.kron(I_m, A.T), np.kron(A, I_n)])


def sample_rank_point(L: MatrixSpace, r: int, seed: int = 0) -> np.ndarray:
    """A matrix of rank exactly r in L (coefficients over L's field), by rejection."""
    if r < 0:
        raise BadParams("rank must be >= 0")
    if r > min(L.shape):
        raise NoPointFound(f"rank {r} exceeds min shape {min(L.shape)}")
    F = L.field
    if r == 0:
        return np.zeros(L.shape, dtype=np.int32)
    if L.dim == 0:
        raise NoPointFound("zero space contains no nonzero-rank point")
    rng = np.random.default_rng(seed)
    basis = L.flat_basis()
    for _ in range(SAMPLE_BUDGET):
        coeffs = rng.integers(0, F.q, size=L.dim).astype(np.int32)
        A = linalg.mat_mul(coeffs[None], basis, F).reshape(L.shape)
        if linalg.rank(A, F) == r:
            return A
    raise NoPointFound(f"no rank-{r} point in {SAMPLE_BUDGET} samples")


# ---------------------------------------------------------------------------
# the decomposition algorithm
# ---------------------------------------------------------------------------

def _slice_coords(M, Tw: Tensor3) -> np.ndarray:
    """Row l solves M x = (x-slice l, flattened), free variables 0; one elimination."""
    x = linalg.solve(M, Tw.entries.reshape(Tw.dims[0], -1).T, Tw.field)
    if x is None:
        raise VerificationFailed("a slice lies outside the span it is solved in")
    return x.T


def _tangent_decomposition(
    Tw: Tensor3, L: MatrixSpace, r: int, seed: int
) -> SliceDecomposition | None:
    """One attempt at the 2r + codim construction; None if L has no rank-r point.

    L is the span of Tw's x-slices.  One solve of [S | L basis] x = slice for
    every slice at once, S the map (C, Cp) -> CA + ACp, splits slice l into
    C_l A + A Cp_l (the tangent part) plus sum_m mu_lm L_m.  A basis matrix
    L_m gets a pivot exactly when it extends T_A + span(L_0 .. L_{m-1}), so
    the L_m with nonzero mu are the complement terms; at r = 0, S = 0 and
    every L_m is one.
    """
    F = Tw.field
    n1, n2, n3 = Tw.dims
    try:
        A = sample_rank_point(L, r, seed=seed)
    except NoPointFound:
        return None
    x = _slice_coords(np.hstack([_sylvester_matrix(A), L.flat_basis().T]), Tw)
    Cs = x[:, : n2 * n2].reshape(n1, n2, n2)
    Cps = x[:, n2 * n2 : n2 * n2 + n3 * n3].reshape(n1, n3, n3)
    mu = x[:, n2 * n2 + n3 * n3 :]  # (n1, dim L)
    left, right = rank_factorize(A, F)
    # H[i][l] = C_l f_i and Hp[i][l] = g_i Cp_l, for every i at once
    H = linalg.mat_mul(Cs, left.T, F).transpose(2, 0, 1)
    Hp = linalg.mat_mul(right, Cps, F).transpose(1, 0, 2)
    terms = []
    for i, (f_i, g_i) in enumerate(zip(left, right)):
        if H[i].any() and g_i.any():
            terms.append(SliceTerm(F, "z", g_i, H[i], source="tangent_z_slice"))
        if Hp[i].any() and f_i.any():
            terms.append(SliceTerm(F, "y", f_i, Hp[i], source="tangent_y_slice"))
    for m in range(L.dim):
        if mu[:, m].any():
            terms.append(
                SliceTerm(F, "x", mu[:, m], L.basis[m], source="complement_x_slice")
            )
    D = SliceDecomposition(
        working_field=F, dims=Tw.dims, terms=terms, r_used=r, sampled_point=A
    )
    if not verify_decomposition(Tw, D):
        raise VerificationFailed("tangent decomposition does not reconstruct the tensor")
    return D


def slice_decompose(
    T: Tensor3,
    k_work: int = 3,
    seed: int = 0,
    gr_report=None,
) -> SliceDecomposition:
    """Explicit slice decomposition over F_{q^k_work} with <= 2r + codim terms."""
    Fw = T.field.extension(k_work)
    Tw = T.lift(Fw)
    if gr_report is None:
        gr_report = geometric.geometric_rank(T, seed=seed)
    gr = gr_report.gr if gr_report.stable else None
    L = slice_space(Tw, "x")
    best = None
    for retry in range(MAX_RETRIES):
        for r in range(gr_report.argmin_r, -1, -1):  # r = 0 always succeeds: A = 0
            D = _tangent_decomposition(Tw, L, r, seed=seed + 0x517CC1B7 * retry + r)
            if D is not None:
                break
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
