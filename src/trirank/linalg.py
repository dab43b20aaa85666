"""Gaussian elimination and subspace operations over table-driven finite fields.

Matrices are 2-D numpy arrays of field codes.  ``batched_rank`` eliminates a
whole stack of matrices at once and swaps no rows (a rank needs no echelon
form), which is what makes exhaustive rank-stratum counting affordable.
"""

from __future__ import annotations

import numpy as np

from .fields import Field

RANK_CHUNK = 1 << 15  # matrices eliminated at once by batched_rank (bounds peak memory)


def as_matrix(M) -> np.ndarray:
    A = np.asarray(M, dtype=np.int32)
    if A.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return A


def rref(M, F: Field):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = as_matrix(M).copy()
    m, n = R.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = F.mul[F.inv[R[r, c]], R[r]]
        for j in np.nonzero(R[:, c])[0]:
            if j != r:
                R[j] = F.add[R[j], F.mul[F.neg[R[j, c]], R[r]]]
        pivots.append(c)
        r += 1
    return R, pivots


def rank(M, F: Field) -> int:
    return len(rref(M, F)[1])


def kernel_basis(M, F: Field) -> np.ndarray:
    """Basis of {v : Mv = 0} as rows of a (d, n) array."""
    R, pivots = rref(M, F)
    n = R.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int32)
    for row, f in enumerate(free):
        basis[row, f] = 1
        for i, pc in enumerate(pivots):
            basis[row, pc] = F.neg[R[i, f]]
    return basis


def solve(M, b, F: Field):
    """One solution of Mx = b (free variables set to 0), or None.

    A 2-D b is solved column by column in one elimination; None if any
    column has no solution.
    """
    M = as_matrix(M)
    b = np.asarray(b, dtype=np.int32)
    B = b[:, None] if b.ndim == 1 else b
    R, pivots = rref(np.hstack([M, B]), F)
    n = M.shape[1]
    if pivots and pivots[-1] >= n:  # a pivot in the right-hand side
        return None
    x = np.zeros((n, B.shape[1]), dtype=np.int32)
    x[pivots] = R[: len(pivots), n:]
    return x[:, 0] if b.ndim == 1 else x


def row_space_basis(rows, F: Field) -> np.ndarray:
    """Independent spanning subset, in RREF (canonical for the row space)."""
    R, pivots = rref(rows, F)
    return R[: len(pivots)].copy()


def mat_mul(A, B, F: Field) -> np.ndarray:
    """A @ B over F by table lookup, with np.matmul shape rules.

    Both operands are at least 2-D; leading batch axes broadcast, and an empty
    inner axis gives zeros.
    """
    A, B = np.asarray(A, dtype=np.int32), np.asarray(B, dtype=np.int32)
    if A.ndim < 2 or B.ndim < 2 or A.shape[-1] != B.shape[-2]:
        raise ValueError(f"cannot multiply shapes {A.shape} and {B.shape}")
    shape = np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (A.shape[-2], B.shape[-1])
    acc = np.zeros(shape, dtype=np.int32)
    for t in range(A.shape[-1]):
        acc = F.add[acc, F.mul[A[..., :, t, None], B[..., None, t, :]]]
    return acc


# ---------------------------------------------------------------------------
# batched elimination
# ---------------------------------------------------------------------------

def batched_rank(Ms, F: Field) -> np.ndarray:
    """Ranks of a stack of matrices, shape (N, m, n) -> (N,).

    Runs min(m, n) steps over the shorter axis.  A step takes, in each matrix,
    the first row with a nonzero entry in the first column as the pivot,
    scales it to a leading 1, adds -a_j times it to every row j (a_j being
    row j's first entry), and drops the first column; the rank is the number
    of steps that found a pivot.  The input is not written.
    """
    Ms = np.asarray(Ms, dtype=np.int32)
    N = Ms.shape[0]
    out = np.empty(N, dtype=np.int64)
    for start in range(0, N, RANK_CHUNK):
        out[start : start + RANK_CHUNK] = _batched_rank_chunk(Ms[start : start + RANK_CHUNK], F)
    return out


def _batched_rank_chunk(Ms, F: Field) -> np.ndarray:
    if Ms.shape[1] < Ms.shape[2]:
        Ms = Ms.transpose(0, 2, 1)  # loop over the shorter axis
    N, m, n = Ms.shape
    q, mul, add = F.q, F.mul.ravel(), F.add.ravel()
    stack = np.arange(N)
    r = np.zeros(N, dtype=np.int64)
    for _ in range(n):
        col = Ms[:, :, 0]
        pivot = Ms[stack, np.argmax(col != 0, axis=1)]  # first nonzero row, or row 0
        lead = pivot[:, 0]
        # a matrix with no pivot has lead = 0 and inv[0] = 0, so its update is zero
        pivot_row = mul.take(F.inv.take(lead)[:, None] * q + pivot[:, 1:])
        delta = mul.take(F.neg.take(col)[:, :, None] * q + pivot_row[:, None, :])
        Ms = add.take(Ms[:, :, 1:] * q + delta)  # zeroes the pivot row; column 0 is done
        r += lead != 0
    return r
