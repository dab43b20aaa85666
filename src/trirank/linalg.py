"""Gaussian elimination and subspace operations over table-driven finite fields.

Matrices are 2-D numpy arrays of field codes.  ``mat_mul`` is the package's
one matrix product over F: every contraction sum_i x_i A_i, the slice-rank
forms and the decomposition's products are its calls.  ``batched_rank``
ranks a whole stack of matrices at once, which is what makes exhaustive
rank-stratum counting affordable; its elimination swaps no rows (a rank
needs no echelon form).  ``batched_rref`` gives each matrix of a stack its
``rref``, row swaps and pivots included, placing one pivot row in every
matrix per step.  No rank here is read from a determinant: ``rankprofile``
alone decides where one stands in for an elimination.
"""

from __future__ import annotations

import numpy as np

from .fields import Field


def as_matrix(M) -> np.ndarray:
    A = np.asarray(M, dtype=np.int32)
    if A.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return A


def rref(M, F: Field):
    """Reduced row echelon form; returns (R, pivot_columns).  One lookup clears a pivot column."""
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
        R[r, c:] = F.mul[F.inv[R[r, c]], R[r, c:]]
        factors = F.neg[R[:, c]]
        factors[r] = 0
        R[:, c:] = F.add[R[:, c:], F.mul[factors[:, None], R[r, c:]]]  # R[r, :c] = 0
        pivots.append(c)
        r += 1
    return R, pivots


def rank(M, F: Field) -> int:
    return len(rref(M, F)[1])


def row_space_basis(rows, F: Field) -> np.ndarray:
    """Independent spanning subset, in RREF (canonical for the row space)."""
    R, pivots = rref(rows, F)
    return R[: len(pivots)].copy()


def mat_mul(A, B, F: Field) -> np.ndarray:
    """A @ B over F, with np.matmul shape rules: the package's one product over F.

    Over a prime field, one integer product reduced mod p.  Over an extension,
    a 2-D B is shared by every row x of A, as in a contraction sum_i x_i B_i:
    the sums over the first j indices are tabulated for the largest j with
    q^j <= the rows of A, and each further index adds x_i B_i by a row gather
    from a table of the multiples of B_i and one add lookup.  A batched B
    takes one mul and one add lookup per inner index.  Both operands are at
    least 2-D; batch axes broadcast, and an empty inner axis gives zeros.
    """
    # intp, since take is several times faster on intp indices than on int32 ones
    A, B = np.asarray(A, dtype=np.intp), np.asarray(B, dtype=np.int32)
    if A.ndim < 2 or B.ndim < 2 or A.shape[-1] != B.shape[-2]:
        raise ValueError(f"cannot multiply shapes {A.shape} and {B.shape}")
    if F.k == 1:  # one integer product: a sum of t terms is at most t (p - 1)^2 < 2^63
        return (np.matmul(A, B, dtype=np.int64) % F.p).astype(np.int32)
    q, (n, cols), add = F.q, B.shape[-2:], F.add.ravel()
    if B.ndim == 2:
        X = A.reshape(int(np.prod(A.shape[:-1])), n)  # sized: numpy cannot resolve -1 at 0 rows
        multiples = F.mul[np.arange(q)[:, None], B[:, None]].astype(np.intp)  # [i, c] = c B_i
        j, low = 0, np.zeros((1, cols), dtype=np.int32)
        while j < n and q ** (j + 1) <= len(X):
            # low[x] = sum_{i <= j} x_i B_i, with index j the most significant
            low = add.take(multiples[j][:, None] * q + low[None]).reshape(q ** (j + 1), cols)
            j += 1
        acc = low[X[:, :j] @ q ** np.arange(j)]
        for i in range(j, n):
            idx = multiples[i][X[:, i]]
            idx += acc * q  # in place: one intp array per step bounds peak memory
            acc = add.take(idx)
        return acc.reshape(A.shape[:-1] + (cols,))
    mul = F.mul.ravel()
    shape = np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (A.shape[-2], cols)
    acc = np.zeros(shape, dtype=np.int32)
    for t in range(n):
        acc = add.take(acc * q + mul.take(A[..., :, t, None] * q + B[..., None, t, :]))
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
    of steps that found a pivot.  No row is swapped: a rank needs no echelon
    form.  The input is not written.
    """
    Ms = np.asarray(Ms, dtype=np.int32)
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


def batched_rref(Ms, F: Field):
    """``rref`` of every matrix of a stack (N, m, n): (R stacked, list of pivot lists).

    Step t places pivot row t in every matrix at once.  Its pivot column c is
    the first column with a nonzero entry at or below row t; the first such
    row is swapped up to row t, scaled to a leading 1 and cleared from every
    other row: ``rref``'s step with its arithmetic, so each matrix's result
    is ``rref``'s.  A matrix whose rows from t on are all zero takes the same
    step with a zero pivot row, which changes nothing.  Every pivot row is
    zero left of the step's least pivot column, so only the columns from it
    on are updated.  The pass ends when no matrix has a pivot left, after at
    most min(m, n) steps.  The input is not written.
    """
    R = np.array(Ms, dtype=np.int32)  # a copy
    N, m, n = R.shape
    q, mul, add = F.q, F.mul.ravel(), F.add.ravel()
    stack, cols = np.arange(N), []  # cols[t]: step t's pivot column in every matrix
    for t in range(min(m, n)):
        in_col = R[:, t:].any(axis=1)
        if not in_col.any():
            break
        c = in_col.argmax(axis=1)  # column 0 where no pivot is left: rows t on are zero
        cols.append(c)
        lo = in_col.any(axis=0).argmax()  # the least pivot column
        i = t + (R[stack, t:, c] != 0).argmax(axis=1)
        pivot = R[stack, i]  # the row swapped up (a copy)
        R[stack, i] = R[:, t]
        pivot = mul.take(F.inv.take(pivot[stack, c])[:, None] * q + pivot[:, lo:])  # inv[0] = 0
        factors = F.neg.take(R[stack, :, c])
        factors[:, t] = 0
        # delta before R[:, :, lo:] * q: in one expression a (200, 36, 84) stack takes 1.5x as long
        delta = mul.take(factors[:, :, None] * q + pivot[:, None])
        R[:, :, lo:] = add.take(R[:, :, lo:] * q + delta)
        R[:, t, lo:] = pivot
    ranks = (R != 0).any(axis=2).sum(axis=1)  # a matrix's pivot steps come first
    cols = np.array(cols, dtype=np.intp).reshape(len(cols), N).T
    return R, [p[:r].tolist() for p, r in zip(cols, ranks)]
