"""Reference linear algebra for the tests: kernels, solves, contractions and tangent spaces.

``kernel_basis``, ``solve`` and ``table_contraction`` are the scalar
references the stacked routes of ``trirank`` are checked against; the
package itself needs none of them.
The tests check ``decomp._sylvester_matrix``, the tangent map the
decomposition uses, against the Jacobian of the minors that cut out each
determinantal variety.  Polynomials are ``variety``'s sparse dicts
{exponent tuple: nonzero code}.
"""

import numpy as np

from trirank import linalg, variety


def kernel_basis(M, F) -> np.ndarray:
    """Basis of {v : Mv = 0} as rows of a (d, n) array."""
    R, pivots = linalg.rref(M, F)
    n = R.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int32)
    for row, f in enumerate(free):
        basis[row, f] = 1
        for i, pc in enumerate(pivots):
            basis[row, pc] = F.neg[R[i, f]]
    return basis


def table_contraction(A, F, X):
    """sum_i x_i A_i by field-table lookups, one coordinate at a time."""
    Ms = np.zeros((X.shape[0],) + A.shape[1:], dtype=np.int32)
    for i in range(A.shape[0]):
        Ms = F.add[Ms, F.mul[X[:, i][:, None, None], A[i][None, :, :]]]
    return Ms


def solve(M, b, F):
    """One solution of Mx = b (free variables set to 0), or None.

    A 2-D b is solved column by column in one elimination; None if any
    column has no solution.
    """
    M = linalg.as_matrix(M)
    b = np.asarray(b, dtype=np.int32)
    B = b[:, None] if b.ndim == 1 else b
    R, pivots = linalg.rref(np.hstack([M, B]), F)
    n = M.shape[1]
    if pivots and pivots[-1] >= n:  # a pivot in the right-hand side
        return None
    x = np.zeros((n, B.shape[1]), dtype=np.int32)
    x[pivots] = R[: len(pivots), n:]
    return x[:, 0] if b.ndim == 1 else x


def poly_partial(a, i: int, F):
    """Formal partial derivative; exponents reduce mod p (d(x^p)/dx = 0)."""
    out = {}
    for e, c in a.items():
        if e[i] == 0:
            continue
        scalar = e[i] % F.p
        if scalar == 0:
            continue
        coeff = int(F.mul[c, scalar])  # small residues are valid codes
        if not coeff:
            continue
        ne = list(e)
        ne[i] -= 1
        out[tuple(ne)] = coeff
    return out


def _value(a, point, F) -> int:
    """The polynomial a at a point, by scalar field lookups."""
    powtbl = F.pow_table(max(1, variety.poly_degree(a)))
    acc = 0
    for e, c in a.items():
        term = c
        for x, ex in zip(point, e):
            if ex:
                term = F.mul[term, powtbl[x, ex]]
        acc = F.add[acc, term]
    return int(acc)


def jacobian_tangent(S, point) -> np.ndarray:
    """Kernel of the Jacobian of the given generators at a common zero.

    Returns a basis (rows) of the tangent space at the point, over the
    system's field.  Uses the supplied generators, which can overestimate the
    tangent space at non-radical presentations.  A point of the wrong length
    or off the variety raises ValueError.
    """
    F = S.field
    point = [int(x) for x in point]
    if len(point) != S.nvars:
        raise ValueError("point has wrong number of coordinates")
    if any(_value(p, point, F) for p in S.polys):
        raise ValueError("point is not a common zero of the system")
    J = np.zeros((len(S.polys), S.nvars), dtype=np.int32)
    for r, p in enumerate(S.polys):
        for i in range(S.nvars):
            J[r, i] = _value(poly_partial(p, i, F), point, F)
    return kernel_basis(J, F)
