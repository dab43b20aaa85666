"""Reference tangent spaces: the kernel of the Jacobian of a polynomial system.

The tests check ``decomp._sylvester_matrix``, the tangent map the
decomposition uses, against the Jacobian of the minors that cut out each
determinantal variety.  Polynomials are ``variety``'s sparse dicts
{exponent tuple: nonzero code}.
"""

import numpy as np

from trirank import linalg, variety


def poly_partial(a, i: int, F):
    """Formal partial derivative; exponents reduce mod p (d(x^p)/dx = 0)."""
    out = {}
    for e, c in a.items():
        if e[i] == 0:
            continue
        scalar = e[i] % F.p
        if scalar == 0:
            continue
        coeff = F.mul_codes(c, scalar)  # small residues are valid codes
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
                term = F.mul_codes(term, int(powtbl[x, ex]))
        acc = F.add_codes(acc, term)
    return acc


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
    return linalg.kernel_basis(J, F)
