"""Exact arithmetic in F_p and F_{p^k}.

Elements are represented by integer codes in [0, q).  The code of an element
with power-basis coefficients (c0, c1, ..., c_{k-1}) (low degree first) is
sum(c_i * p**i), so base-field scalars embed as their own residues.  All bulk
arithmetic goes through precomputed numpy tables, which keeps the enumeration
kernels in the rest of the package vectorizable.

The tables follow from the modulus by linear algebra over F_p.  The modulus
is the lex-least monic irreducible of degree k, found by trial division.
Addition is digitwise mod p.  Multiplication by alpha, the class of t, maps
digit rows by b -> b C, where C is the companion matrix of the modulus, so
digits(a b) = sum_i a_i digits(b) C^i mod p (the regular representation).
The inverse of a != 0 is the code b with a b = 1.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import DegreeOutOfBudget, FieldMismatch, NotPrime

MAX_Q = 3 ** 6  # largest field order; keeps the q x q tables small


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - c * mi) % p
        a.pop()
    return _poly_trim(a)


def _is_irreducible(m, p):
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    deg = len(m) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            divisor = list(lower) + [1]
            # remainder of m mod divisor
            if not _poly_mod(m, divisor, p):
                return False
    return True


def _lex_least_irreducible(p, k):
    """Lex-least monic irreducible of degree k over F_p (coeffs low-to-high)."""
    for lower in itertools.product(range(p), repeat=k):
        m = list(lower) + [1]
        if _is_irreducible(m, p):
            return tuple(m)
    raise AssertionError("no irreducible polynomial found")  # cannot happen


class Field:
    """A finite field F_{p^k} with table-driven exact arithmetic.

    Immutable after construction; safe to share across workers.
    """

    def __init__(self, p: int, k: int):
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if not 1 <= k <= 6:
            raise DegreeOutOfBudget(f"extension degree {k} outside [1, 6]")
        q = p ** k
        if q > MAX_Q:
            raise DegreeOutOfBudget(f"q = {p}^{k} = {q} exceeds budget {MAX_Q}")
        self.p = p
        self.k = k
        self.q = q
        if k == 1:
            self.modulus = (0, 1)  # placeholder: elements are residues mod p
        else:
            self.modulus = _lex_least_irreducible(p, k)
        self._build_tables()

    # -- construction of arithmetic tables ---------------------------------

    def _coeffs_to_code(self, coeffs):
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + (c % self.p)
        return code

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        digits = np.zeros((q, k), dtype=np.int64)
        rem = np.arange(q)
        for i in range(k):
            digits[:, i] = rem % p
            rem //= p
        # int32 digits halve the (q, q, k) transients; codes are weighted by one product
        d = digits.astype(np.int32)
        weights = p ** np.arange(k, dtype=np.int32)
        # addition: digitwise mod p
        self.add = ((d[:, None, :] + d[None, :, :]) % p) @ weights
        self.neg = ((-d) % p) @ weights
        # multiplication: digits(a b) = sum_i a_i digits(alpha^i b) mod p, where
        # digits(alpha b) = digits(b) C for the companion matrix C of the modulus
        C = np.eye(k, k, 1, dtype=np.int32)
        C[-1] = (-np.asarray(self.modulus[:k])) % p
        shifted = [d]  # shifted[i][b] = digits(alpha^i b)
        for _ in range(k - 1):
            shifted.append(shifted[-1] @ C % p)
        prod = d @ np.stack(shifted).reshape(k, q * k)  # prod[a, (b, digit)]
        self.mul = (prod.reshape(q, q, k) % p) @ weights
        self.inv = np.argmax(self.mul == 1, axis=1).astype(np.int32)  # inv[0] = 0
        self._digits = digits
        for t in (self.add, self.neg, self.mul, self.inv):
            t.setflags(write=False)
        self._pow_cache = {}

    # -- element-level API --------------------------------------------------

    def coeffs(self, code: int):
        return tuple(int(c) for c in self._digits[int(code)])

    def add_codes(self, a, b):
        return int(self.add[a, b])

    def mul_codes(self, a, b):
        return int(self.mul[a, b])

    def neg_code(self, a):
        return int(self.neg[a])

    def pow_table(self, max_exp: int) -> np.ndarray:
        """(q, max_exp+1) table of a^e for all codes a and 0 <= e <= max_exp."""
        if max_exp not in self._pow_cache:
            tbl = np.zeros((self.q, max_exp + 1), dtype=np.int32)
            tbl[:, 0] = 1
            for e in range(1, max_exp + 1):
                tbl[:, e] = self.mul[tbl[:, e - 1], np.arange(self.q)]
            tbl.setflags(write=False)
            self._pow_cache[max_exp] = tbl
        return self._pow_cache[max_exp]

    # -- relationships ------------------------------------------------------

    def extension(self, m: int) -> "Field":
        """The degree-m extension.  Only prime base fields can be extended."""
        if m == 1:
            return self
        if self.k != 1:
            raise FieldMismatch("extension towers are only built over prime fields")
        return make_field(self.p, m)

    def designation(self) -> str:
        return f"{self.p}^{self.k}"

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"Field({self.p}^{self.k})"


@functools.lru_cache(maxsize=None)
def _make_field_cached(p, k):
    return Field(p, k)


def make_field(p: int, k: int = 1) -> Field:
    """F_{p^k} with the lex-least monic irreducible modulus (deterministic)."""
    return _make_field_cached(p, k)


def parse_field(designation: str) -> Field:
    """Parse a 'p^k' (or bare 'p') field designation string."""
    text = designation.strip()
    if "^" in text:
        p_str, k_str = text.split("^", 1)
    else:
        p_str, k_str = text, "1"
    try:
        p, k = int(p_str), int(k_str)
    except ValueError:
        raise FieldMismatch(f"bad field designation {designation!r}") from None
    return make_field(p, k)
