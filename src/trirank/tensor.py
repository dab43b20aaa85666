"""3-tensors over finite fields and their three faces.

A tensor is stored densely as an (n1, n2, n3) array of field codes.  The same
object serves as a trilinear form, as a bilinear map (x, y) -> (f_1, ..., f_n3),
and as the matrix space spanned by its slices.

Axis convention: slices along the first (x) axis are n2 x n3 matrices, so
contracting with x gives the matrix sum_i x_i A_i.
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .errors import BadParams, DimensionMismatch, FieldMismatch, TensorFormatError
from .fields import Field, parse_field

AXES = ("x", "y", "z")


class Tensor3:
    """Immutable dense 3-tensor of field codes."""

    def __init__(self, field: Field, entries):
        entries = np.asarray(entries, dtype=np.int32)
        if entries.ndim != 3:
            raise DimensionMismatch("entries must be a 3-D array")
        if entries.size and (entries.min() < 0 or entries.max() >= field.q):
            raise FieldMismatch("entry code out of field range")
        self.field = field
        self.entries = entries
        self.entries.setflags(write=False)
        self.dims = entries.shape

    def __eq__(self, other):
        return (
            isinstance(other, Tensor3)
            and other.field == self.field
            and other.dims == self.dims
            and np.array_equal(other.entries, self.entries)
        )

    def __hash__(self):
        return hash((self.field, self.dims, self.entries.tobytes()))

    def __repr__(self):
        return f"Tensor3({self.field.designation()}, dims={self.dims})"

    @cached_property
    def summands(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Index sets (I, J, K) on x, y and z of the direct summands, as read-only arrays.

        The summands are the connected blocks of the support: T is zero outside
        the boxes I x J x K, which are disjoint on every axis.  A block grows
        from the least support x index not yet placed: I takes in every x index
        that shares a y or z index with it until it stops growing, and J and K
        are the y and z indices that I touches.  Indices outside the support are
        in no summand, so the zero tensor has none; the order is by least x
        index.  Computed once per tensor.
        """
        xy, xz = self.entries.any(axis=2), self.entries.any(axis=1)
        left = xy.any(axis=1)  # support x indices not yet placed
        parts = []
        while left.any():
            I = np.arange(len(left)) == left.argmax()
            while True:
                J, K = I @ xy, I @ xz  # boolean products: the y and z indices I touches
                grown = xy @ J | xz @ K  # x indices sharing one; holds I (I is in the support)
                if (grown == I).all():
                    break
                I = grown
            left &= ~I
            part = tuple(np.flatnonzero(s) for s in (I, J, K))
            for a in part:
                a.setflags(write=False)  # the tuple is cached: no caller may change it
            parts.append(part)
        return tuple(parts)

    def lift(self, target: Field) -> "Tensor3":
        """The same tensor over an extension of a prime field; codes are unchanged."""
        if target != self.field and (self.field.k != 1 or target.p != self.field.p):
            raise FieldMismatch(f"cannot embed {self.field!r} into {target!r}")
        return Tensor3(target, self.entries)


class MatrixSpace:
    """The span of some m x n matrices, stored as its RREF basis.

    `reduced`: the rows are already that basis (an RREF without zero rows)
    and are kept as given, with no elimination.
    """

    def __init__(self, field: Field, shape, rows, reduced: bool = False):
        self.field = field
        self.shape = tuple(shape)
        # len, not -1: a shape may hold a 0
        basis = np.asarray(rows, dtype=np.int32).reshape(len(rows), int(np.prod(self.shape)))
        if not reduced:
            basis = linalg.row_space_basis(basis, field)
        self.basis = basis.reshape(len(basis), *self.shape)
        self.basis.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def flat_basis(self) -> np.ndarray:
        return self.basis.reshape(self.dim, int(np.prod(self.shape)))


class SliceTerm:
    """One slice-rank-1 summand: linear(direction) * bilinear(other two)."""

    def __init__(self, field: Field, direction: str, linear, bilinear, source: str = ""):
        if direction not in AXES:
            raise BadParams(f"direction must be one of {AXES}")
        self.field = field
        self.direction = direction
        self.linear = np.asarray(linear, dtype=np.int32)
        self.bilinear = np.asarray(bilinear, dtype=np.int32)
        self.source = source

    def dense(self, dims) -> np.ndarray:
        """The (n1, n2, n3) coefficient array of this term."""
        a = AXES.index(self.direction)
        others = tuple(d for i, d in enumerate(dims) if i != a)
        if self.linear.shape != (dims[a],) or self.bilinear.shape != others:
            raise DimensionMismatch("slice term shape mismatch")
        product = self.field.mul[self.linear[:, None, None], self.bilinear[None]]
        return product.transpose(((0, 1, 2), (1, 0, 2), (1, 2, 0))[a])  # axis 0 moved to a


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

def slices(T: Tensor3, axis: str) -> np.ndarray:
    a = AXES.index(axis)
    return T.entries.transpose(a, *(i for i in range(3) if i != a))


def slice_space(T: Tensor3, axis: str) -> MatrixSpace:
    """Span of the slices along an axis."""
    sl = slices(T, axis)
    return MatrixSpace(T.field, sl.shape[1:], sl)


def direct_sum(T: Tensor3, S: Tensor3) -> Tensor3:
    if T.field != S.field:
        raise FieldMismatch("direct sum requires a common field")
    n1, n2, n3 = T.dims
    m1, m2, m3 = S.dims
    out = np.zeros((n1 + m1, n2 + m2, n3 + m3), dtype=np.int32)
    out[:n1, :n2, :n3] = T.entries
    out[n1:, n2:, n3:] = S.entries
    return Tensor3(T.field, out)


def sub(T: Tensor3, S: Tensor3) -> Tensor3:
    if T.field != S.field:
        raise FieldMismatch("subtraction requires a common field")
    if T.dims != S.dims:
        raise DimensionMismatch("subtraction requires equal dims")
    F = T.field
    return Tensor3(F, F.add[T.entries, F.neg[S.entries]])


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def zero_tensor(field: Field, dims) -> Tensor3:
    return Tensor3(field, np.zeros(dims, dtype=np.int32))


def identity_tensor(field: Field, n: int) -> Tensor3:
    e = np.zeros((n, n, n), dtype=np.int32)
    for i in range(n):
        e[i, i, i] = 1
    return Tensor3(field, e)


def levi_civita(field: Field) -> Tensor3:
    e = np.zeros((3, 3, 3), dtype=np.int32)
    one, minus = 1, field.neg[1]
    for (i, j, k) in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        e[i, j, k] = one
    for (i, j, k) in [(0, 2, 1), (2, 1, 0), (1, 0, 2)]:
        e[i, j, k] = minus
    return Tensor3(field, e)


def random_tensor(field: Field, dims, seed: int) -> Tensor3:
    rng = random.Random(seed)
    e = np.array(
        [rng.randrange(field.q) for _ in range(int(np.prod(dims)))], dtype=np.int32
    ).reshape(dims)
    return Tensor3(field, e)


def tk_family(field: Field, k: int) -> Tensor3:
    if k < 1:
        raise BadParams("k must be >= 1")
    T = levi_civita(field)
    out = T
    for _ in range(k - 1):
        out = direct_sum(out, T)
    return out


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _coefficient_strings(F: Field) -> tuple[str, ...]:
    """The file form of each code of F: its coefficients, low degree first, trailing 0s trimmed."""
    out = []
    for code in range(F.q):
        coeffs = list(F.coeffs(code))
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        out.append(",".join(map(str, coeffs)))
    return tuple(out)


def dumps(T: Tensor3) -> str:
    """Canonical text serialization (sorted support, trimmed coefficients)."""
    n1, n2, n3 = T.dims
    support = np.nonzero(T.entries)
    coeffs = _coefficient_strings(T.field)
    lines = [f"tensor {T.field.designation()} {n1} {n2} {n3}"]
    lines += [
        f"{i} {j} {k} {coeffs[c]}"
        for i, j, k, c in zip(*(a.tolist() for a in support), T.entries[support].tolist())
    ]
    return "\n".join(lines) + "\n"


def loads(text: str) -> Tensor3:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TensorFormatError("empty tensor file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "tensor":
        raise TensorFormatError(f"bad header: {lines[0]!r}")
    field = parse_field(header[1])
    try:
        dims = tuple(int(t) for t in header[2:5])
    except ValueError:
        raise TensorFormatError(f"bad dims in header: {lines[0]!r}") from None
    if any(d < 0 for d in dims):
        raise TensorFormatError("negative dimension")
    try:
        entries = np.zeros(dims, dtype=np.int32)
    except (ValueError, MemoryError) as exc:  # numpy's limits on array size
        raise TensorFormatError(f"dims {dims} too large: {exc}") from None
    seen = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise TensorFormatError(f"bad entry line: {ln!r}")
        try:
            i, j, k = int(parts[0]), int(parts[1]), int(parts[2])
            coeffs = [int(c) for c in parts[3].split(",")]
        except ValueError:
            raise TensorFormatError(f"bad entry line: {ln!r}") from None
        if not (0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= k < dims[2]):
            raise TensorFormatError(f"index out of range: {ln!r}")
        if (i, j, k) in seen:
            raise TensorFormatError(f"duplicate index triple: {ln!r}")
        seen.add((i, j, k))
        if len(coeffs) > field.k:
            raise TensorFormatError(f"too many coefficients: {ln!r}")
        entries[i, j, k] = field._coeffs_to_code(coeffs)
    return Tensor3(field, entries)


def load(path) -> Tensor3:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dump(T: Tensor3, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(T))
