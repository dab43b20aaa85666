from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trirank import decomp, linalg, tensor
from trirank.errors import DimensionMismatch, FieldMismatch, TensorFormatError
from trirank.fields import make_field
from trirank.rankprofile import Contraction

F3 = make_field(3)
FIELDS = (make_field(2), F3, make_field(5))


def eval_trilinear(T, x, y, z):
    """sum a_ijk x_i y_j z_k as a field code, one entry at a time."""
    F = T.field
    acc = 0
    for (i, j, k), a in np.ndenumerate(T.entries):
        acc = F.add[acc, F.mul[F.mul[a, x[i]], F.mul[y[j], z[k]]]]
    return int(acc)


def in_space(S, M):
    """M lies in the matrix space S: appending it leaves the rank at dim S."""
    stacked = np.vstack([S.flat_basis(), np.asarray(M, dtype=np.int32).ravel()])
    return linalg.rank(stacked, S.field) == S.dim


def test_levi_civita_signs_and_eval():
    T = tensor.levi_civita(F3)
    assert T.entries[0, 1, 2] == 1
    assert T.entries[0, 2, 1] == 2  # -1 over F_3
    # eps(x, y, z) = det[x; y; z]; unit vectors give the sign of the permutation
    assert eval_trilinear(T, [1, 0, 0], [0, 1, 0], [0, 0, 1]) == 1
    assert eval_trilinear(T, [0, 1, 0], [1, 0, 0], [0, 0, 1]) == 2
    assert eval_trilinear(T, [1, 0, 0], [1, 0, 0], [0, 0, 1]) == 0


def contract(T, axis, x):
    """sum_i x_i A_i over the slices along an axis, through the one contraction."""
    C = Contraction(tensor.slices(T, axis), T.field)
    return C(np.array([x], dtype=np.int32))[0]


def test_contract_matches_slice_sum():
    T = tensor.random_tensor(F3, (3, 2, 4), seed=1)
    x = np.array([1, 2, 0], dtype=np.int32)
    M = contract(T, "x", x)
    expected = F3.add[T.entries[0], F3.mul[2, T.entries[1]]]
    assert np.array_equal(M, expected)
    assert M.shape == (2, 4)


def test_contract_other_axes():
    T = tensor.random_tensor(F3, (2, 3, 4), seed=2)
    My = contract(T, "y", [0, 1, 0])
    assert np.array_equal(My, T.entries[:, 1, :])
    Mz = contract(T, "z", [0, 0, 0, 1])
    assert np.array_equal(Mz, T.entries[:, :, 3])


def test_slice_space_drops_dependent_slices():
    e = np.zeros((2, 2, 2), dtype=np.int32)
    e[0, 0, 0] = 1
    e[1, 0, 0] = 2  # second slice is twice the first
    S = tensor.slice_space(tensor.Tensor3(F3, e), "x")
    assert S.dim == 1
    assert in_space(S, np.array([[2, 0], [0, 0]]))
    assert not in_space(S, np.array([[0, 1], [0, 0]]))


def test_matrix_space_holds_the_span_in_rref():
    rng = np.random.default_rng(8)
    for F in (F3, make_field(5), make_field(3, 2)):
        for shape in ((2, 3), (3, 3), (1, 4)):
            size = int(np.prod(shape))
            for _ in range(10):
                rows = rng.integers(0, F.q, size=(3, size)).astype(np.int32)
                combo = linalg.mat_mul(rng.integers(0, F.q, size=(2, 3)), rows, F)
                given = np.vstack([rows, combo, rows[:1]])  # dependent and repeated
                S = tensor.MatrixSpace(F, shape, given.reshape(-1, *shape))
                R, pivots = linalg.rref(given, F)
                assert S.dim == linalg.rank(given, F) == len(pivots)
                assert np.array_equal(S.flat_basis(), R[: len(pivots)])
                assert S.basis.shape == (S.dim, *shape)
    for shape in ((0, 3), (2, 0)):  # zero-size: every matrix is the empty one
        S = tensor.MatrixSpace(F3, shape, np.zeros((4, *shape), dtype=np.int32))
        assert S.dim == 0 and S.basis.shape == (0, *shape)
    S = tensor.MatrixSpace(F3, (2, 2), np.zeros((0, 2, 2), dtype=np.int32))
    assert S.dim == 0 and S.flat_basis().shape == (0, 4)


def test_zero_space_flat_basis():
    zero = np.zeros((2, 3), dtype=np.int32)
    for S in (
        tensor.slice_space(tensor.zero_tensor(F3, (2, 2, 3)), "x"),
        tensor.MatrixSpace(F3, zero.shape, decomp._sylvester_matrix(zero).T),
    ):
        assert S.dim == 0 and S.flat_basis().shape == (0, 6)
        assert in_space(S, np.zeros((2, 3))) and not in_space(S, np.eye(2, 3))


def gl_act(T, axis, M):
    """T with the slices along `axis` replaced by A'_i = sum_l M_il A_l."""
    a = tensor.AXES.index(axis)
    out = linalg.mat_mul(M, np.moveaxis(T.entries, a, 1), T.field)
    return tensor.Tensor3(T.field, np.moveaxis(out, 1, a))


def test_gl_act_preserves_rank_data():
    T = tensor.levi_civita(F3)
    M = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int32)
    T2 = gl_act(T, "x", M)
    assert tensor.slice_space(T2, "x").dim == tensor.slice_space(T, "x").dim


def test_gl_act_slices_are_combinations():
    T = tensor.random_tensor(F3, (3, 3, 3), seed=3)
    M = np.array([[1, 2, 0], [0, 1, 0], [1, 0, 1]], dtype=np.int32)
    T2 = gl_act(T, "x", M)
    for i in range(3):
        acc = np.zeros((3, 3), dtype=np.int32)
        for l in range(3):
            acc = F3.add[acc, F3.mul[M[i, l], T.entries[l]]]
        assert np.array_equal(T2.entries[i], acc)


def test_direct_sum_block_structure():
    T = tensor.identity_tensor(F3, 2)
    S = tensor.levi_civita(F3)
    D = tensor.direct_sum(T, S)
    assert D.dims == (5, 5, 5)
    assert np.array_equal(D.entries[:2, :2, :2], T.entries)
    assert np.array_equal(D.entries[2:, 2:, 2:], S.entries)
    assert not D.entries[:2, 2:, :].any()


def test_direct_summand_counts():
    counts = {
        "T_2": tensor.tk_family(F3, 2),
        "identity_4": tensor.identity_tensor(F3, 4),
        "levi_civita": tensor.levi_civita(F3),
        "zero": tensor.zero_tensor(F3, (2, 3, 2)),
        "zero dim": tensor.zero_tensor(F3, (2, 0, 3)),
    }
    assert {name: len(T.summands) for name, T in counts.items()} == {
        "T_2": 2, "identity_4": 4, "levi_civita": 1, "zero": 0, "zero dim": 0,
    }
    I, J, K = tensor.tk_family(F3, 2).summands[1]
    assert I.tolist() == J.tolist() == K.tolist() == [3, 4, 5]


def summand_lists(e):
    return [tuple(s.tolist() for s in part) for part in tensor.Tensor3(F3, e).summands]


def test_direct_summands_join_through_either_projection():
    # x0 and x1 share only z2, then only y2; the other y and z indices split them
    e = np.zeros((2, 3, 3), dtype=np.int32)
    e[0, 0, 2] = e[1, 1, 2] = 1
    assert summand_lists(e) == [([0, 1], [0, 1], [2])]
    assert summand_lists(e.transpose(0, 2, 1)) == [([0, 1], [2], [0, 1])]
    # blocks come in order of least x index, whatever their y and z indices
    e = np.zeros((3, 3, 3), dtype=np.int32)
    e[0, 2, 1] = e[2, 0, 0] = 1
    assert summand_lists(e) == [([0], [2], [1]), ([2], [0], [0])]


@st.composite
def permuted_direct_sums(draw):
    """A direct sum of up to 4 random blocks (some 0-size), zero-padded, each axis permuted."""
    F = draw(st.sampled_from(FIELDS))
    blocks = draw(st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=4))
    pad = draw(st.tuples(*[st.integers(0, 2)] * 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    e = np.zeros([sum(b[a] for b in blocks) + pad[a] for a in range(3)], dtype=np.int32)
    corner = np.zeros(3, dtype=int)
    for b in blocks:
        density = rng.random()
        e[tuple(slice(c, c + d) for c, d in zip(corner, b))] = np.where(
            rng.random(b) < density, rng.integers(1, F.q, b), 0
        )
        corner += b
    for a in range(3):
        e = np.take(e, rng.permutation(e.shape[a]), axis=a)
    return tensor.Tensor3(F, e)


def connected_indices(triples):
    """The x, y and z indices reached from the first triple through triples sharing an index."""
    seen, todo = {0}, deque([0])
    while todo:
        t = triples[todo.popleft()]
        for n, u in enumerate(triples):
            if n not in seen and any(a == b for a, b in zip(t, u)):
                seen.add(n)
                todo.append(n)
    return [sorted({triples[n][a] for n in seen}) for a in range(3)]


@settings(max_examples=60, deadline=None)
@given(T=permuted_direct_sums())
def test_summands_are_the_connected_blocks_of_the_support(T):
    covered = np.zeros(T.dims, dtype=bool)
    for I, J, K in T.summands:
        box = np.zeros(T.dims, dtype=bool)
        box[np.ix_(I, J, K)] = True
        covered |= box
        # connected, and every index of the block is reached through the support
        triples = np.argwhere(box & (T.entries != 0)).tolist()
        assert connected_indices(triples) == [I.tolist(), J.tolist(), K.tolist()]
    assert not T.entries[~covered].any()
    for a in range(3):  # disjoint boxes on every axis
        placed = [int(i) for part in T.summands for i in part[a]]
        assert len(placed) == len(set(placed))
    firsts = [int(I[0]) for I, _, _ in T.summands]
    assert firsts == sorted(firsts)


def test_summands_are_computed_once_and_read_only():
    T = tensor.tk_family(F3, 2)
    parts = T.summands
    assert T.summands is parts
    assert len(parts) == 2
    for part in parts:
        for s in part:
            with pytest.raises(ValueError):
                s[0] = 1
    assert [p[0].tolist() for p in T.summands] == [[0, 1, 2], [3, 4, 5]]


def test_zero_size_axis_has_a_slice_space():
    T = tensor.zero_tensor(F3, (2, 0, 3))
    assert [tensor.slice_space(T, axis).dim for axis in "xyz"] == [0, 0, 0]
    assert tensor.slice_space(T, "x").basis.shape == (0, 0, 3)


F9 = make_field(3, 2)
ALPHA = 3  # the class of t in F_9, outside F_3


@st.composite
def small_tensors(draw):
    F = draw(st.sampled_from([make_field(2), F3, F9, make_field(5)]))
    dims = tuple(draw(st.integers(0, 4)) for _ in range(3))
    size = int(np.prod(dims))
    entries = draw(st.lists(st.integers(0, F.q - 1), min_size=size, max_size=size))
    return tensor.Tensor3(F, np.array(entries, dtype=np.int32).reshape(dims))


@settings(max_examples=80, deadline=None)
@given(T=small_tensors())
@example(T=tensor.zero_tensor(F3, (2, 0, 3)))
# slices (1, t) and (t, t^2): dependent over F_9, not over F_3 digit by digit
@example(T=tensor.Tensor3(F9, [[[1, ALPHA]], [[ALPHA, int(F9.mul[ALPHA, ALPHA])]]]))
def test_slice_dims_are_the_slice_space_dims(T):
    assert tensor.slice_dims(T) == [tensor.slice_space(T, axis).dim for axis in "xyz"]


def test_sub_and_zero():
    T = tensor.random_tensor(F3, (2, 2, 2), seed=4)
    assert tensor.sub(T, T).is_zero()
    with pytest.raises(DimensionMismatch):
        tensor.sub(T, tensor.identity_tensor(F3, 3))


def test_tk_family_sizes():
    T2 = tensor.tk_family(F3, 2)
    assert T2.dims == (6, 6, 6)
    assert np.array_equal(T2.entries[:3, :3, :3], tensor.levi_civita(F3).entries)


def test_entry_code_validation():
    with pytest.raises(FieldMismatch):
        tensor.Tensor3(F3, np.full((1, 1, 1), 3, dtype=np.int32))


def test_file_format_round_trip():
    for T in [
        tensor.levi_civita(F3),
        tensor.random_tensor(make_field(3, 2), (2, 3, 2), seed=5),
        tensor.zero_tensor(F3, (2, 2, 2)),
    ]:
        assert tensor.loads(tensor.dumps(T)) == T


def test_file_format_header_and_coeffs():
    text = tensor.dumps(tensor.identity_tensor(F3, 2))
    lines = text.strip().splitlines()
    assert lines[0] == "tensor 3^1 2 2 2"
    assert lines[1] == "0 0 0 1"
    # coefficients are reduced mod p, negative ones too; missing high ones are 0
    T = tensor.loads("tensor 3^2 1 1 3\n0 0 0 -1,2\n0 0 1 4\n0 0 2 0,-2\n")
    assert T.entries.tolist() == [[[2 + 2 * 3, 1, 1 * 3]]]


def test_file_format_errors():
    with pytest.raises(TensorFormatError):
        tensor.loads("")
    with pytest.raises(TensorFormatError):
        tensor.loads("matrix 3^1 2 2 2\n")
    with pytest.raises(TensorFormatError):
        tensor.loads("tensor 3^1 2 2 2\n5 0 0 1\n")
    with pytest.raises(TensorFormatError):
        tensor.loads("tensor 3^1 2 2 2\n0 0 0 1\n0 0 0 2\n")


def test_slice_term_dense_orientations():
    term = tensor.SliceTerm(F3, "x", [1, 0], np.array([[1, 2], [0, 1]]))
    dense = term.dense((2, 2, 2))
    assert np.array_equal(dense[0], [[1, 2], [0, 1]])
    assert not dense[1].any()
    term_y = tensor.SliceTerm(F3, "y", [0, 1], np.array([[1, 0], [0, 2]]))
    dense_y = term_y.dense((2, 2, 2))
    assert np.array_equal(dense_y[:, 1, :], [[1, 0], [0, 2]])
    with pytest.raises(DimensionMismatch):
        term.dense((3, 2, 2))


@pytest.mark.parametrize("direction", tensor.AXES)
def test_slice_term_dense_is_linear_times_bilinear(direction):
    rng = np.random.default_rng(11)
    a = tensor.AXES.index(direction)
    random_dims = [tuple(int(d) for d in rng.integers(1, 4, 3)) for _ in range(4)]
    for F in (F3, make_field(5), make_field(3, 2)):
        for dims in random_dims + [(2, 0, 3), (0, 2, 2)]:
            others = [d for i, d in enumerate(dims) if i != a]
            linear, bilinear = rng.integers(0, F.q, dims[a]), rng.integers(0, F.q, others)
            term = tensor.SliceTerm(F, direction, linear, bilinear)
            dense = term.dense(dims)
            assert dense.shape == dims
            for idx in np.ndindex(*dims):
                rest = tuple(v for i, v in enumerate(idx) if i != a)
                assert dense[idx] == F.mul[linear[idx[a]], bilinear[rest]]
            for axis in range(3):  # one wrong dim, on the linear or the bilinear side
                bad = list(dims)
                bad[axis] += 1
                with pytest.raises(DimensionMismatch):
                    term.dense(tuple(bad))
