import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trirank import linalg
from trirank.fields import make_field, parse_field
from trirank.rankprofile import CHUNK

from jacobian_reference import kernel_basis, solve, table_contraction

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)
F4 = make_field(2, 2)
F8 = make_field(2, 3)
F9 = make_field(3, 2)
F27 = make_field(3, 3)
F49 = make_field(7, 2)


def random_matrix(F, m, n, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, F.q, size=(m, n)).astype(np.int32)


def loop_mat_mul(A, B, F):
    """2-D product over F, one inner index at a time: the reference for mat_mul."""
    acc = np.zeros((A.shape[0], B.shape[1]), dtype=np.int32)
    for t in range(A.shape[1]):
        acc = F.add[acc, F.mul[A[:, t][:, None], B[t][None, :]]]
    return acc


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mat_mul_broadcasts_like_matmul(data):
    # prime fields take one integer product; extensions a multiples table when
    # B is 2-D and a lookup per inner index when B is batched: each must equal
    # the loop reference
    F = data.draw(st.sampled_from([F2, F3, F5, F7, F8, F9]))
    m, k, n = (data.draw(st.integers(0, 3), label=s) for s in "mkn")  # k = 0: empty inner axis
    batch = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2), label="batch"))
    # the other operand's batch axes: a suffix of these, each kept or set to 1
    suffix = batch[data.draw(st.integers(0, len(batch)), label="cut"):]
    other = tuple(d if data.draw(st.booleans()) else 1 for d in suffix)
    batch_a, batch_b = (batch, other) if data.draw(st.booleans(), label="swap") else (other, batch)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    A = rng.integers(0, F.q, size=batch_a + (m, k)).astype(np.int32)
    B = rng.integers(0, F.q, size=batch_b + (k, n)).astype(np.int32)
    out = linalg.mat_mul(A, B, F)
    assert out.shape == np.broadcast_shapes(batch_a, batch_b) + (m, n)
    assert out.dtype == np.int32
    A, B = np.broadcast_to(A, batch + (m, k)), np.broadcast_to(B, batch + (k, n))
    for idx in np.ndindex(batch):
        assert np.array_equal(out[idx], loop_mat_mul(A[idx], B[idx], F))
    if F.k == 1:
        assert np.array_equal(out, (A.astype(np.int64) @ B) % F.p)


def test_prime_mat_mul_is_exact_on_long_inner_axes():
    # 5,000 products of (p - 1)^2 each, p = 727: the integer sum is reduced once
    F = make_field(727)
    A = np.full((2, 5000), F.p - 1, dtype=np.int32)
    B = np.random.default_rng(0).integers(0, F.q, size=(5000, 3)).astype(np.int32)
    B[:, 0] = F.p - 1
    assert np.array_equal(linalg.mat_mul(A, B, F), loop_mat_mul(A, B, F))


@settings(max_examples=40, deadline=None)
@given(
    field=st.sampled_from(["2^1", "3^1", "7^1", "2^3", "3^2", "5^2"]),
    n=st.integers(0, 4),
    blocks=st.integers(1, 3),
    shape=st.sampled_from([(2, 3), (0, 3), (2, 0)]),
    j=st.integers(0, 13),
    offset=st.integers(-1, 1),
    seed=st.integers(0, 2 ** 31 - 1),
)
# a 2-D B tabulates the largest j with q^j <= the rows of A: N < q gives j = 0,
# and q^n > N adds the indices past the tabulated ones one at a time
@example(field="3^3", n=4, blocks=1, shape=(2, 3), j=2, offset=0, seed=1)
@example(field="3^3", n=4, blocks=2, shape=(2, 3), j=2, offset=-1, seed=1)
@example(field="3^6", n=2, blocks=1, shape=(2, 3), j=1, offset=1, seed=2)
@example(field="7^1", n=3, blocks=3, shape=(2, 3), j=1, offset=-1, seed=4)
@example(field="2^1", n=14, blocks=2, shape=(2, 3), j=13, offset=0, seed=3)
@example(field="3^2", n=0, blocks=2, shape=(2, 3), j=1, offset=0, seed=5)
def test_mat_mul_contracts_at_points_like_table_lookups(field, n, blocks, shape, j, offset, seed):
    # sum_i x_i A_i at the points X as X @ (n, entries): the contraction of a stack of blocks
    F = parse_field(field)
    rng = np.random.default_rng(seed)
    A = rng.integers(0, F.q, size=(n, blocks) + shape).astype(np.int32)
    points = max(1, min(F.q ** j + offset, CHUNK))  # around the threshold q^j
    X = rng.integers(0, F.q, size=(points, n)).astype(np.int32)
    Ms = linalg.mat_mul(X, A.reshape(n, blocks * shape[0] * shape[1]), F)
    assert Ms.shape == (points, blocks * shape[0] * shape[1]) and Ms.dtype == np.int32
    Ms = Ms.reshape((points, blocks) + shape)
    for g in range(blocks):
        assert np.array_equal(Ms[:, g], table_contraction(A[:, g], F, X))


@pytest.mark.parametrize("F", [F3, F7, F9, F27])
@pytest.mark.parametrize("n", [0, 1, 4])
def test_mat_mul_contracts_each_point_with_its_own_block(F, n):
    # the batched per-pair form: point t with block g[t], as X[:, None] @ B[g]
    rng = np.random.default_rng(F.q + n)
    blocks, s, points = 5, 3, 40
    A = rng.integers(0, F.q, size=(n, blocks, s, s)).astype(np.int32)
    X = rng.integers(0, F.q, size=(points, n)).astype(np.int32)
    g = rng.integers(0, blocks, size=points)
    B = A.reshape(n, blocks, s * s).transpose(1, 0, 2)  # (blocks, n, s^2)
    Ms = linalg.mat_mul(X[:, None], B[g], F)
    assert Ms.shape == (points, 1, s * s) and Ms.dtype == np.int32
    Ms = Ms.reshape(points, s, s)
    for t in range(points):
        assert np.array_equal(Ms[t], table_contraction(A[:, g[t]], F, X[t : t + 1])[0])


def test_mat_mul_rejects_mismatched_inner_axes():
    with pytest.raises(ValueError):
        linalg.mat_mul(np.zeros((2, 3), np.int32), np.zeros((2, 3), np.int32), F3)
    with pytest.raises(ValueError):
        linalg.mat_mul(np.zeros(3, np.int32), np.zeros((3, 1), np.int32), F3)


def loop_rref(M, F):
    """RREF clearing each pivot column one row at a time: the reference for rref."""
    R = np.asarray(M, dtype=np.int32).copy()
    m, n = R.shape
    pivots, r = [], 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        R[[r, i]] = R[[i, r]]
        R[r] = F.mul[F.inv[R[r, c]], R[r]]
        for j in np.nonzero(R[:, c])[0]:
            if j != r:
                R[j] = F.add[R[j], F.mul[F.neg[R[j, c]], R[r]]]
        pivots.append(c)
        r += 1
    return R, pivots


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rref_matches_the_row_by_row_reference(data):
    F = data.draw(st.sampled_from([F2, F3, F4, F9, F27, F49]), label="F")
    m, n = data.draw(st.integers(0, 8), label="m"), data.draw(st.integers(0, 12), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    # rows are multiples (0 included) of a few drawn rows, so rows repeat and depend
    pool = rng.integers(0, F.q, size=(data.draw(st.integers(1, 8), label="pool"), n))
    M = F.mul[rng.integers(0, F.q, size=(m, 1)), pool[rng.integers(0, len(pool), size=m)]]
    M = M.astype(np.int32)
    before = M.copy()
    R, pivots = linalg.rref(M, F)
    R_ref, pivots_ref = loop_rref(M, F)
    assert R.dtype == np.int32 and np.array_equal(R, R_ref) and pivots == pivots_ref
    assert np.array_equal(M, before)


def test_rref_known_matrix():
    M = np.array([[1, 2, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int32)
    R, pivots = linalg.rref(M, F3)
    assert pivots == [0, 1, 2]
    assert np.array_equal(R, np.eye(3, dtype=np.int32))


def test_rank_and_kernel_dimensions():
    M = np.array([[1, 2, 0], [0, 1, 1]], dtype=np.int32)
    assert linalg.rank(M, F3) == 2
    K = kernel_basis(M, F3)
    assert K.shape == (1, 3)
    assert not linalg.mat_mul(M, K.T, F3).any()


def test_solve_consistent_and_inconsistent():
    M = np.array([[1, 0], [0, 0]], dtype=np.int32)
    x = solve(M, [2, 0], F3)
    assert x.tolist() == [2, 0]  # free variable set to 0
    assert solve(M, [0, 1], F3) is None
    # a 2-D right-hand side: every column in one elimination
    for F in (F3, F9):
        for seed in range(20):
            M = random_matrix(F, 4, 3, seed)
            B = linalg.mat_mul(M, random_matrix(F, 3, 5, seed + 50), F)  # consistent columns
            X = solve(M, B, F)
            assert X.shape == (3, 5)
            for j in range(5):
                assert np.array_equal(X[:, j], solve(M, B[:, j], F))
            if linalg.rank(M, F) < 4:
                e = next(e for e in np.eye(4, dtype=np.int32) if solve(M, e, F) is None)
                B[:, 2] = e  # one inconsistent column
                assert solve(M, B, F) is None


def test_inverse_round_trip():
    for seed in range(10):
        M = random_matrix(F3, 3, 3, seed)
        inv = solve(M, np.eye(3, dtype=np.int32), F3)
        if linalg.rank(M, F3) < 3:
            assert inv is None
        else:
            assert np.array_equal(linalg.mat_mul(M, inv, F3), np.eye(3, dtype=np.int32))


def test_row_space_basis_is_canonical():
    A = np.array([[1, 2, 0], [2, 1, 0]], dtype=np.int32)
    B = np.array([[2, 1, 0], [1, 2, 0], [0, 0, 0]], dtype=np.int32)
    assert np.array_equal(linalg.row_space_basis(A, F3), linalg.row_space_basis(B, F3))


@pytest.mark.parametrize("F", [F3, F9])
def test_batched_rank_matches_scalar_rank(F):
    rng = np.random.default_rng(42)
    Ms = rng.integers(0, F.q, size=(300, 3, 4)).astype(np.int32)
    batched = linalg.batched_rank(Ms, F)
    for i in range(Ms.shape[0]):
        assert batched[i] == linalg.rank(Ms[i], F)


def test_batched_rank_handles_zero_and_identity():
    Ms = np.stack([np.zeros((3, 3), np.int32), np.eye(3, dtype=np.int32)])
    assert linalg.batched_rank(Ms, F3).tolist() == [0, 3]


@pytest.mark.parametrize("F", [F2, F3, F4, F8, F9, F27], ids=repr)
def test_batched_rank_of_products_matches_scalar_rank(F):
    # A (m x r) B (r x n) has rank at most r: low ranks, which uniform random
    # matrices almost never have, come up in every shape
    rng = np.random.default_rng(F.q)
    for m in range(6):
        for n in range(6):
            for r in range(min(m, n) + 1):
                A = rng.integers(0, F.q, size=(8, m, r)).astype(np.int32)
                B = rng.integers(0, F.q, size=(8, r, n)).astype(np.int32)
                Ms = linalg.mat_mul(A, B, F)
                before = Ms.copy()
                ranks = linalg.batched_rank(Ms, F)
                assert np.array_equal(Ms, before)  # the input is not written
                assert ranks.tolist() == [linalg.rank(M, F) for M in Ms], (m, n, r)
                assert (ranks <= r).all()


def test_batched_rank_of_empty_stack():
    for shape in ((0, 3, 4), (0, 0, 2), (0, 2, 0)):
        assert linalg.batched_rank(np.zeros(shape, np.int32), F9).shape == (0,)


def test_batched_rank_of_a_long_stack():
    rng = np.random.default_rng(3)
    Ms = rng.integers(0, F9.q, size=((1 << 15) + 5, 1, 1)).astype(np.int32)
    Ms[-3:] = 0
    assert np.array_equal(linalg.batched_rank(Ms, F9), (Ms[:, 0, 0] != 0).astype(np.int64))


@st.composite
def rref_stacks(draw):
    """(F, stack): zero, full-rank (random) and low-rank (product) matrices of one shape."""
    F = draw(st.sampled_from([F2, F3, F9, F27]))
    N, m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Ms = []
    for _ in range(N):
        kind = draw(st.sampled_from(["zero", "random", "product"]))
        if kind == "zero":
            Ms.append(np.zeros((m, n), np.int32))
        elif kind == "random":
            Ms.append(rng.integers(0, F.q, size=(m, n)).astype(np.int32))
        else:
            r = draw(st.integers(0, min(m, n)))
            A, B = rng.integers(0, F.q, size=(m, r)), rng.integers(0, F.q, size=(r, n))
            Ms.append(linalg.mat_mul(A, B, F))
    if 0 < m <= n:  # [I | *] has a pivot in every row at column m - 1; a zero matrix never does
        Ms.append(np.hstack([np.eye(m, dtype=np.int32), rng.integers(0, F.q, size=(m, n - m))]))
        Ms += [np.zeros((m, n), np.int32)] * draw(st.integers(0, 1))  # a matrix left unfinished
        N = len(Ms)
    return F, np.array(Ms, dtype=np.int32).reshape(N, m, n)


@settings(max_examples=200, deadline=None)
@given(case=rref_stacks())
@example(case=(F9, [[[3, 0, 5, 1, 8], [0, 2, 7, 4, 1], [6, 0, 2, 2, 0]]]))  # a stack of one
# step 0 places its pivot in column 0, 1 and 2 of the three matrices
@example(case=(F3, [[[1, 2, 0], [0, 0, 1]], [[0, 1, 2], [0, 0, 0]], [[0, 0, 2], [0, 0, 1]]]))
@example(case=(F27, [[[5, 9], [0, 0], [13, 4], [2, 26], [1, 1]]]))  # tall: m > n
# a zero first column above the pivot in row 2, and a zero first column
@example(case=(F3, [[[0, 1, 2], [0, 0, 1], [2, 1, 0]], [[0, 2, 1], [0, 1, 1], [0, 0, 0]]]))
def test_batched_rref_matches_rref(case):
    F, Ms = case[0], np.array(case[1], dtype=np.int32)
    before = Ms.copy()
    R, pivots = linalg.batched_rref(Ms, F)
    assert np.array_equal(Ms, before)  # the input is not written
    assert R.dtype == np.int32 and R.shape == Ms.shape and len(pivots) == len(Ms)
    for M, R_M, p in zip(Ms, R, pivots):
        R_ref, p_ref = linalg.rref(M, F)
        assert np.array_equal(R_M, R_ref) and p == p_ref
        assert all(type(c) is int for c in p)


def test_batched_rref_of_identity_and_swapped_rows():
    P = np.array([[0, 1, 2], [1, 0, 0], [0, 0, 0]], dtype=np.int32)  # needs a row swap
    R, pivots = linalg.batched_rref(np.stack([np.eye(3, dtype=np.int32), P]), F3)
    assert pivots == [[0, 1, 2], [0, 1]]
    assert R[1].tolist() == [[1, 0, 0], [0, 1, 2], [0, 0, 0]]
