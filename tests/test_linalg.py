import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trirank import linalg
from trirank.fields import make_field

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F8 = make_field(2, 3)
F9 = make_field(3, 2)
F27 = make_field(3, 3)


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
    F = data.draw(st.sampled_from([F2, F3, F8, F9]))
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


def test_mat_mul_rejects_mismatched_inner_axes():
    with pytest.raises(ValueError):
        linalg.mat_mul(np.zeros((2, 3), np.int32), np.zeros((2, 3), np.int32), F3)
    with pytest.raises(ValueError):
        linalg.mat_mul(np.zeros(3, np.int32), np.zeros((3, 1), np.int32), F3)


def test_rref_known_matrix():
    M = np.array([[1, 2, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int32)
    R, pivots = linalg.rref(M, F3)
    assert pivots == [0, 1, 2]
    assert np.array_equal(R, np.eye(3, dtype=np.int32))


def test_rank_and_kernel_dimensions():
    M = np.array([[1, 2, 0], [0, 1, 1]], dtype=np.int32)
    assert linalg.rank(M, F3) == 2
    K = linalg.kernel_basis(M, F3)
    assert K.shape == (1, 3)
    assert not linalg.mat_mul(M, K.T, F3).any()


def test_solve_consistent_and_inconsistent():
    M = np.array([[1, 0], [0, 0]], dtype=np.int32)
    x = linalg.solve(M, [2, 0], F3)
    assert x.tolist() == [2, 0]  # free variable set to 0
    assert linalg.solve(M, [0, 1], F3) is None
    # a 2-D right-hand side: every column in one elimination
    for F in (F3, F9):
        for seed in range(20):
            M = random_matrix(F, 4, 3, seed)
            B = linalg.mat_mul(M, random_matrix(F, 3, 5, seed + 50), F)  # consistent columns
            X = linalg.solve(M, B, F)
            assert X.shape == (3, 5)
            for j in range(5):
                assert np.array_equal(X[:, j], linalg.solve(M, B[:, j], F))
            if linalg.rank(M, F) < 4:
                e = next(e for e in np.eye(4, dtype=np.int32) if linalg.solve(M, e, F) is None)
                B[:, 2] = e  # one inconsistent column
                assert linalg.solve(M, B, F) is None


def test_inverse_round_trip():
    for seed in range(10):
        M = random_matrix(F3, 3, 3, seed)
        inv = linalg.solve(M, np.eye(3, dtype=np.int32), F3)
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


def test_batched_rank_runs_the_chunk_loop():
    rng = np.random.default_rng(3)
    Ms = rng.integers(0, F9.q, size=(linalg.RANK_CHUNK + 5, 1, 1)).astype(np.int32)
    Ms[-3:] = 0  # zeros in the last chunk
    assert np.array_equal(linalg.batched_rank(Ms, F9), (Ms[:, 0, 0] != 0).astype(np.int64))
