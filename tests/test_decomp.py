from dataclasses import dataclass
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trirank import cli, decomp, geometric, linalg, tensor, variety
from trirank.errors import BadParams, NoPointFound, VerificationFailed
from trirank.fields import make_field
from trirank.tensor import SliceTerm, slice_space

from jacobian_reference import jacobian_tangent, kernel_basis, solve

F3 = make_field(3)


def rank_factorize(A, F):
    """(left, right) with A = left^T right, r independent rows each, read off the RREF."""
    A = linalg.as_matrix(A)
    R, pivots = linalg.rref(A, F)
    return A[:, pivots].T.copy(), R[: len(pivots)].copy()


def check_factorization(A, left, right, F):
    """A = left^T right, with r independent rows on each side."""
    if not np.array_equal(linalg.mat_mul(left.T, right, F), A):
        return False
    r = len(left)
    return len(right) == r and linalg.rank(left, F) == r and linalg.rank(right, F) == r


def in_space(S, M):
    """M lies in the matrix space S: appending it leaves the rank at dim S."""
    stacked = np.vstack([S.flat_basis(), np.asarray(M, dtype=np.int32).ravel()])
    return linalg.rank(stacked, S.field) == S.dim


# ---------------------------------------------------------------------------
# reference pipeline: the tangent-space decomposition built step by step
# (tangent space, its intersection with L, a basis extension, one solve per
# slice and one Sylvester solve per intersection basis matrix)
# ---------------------------------------------------------------------------

class NotInTangentSpace(Exception):
    pass


@dataclass
class CongruencePair:
    """Witness of tangency: B = C A + A Cp."""

    C: np.ndarray
    Cp: np.ndarray


def intersect_row_spaces(U, V, F):
    """Basis of the intersection of two row spaces."""
    U, V = linalg.as_matrix(U), linalg.as_matrix(V)
    if U.shape[0] == 0 or V.shape[0] == 0:
        return np.zeros((0, U.shape[1]), dtype=np.int32)
    S = np.vstack([U, V])
    left_null = kernel_basis(S.T, F)  # rows (a | b) with aU + bV = 0
    if left_null.shape[0] == 0:
        return np.zeros((0, U.shape[1]), dtype=np.int32)
    combos = linalg.mat_mul(left_null[:, : U.shape[0]], U, F)
    return linalg.row_space_basis(combos, F)


def extend_basis(rows, candidates, F):
    """Candidates (in order) that extend the span of rows; returns the list."""
    rows = linalg.as_matrix(rows)
    current = linalg.row_space_basis(rows, F) if rows.shape[0] else rows
    r = current.shape[0]
    added = []
    for cand in candidates:
        cand = np.asarray(cand, dtype=np.int32)
        stacked = np.vstack([current, cand.reshape(1, -1)]) if r else cand.reshape(1, -1)
        new_rank = linalg.rank(stacked, F)
        if new_rank > r:
            added.append(cand)
            current = linalg.row_space_basis(stacked, F)
            r = new_rank
    return added


def tangent_space_at(A, F):
    """Span of {E_ab A} union {A E_ab}: the tangent {CA + AC'} at A."""
    A = linalg.as_matrix(A)
    m, n = A.shape
    rows = []
    for a in range(m):
        for b in range(m):
            M = np.zeros((m, n), dtype=np.int32)
            M[a] = A[b]
            rows.append(M.ravel())
    for a in range(n):
        for b in range(n):
            M = np.zeros((m, n), dtype=np.int32)
            M[:, b] = A[:, a]
            rows.append(M.ravel())
    basis = linalg.row_space_basis(np.array(rows, dtype=np.int32), F)
    return tensor.MatrixSpace(F, (m, n), basis.reshape(-1, m, n))


def sylvester_solve(B, A, F):
    """A solution (C, Cp) of B = CA + ACp, deterministic (free variables 0)."""
    A = linalg.as_matrix(A)
    B = linalg.as_matrix(B)
    m, n = A.shape
    nvars = m * m + n * n
    M = np.zeros((m * n, nvars), dtype=np.int32)
    for a in range(m):
        for b in range(n):
            eq = a * n + b
            for c in range(m):
                M[eq, a * m + c] = A[c, b]  # C[a, c] coefficient
            for d in range(n):
                M[eq, m * m + d * n + b] = A[a, d]  # Cp[d, b] coefficient
    x = solve(M, B.ravel(), F)
    if x is None:
        raise NotInTangentSpace("target is outside {CA + AC'}")
    C = x[: m * m].reshape(m, m)
    Cp = x[m * m:].reshape(n, n)
    return CongruencePair(C=C, Cp=Cp)


def reference_base_decomposition(Tw):
    """The r = 0 construction as SR(L) <= dim L: one x-term per basis matrix of L."""
    F = Tw.field
    L = slice_space(Tw, "x")
    S = L.flat_basis()
    terms = []
    if L.dim:
        coords = np.array(
            [solve(S.T, Tw.entries[l].ravel(), F) for l in range(Tw.dims[0])],
            dtype=np.int32,
        )
        for m in range(L.dim):
            terms.append(
                SliceTerm(F, "x", coords[:, m], L.basis[m], source="complement_x_slice")
            )
    D = decomp.SliceDecomposition(working_field=F, dims=Tw.dims, terms=terms, r_used=0)
    if not decomp.verify_decomposition(Tw, D):
        raise VerificationFailed("base decomposition does not reconstruct the tensor")
    return D


def reference_tangent_decomposition(Tw, L, r, seed):
    F = Tw.field
    n1, n2, n3 = Tw.dims
    try:
        A, _, _ = decomp.sample_rank_point(L, r, seed=seed)
    except NoPointFound:
        return None
    tangent = tangent_space_at(A, F)
    P = intersect_row_spaces(L.flat_basis(), tangent.flat_basis(), F)
    complement = extend_basis(P, list(L.flat_basis()), F)
    stack = np.vstack([P, np.array(complement, dtype=np.int32).reshape(-1, n2 * n3)])
    # coordinates of every slice in the [tangent part; complement part] basis
    coords = np.array(
        [solve(stack.T, Tw.entries[l].ravel(), F) for l in range(n1)],
        dtype=np.int32,
    )
    lam = coords[:, : P.shape[0]]  # (n1, dim P)
    mu = coords[:, P.shape[0]:]  # (n1, codim)
    left, right = rank_factorize(A, F)
    pairs = [sylvester_solve(B.reshape(n2, n3), A, F) for B in P]
    Cs = np.array([pair.C for pair in pairs], dtype=np.int32).reshape(len(pairs), n2, n2)
    Cps = np.array([pair.Cp for pair in pairs], dtype=np.int32).reshape(len(pairs), n3, n3)
    # H[i] = sum_j lam_j (C_j f_i) and Hp[i] = sum_j lam_j (g_i Cp_j), for every i at once
    H = linalg.mat_mul(lam, linalg.mat_mul(Cs, left.T, F).transpose(2, 0, 1), F)
    Hp = linalg.mat_mul(lam, linalg.mat_mul(right, Cps, F).transpose(1, 0, 2), F)
    terms = []
    for i in range(len(left)):
        f_i, g_i = left[i], right[i]
        if H[i].any() and g_i.any():
            terms.append(SliceTerm(F, "z", g_i, H[i], source="tangent_z_slice"))
        if Hp[i].any() and f_i.any():
            terms.append(SliceTerm(F, "y", f_i, Hp[i], source="tangent_y_slice"))
    for m, D_m in enumerate(complement):
        if mu[:, m].any():
            terms.append(
                SliceTerm(
                    F, "x", mu[:, m], D_m.reshape(n2, n3), source="complement_x_slice"
                )
            )
    D = decomp.SliceDecomposition(working_field=F, dims=Tw.dims, terms=terms, r_used=r)
    if not decomp.verify_decomposition(Tw, D):
        raise VerificationFailed("tangent decomposition does not reconstruct the tensor")
    return D


def reference_tangent_attempts(attempts):
    """decomp._tangent_attempts by the reference, one (Tw, L, r, seed) attempt at a time."""
    return [reference_tangent_decomposition(*attempt) for attempt in attempts]


def reference_slice_decompose(T, **kwargs):
    """decomp.slice_decompose with its construction swapped for the reference."""
    with mock.patch.object(decomp, "_tangent_attempts", reference_tangent_attempts):
        return decomp.slice_decompose(T, **kwargs)


def decomposition_bytes(D):
    return repr(D.to_dict()).encode()

E11 = np.array([[1, 0], [0, 0]], dtype=np.int32)
E12 = np.array([[0, 1], [0, 0]], dtype=np.int32)
E22 = np.array([[0, 0], [0, 1]], dtype=np.int32)


def reconstruct_congruence(pair, A, F):
    return F.add[linalg.mat_mul(pair.C, A, F), linalg.mat_mul(A, pair.Cp, F)]


def sylvester_span(A, F):
    """The span of {CA + AC'} in which the decomposition solves: the columns of its map."""
    A = linalg.as_matrix(A)
    return tensor.MatrixSpace(F, A.shape, decomp._sylvester_matrix(A).T)


def test_rank_factorize_e11():
    left, right = rank_factorize(E11, F3)
    assert left.tolist() == [[1, 0]]
    assert right.tolist() == [[1, 0]]


def test_rank_factorize_cross_product_matrix():
    # matrix of x -> e1 x x over F_3
    cross = np.array([[0, 0, 0], [0, 0, 2], [0, 1, 0]], dtype=np.int32)
    left, right = rank_factorize(cross, F3)
    assert len(left) == 2
    assert check_factorization(cross, left, right, F3)


def test_rank_factorize_zero_and_random():
    left, right = rank_factorize(np.zeros((2, 2), np.int32), F3)
    assert left.shape == right.shape == (0, 2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.integers(0, 3, size=(3, 4)).astype(np.int32)
        assert check_factorization(A, *rank_factorize(A, F3), F3)


def test_tangent_space_dimensions():
    assert sylvester_span(E11, F3).dim == 3
    assert sylvester_span(np.eye(3, dtype=np.int32), F3).dim == 9
    assert sylvester_span(np.zeros((2, 3), np.int32), F3).dim == 0


def test_tangent_space_at_e11_excludes_corner():
    ts = sylvester_span(E11, F3)
    assert in_space(ts, E12)
    assert not in_space(ts, E22)


def test_tangent_dimension_formula_random_shapes():
    rng = np.random.default_rng(17)
    for m in range(1, 5):
        for n in range(1, 5):
            for _ in range(50):
                A = rng.integers(0, 3, size=(m, n)).astype(np.int32)
                r = linalg.rank(A, F3)
                assert sylvester_span(A, F3).dim == m * n - (m - r) * (n - r)


def test_tangent_space_matches_jacobian_of_minors():
    # 2x3 variable matrix, 2x2 minors, tangent at a rank-1 point
    minors = "x1*x5 - x2*x4; x1*x6 - x3*x4; x2*x6 - x3*x5"
    S = variety.parse_poly_system(minors, F3, 6)
    A = np.array([[1, 0, 0], [0, 0, 0]], dtype=np.int32)
    jac = jacobian_tangent(S, A.ravel())
    span = sylvester_span(A, F3)
    assert np.array_equal(
        linalg.row_space_basis(jac, F3), linalg.row_space_basis(span.flat_basis(), F3)
    )


def test_sylvester_solve_examples():
    # the reference's per-matrix solve
    pair = sylvester_solve(E12, E11, F3)
    assert pair.C.tolist() == [[0, 0], [0, 0]]
    assert pair.Cp.tolist() == [[0, 1], [0, 0]]
    pair = sylvester_solve(E11, E11, F3)
    assert np.array_equal(reconstruct_congruence(pair, E11, F3), E11)
    with pytest.raises(NotInTangentSpace):
        sylvester_solve(E22, E11, F3)


def test_sylvester_solve_is_deterministic():
    rng = np.random.default_rng(3)
    A = rng.integers(0, 3, size=(3, 3)).astype(np.int32)
    ts = sylvester_span(A, F3)
    B = ts.basis[0]
    p1 = sylvester_solve(B, A, F3)
    p2 = sylvester_solve(B, A, F3)
    assert np.array_equal(p1.C, p2.C) and np.array_equal(p1.Cp, p2.Cp)
    assert np.array_equal(reconstruct_congruence(p1, A, F3), B)


def test_sample_rank_point():
    # the point comes with its rank factorization: r nonzero rows on each side
    L = tensor.slice_space(tensor.levi_civita(F3), "x")
    I3 = tensor.slice_space(tensor.identity_tensor(F3, 3), "x")
    with mock.patch.object(linalg, "rref", side_effect=AssertionError("r = 0 eliminates")):
        A, left, right = decomp.sample_rank_point(L, 0, seed=1)
    assert not (A.any() or left.any() or right.any())
    for space, r in ((L, 2), (I3, 1), (I3, 2), (I3, 3)):
        A, left, right = decomp.sample_rank_point(space, r, seed=1)
        assert linalg.rank(A, F3) == r
        assert np.array_equal(linalg.mat_mul(left.T, right, F3), A)
        assert left.any(axis=1).sum() == right.any(axis=1).sum() == r
    with pytest.raises(NoPointFound):
        decomp.sample_rank_point(L, 4, seed=1)


def test_slice_decompose_trivial_cases():
    D = decomp.slice_decompose(tensor.zero_tensor(F3, (2, 2, 2)))
    assert D.term_count == 0
    D = decomp.slice_decompose(tensor.identity_tensor(F3, 1))
    assert D.term_count == 1
    assert decomp.verify_decomposition(tensor.identity_tensor(F3, 1), D)


def test_slice_decompose_levi_civita():
    T = tensor.levi_civita(F3)
    D = decomp.slice_decompose(T, k_work=3, seed=7)
    assert decomp.verify_decomposition(T, D)
    assert D.term_count <= 4  # 2r with r = 2 and empty complement
    assert D.working_field.designation() == "3^3"
    assert not D.flagged


def test_slice_decompose_term_count_bounded_by_2gr():
    for seed in range(15):
        T = tensor.random_tensor(F3, (3, 3, 3), seed=seed)
        rep = geometric.geometric_rank(T, kmax=3)
        D = decomp.slice_decompose(T, k_work=3, seed=seed, gr_report=rep)
        assert decomp.verify_decomposition(T, D)
        if rep.stable and not D.flagged:
            assert D.term_count <= 2 * rep.gr
            assert D.term_count >= rep.gr


def test_slice_decompose_identity_3_is_the_r0_construction():
    # GR's stratification min_r (r + codim X_r) = 3 is first reached at r = 0
    T = tensor.identity_tensor(F3, 3)
    D = decomp.slice_decompose(T, k_work=3, seed=7)
    assert (D.r_used, D.term_count) == (0, 3)
    assert [t.source for t in D.terms] == ["complement_x_slice"] * 3
    assert decomp.verify_decomposition(T, D)


# (p, dims) of the random tensors on which the r = 0 attempt meets the base case
R0_RANDOM = [
    (2, (2, 3, 4)), (2, (4, 4, 4)), (3, (3, 3, 3)), (3, (1, 4, 2)),
    (5, (2, 2, 2)), (5, (4, 1, 3)), (7, (3, 4, 2)),
]


def r0_tensors():
    """The seed-7 corpus over F_27, 30 random tensors per R0_RANDOM case and zero tensors."""
    Ts = [T.lift(F3.extension(3)) for _, T in cli.builtin_corpus(7)]
    for p, dims in R0_RANDOM:
        Ts += [tensor.random_tensor(make_field(p), dims, seed=s) for s in range(30)]
    for p in (2, 3):
        Ts += [tensor.zero_tensor(make_field(p), d) for d in ((1, 1, 1), (2, 2, 2), (3, 1, 2))]
    return Ts + [tensor.zero_tensor(F3, (2, 0, 3))]


def test_r0_attempt_is_the_base_case():
    Ts = r0_tensors()
    assert len(Ts) == 273
    groups = {}  # one stacked attempt per (field, dims)
    for Tw in Ts:
        groups.setdefault((Tw.field, Tw.dims), []).append(Tw)
    for group in groups.values():
        Ds = decomp._tangent_attempts([(Tw, slice_space(Tw, "x"), 0, 0) for Tw in group])
        for Tw, D in zip(group, Ds):
            assert D.to_dict() == reference_base_decomposition(Tw).to_dict(), Tw
            assert D.r_used == 0


def test_verify_rejects_wrong_tensor_or_dims():
    T = tensor.levi_civita(F3)
    D = decomp.slice_decompose(T, seed=1)
    assert not decomp.verify_decomposition(tensor.identity_tensor(F3, 3), D)
    assert not decomp.verify_decomposition(tensor.identity_tensor(F3, 2), D)


def test_decomposition_json_round_trip():
    T = tensor.tk_family(F3, 2)
    D = decomp.slice_decompose(T, seed=2)
    D2 = decomp.decomposition_from_dict(D.to_dict())
    assert decomp.verify_decomposition(T, D2)
    assert D2.term_count == D.term_count


@pytest.mark.parametrize("code, error", [
    (1.9, "not an integer"), (1.0, "not an integer"), (True, "not an integer"),
    ("1", "not an integer"), (10 ** 20, "outside"), (1, None),
])
def test_decomposition_codes_are_ints(code, error):
    # the one term of the entry 0 0 0 1; a float, bool or string code is refused
    # before the term's int32 arrays would truncate or coerce it to 1, and a
    # code past int32 before it would overflow
    T = tensor.identity_tensor(F3, 1)
    d = decomp.slice_decompose(T).to_dict()
    assert [t["linear"] for t in d["terms"]] == [[1]]
    d["terms"][0]["linear"] = [code]
    if error:
        with pytest.raises(BadParams, match=error):
            decomp.decomposition_from_dict(d)
    else:
        assert decomp.verify_decomposition(T, decomp.decomposition_from_dict(d))
    empty = dict(d, terms=[dict(d["terms"][0], linear=[], bilinear=[])])
    assert decomp.decomposition_from_dict(empty).terms[0].linear.size == 0


def test_tangent_space_matches_reference_rows():
    rng = np.random.default_rng(11)
    for F in (F3, make_field(3, 2)):
        for m, n in ((1, 3), (2, 2), (3, 4)):
            for _ in range(10):
                A = rng.integers(0, F.q, size=(m, n)).astype(np.int32)
                assert np.array_equal(sylvester_span(A, F).basis, tangent_space_at(A, F).basis)


NAMED = {
    "levi_civita": tensor.levi_civita,
    "t2_direct_sum": lambda F: tensor.tk_family(F, 2),
    "identity_3": lambda F: tensor.identity_tensor(F, 3),
}


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_slice_decompose_matches_reference_pipeline(data):
    F = make_field(data.draw(st.sampled_from([2, 3, 5]), label="p"))
    name = data.draw(st.sampled_from(sorted(NAMED) + ["random"]), label="tensor")
    if name == "random":
        dims = tuple(data.draw(st.integers(1, 3), label=f"n{i}") for i in range(3))
        T = tensor.random_tensor(F, dims, seed=data.draw(st.integers(0, 999), label="tseed"))
    else:
        T = NAMED[name](F)
    k_work = data.draw(st.integers(1, 3), label="k_work")
    seed = data.draw(st.integers(0, 9), label="seed")
    rep = geometric.geometric_rank(T, kmax=2, seed=seed)
    kwargs = dict(k_work=k_work, seed=seed, gr_report=rep)
    D = decomp.slice_decompose(T, **kwargs)
    assert decomposition_bytes(D) == decomposition_bytes(reference_slice_decompose(T, **kwargs))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sylvester_matrix_of_a_stack_is_each_kron_pair(data):
    F = data.draw(st.sampled_from([make_field(2), F3, make_field(3, 2)]), label="F")
    m, n = data.draw(st.integers(0, 4), label="m"), data.draw(st.integers(0, 4), label="n")
    batch = tuple(data.draw(st.lists(st.integers(0, 3), max_size=2), label="batch"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    As = rng.integers(0, F.q, size=batch + (m, n)).astype(np.int32)
    S = decomp._sylvester_matrix(As)
    assert S.shape == batch + (m * n, m * m + n * n) and S.dtype == np.int32
    I_m, I_n = np.eye(m, dtype=np.int32), np.eye(n, dtype=np.int32)
    for idx in np.ndindex(batch):
        A = As[idx]
        assert np.array_equal(S[idx], np.hstack([np.kron(I_m, A.T), np.kron(A, I_n)]))


def draw_decomposition_batch(data):
    """Tensors over F_2 and F_3 of one or two dims in 0..4: repeats, zeros, random, r > 0."""
    shapes = data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * 3), min_size=1, max_size=2))
    batch = []
    for _ in range(data.draw(st.integers(1, 5), label="size")):
        F = make_field(data.draw(st.sampled_from([2, 3]), label="p"))
        kind = data.draw(st.sampled_from(["random", "zero", "levi_civita", "repeat"]))
        if kind == "repeat" and batch:
            batch.append(data.draw(st.sampled_from(batch)))
        elif kind == "levi_civita":  # GR's argmin_r is 2: a rank-2 point is drawn
            batch.append(tensor.levi_civita(F))
        else:
            dims = data.draw(st.sampled_from(shapes), label="dims")
            seed = data.draw(st.integers(0, 999), label="tseed")
            T = tensor.random_tensor(F, dims, seed=seed)
            batch.append(tensor.zero_tensor(F, dims) if kind == "zero" else T)
    return batch


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stacked_decompositions_match_one_tensor_decompositions(data):
    batch = draw_decomposition_batch(data)
    k_work = data.draw(st.integers(1, 3), label="k_work")
    seeds = [data.draw(st.integers(0, 9), label="seed") for _ in batch]
    reports = [geometric.geometric_rank(T, kmax=2, seed=s) for T, s in zip(batch, seeds)]
    stacked = decomp.slice_decompositions(batch, k_work, seeds, reports)
    for T, s, rep, D in zip(batch, seeds, reports, stacked):
        alone = decomp.slice_decompose(T, k_work=k_work, seed=s, gr_report=rep)
        assert decomposition_bytes(D) == decomposition_bytes(alone)
        assert decomp.verify_decomposition(T, D)


def recorded_eliminations(monkeypatch):
    """The stack size of each batched_rref call and the shape of each rref call, as made.

    A decomposition sends every span stack and every solve, a lone matrix
    included, to batched_rref; rref tests the rank of each drawn point.
    """
    batched_rref, rref, seen = linalg.batched_rref, linalg.rref, {"batched": [], "rref": []}

    def recording_batched(Ms, F):
        seen["batched"].append(len(Ms))
        return batched_rref(Ms, F)

    def recording_rref(M, F):
        seen["rref"].append(np.shape(M))
        return rref(M, F)

    monkeypatch.setattr(linalg, "batched_rref", recording_batched)
    monkeypatch.setattr(linalg, "rref", recording_rref)
    return seen


def test_stacked_decomposition_eliminates_at_most_chunk_matrices_per_call(monkeypatch):
    Ts = [tensor.levi_civita(F3), tensor.identity_tensor(F3, 3)]
    Ts += [tensor.random_tensor(F3, (3, 3, 3), seed=s) for s in range(5)]
    seeds = list(range(len(Ts)))
    reports = [geometric.geometric_rank(T, seed=s) for T, s in zip(Ts, seeds)]
    expected = [decomposition_bytes(D) for D in decomp.slice_decompositions(Ts, 3, seeds, reports)]
    seen = recorded_eliminations(monkeypatch)
    monkeypatch.setattr(decomp, "CHUNK", 2)
    found = decomp.slice_decompositions(Ts, 3, seeds, reports)
    assert [decomposition_bytes(D) for D in found] == expected
    assert [D.r_used for D in found] == [2] + [0] * 6
    # the 7 spans in slices of 2, the last alone, and Levi-Civita's solve, the one at r > 0;
    # every rref call tests the rank of a drawn 3 x 3 point
    assert seen["batched"] == [2, 2, 2, 1, 1]
    assert set(seen["rref"]) == {(3, 3)}


def test_r0_group_solves_nothing(monkeypatch):
    # every attempt at r = 0 reads its coefficients off the span's RREF: one
    # batched_rref call for the spans, no solve and no rank point drawn
    Ts = [tensor.identity_tensor(F3, 3)]
    Ts += [tensor.random_tensor(F3, (3, 3, 3), seed=s) for s in range(4)]
    seeds = list(range(len(Ts)))
    reports = [geometric.geometric_rank(T, seed=s) for T, s in zip(Ts, seeds)]
    expected = [decomposition_bytes(D) for D in decomp.slice_decompositions(Ts, 3, seeds, reports)]
    seen = recorded_eliminations(monkeypatch)
    found = decomp.slice_decompositions(Ts, 3, seeds, reports)
    assert [decomposition_bytes(D) for D in found] == expected
    assert all(D.r_used == 0 for D in found)
    assert seen == {"batched": [len(Ts)], "rref": []}


def test_retry_rounds_match_the_reference():
    # a report claiming GR = 1 sends every decomposition of more than 2 terms back
    # for retries, so the items of one stack finish in different rounds
    Ts = [tensor.levi_civita(F3), tensor.identity_tensor(F3, 3), tensor.zero_tensor(F3, (3, 3, 3))]
    Ts += [tensor.random_tensor(F3, (3, 3, 3), seed=s) for s in range(3)]
    seeds = list(range(len(Ts)))
    reports = [
        SimpleNamespace(stable_gr=1, argmin_r=geometric.geometric_rank(T, seed=s).argmin_r)
        for T, s in zip(Ts, seeds)
    ]
    tangent_attempts, rounds = decomp._tangent_attempts, []

    def recording(attempts):
        rounds.append(len(attempts))
        return tangent_attempts(attempts)

    with mock.patch.object(decomp, "_tangent_attempts", recording):
        stacked = decomp.slice_decompositions(Ts, 3, seeds, reports)
    assert [D.flagged for D in stacked[:3]] == [True, True, False]
    assert len(rounds) >= decomp.MAX_RETRIES and rounds[0] == len(Ts) > rounds[-1]
    for T, s, rep, D in zip(Ts, seeds, reports, stacked):
        ref = reference_slice_decompose(T, k_work=3, seed=s, gr_report=rep)
        assert decomposition_bytes(D) == decomposition_bytes(ref)
