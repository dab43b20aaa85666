import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trirank import analytic, geometric, linalg, slicerank, tensor
from trirank.errors import ContradictoryBounds, OutOfExactScope, TrirankError
from trirank.fields import make_field

F3 = make_field(3)


def restrict(T, U, V, W):
    """Values T(u_a, v_b, w_c) over all basis triples, shape (d1, d2, d3)."""
    F = T.field
    E = T.entries
    A = np.zeros((U.shape[0],) + E.shape[1:], dtype=np.int32)
    for i in range(E.shape[0]):
        A = F.add[A, F.mul[U[:, i][:, None, None], E[i][None, :, :]]]
    B = np.zeros((U.shape[0], V.shape[0], E.shape[2]), dtype=np.int32)
    for j in range(E.shape[1]):
        B = F.add[B, F.mul[V[:, j][None, :, None], A[:, j, :][:, None, :]]]
    C = np.zeros((U.shape[0], V.shape[0], W.shape[0]), dtype=np.int32)
    for k in range(E.shape[2]):
        C = F.add[C, F.mul[W[:, k][None, None, :], B[:, :, k][:, :, None]]]
    return C


def reference_slice_rank(T, lower_bound=0):
    """(value, (U, V, W)): the first annihilating triple by codim sum, c1, c2, U, V, W."""
    n1, n2, n3 = T.dims
    subs = [slicerank.subspaces(T.field, n) for n in T.dims]
    for total in range(lower_bound, n1 + n2 + n3 + 1):
        for c1 in range(min(total, n1) + 1):
            for c2 in range(min(total - c1, n2) + 1):
                c3 = total - c1 - c2
                if c3 > n3:
                    continue
                for U, V, W in itertools.product(
                    subs[0][n1 - c1], subs[1][n2 - c2], subs[2][n3 - c3]
                ):
                    if not restrict(T, U, V, W).any():
                        return total, (U, V, W)
    raise AssertionError("zero subspaces always annihilate")


def pair_search_slice_rank(T, lower_bound=0):
    """(value, (U, V, W)) by the unpruned pair search: every (U, V) of each codim block.

    It stops at the first block reaching `lower_bound`, so it is a reference only
    for lower_bound <= SR.
    """
    n1, n2, n3 = T.dims
    F = T.field
    subs_u, subs_v = slicerank.subspaces(F, n1), slicerank.subspaces(F, n2)
    best = n1 + n2 + n3 + 1
    for c1, c2 in itertools.product(range(n1 + 1), range(n2 + 1)):
        if c1 + c2 >= best:
            continue
        Us, Vs = subs_u[n1 - c1], subs_v[n2 - c2]
        ranks = linalg.batched_rank(slicerank._forms(T, Us, Vs), F)
        i = int(ranks.argmin())
        total = c1 + c2 + int(ranks[i])
        if total < best:
            best, U, V = total, Us[i // len(Vs)], Vs[i % len(Vs)]
        if total == lower_bound:
            break
    W = linalg.row_space_basis(
        linalg.kernel_basis(slicerank._forms(T, U[None], V[None])[0], F), F
    )
    return best, (U, V, W)


def witness_bytes(witness):
    return [(B.shape, B.dtype.str, B.tobytes()) for B in witness]


def draw_tensor(data, dims):
    F = make_field(data.draw(st.sampled_from([2, 3])))
    size = int(np.prod(dims))
    entries = data.draw(st.lists(st.integers(0, F.q - 1), min_size=size, max_size=size))
    return tensor.Tensor3(F, np.array(entries, dtype=np.int32).reshape(dims))


def draw_x_plus_y_term(data, dims):
    """a_i B[j, k] + b_j C[i, k]: an x-term plus a y-term, so SR <= 2."""
    F = make_field(data.draw(st.sampled_from([2, 3])))

    def codes(shape):
        size = int(np.prod(shape))
        values = data.draw(st.lists(st.integers(0, F.q - 1), min_size=size, max_size=size))
        return np.array(values, dtype=np.int32).reshape(shape)

    n1, n2, n3 = dims
    x_term = tensor.SliceTerm(F, "x", codes((n1,)), codes((n2, n3))).dense(dims)
    y_term = tensor.SliceTerm(F, "y", codes((n2,)), codes((n1, n3))).dense(dims)
    return tensor.Tensor3(F, F.add[x_term, y_term])


def test_subspace_enumeration_counts():
    subs = slicerank.subspaces(F3, 4)
    # Gaussian binomials [4 choose d]_3
    assert {d: len(b) for d, b in subs.items()} == {0: 1, 1: 40, 2: 130, 3: 40, 4: 1}


def test_subspace_bases_are_rref_and_distinct():
    subs = slicerank.subspaces(F3, 3)
    seen = set()
    for d, bases in subs.items():
        for B in bases:
            assert B.shape == (d, 3)
            seen.add(B.tobytes())
    assert len(seen) == sum(len(b) for b in subs.values())


def test_pruning_vectors_are_built_once_per_field_and_dim(monkeypatch):
    monkeypatch.setattr(slicerank, "_pruning_cache", {})
    for seed in range(2):  # two 3x2x2 tensors share the (F_3, 3) entry
        slicerank.slice_rank_exact(tensor.random_tensor(F3, (3, 2, 2), seed=seed))
    (key, w), = slicerank._pruning_cache.items()
    assert key == (F3, 3) and not w.flags.writeable
    assert set(slicerank._subspace_cache[F3, 3]) == {0, 1, 2, 3}
    # w_U = sum_a t^a u_a over F_27, t the class of code 3, one per subspace in order
    F27 = F3.extension(3)
    Us = [U for stack in slicerank.subspaces(F3, 3).values() for U in stack]
    assert len(w) == len(Us)
    for U, w_U in zip(Us, w):
        expected = np.zeros(3, dtype=np.int32)
        for a, u in enumerate(U):
            expected = F27.add[expected, F27.mul[F27.pow_table(a)[3, a], u]]
        assert w_U.ravel().tolist() == expected.tolist()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identity_exact_slice_rank(n):
    res = slicerank.slice_rank_exact(tensor.identity_tensor(F3, n))
    assert res.value == n
    assert slicerank.check_witness(tensor.identity_tensor(F3, n), res)


def test_levi_civita_exact_slice_rank_three():
    T = tensor.levi_civita(F3)
    res = slicerank.slice_rank_exact(T)
    assert res.value == 3
    assert slicerank.check_witness(T, res)


def test_zero_tensor_slice_rank_zero():
    assert slicerank.slice_rank_exact(tensor.zero_tensor(F3, (2, 2, 2))).value == 0


def test_exact_scope_guard():
    with pytest.raises(OutOfExactScope):
        slicerank.slice_rank_exact(tensor.tk_family(F3, 2))
    with pytest.raises(OutOfExactScope):
        slicerank.slice_rank_exact(tensor.identity_tensor(make_field(5), 2))


def test_vertex_cover_on_antichain_supports():
    assert slicerank.vertex_cover_sr(tensor.identity_tensor(F3, 3)) == 3
    assert slicerank.vertex_cover_sr(tensor.levi_civita(F3)) == 3
    assert slicerank.vertex_cover_sr(tensor.zero_tensor(F3, (2, 2, 2))) == 0
    # component-wise antichain: the direct sum is coverable per block
    assert slicerank.vertex_cover_sr(tensor.tk_family(F3, 2)) == 6


def test_vertex_cover_rejects_chain_supports():
    e = np.zeros((2, 2, 2), dtype=np.int32)
    e[0, 0, 0] = 1
    e[1, 1, 1] = 1
    e[0, 0, 1] = 1  # comparable to (0,0,0)
    res = slicerank.vertex_cover_sr(tensor.Tensor3(F3, e))
    assert res is None


def test_vertex_cover_agrees_with_exact_on_diagonals():
    e = np.zeros((3, 3, 3), dtype=np.int32)
    e[range(3), range(3), range(3)] = [1, 2, 1]
    T = tensor.Tensor3(F3, e)
    assert slicerank.vertex_cover_sr(T) == slicerank.slice_rank_exact(T).value == 3


def test_bounds_bracket_exact_value():
    for seed in range(10):
        T = tensor.random_tensor(F3, (3, 3, 3), seed=seed)
        ar = analytic.analytic_rank(T)
        gr = geometric.geometric_rank(T, kmax=3)
        b = slicerank.slice_rank_bounds(T, ar=ar.value, gr=gr.gr)
        exact = slicerank.slice_rank_exact(T).value
        assert b.lo <= exact <= b.hi
        assert b.three_gr_bound == 3 * gr.gr


def test_contradictory_bounds_raise():
    T = tensor.levi_civita(F3)  # every slice span has dimension 3
    for ar, gr in ((3.5, None), (None, 4)):
        with pytest.raises(ContradictoryBounds, match=r"lower bound 4 exceeds upper bound 3"):
            slicerank.slice_rank_bounds(T, ar=ar, gr=gr)
    assert issubclass(ContradictoryBounds, TrirankError)
    b = slicerank.slice_rank_bounds(T, ar=3.0, gr=3)
    assert (b.lo, b.hi) == (3, 3)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pair_search_matches_triple_search(data):
    T = draw_tensor(data, [data.draw(st.integers(1, 3)) for _ in range(3)])
    for lower_bound in range(reference_slice_rank(T)[0] + 1):
        value, witness = reference_slice_rank(T, lower_bound)
        res = slicerank.slice_rank_exact(T, lower_bound=lower_bound)
        assert (res.lo, res.hi, res.method) == (value, value, "annihilator_exact")
        assert witness_bytes(res.witness) == witness_bytes(witness)
        assert slicerank.check_witness(T, res)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pruned_search_matches_pair_search_on_4x4x4(data):
    draw = data.draw(st.sampled_from([draw_tensor, draw_x_plus_y_term]))
    T = draw(data, (4, 4, 4))
    sr = pair_search_slice_rank(T)[0]
    for lower_bound in range(sr + 1):
        value, witness = pair_search_slice_rank(T, lower_bound)
        res = slicerank.slice_rank_exact(T, lower_bound=lower_bound)
        assert (res.value, witness_bytes(res.witness)) == (value, witness_bytes(witness))
    with pytest.raises(ContradictoryBounds, match=rf"below the lower bound {sr + 1}"):
        slicerank.slice_rank_exact(T, lower_bound=sr + 1)


def test_pruning_eliminates_a_tenth_of_the_form_matrices(monkeypatch):
    T = tensor.random_tensor(F3, (4, 4, 4), seed=0)
    eliminated = []
    batched_rank = linalg.batched_rank

    def counting(Ms, F):
        eliminated.append(len(Ms))
        return batched_rank(Ms, F)

    monkeypatch.setattr(linalg, "batched_rank", counting)
    reference = pair_search_slice_rank(T)
    unpruned, eliminated[:] = sum(eliminated), []
    res = slicerank.slice_rank_exact(T)
    assert (res.value, witness_bytes(res.witness)) == (reference[0], witness_bytes(reference[1]))
    assert 0 < sum(eliminated) <= unpruned // 10


@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_exact_search_within_bounds_on_4x4x4(data):
    T = draw_tensor(data, (4, 4, 4))
    res = slicerank.slice_rank_exact(T)
    assert slicerank.check_witness(T, res)
    ar = analytic.analytic_rank(T).value
    lower = geometric.geometric_rank(T, kmax=3).gr
    if math.isfinite(ar):
        lower = max(lower, math.ceil(ar - 1e-9))
    assert lower <= res.value <= min(tensor.slice_space(T, ax).dim for ax in "xyz")


def test_lower_bound_above_slice_rank_raises():
    T = tensor.identity_tensor(F3, 2)
    assert slicerank.slice_rank_exact(T, lower_bound=2).value == 2
    with pytest.raises(ContradictoryBounds, match=r"slice rank 2 is below the lower bound 3"):
        slicerank.slice_rank_exact(T, lower_bound=3)


def test_overestimated_gr_does_not_stop_the_search():
    # an x-term plus a y-term has SR 2, yet every slice span has dimension 3, so
    # a GR of 3 passes the bounds check; the search must not stop at total 3
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 5:
        a, b = rng.integers(0, 3, (2, 3))
        B, C = rng.integers(0, 3, (2, 3, 3))
        T = tensor.Tensor3(F3, F3.add[F3.mul[a[:, None, None], B], F3.mul[b[:, None], C[:, None]]])
        if min(tensor.slice_space(T, ax).dim for ax in "xyz") < 3:
            continue
        ar = analytic.analytic_rank(T).value
        res = slicerank.slice_rank(T, ar=ar, gr=2)
        assert (res.value, res.method) == (2, "annihilator_exact")
        with pytest.raises(ContradictoryBounds, match=r"slice rank 2 is below the lower bound 3"):
            slicerank.slice_rank(T, ar=ar, gr=3)
        checked += 1


def test_check_witness_rejects_a_wrong_witness():
    T = tensor.levi_civita(F3)
    res = slicerank.slice_rank_exact(T)
    subs = slicerank.subspaces(F3, 3)
    U, V, W = subs[2][0], subs[3][0], subs[1][0]  # codims 1 + 0 + 2 = 3
    assert restrict(T, U, V, W).any()
    assert not slicerank.check_witness(T, slicerank.SRResult(3, 3, res.method, (U, V, W)))
    assert not slicerank.check_witness(T, slicerank.SRResult(2, 2, res.method, res.witness))
    assert not slicerank.check_witness(T, slicerank.SRResult(3, 3, "bounds_only"))


def test_subadditivity_on_exact_scope_pairs():
    pool = [tensor.random_tensor(F3, (2, 2, 2), seed=s) for s in range(6)]
    for f in pool:
        for g in pool:
            fg = tensor.Tensor3(F3, F3.add[f.entries, g.entries])
            sf = slicerank.slice_rank_exact(f).value
            sg = slicerank.slice_rank_exact(g).value
            assert slicerank.slice_rank_exact(fg).value <= sf + sg


def test_chain_report_levi_civita():
    rep = slicerank.verify_rank_chain(tensor.levi_civita(F3), seed=7)
    assert rep.sr.value == 3
    assert rep.gr.gr == 2
    assert rep.all_hold
    assert str(rep.ratio_sr_gr) == "3/2"
    assert not rep.ar_skipped


def test_chain_report_skips_ar_over_f2():
    F2 = make_field(2)
    rep = slicerank.verify_rank_chain(tensor.identity_tensor(F2, 2))
    assert rep.ar_skipped
    assert rep.ar is None
    assert rep.holds_gr_271ar is None
    assert rep.all_hold  # the SR/GR side still checks


def test_chain_report_zero_tensor():
    rep = slicerank.verify_rank_chain(tensor.zero_tensor(F3, (2, 2, 2)))
    assert rep.sr.value == 0 and rep.gr.gr == 0
    assert rep.all_hold


def test_chain_report_zero_tensor_over_f2_leaves_the_ar_checks_open():
    rep = slicerank.verify_rank_chain(tensor.zero_tensor(make_field(2), (2, 2, 2)))
    assert rep.ar_skipped and rep.ar is None
    assert (rep.holds_gr_271ar, rep.holds_sr_813ar, rep.holds_ar_le_sr) == (None, None, None)
    assert rep.all_hold
