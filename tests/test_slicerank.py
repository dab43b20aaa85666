import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trirank import analytic, geometric, linalg, rankprofile, slicerank, tensor
from trirank.errors import ContradictoryBounds, OutOfExactScope, TrirankError
from trirank.fields import make_field

from jacobian_reference import kernel_basis

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
        kernel_basis(slicerank._forms(T, U[None], V[None])[0], F), F
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


@pytest.mark.parametrize("header", ["3^1 2 0 3", "3^1 2 2 0", "3^1 0 3 3", "3^1 2 2 2"])
def test_empty_axes_and_the_zero_tensor_have_sr_zero_with_a_witness(header):
    T = tensor.loads(f"tensor {header}\n")
    res = slicerank.slice_rank(T, exact=True)
    assert (res.lo, res.hi, res.method) == (0, 0, "annihilator_exact")
    assert slicerank.check_witness(T, res)
    assert [len(B) for B in res.witness] == list(T.dims)  # all of F^n1 x F^n2 x F^n3


def test_exact_searches_make_no_echelon_form(monkeypatch):
    def refused(*args):
        raise AssertionError("an echelon form in the exact search")

    batch = [tensor.random_tensor(F3, (3, 3, 3), seed=s) for s in range(4)]
    batch += [tensor.identity_tensor(F3, 3), tensor.zero_tensor(F3, (3, 3, 3))]
    one = tensor.random_tensor(F3, (4, 4, 4), seed=0)
    monkeypatch.setattr(linalg, "batched_rref", refused)
    monkeypatch.setattr(linalg, "rref", refused)
    stacked, alone = slicerank.slice_ranks(batch, exact=True), slicerank.slice_rank(one, exact=True)
    monkeypatch.undo()
    for T, res in zip(batch + [one], stacked + [alone]):
        assert slicerank.check_witness(T, res)


def test_a_stack_with_kernels_of_dim_zero_and_n3():
    # identity_2's first minimal pair is (F^2, F^2), whose 4 x 2 form has rank 2: W = 0;
    # the zero tensor's form is zero: W = F^2, the identity basis
    batch = [
        tensor.identity_tensor(F3, 2),
        tensor.zero_tensor(F3, (2, 2, 2)),
        tensor.random_tensor(F3, (2, 2, 2), seed=3),
    ]
    stacked = slicerank.slice_ranks(batch, exact=True)
    assert [res.value for res in stacked[:2]] == [2, 0]
    assert stacked[0].witness[2].shape == (0, 2)
    assert stacked[1].witness[2].tobytes() == np.eye(2, dtype=np.int32).tobytes()
    for T, res in zip(batch, stacked):
        assert slicerank.check_witness(T, res)
        assert outcome(res) == outcome(slicerank.slice_rank(T, exact=True))


def test_exact_scope_guard():
    with pytest.raises(OutOfExactScope):
        slicerank.slice_rank_exact(tensor.tk_family(F3, 2))
    with pytest.raises(OutOfExactScope):
        slicerank.slice_rank_exact(tensor.identity_tensor(make_field(5), 2))
    with pytest.raises(OutOfExactScope):  # an antichain support, yet no vertex cover
        slicerank.slice_rank(tensor.tk_family(F3, 2), exact=True)


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


@settings(max_examples=60, deadline=None)
@given(cells=st.lists(st.tuples(*[st.integers(0, 2)] * 3), max_size=8, unique=True))
def test_vertex_cover_keeps_the_antichain_outcome(cells):
    # the projection test only answers None sooner: the outcome is the pairwise antichain test's
    e = np.zeros((3, 3, 3), dtype=np.int32)
    for cell in cells:
        e[cell] = 1
    T = tensor.Tensor3(F3, e)
    supports = [np.argwhere(T.entries[np.ix_(*sets)]).tolist() for sets in T.summands]
    if all(slicerank._is_antichain(c) for c in supports):
        expected = sum(slicerank._min_vertex_cover(c) for c in supports)
    else:
        expected = None
    assert slicerank.vertex_cover_sr(T) == expected


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


def test_exact_routes_compute_no_bounds(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("slice_rank_bounds called")

    monkeypatch.setattr(slicerank, "slice_rank_bounds", fail)
    L = tensor.levi_civita(F3)
    res = slicerank.slice_rank(L, ar=2.5, gr=3)  # vertex cover
    assert res.to_dict() == {"lo": 3, "hi": 3, "method": "vertex_cover", "exact": True,
                             "three_gr_bound": 9}
    T = tensor.random_tensor(F3, (3, 3, 3), seed=0)
    res = slicerank.slice_rank(T, ar=2.145950169799729, gr=3)  # exact search
    assert res.to_dict() == {"lo": 3, "hi": 3, "method": "annihilator_exact", "exact": True,
                             "three_gr_bound": 9}
    assert [B.shape for B in res.witness] == [(3, 3), (3, 3), (0, 3)]
    assert slicerank.slice_rank(T).three_gr_bound is None
    with pytest.raises(ContradictoryBounds, match=r"slice rank 3 is below the lower bound 4"):
        slicerank.slice_rank(L, gr=4)


def test_exact_search_blocks_fit_in_one_chunk():
    # block (0, 0) leaves best <= n3 <= EXACT_DIM_LIMIT, so only blocks with
    # c1 + c2 < EXACT_DIM_LIMIT are searched; each is one batched_rank call
    largest = 0
    for q in (2, 3):
        assert q <= slicerank.EXACT_Q_LIMIT
        counts = {
            n: [len(slicerank.subspaces(make_field(q), n)[n - c]) for c in range(n + 1)]
            for n in range(slicerank.EXACT_DIM_LIMIT + 1)
        }
        for n1, n2 in itertools.product(counts, repeat=2):
            for c1, c2 in itertools.product(range(n1 + 1), range(n2 + 1)):
                if c1 + c2 < slicerank.EXACT_DIM_LIMIT:
                    largest = max(largest, counts[n1][c1] * counts[n2][c2])
    assert largest == 40 * 130 <= rankprofile.CHUNK


def test_exact_search_calls_stay_within_chunk(monkeypatch):
    # Pruning leaves few U per block, so no block in the exact scope nears CHUNK
    # pairs.  This tensor's block (c1, c2) = (1, 0) keeps two U.
    T = tensor.Tensor3(F3, [
        [[0, 1, 2, 0], [0, 0, 2, 1], [2, 0, 1, 1], [1, 1, 0, 1]],
        [[1, 0, 2, 0], [1, 2, 2, 1], [1, 2, 2, 1], [0, 2, 0, 1]],
        [[0, 2, 1, 0], [0, 0, 1, 2], [1, 0, 2, 2], [2, 2, 0, 2]],
        [[0, 2, 1, 0], [0, 0, 1, 2], [1, 0, 2, 2], [2, 2, 0, 2]],
    ])
    expected = slicerank.slice_rank_exact(T)
    batched_rank = linalg.batched_rank

    def recording(Ms, F):
        seen.append(len(Ms))
        return batched_rank(Ms, F)

    monkeypatch.setattr(linalg, "batched_rank", recording)
    seen = []
    res = slicerank.slice_rank_exact(T)
    assert res.value == expected.value
    assert witness_bytes(res.witness) == witness_bytes(expected.witness)
    assert max(seen[1:]) <= rankprofile.CHUNK  # seen[0] ranks the pruning elements, one per U
    assert max(seen[1:]) == 2


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pair_search_matches_triple_search(data):
    T = draw_tensor(data, [data.draw(st.integers(1, 3)) for _ in range(3)])
    value, witness = reference_slice_rank(T)
    res = slicerank.slice_rank(T, exact=True)
    assert (res.lo, res.hi, res.method) == (value, value, "annihilator_exact")
    assert witness_bytes(res.witness) == witness_bytes(witness)
    assert slicerank.check_witness(T, res)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pruned_search_matches_pair_search_on_4x4x4(data):
    draw = data.draw(st.sampled_from([draw_tensor, draw_x_plus_y_term]))
    T = draw(data, (4, 4, 4))
    sr, witness = pair_search_slice_rank(T)
    res = slicerank.slice_rank(T, exact=True)
    assert (res.value, witness_bytes(res.witness)) == (sr, witness_bytes(witness))
    for lower_bound in range(sr + 1):
        assert slicerank.slice_rank(T, ar=lower_bound).value == sr
    message = rf"slice rank {sr} is below the lower bound {sr + 1}"
    with pytest.raises(ContradictoryBounds, match=message):
        slicerank.slice_rank(T, ar=sr + 1)


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
    for exact in (False, True):  # the vertex cover, then the exact search
        for ar in range(3):
            assert slicerank.slice_rank(T, ar=ar, exact=exact).value == 2
        with pytest.raises(ContradictoryBounds, match=r"slice rank 2 is below the lower bound 3"):
            slicerank.slice_rank(T, ar=3, exact=exact)


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


@pytest.mark.parametrize(
    "case", ["repeated_row", "dependent_rows_empty_w", "wrong_width", "codes_past_q", "negative_codes"]
)
def test_check_witness_rejects_malformed_bases(case):
    if case == "repeated_row":  # one U row twice: the codims sum to 2, yet SR is 3
        T = tensor.levi_civita(F3)
        U, V, W = slicerank.slice_rank_exact(T).witness
        witness, value = (np.vstack([U, U[:1]]), V, W), 2
    elif case == "dependent_rows_empty_w":  # codims -1 + 0 + 1 = 0, yet SR is 1
        T = tensor.identity_tensor(F3, 1)
        witness, value = (np.array([[1], [1]]), np.array([[1]]), np.zeros((0, 1), int)), 0
    elif case == "wrong_width":  # a U basis two columns wide in F^3
        T = tensor.levi_civita(F3)
        U, V, W = slicerank.slice_rank_exact(T).witness
        witness, value = (U[:, :2], V, W), 3
    else:  # U's codes shifted by +3 or -3: outside [0, 3), though congruent mod 3
        T = tensor.levi_civita(F3)
        U, V, W = slicerank.slice_rank_exact(T).witness
        witness, value = (U + (3 if case == "codes_past_q" else -3), V, W), 3
    res = slicerank.SRResult(value, value, "annihilator_exact", witness)
    assert slicerank.check_witness(T, res) is False


def draw_batch(data):
    """One or two dims over F_2 and F_3, with repeats, zero tensors and antichain supports."""
    shapes = data.draw(st.lists(st.tuples(*[st.integers(1, 4)] * 3), min_size=1, max_size=2))
    batch = []
    for _ in range(data.draw(st.integers(1, 6))):
        dims = data.draw(st.sampled_from(shapes))
        kind = data.draw(st.sampled_from(["random", "x_plus_y", "zero", "diagonal", "repeat"]))
        if kind == "repeat" and batch:
            batch.append(data.draw(st.sampled_from(batch)))
        elif kind in ("random", "x_plus_y"):
            batch.append((draw_tensor if kind == "random" else draw_x_plus_y_term)(data, dims))
        else:
            F = make_field(data.draw(st.sampled_from([2, 3])))
            e = np.zeros(dims, dtype=np.int32)
            if kind == "diagonal":  # each entry is its own summand: an antichain support
                n = min(dims)
                e[range(n), range(n), range(n)] = data.draw(
                    st.lists(st.integers(0, F.q - 1), min_size=n, max_size=n)
                )
            batch.append(tensor.Tensor3(F, e))
    return batch


def outcome(res):
    """An SRResult as comparable bytes, its witness included."""
    return res.lo, res.hi, res.method, witness_bytes(res.witness)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_stacked_search_matches_one_tensor_searches(data):
    batch = draw_batch(data)
    # every tensor is in the exact scope: only antichain supports go unsearched
    routed = slicerank.slice_ranks(batch)
    assert [res.method == "vertex_cover" for res in routed] == [
        slicerank.vertex_cover_sr(T) is not None for T in batch
    ]
    assert [res.to_dict() for res in routed] == [slicerank.slice_rank(T).to_dict() for T in batch]
    groups = {}
    for T in batch:
        groups.setdefault((T.field, T.dims), []).append(T)
    for tensors in groups.values():  # the stacked core, antichain supports included
        alone = [outcome(slicerank.slice_rank(T, exact=True)) for T in tensors]
        searches = zip(tensors, slicerank._pair_searches(tensors))
        assert [outcome(slicerank.slice_rank_exact(T, s)) for T, s in searches] == alone
        assert [outcome(res) for res in slicerank.slice_ranks(tensors, exact=True)] == alone
        srs = [sr for sr, *_ in alone]
        for drop in range(max(srs) + 1):  # every lower bound up to each tensor's own SR
            ars = [max(sr - drop, 0) for sr in srs]
            assert [res.value for res in slicerank.slice_ranks(tensors, ars, exact=True)] == srs
        for j, sr in enumerate(srs):  # one bound past its tensor's SR fails the stack
            message = rf"slice rank {sr} is below the lower bound {sr + 1}"
            with pytest.raises(ContradictoryBounds, match=message):
                slicerank.slice_ranks(tensors, srs[:j] + [sr + 1] + srs[j + 1 :], exact=True)
    for T, res in zip(batch, routed):
        if res.method != "vertex_cover":
            assert outcome(res) == outcome(slicerank.slice_rank(T, exact=True))


@pytest.mark.parametrize("chunk", [rankprofile.CHUNK, 64])
def test_stacked_search_calls_stay_within_chunk(monkeypatch, chunk):
    rng = np.random.default_rng(1)
    batch = [tensor.random_tensor(F3, (3, 3, 3), seed=s) for s in range(6)]
    for _ in range(4):  # x-term plus y-term: SR <= 2, so more U survive the pruning
        a, b = rng.integers(0, 3, (2, 3))
        B, C = rng.integers(0, 3, (2, 3, 3))
        batch.append(
            tensor.Tensor3(F3, F3.add[F3.mul[a[:, None, None], B], F3.mul[b[:, None], C[:, None]]])
        )
    monkeypatch.setattr(slicerank, "CHUNK", chunk)  # the pair blocks
    monkeypatch.setattr(rankprofile, "CHUNK", chunk)  # the pruning ranks
    batched_rank = linalg.batched_rank

    def recording(Ms, F):
        seen.append(len(Ms))
        return batched_rank(Ms, F)

    monkeypatch.setattr(linalg, "batched_rank", recording)
    alone = []
    for T in batch:
        seen = []
        alone.append((slicerank.slice_rank(T, exact=True), seen))
    seen = []
    results = slicerank.slice_ranks(batch, exact=True)
    stacked = seen
    for res, (expected, _) in zip(results, alone):
        assert outcome(res) == outcome(expected)
    assert max(stacked) <= chunk
    assert sum(stacked) == sum(sum(calls) for _, calls in alone)
    assert len(stacked) < sum(len(calls) for _, calls in alone)
    if chunk == 64:  # ten tensors' pruning ranks alone are 10 x 28 matrices: calls are split
        assert sum(stacked) > chunk


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
    assert rep.ar is not None and not rep.to_dict()["ar_skipped"]


def test_chain_report_skips_ar_over_f2():
    F2 = make_field(2)
    rep = slicerank.verify_rank_chain(tensor.identity_tensor(F2, 2))
    assert rep.to_dict()["ar_skipped"]
    assert rep.ar is None
    assert rep.checks["holds_gr_271ar"] is None
    assert rep.all_hold  # the SR/GR side still checks


def test_chain_report_zero_tensor():
    rep = slicerank.verify_rank_chain(tensor.zero_tensor(F3, (2, 2, 2)))
    assert rep.sr.value == 0 and rep.gr.gr == 0
    assert rep.all_hold


def test_chain_report_zero_tensor_over_f2_leaves_the_ar_checks_open():
    rep = slicerank.verify_rank_chain(tensor.zero_tensor(make_field(2), (2, 2, 2)))
    assert rep.to_dict()["ar_skipped"] and rep.ar is None
    ar_checks = ("holds_gr_271ar", "holds_sr_813ar", "holds_ar_le_sr")
    assert [rep.checks[name] for name in ar_checks] == [None, None, None]
    assert rep.all_hold


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_stacked_chains_match_one_tensor_chains(data):
    F2, F5 = make_field(2), make_field(5)
    shapes = data.draw(
        st.lists(st.tuples(*[st.integers(1, 3)] * 3), min_size=2, max_size=2, unique=True)
    )
    seed = data.draw(st.integers(0, 2 ** 16))
    # two (field, dims) groups of two, then the routes one tensor alone can take
    batch = [tensor.random_tensor(F3, dims, seed=seed + i) for i, dims in enumerate(shapes * 2)]
    outside = tensor.random_tensor(F5, (2, 2, 2), seed=seed).entries.copy()
    outside[0, 0] = 1  # (0, 0, 0) <= (0, 0, 1) in one summand: no antichain support
    batch += [
        tensor.zero_tensor(F3, shapes[0]),
        tensor.random_tensor(F2, shapes[1], seed=seed),
        tensor.identity_tensor(F3, 2),  # an antichain support
        tensor.Tensor3(F5, outside),  # outside the exact scope
    ]
    batch = data.draw(st.permutations(batch))
    n = len(batch)
    seeds = data.draw(st.lists(st.integers(0, 2 ** 31 - 1), min_size=n, max_size=n))
    stacked = slicerank.verify_rank_chains(batch, seeds=seeds)
    assert [rep.to_dict() for rep in stacked] == [
        slicerank.verify_rank_chain(T, seed=s).to_dict() for T, s in zip(batch, seeds)
    ]
    assert [rep.sr.method for rep in stacked].count("bounds_only") >= 1


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_stacked_witnesses_match_the_kernel_reference(data):
    batch = draw_batch(data)
    groups = {}
    for T in batch:
        groups.setdefault((T.field, T.dims), []).append(T)
    for tensors in groups.values():  # mixed fields and dims, repeats and antichains included
        for T, search in zip(tensors, slicerank._pair_searches(tensors)):
            U, V, W = search.witness
            form = slicerank._forms(T, U[None], V[None])[0]
            reference = linalg.row_space_basis(kernel_basis(form, T.field), T.field)
            assert witness_bytes([W]) == witness_bytes([reference])
            res = slicerank.slice_rank_exact(T, search=search)
            assert res is search
            assert slicerank.check_witness(T, res)
