"""The rank-profile kernel against a table-lookup reference over all affine points."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trirank import analytic, cli, geometric, linalg, rankprofile, slicerank, tensor
from trirank.errors import BudgetExceeded
from trirank.fields import make_field, parse_field
from trirank.rankprofile import (
    CHUNK,
    _det_coefficients,
    _det_zeros,
    _determinants,
    _frobenius_order,
    _orbit_batches,
    _rank_tables,
    point_block,
    rank_profile,
    rank_profiles,
)

from jacobian_reference import table_contraction

REF_POINTS = 20000  # largest affine point set the reference enumerates


def reference_hist(T, k, axis, X=None):
    """Rank histogram over the points X (default: every affine point)."""
    Fk = T.field.extension(k)
    A = np.asarray(tensor.slices(T, axis), dtype=np.int32)
    n = A.shape[0]
    if X is None:
        X = np.indices((Fk.q,) * n).reshape(n, -1).T
    ranks = linalg.batched_rank(table_contraction(A, Fk, X), Fk)
    return np.bincount(ranks, minlength=min(A.shape[1:]) + 1)


def reference_sampled_hist(T, k, axis, mc_samples, seed):
    """The same uniform draws the sampled path makes, contracted by table."""
    Fk = T.field.extension(k)
    n = tensor.slices(T, axis).shape[0]
    rng = np.random.default_rng(seed ^ (k * 0x9E3779B9))
    hist, remaining = 0, mc_samples
    while remaining > 0:
        m = min(remaining, 1 << 15)
        X = rng.integers(0, Fk.q, size=(m, n), dtype=np.int64).astype(np.int32)
        hist = hist + reference_hist(T, k, axis, X)
        remaining -= m
    return hist


def draw_tensor(data, F, axis=None, max_axis_dim=3):
    dims = [data.draw(st.integers(1, 3)) for _ in range(3)]
    if axis is not None:
        dims["xyz".index(axis)] = data.draw(st.integers(1, max_axis_dim))
    size = int(np.prod(dims))
    entries = data.draw(st.lists(st.integers(0, F.q - 1), min_size=size, max_size=size))
    return tensor.Tensor3(F, np.array(entries, dtype=np.int32).reshape(dims))


# towers are built over prime fields only, so F_9 appears at k = 1
FIELD_LEVELS = [(f, k) for f in ("2^1", "3^1", "5^1") for k in (1, 2, 3)] + [("3^2", 1)]


@pytest.mark.parametrize("axis", "xyz")
@pytest.mark.parametrize("field,k", FIELD_LEVELS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_exact_profile_matches_reference(field, k, axis, data):
    F = parse_field(field)
    max_n = 1
    while max_n < 3 and F.q ** (k * (max_n + 1)) <= REF_POINTS:
        max_n += 1
    T = draw_tensor(data, F, axis, max_n)
    prof = rank_profile(T, k, axis)
    assert prof.exact and prof.samples is None
    assert prof.total == F.q ** (k * T.dims["xyz".index(axis)])
    assert prof.hist.tolist() == reference_hist(T, k, axis).tolist()


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    field=st.sampled_from(["2^1", "3^1", "5^1", "3^2"]),
    k=st.integers(1, 3),
    axis=st.sampled_from("xyz"),
    samples=st.integers(1, 600),
    seed=st.integers(0, 2 ** 31 - 1),
)
def test_sampled_profile_uses_the_same_draws(data, field, k, axis, samples, seed):
    F = parse_field(field)
    assume(F.k == 1 or k == 1)
    T = draw_tensor(data, F)
    prof = rank_profile(T, k, axis, budget=0, mc_samples=samples, seed=seed)
    assert not prof.exact and prof.samples == samples
    ref = reference_sampled_hist(T, k, axis, samples, seed)
    assert prof.hist.tolist() == ref.tolist()


def test_sampled_profile_spans_several_draws():
    T = tensor.random_tensor(make_field(3), (3, 2, 2), seed=5)
    prof = rank_profile(T, 2, "x", budget=0, mc_samples=40000, seed=3)
    ref = reference_sampled_hist(T, 2, "x", 40000, 3)
    assert prof.hist.tolist() == ref.tolist()


@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(2, 729),
    n=st.integers(1, 6),
    samples=st.integers(1, 20000),
    seed=st.integers(0, 2 ** 31 - 1),
    k=st.integers(1, 6),
)
@example(q=729, n=6, samples=20000, seed=7, k=1)
@example(q=3, n=1, samples=CHUNK + 1, seed=0, k=3)
def test_uniform_points_do_not_depend_on_the_chunk(q, n, samples, seed, k):
    rng = np.random.default_rng(seed ^ (k * 0x9E3779B9))
    one = rng.integers(0, q, size=(samples, n), dtype=np.int64)
    draws = list(rankprofile.uniform_points(q, n, samples, seed, k))
    assert all(X.dtype == np.int64 and len(X) <= CHUNK for X in draws)
    assert np.array_equal(np.concatenate(draws), one)


def draw_direct_sum(data, F, limit):
    """1-3 random summands, zero-padded and permuted on every axis, no axis past limit."""
    count = data.draw(st.integers(1, min(3, limit)))
    used, blocks = [0, 0, 0], []
    for left in reversed(range(count)):  # `left` summands still need an index per axis
        shape = [data.draw(st.integers(1, min(3, limit - used[a] - left))) for a in range(3)]
        size = int(np.prod(shape))
        entries = data.draw(st.lists(st.integers(0, F.q - 1), min_size=size, max_size=size))
        blocks.append((list(used), np.array(entries, dtype=np.int32).reshape(shape)))
        used = [u + n for u, n in zip(used, shape)]
    dims = [u + data.draw(st.integers(0, min(1, limit - u))) for u in used]  # zero slices
    e = np.zeros(dims, dtype=np.int32)
    for (i, j, k), B in blocks:
        e[i : i + B.shape[0], j : j + B.shape[1], k : k + B.shape[2]] = B
    for a, n in enumerate(dims):
        e = np.take(e, data.draw(st.permutations(range(n))), axis=a)
    return tensor.Tensor3(F, e)


@pytest.mark.parametrize("field,k", FIELD_LEVELS)
@settings(max_examples=10, deadline=None)
@given(data=st.data(), samples=st.integers(1, 300), seed=st.integers(0, 2 ** 31 - 1))
def test_direct_sums_match_the_unsplit_reference(field, k, data, samples, seed):
    F = parse_field(field)
    limit = 1
    while limit < 5 and F.q ** (k * (limit + 1)) <= REF_POINTS:
        limit += 1
    T = draw_direct_sum(data, F, limit)
    for axis in "xyz":
        prof = rank_profile(T, k, axis)
        assert prof.exact and prof.hist.tolist() == reference_hist(T, k, axis).tolist()
        prof = rank_profile(T, k, axis, budget=0, mc_samples=samples, seed=seed)
        ref = reference_sampled_hist(T, k, axis, samples, seed)
        assert prof.hist.tolist() == ref.tolist()


def counting_eliminations(mp):
    """Patch linalg.batched_rank to record the size of every stack; return the list."""
    eliminated = []
    batched_rank = linalg.batched_rank

    def counting(Ms, F, *args, **kwargs):
        eliminated.append(len(Ms))
        return batched_rank(Ms, F, *args, **kwargs)

    mp.setattr(linalg, "batched_rank", counting)
    return eliminated


def frobenius_orbits(p, k, n):
    """Orbits of a -> a^p on the projective points of F_{p^k}^n, by Burnside's lemma.

    sigma^j fixes the points over F_{p^g}, g = gcd(j, k).
    """
    fixed = ((p ** (g * n) - 1) // (p ** g - 1) for g in (math.gcd(j, k) for j in range(k)))
    return sum(fixed) // k


TABLE_SHAPES = [(2, 2, 3), (3, 3, 2)]  # coordinate counts differ on every axis, none below 2


@pytest.mark.parametrize("field,k", [("2^1", 1), ("2^1", 3), ("3^1", 1), ("3^1", 2), ("5^1", 1)])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_tabulated_and_eliminated_summands_match_the_reference(field, k, seed):
    # two connected summands and one zero slice (a free coordinate) on every
    # axis, sampled with every, some and no summand read from its table
    F = parse_field(field)
    q = F.q ** k
    rng = np.random.default_rng(seed)
    e = np.zeros((6, 6, 6), dtype=np.int32)
    at = np.zeros(3, dtype=int)
    for shape in TABLE_SHAPES:
        B = rng.integers(0, F.q, size=shape)
        # nonzero on the three lines through B[0, 0, 0]: the block is connected
        B[:, 0, 0], B[0, :, 0], B[0, 0, :] = (rng.integers(1, F.q, size=m) for m in shape)
        e[tuple(slice(a, a + m) for a, m in zip(at, shape))] = B
        at += shape
    for a in range(3):
        e = np.take(e, rng.permutation(6), axis=a)
    T = tensor.Tensor3(F, e)
    assert len(T.summands) == 2
    for a, axis in enumerate("xyz"):
        # a summand is tabulated when its affine points are at most the draws:
        # then one projective point per Frobenius orbit is eliminated, else the draws
        small, large = sorted(q ** shape[a] for shape in TABLE_SHAPES)
        proj = {q ** shape[a]: frobenius_orbits(F.p, k, shape[a]) for shape in TABLE_SHAPES}
        cases = {large: proj[small] + proj[large], small: proj[small] + small,
                 small - 1: 2 * (small - 1)}
        for samples, matrices in cases.items():
            with pytest.MonkeyPatch.context() as mp:
                eliminated = counting_eliminations(mp)
                prof = rank_profile(T, k, axis, budget=0, mc_samples=samples, seed=seed)
            assert sum(eliminated) == matrices
            ref = reference_sampled_hist(T, k, axis, samples, seed)
            assert prof.hist.tolist() == ref.tolist()


def test_eliminations_are_pinned(monkeypatch):
    F3 = make_field(3)
    t2, identity = tensor.tk_family(F3, 2), tensor.identity_tensor(F3, 4)
    # one summand of 81 affine points and a zero slice, sampled 80 times
    big = np.zeros((5, 3, 3), dtype=np.int32)
    big[:4] = tensor.random_tensor(F3, (4, 3, 3), seed=1).entries
    big = tensor.Tensor3(F3, big)
    assert len(big.summands) == 1
    eliminated = counting_eliminations(monkeypatch)
    for T, k, kwargs, exact, matrices in [
        (t2, 2, {}, True, 2 * 52),  # each summand's Frobenius orbits on the 91 points of P^2(F_9)
        (t2, 3, {}, True, 2 * 261),  # each summand's orbits on the 757 points of P^2(F_27)
        (identity, 3, {}, True, 4),
        # the tower's random 4x4x4 (seed 808): its 279 singular orbit representatives
        (tensor.random_tensor(F3, (4, 4, 4), seed=808), 3, {}, True, 279),
        (big, 1, {"budget": 0, "mc_samples": 80}, False, 80),  # 81 > 80: at the draws
    ]:
        eliminated.clear()
        assert rank_profile(T, k, **kwargs).exact == exact
        assert sum(eliminated) == matrices


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2)], ids=["F2-2x2", "F2-3x3", "F3-2x2"])
def test_determinant_is_nonzero_exactly_on_full_rank_matrices(q, n):
    F = make_field(q)
    Ms = np.array(list(itertools.product(range(q), repeat=n * n)), dtype=np.int32)
    Ms = Ms.reshape(-1, n, n)  # every n x n matrix over F
    assert np.array_equal(_determinants(Ms, F) != 0, linalg.batched_rank(Ms, F) == n)


DET_FIELDS = ["2^1", "3^1", "2^2", "5^1", "2^3", "3^2", "3^3"]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    field=st.sampled_from(DET_FIELDS),
    s=st.integers(1, 4),
    n=st.integers(1, 4),
    blocks=st.integers(1, 3),
    in_fp=st.booleans(),
)
def test_determinant_zeros_are_the_singular_projective_points(data, field, s, n, blocks, in_fp):
    # det(sum_i x_i A_i) from n^s determinants, read on every projective point
    F = parse_field(field)
    assume(F.q ** n <= REF_POINTS)
    top = F.p if in_fp else F.q
    entries = data.draw(st.lists(st.integers(0, top - 1), min_size=n * blocks * s * s,
                                 max_size=n * blocks * s * s))
    A = np.array(entries, dtype=np.int32).reshape(n, blocks, s, s)
    coefs = _det_coefficients(A, F)
    found = np.zeros((blocks, F.q ** n), dtype=bool)
    for g, idx in _det_zeros(coefs, F, n, s):
        assert not found[g, idx].any()  # each point is read once
        found[g, idx] = True
    # the projective points: base-q indices [q^i, 2 q^i), last nonzero coordinate 1
    X = np.concatenate([point_block(F.q, n, F.q ** i, 2 * F.q ** i) for i in range(n)])
    for g in range(blocks):
        dets = _determinants(table_contraction(A[:, g], F, X), F)
        assert np.array_equal(found[g, X @ F.q ** np.arange(n)], dets == 0)
        assert found[g].sum() == (dets == 0).sum()
        if not coefs[g].any():  # a zero polynomial vanishes everywhere
            assert not dets.any()


@pytest.mark.parametrize("field,n,s,blocks", [("3^3", 3, 3, 3), ("2^1", 12, 2, 2), ("5^1", 4, 4, 2)])
def test_determinant_route_in_small_slices_reads_the_same(monkeypatch, field, n, s, blocks):
    # with CHUNK = 5, every determinant slice and grid step is cut, and the
    # zeros and histograms stay those of one slice
    F = parse_field(field)
    A = np.random.default_rng(n).integers(0, F.q, size=(n, blocks, s, s)).astype(np.int32)
    coefs = _det_coefficients(A, F)

    def zeros():
        return sorted((g, x) for gs, idx in _det_zeros(coefs, F, n, s) for g, x in zip(gs, idx))

    whole, hists = zeros(), rankprofile._singular_hists(A, coefs, F, 1)
    assert whole
    monkeypatch.setattr(rankprofile, "CHUNK", 5)
    assert np.array_equal(_det_coefficients(A, F), coefs)
    assert zeros() == whole
    assert np.array_equal(rankprofile._singular_hists(A, coefs, F, 1), hists)


def test_levels_mixing_both_routes_match_the_reference(monkeypatch):
    # at k = 3 the random 3x3x3 blocks are ranked from their determinants, and
    # Levi-Civita's skew slices (determinant zero) and T_2's summands by orbits
    F3 = make_field(3)
    lc, extra = tensor.levi_civita(F3), tensor.random_tensor(F3, (3, 3, 3), seed=4)
    tensors = [lc, tensor.tk_family(F3, 2), tensor.direct_sum(lc, extra)] + [
        tensor.random_tensor(F3, (3, 3, 3), seed=s) for s in range(3)
    ]
    ranked = []
    singular_hists = rankprofile._singular_hists

    def recording(A, *args):
        ranked.append(A.shape[1])
        return singular_hists(A, *args)

    monkeypatch.setattr(rankprofile, "_singular_hists", recording)
    profiles = rank_profiles(tensors, [3])
    assert ranked == [4]  # the direct sum's random summand and the three random tensors
    # 27^6 points for a direct sum: the ranks of its summands add up
    lc_hist = reference_hist(lc, 3, "x")
    refs = [lc_hist, np.convolve(lc_hist, lc_hist), np.convolve(lc_hist, reference_hist(extra, 3, "x"))]
    refs += [reference_hist(T, 3, "x") for T in tensors[3:]]
    assert [prof.hist.tolist() for (prof,) in profiles] == [ref.tolist() for ref in refs]


def test_exact_counts_past_int64_are_python_ints():
    T = tensor.identity_tensor(make_field(3), 50)  # 3^50 points, each summand one
    prof = rank_profile(T, 1, budget=3 ** 50)
    assert prof.exact and prof.hist.tolist() == [math.comb(50, r) * 2 ** r for r in range(51)]
    # every summand of identity_14 fits the budget at k = 3, its 27^14 points do not fit int64
    prof = rank_profile(tensor.identity_tensor(make_field(3), 14), 3)
    assert prof.exact and prof.hist.tolist() == [math.comb(14, r) * 26 ** r for r in range(15)]


def test_a_summand_past_int64_is_refused():
    # every x slice has an entry at (y, z) = (0, 0): one summand of 3^40 >= 2^63 points
    T = tensor.loads("tensor 3^1 40 1 1\n" + "".join(f"{i} 0 0 1\n" for i in range(40)))
    with pytest.raises(BudgetExceeded, match="overflow int64"):
        rank_profile(T, 1, budget=3 ** 40)


@pytest.mark.parametrize("header,axis", [
    ("tensor 3^1 0 100000000 1", "y"),  # no summand: numpy was asked for 6 TiB of draws
    ("tensor 3^1 700 1 1\n0 0 0 1", "x"),  # 3^700 would not convert to a float
], ids=["empty_0x1e8x1_y", "700x1x1_x"])
def test_sampled_levels_past_the_float_range_are_refused_before_drawing(header, axis):
    with pytest.raises(BudgetExceeded, match="float range"):
        rank_profile(tensor.loads(header), 1, axis)


def test_t2_profiles_are_pinned():
    # the heaviest stacks of the benchmark: 6x6 over F_9 and F_27, exact and sampled
    T = tensor.tk_family(make_field(3), 2)
    exact = rank_profile(T, 2)
    assert exact.exact and exact.hist.tolist() == [1, 0, 1456, 0, 529984, 0, 0]
    # Levi-Civita's slices are skew-symmetric, so each of its 27^3 - 1 nonzero points
    # has rank 2: T_2's histogram is (1 + (27^3 - 1) t^2)^2
    exact = rank_profile(T, 3)
    levi = [1, 0, 27 ** 3 - 1]
    assert exact.exact and exact.hist.tolist() == [1, 0, 39364, 0, 387381124, 0, 0]
    assert exact.hist.tolist() == np.convolve(levi, levi).tolist() + [0, 0]
    # each summand's 27^3 points exceed a budget of 19682: the level is sampled
    sampled = rank_profile(T, 3, budget=19682, seed=7)
    assert not sampled.exact and sampled.hist.tolist() == [0, 0, 10, 0, 99990, 0, 0]


def test_budget_counts_affine_points():
    # of the largest summand at k = 2, not of the whole tensor
    F3 = make_field(3)
    for T, points in [
        (tensor.identity_tensor(F3, 2), 9),
        (tensor.levi_civita(F3), 9 ** 3),
        (tensor.tk_family(F3, 2), 9 ** 3),  # 9^6 points overall
    ]:
        assert rank_profile(T, 2, budget=points).exact
        assert not rank_profile(T, 2, budget=points - 1, mc_samples=10).exact


def test_a_direct_sum_of_summands_within_the_budget_is_exact(monkeypatch):
    # 3x3x3 + 2x2x2 + 1x1x1 zero over F_3: 3^6 points along each axis, each
    # summand at most 3^3, and the zero summand's coordinate is in no summand
    F3 = make_field(3)
    parts = [tensor.random_tensor(F3, dims, seed=s) for dims, s in [((3, 3, 3), 2), ((2, 2, 2), 3)]]
    assert [len(S.summands) for S in parts] == [1, 1]
    T = tensor.direct_sum(tensor.direct_sum(*parts), tensor.zero_tensor(F3, (1, 1, 1)))
    eliminated = counting_eliminations(monkeypatch)
    for axis in "xyz":
        eliminated.clear()
        prof = rank_profile(T, 1, axis, budget=3 ** 3)
        assert sum(eliminated) == (3 ** 3 - 1) // 2 + (3 ** 2 - 1) // 2  # one per projective point
        assert prof.exact and prof.hist.tolist() == reference_hist(T, 1, axis).tolist()
        assert not rank_profile(T, 1, axis, budget=3 ** 3 - 1, mc_samples=10).exact


@pytest.mark.parametrize("field,n", [("2^1", 3), ("3^1", 3), ("3^2", 2), ("311^1", 1), ("3^3", 3)])
def test_rank_table_matches_every_affine_point(field, n):
    # each projective point's rank is written at its q - 1 nonzero multiples
    # (one over F_2), and x = 0 keeps rank 0
    F = parse_field(field)
    A = np.random.default_rng(n).integers(0, F.q, size=(n, 2, 3)).astype(np.int32)
    X = point_block(F.q, n, 0, F.q ** n)
    table = _rank_tables(A[:, None], F, _frobenius_order(A, F))[0]
    assert table.tolist() == linalg.batched_rank(table_contraction(A, F, X), F).tolist()


@pytest.mark.parametrize("field,in_fp", [("2^3", True), ("3^2", True), ("3^2", False), ("5^1", True)])
def test_stacked_rank_tables_match_each_blocks_table(field, in_fp):
    # four blocks of one shape and Frobenius order, ranked as one stack
    F = parse_field(field)
    A = np.random.default_rng(F.q).integers(0, F.p if in_fp else F.q, size=(3, 4, 2, 3))
    A = A.astype(np.int32)
    order = _frobenius_order(A, F)
    assert order == (F.k if in_fp else 1)
    stacked = _rank_tables(A, F, order)
    assert stacked.shape == (4, F.q ** 3)
    for g in range(4):
        block = A[:, g]
        table = _rank_tables(block[:, None], F, _frobenius_order(block, F))[0]
        assert stacked[g].tolist() == table.tolist()


def test_stacked_summand_tables_read_the_sampled_ranks():
    # T_2's two summands share a block shape: both are tabled (9^3 <= 1000 draws) in one stack
    T = tensor.tk_family(make_field(3), 2)
    prof = rank_profile(T, 2, budget=0, mc_samples=1000, seed=5)
    assert prof.hist.tolist() == reference_sampled_hist(T, 2, "x", 1000, 5).tolist()


# F_p entries over F_{p^k}: one projective point per Frobenius orbit is eliminated
PRIME_ENTRY_LEVELS = [(2, 2, 3), (2, 3, 3), (3, 2, 3), (3, 3, 2), (5, 2, 2), (5, 3, 2)]


@pytest.mark.parametrize("p,k,n", PRIME_ENTRY_LEVELS)
@pytest.mark.parametrize("seed", range(3))
def test_prime_entries_match_every_affine_point(p, k, n, seed):
    Fk = make_field(p, k)
    rng = np.random.default_rng(seed)
    A = rng.integers(0, p, size=(n, 2, 3)).astype(np.int32)
    assert _frobenius_order(A, Fk) == k
    X = point_block(Fk.q, n, 0, Fk.q ** n)
    table = _rank_tables(A[:, None], Fk, k)[0]
    assert table.tolist() == linalg.batched_rank(table_contraction(A, Fk, X), Fk).tolist()
    T = tensor.random_tensor(make_field(p), (n, n, n), seed=seed)
    for axis in "xyz":
        assert rank_profile(T, k, axis).hist.tolist() == reference_hist(T, k, axis).tolist()


@pytest.mark.parametrize("p,k,n", PRIME_ENTRY_LEVELS + [(3, 1, 3), (2, 4, 2)])
def test_frobenius_orbits_partition_the_projective_points(p, k, n):
    Fk = make_field(p, k)
    q = Fk.q
    A = np.eye(n, dtype=np.int32)[:, None, :]  # the 1 x n matrix x: rank 1
    powers = q ** np.arange(n)
    seen, reps = [], 0
    for codes, orbits, sizes in _orbit_batches(Fk, n, _frobenius_order(A, Fk)):
        Ms = linalg.mat_mul(codes, A.reshape(n, n), Fk)[:, None]  # the 1 x n matrices x
        assert linalg.batched_rank(Ms, Fk).tolist() == [1] * len(orbits)
        assert np.array_equal(codes, orbits[:, 0])
        reps += len(orbits)
        for orbit, size in zip(orbits @ powers, sizes):
            assert orbit[0] == orbit.min()  # the orbit's point of least index is eliminated
            assert size == len(set(orbit.tolist()))
            seen.extend(set(orbit.tolist()))  # its distinct points
    # the orbit sizes sum to (q^n - 1) / (q - 1), and every normalised point is in one orbit
    assert reps == frobenius_orbits(p, k, n)
    assert sorted(seen) == [x for i in range(n) for x in range(q ** i, 2 * q ** i)]


def test_orbit_batches_are_cached_read_only():
    F27 = make_field(3, 3)
    batches = _orbit_batches(F27, 3, 3)
    assert _orbit_batches(F27, 3, 3) is batches
    assert rankprofile._orbit_cache[F27, 3, 3] is batches
    (codes, orbits, sizes), = batches
    for a in (codes, orbits, sizes):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_a_level_of_several_batches_is_not_cached():
    # the 16,383 points of P^13(F_2) take two batches: they are streamed again on every call
    F2 = make_field(2)
    for _ in range(2):
        batches = list(_orbit_batches(F2, 14, 1))
        assert len(batches) == 2 and (F2, 14, 1) not in rankprofile._orbit_cache
        assert sum(len(codes) for codes, _, _ in batches) == 2 ** 14 - 1
        assert all(a.flags.writeable for batch in batches for a in batch)


@pytest.mark.parametrize("k", [2, 3])
def test_tensors_sharing_an_orbit_level_profile_in_either_order(monkeypatch, k):
    # both random 3x3x2 F_3 tensors read the (F_{3^k}, 3, k) entry; whichever fills it
    # (non-square blocks are never ranked by their determinant polynomial)
    F3 = make_field(3)
    a, b = (tensor.random_tensor(F3, (3, 3, 2), seed=s) for s in (1, 2))
    refs = {T: reference_hist(T, k, "x").tolist() for T in (a, b)}
    assert refs[a] != refs[b]
    for order in [(a, b), (b, a)]:
        monkeypatch.setattr(rankprofile, "_orbit_cache", {})
        for T in order:
            assert rank_profile(T, k).hist.tolist() == refs[T]
        assert list(rankprofile._orbit_cache) == [(F3.extension(k), 3, k)]


@pytest.mark.parametrize("n,calls", [(3, 1), (14, 2)])
def test_a_level_is_one_elimination_per_batch(monkeypatch, n, calls):
    # 13 points of P^2(F_3) in one call, not one per range [3^i, 2 3^i); the
    # 16,383 points of P^13(F_2) in batches of at most CHUNK
    eliminated = counting_eliminations(monkeypatch)
    T = tensor.random_tensor(make_field(2 if n > 3 else 3), (n, 3, 3), seed=0)
    assert len(T.summands) == 1
    assert rank_profile(T, 1).exact
    assert len(eliminated) == calls and max(eliminated) <= CHUNK
    assert sum(eliminated) == (T.field.q ** n - 1) // (T.field.q - 1)


def test_a_determinant_level_is_one_elimination_per_batch(monkeypatch):
    # of the 131,071 points of P^16(F_2), only those where det(sum_i x_i A_i)
    # vanishes are eliminated, in batches of at most CHUNK
    T = tensor.random_tensor(make_field(2), (17, 2, 2), seed=0)
    assert len(T.summands) == 1 and rankprofile._det_route(2, 17, 2, 1)
    A = tensor.slices(T, "x")
    X = np.concatenate([point_block(2, 17, 2 ** i, 2 ** (i + 1)) for i in range(17)])
    Ms = linalg.mat_mul(X, A.reshape(17, 4), T.field).reshape(len(X), 2, 2)
    singular = int((_determinants(Ms, T.field) == 0).sum())
    eliminated = counting_eliminations(monkeypatch)
    tested = []  # every stack whose determinants are taken

    def recording(Ms, F):
        tested.append(np.array(Ms))
        return _determinants(Ms, F)

    monkeypatch.setattr(rankprofile, "_determinants", recording)
    prof = rank_profile(T, 1)
    assert len(eliminated) == -(-singular // CHUNK) > 1 and max(eliminated) <= CHUNK
    assert sum(eliminated) == singular
    # one determinant test per level: the 17^2 coefficient tuples (row r of A_{t_r}),
    # and none on the singular stacks that are eliminated
    tuples = np.indices((17, 17)).reshape(2, -1).T
    assert np.array_equal(np.concatenate(tested), A[tuples, np.arange(2)])
    assert prof.hist.tolist() == reference_hist(T, 1, "x").tolist()


def test_f9_entries_outside_f3_eliminate_every_projective_point(monkeypatch):
    # at k = 1 over F_9 the Frobenius a -> a^3 keeps the ranks only when every
    # entry lies in F_3 (codes 0, 1, 2): then 52 orbits stand for the 91 points
    F9 = make_field(3, 2)
    eliminated = counting_eliminations(monkeypatch)
    lc = tensor.levi_civita(F9)
    alpha = lc.entries.copy()
    alpha[0, 1, 2] = 3  # the class of t, outside F_3
    for T, matrices in [(lc, 52), (tensor.Tensor3(F9, alpha), 91)]:
        assert len(T.summands) == 1
        ref = reference_hist(T, 1, "x")
        eliminated.clear()
        assert rank_profile(T, 1).hist.tolist() == ref.tolist()
        assert sum(eliminated) == matrices


def test_zero_count_is_the_k1_kernel_count():
    for seed in range(4):
        T = tensor.random_tensor(make_field(3), (3, 2, 3), seed=seed)
        est = geometric.kernel_codim(T, kmax=2)
        assert est.counts[0].count == analytic.zero_count(T)


@pytest.mark.parametrize("budget", [geometric.ELIM_BUDGET, 100])
def test_cross_check_adds_no_eliminations(monkeypatch, budget):
    eliminated = counting_eliminations(monkeypatch)
    T = tensor.random_tensor(make_field(3), (3, 3, 3), seed=8)
    totals = {}
    for cross_check in (False, True):
        eliminated.clear()
        rep = geometric.geometric_rank(
            T, kmax=3, budget=budget, mc_samples=3000, cross_check=cross_check
        )
        totals[cross_check] = sum(eliminated)
    assert totals[False] > 0
    assert totals[True] == totals[False]
    assert rep.kernel is not None


def mixed_tensors():
    F2, F3, F9 = make_field(2), make_field(3), make_field(3, 2)
    outside = tensor.random_tensor(F3, (3, 3, 3), seed=1).entries.copy()
    outside[0, 0, 0] = 3  # the class of t, outside F_3: ranking by orbits would be wrong
    return [
        tensor.random_tensor(F2, (3, 2, 3), seed=1),
        tensor.random_tensor(F3, (3, 3, 3), seed=2),
        tensor.random_tensor(F9, (2, 3, 2), seed=3),
        tensor.tk_family(F3, 2),  # two summands of one block shape
        tensor.identity_tensor(F3, 3),
        # (F_9, 3x3x3) blocks of Frobenius order 2 and 1: they must not share a group
        tensor.levi_civita(F9),
        tensor.Tensor3(F9, outside),
        tensor.zero_tensor(F3, (2, 3, 2)),
        tensor.random_tensor(F3, (14, 2, 2), seed=4),  # 3^14 > 2^21 x points: sampled
    ]


@pytest.mark.parametrize("axis", "xyz")
@pytest.mark.parametrize("k", [1, 2, 3])
def test_rank_profiles_match_each_tensor_alone(k, axis):
    tensors = [T for T in mixed_tensors() if T.field.k == 1 or k == 1]
    seeds = [10 + i for i in range(len(tensors))]
    profiles = rank_profiles(tensors, [k], axis, mc_samples=500, seeds=seeds)
    assert len(profiles) == len(tensors)
    sampled = 0
    for T, seed, (prof,) in zip(tensors, seeds, profiles):
        a = "xyz".index(axis)
        q, n = T.field.extension(k).q, T.dims[a]
        largest = max((sets[a].size for sets in T.summands), default=0)
        assert prof.exact == (q ** largest <= rankprofile.ELIM_BUDGET and q ** n < 2 ** 63)
        if not prof.exact:
            sampled += 1
            ref = reference_sampled_hist(T, k, axis, 500, seed)
        elif q ** n <= REF_POINTS:
            ref = reference_hist(T, k, axis)
        else:  # too many points for the reference: T alone
            ref = rank_profile(T, k, axis).hist
        assert prof.hist.tolist() == ref.tolist()
    assert sampled >= (axis == "x")


@pytest.mark.parametrize("axis", "xyz")
def test_rank_profiles_over_levels_match_one_call_per_level(axis):
    # past the budget of 3^7 points a level is sampled, so tensors are exact at
    # some levels and sampled at others; each level's draws keep the tensor's seed
    tensors = [T for T in mixed_tensors() if T.field.k == 1]
    seeds = [20 + i for i in range(len(tensors))]
    levels = rank_profiles(tensors, [1, 2, 3], axis, budget=3 ** 7, mc_samples=500, seeds=seeds)
    per_level = [rank_profiles(tensors, [k], axis, 3 ** 7, 500, seeds) for k in (1, 2, 3)]
    assert any(not prof.exact for profs in levels for prof in profs)
    for i, profs in enumerate(levels):
        assert len(profs) == 3
        for prof, one in zip(profs, (level[i][0] for level in per_level)):
            assert (prof.k, prof.total, prof.samples) == (one.k, one.total, one.samples)
            assert prof.hist.tolist() == one.hist.tolist()


def recording_eliminations(mp):
    """Patch linalg.batched_rank to record (call, q, matrix bytes) of every matrix."""
    seen = []
    batched_rank = linalg.batched_rank

    def recording(Ms, F, *args, **kwargs):
        seen.append([(F.q, M.shape, M.tobytes()) for M in np.asarray(Ms, dtype=np.int32)])
        return batched_rank(Ms, F, *args, **kwargs)

    mp.setattr(linalg, "batched_rank", recording)
    return seen


def test_corpus_level_eliminates_what_each_tensor_does_alone(monkeypatch):
    tensors = [T for _, T in cli.builtin_corpus(7)]
    seeds = [7 ^ i for i in range(len(tensors))]
    seen = recording_eliminations(monkeypatch)
    together = [levels[0] for levels in rank_profiles(tensors, [3], seeds=seeds)]
    calls_together, batched = len(seen), Counter(m for call in seen for m in call)
    assert max(len(call) for call in seen) <= CHUNK
    seen.clear()
    alone = [rank_profile(T, 3, seed=s) for T, s in zip(tensors, seeds)]
    assert Counter(m for call in seen for m in call) == batched
    assert calls_together < len(seen)
    assert [p.hist.tolist() for p in together] == [p.hist.tolist() for p in alone]


@pytest.mark.parametrize("T", [
    tensor.random_tensor(make_field(3), (3, 3, 3), seed=8),
    tensor.random_tensor(make_field(5), (2, 3, 3), seed=2),
    tensor.tk_family(make_field(3), 2),
])
def test_chain_adds_no_eliminations(monkeypatch, T):
    # AR's zero count reads the chain's exact k = 1 profile
    eliminated = counting_eliminations(monkeypatch)
    geometric.geometric_rank(T, kmax=3)
    slicerank.slice_rank(T)
    alone = sum(eliminated)
    eliminated.clear()
    rep = slicerank.verify_rank_chain(T, kmax=3)
    assert rep.ar is not None and rep.gr.strata[0].counts[0].exact
    assert sum(eliminated) <= alone


def test_ar_counts_exactly_where_the_chains_k1_level_is_sampled():
    # every entry nonzero: the x axis is one summand of 7^8 > 2^21 points, so GR
    # samples k = 1; 7^9 <= 10^8 pairs: AR counts them all
    F7 = make_field(7)
    T = tensor.Tensor3(F7, np.array([1, 2, 3, 4, 5, 6, 1, 2], dtype=np.int32).reshape(8, 1, 1))
    rep = slicerank.verify_rank_chain(T, kmax=2)
    assert not rep.gr.strata[0].counts[0].exact
    assert T.entries.all() and len(T.summands) == 1
    # f(x, y) = (a . x) y with a != 0: every y is a zero on the 7^7 points x with a . x = 0
    assert rep.ar.zero_count == analytic.zero_count(T) == 7 ** 7 * 7 + (7 ** 8 - 7 ** 7)
