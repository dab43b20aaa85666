import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trirank import geometric, linalg, rankprofile, tensor
from trirank.errors import BudgetExceeded, VerificationFailed
from trirank.fields import make_field

F3 = make_field(3)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(geometric.__file__)))


def test_levi_civita_strata_counts_k1():
    counts = geometric.rank_strata_counts(tensor.levi_civita(F3), k=1)
    # X_0 = {0}; every nonzero x gives a rank-2 cross-product matrix
    assert [c.count for c in counts] == [1, 1, 27, 27]
    assert all(c.exact for c in counts)


def test_levi_civita_gr_two_and_consistent():
    rep = geometric.geometric_rank(tensor.levi_civita(F3), kmax=3, cross_check=True)
    assert rep.gr == 2
    assert rep.argmin_r == 2
    assert rep.stable
    assert rep.consistent is True
    assert rep.kernel.codim == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_identity_gr_equals_n(n):
    rep = geometric.geometric_rank(tensor.identity_tensor(F3, n), kmax=3)
    assert rep.gr == n
    assert rep.stable


def test_identity_3_strata_counts():
    counts = geometric.rank_strata_counts(tensor.identity_tensor(F3, 3), k=1)
    # |X_r| = #{x with at most r nonzero coordinates}
    assert [c.count for c in counts] == [1, 7, 19, 27]


def test_zero_tensor_gr_zero():
    rep = geometric.geometric_rank(tensor.zero_tensor(F3, (2, 2, 2)), cross_check=True)
    assert rep.gr == 0
    assert rep.stable and rep.consistent


def test_kernel_codim_of_a_huge_zero_tensor_returns_at_once():
    # a count would form 3^(10^8); a subprocess turns a stall into a failure
    code = (
        "from trirank import geometric, tensor; "
        "print(geometric.kernel_codim(tensor.loads('tensor 3^1 0 100000000 1'), 2).codim)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
    est = geometric.kernel_codim(tensor.zero_tensor(F3, (2, 3, 2)), kmax=3)
    assert (est.nvars, est.codim, est.status, est.counts) == (5, 0, "stable", [])


def test_kernel_codim_identity():
    est = geometric.kernel_codim(tensor.identity_tensor(F3, 2), kmax=3)
    assert est.codim == 2
    assert est.status == "stable"


def test_gr_additive_on_direct_sum():
    rep = geometric.geometric_rank(tensor.tk_family(F3, 2), kmax=3, seed=3)
    assert rep.gr == 4
    assert rep.stable


def test_axis_choice_consistent_for_cubic_tensors():
    T = tensor.random_tensor(F3, (3, 3, 3), seed=12)
    by_axis = {ax: geometric.geometric_rank(T, kmax=3, axis=ax).gr for ax in "xyz"}
    assert len(set(by_axis.values())) == 1


def test_strata_counts_are_cumulative_and_seeded():
    T = tensor.random_tensor(F3, (3, 3, 3), seed=4)
    counts = geometric.rank_strata_counts(T, k=2)
    vals = [c.count for c in counts]
    assert vals == sorted(vals)
    mc1 = geometric.rank_strata_counts(T, k=3, budget=100, mc_samples=2000, seed=9)
    mc2 = geometric.rank_strata_counts(T, k=3, budget=100, mc_samples=2000, seed=9)
    assert [c.count for c in mc1] == [c.count for c in mc2]
    assert not mc1[0].exact


def test_sampled_records_scale_the_mean_draw_by_the_space():
    # each summand's 27^3 points at k = 3 exceed a budget of 19682, so the level is
    # sampled: 10^5 draws give hist [0, 0, 10, 0, 99990, 0, 0]
    T = tensor.tk_family(F3, 2)
    strata = geometric.rank_strata_counts(T, k=3, budget=19682, seed=7)
    # no draw fell in X_0 or X_1, which hold the origin: their counts are floored at 1
    assert [c.count for c in strata] == [1.0, 1.0] + [
        float(c / 100000) * 27 ** 6 for c in (10, 10, 100000, 100000, 100000)
    ]
    kernel = geometric.kernel_codim(T, kmax=3, budget=19682, seed=7).counts[2]
    fibers = 10 * 27 ** 4 + 99990 * 27 ** 2  # sum over the draws of q^(n2 - rank)
    assert kernel.count == float(fibers / 100000) * 27 ** 6
    assert not any(c.exact for c in strata + [kernel])
    assert {c.samples for c in strata + [kernel]} == {100000}


def test_a_sampled_stratum_holds_the_origin():
    # T_2's k = 3 level sampled: no draw has rank 1 or less, yet X_1 holds x = 0
    rep = geometric.geometric_rank(tensor.tk_family(F3, 2), kmax=3, budget=19682)
    assert [c.count for c in rep.strata[1].counts] == [1, 1, 1.0]
    assert (rep.strata[1].dim, rep.strata[1].status) == (0, "unstable")
    assert rep.gr == 4 and min(est.dim for est in rep.strata.values()) >= 0


def test_budget_errors():
    with pytest.raises(BudgetExceeded):
        geometric.geometric_rank(tensor.levi_civita(F3), kmax=1)
    # above the budget the strata are sampled, never silently counted as exact
    counts = geometric.rank_strata_counts(tensor.levi_civita(F3), k=3, budget=100, mc_samples=50)
    assert not any(c.exact for c in counts)


@pytest.mark.parametrize("kmax", [2, 3])
def test_whole_space_stratum_is_exact(kmax):
    # 3x3 skew slices have rank at most 2, so X_2 is all of F^3 at every level
    est = geometric.geometric_rank(tensor.levi_civita(F3), kmax=kmax).strata[2]
    assert [c.count for c in est.counts] == [3 ** (3 * k) for k in range(1, kmax + 1)]
    assert (est.dim, est.codim, est.status, est.method) == (3, 0, "stable", "exact_enumeration")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_x0_read_from_the_exact_profile_matches_the_slice_span(data):
    F = make_field(data.draw(st.sampled_from([2, 3, 5])))
    dims = data.draw(st.tuples(*[st.integers(1, 3)] * 3))
    r = data.draw(st.integers(0, dims[0]))  # x-slices in an r-dim span: X_0 has dim >= n1 - r
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    A, B = rng.integers(0, F.q, (dims[0], r)), rng.integers(0, F.q, (r, dims[1] * dims[2]))
    T = tensor.Tensor3(F, linalg.mat_mul(A, B, F).reshape(dims))
    for a, axis in enumerate("xyz"):
        dim0 = dims[a] - tensor.slice_space(T, axis).dim
        exact = geometric.geometric_rank(T, kmax=2, axis=axis)
        assert all(c.exact for c in exact.strata[0].counts)
        assert exact.strata[0].dim == dim0
        # a sampled k = 1 level reads the slice span instead
        sampled = geometric.geometric_rank(T, kmax=2, axis=axis, budget=1, mc_samples=20)
        assert not any(c.exact for c in sampled.strata[0].counts)
        assert sampled.strata[0].dim == dim0


@pytest.mark.parametrize("k", [1, 2])
def test_x0_count_off_its_power_raises(k):
    T = tensor.levi_civita(F3)  # X_0 = {0}: hist[0] is 1 at every level
    profiles = [rankprofile.rank_profile(T, j) for j in (1, 2, 3)]
    bad = profiles[k - 1]
    hist = bad.hist.copy()
    hist[0] += 1
    profiles[k - 1] = dataclasses.replace(bad, hist=hist)
    with pytest.raises(VerificationFailed, match=r"\|X_0"):
        geometric.geometric_rank(T, kmax=3, profiles=profiles)
