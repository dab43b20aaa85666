import numpy as np
import pytest

from trirank import geometric, tensor
from trirank.errors import BudgetExceeded
from trirank.fields import make_field

F3 = make_field(3)


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
    # 27^6 points at k = 3 exceed the budget: 10^5 draws give hist [0, 0, 10, 0, 99990, 0, 0]
    T = tensor.tk_family(F3, 2)
    strata = geometric.rank_strata_counts(T, k=3, seed=7)
    assert [c.count for c in strata] == [
        float(c / 100000) * 27 ** 6 for c in (0, 0, 10, 10, 100000, 100000, 100000)
    ]
    kernel = geometric.kernel_codim(T, kmax=3, seed=7).counts[2]
    fibers = 10 * 27 ** 4 + 99990 * 27 ** 2  # sum over the draws of q^(n2 - rank)
    assert kernel.count == float(fibers / 100000) * 27 ** 6
    assert not any(c.exact for c in strata + [kernel])
    assert {c.samples for c in strata + [kernel]} == {100000}


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
