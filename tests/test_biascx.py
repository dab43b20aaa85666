from fractions import Fraction

import numpy as np
import pytest

from trirank import analytic, biascx, tensor
from trirank.errors import BadParams, DimensionMismatch
from trirank.fields import make_field
from trirank.linalg import mat_mul

F3 = make_field(3)
F5 = make_field(5)


def contract_x(T, x):
    """sum_i x_i A_i over the x-axis slices, as a plain matrix product."""
    n1, n2, n3 = T.dims
    row = np.array([x], dtype=np.int32)
    return mat_mul(row, T.entries.reshape(n1, n2 * n3), T.field).reshape(n2, n3)


def brute_agreement(f, g):
    """Pairwise comparison over all (x, y), independent of the subtraction route."""
    F = f.field
    n1, n2, _ = f.dims
    agree = 0
    for xc in range(F.q ** n1):
        x = [(xc // F.q ** i) % F.q for i in range(n1)]
        Mf = contract_x(f, x)
        Mg = contract_x(g, x)
        for yc in range(F.q ** n2):
            y = [(yc // F.q ** i) % F.q for i in range(n2)]
            vf = np.zeros(f.dims[2], dtype=np.int32)
            vg = np.zeros(f.dims[2], dtype=np.int32)
            for j in range(n2):
                vf = F.add[vf, F.mul[y[j], Mf[j]]]
                vg = F.add[vg, F.mul[y[j], Mg[j]]]
            if np.array_equal(vf, vg):
                agree += 1
    return Fraction(agree, F.q ** (n1 + n2))


def test_closeness_known_values():
    f, g = biascx.extremal_pair(F3, 1, 1, 2)
    assert biascx.closeness(f, g) == Fraction(25, 81)
    assert biascx.closeness(f, f) == 1
    i1 = tensor.identity_tensor(F3, 1)
    assert biascx.closeness(i1, tensor.zero_tensor(F3, (1, 1, 1))) == Fraction(5, 9)


def test_closeness_matches_pairwise_comparison():
    for seed in range(8):
        f = tensor.random_tensor(F3, (2, 2, 2), seed=seed)
        g = tensor.random_tensor(F3, (2, 2, 2), seed=seed + 50)
        assert biascx.closeness(f, g) == brute_agreement(f, g)


def test_closeness_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        biascx.closeness(tensor.identity_tensor(F3, 2), tensor.identity_tensor(F3, 3))


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("r,t", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_extremal_pairs_exact_values(q, r, t):
    F = make_field(q)
    f, g = biascx.extremal_pair(F, r, t, r + t)
    rep = biascx.closeness_report(f, g)
    assert rep.delta == biascx.extremal_delta(q, r, t)
    assert rep.sr_f.value == r
    assert rep.sr_g.value == t
    assert rep.sr_diff.value == r + t
    assert rep.subadditivity_holds and rep.ar_bound_holds


def test_closeness_report_identical_maps():
    f = tensor.identity_tensor(F3, 2)
    rep = biascx.closeness_report(f, f)
    assert rep.delta == 1
    assert rep.sr_diff.value == 0
    assert rep.subadditivity_holds and rep.ar_bound_holds


def test_closeness_report_counts_the_zeros_of_f_minus_g_once(monkeypatch):
    calls, zero_count = [], analytic.zero_count

    def counted(T, **kwargs):
        calls.append(T)
        return zero_count(T, **kwargs)

    monkeypatch.setattr(analytic, "zero_count", counted)
    f, g = biascx.extremal_pair(F5, 1, 2, 3)
    rep = biascx.closeness_report(f, g)
    assert calls == [tensor.sub(f, g)]
    assert rep.delta == Fraction(rep.ar_diff.zero_count, rep.ar_diff.domain_size)
    assert rep.delta == biascx.extremal_delta(5, 1, 2)


def test_extremal_pair_validation():
    with pytest.raises(BadParams):
        biascx.extremal_pair(F3, 0, 1, 2)
    with pytest.raises(BadParams):
        biascx.extremal_pair(F3, 2, 2, 3)


def test_extremal_pair_supports():
    f, g = biascx.extremal_pair(F3, 2, 1, 3)
    assert sorted(zip(*np.nonzero(f.entries))) == [(0, 0, 0), (1, 1, 1)]
    assert sorted(zip(*np.nonzero(g.entries))) == [(2, 2, 2)]


def test_complexity_bound_values():
    cb = biascx.complexity_bound(tensor.identity_tensor(F3, 3))
    assert cb.bound == 9
    assert cb.me_identity_holds
    cb = biascx.complexity_bound(tensor.levi_civita(F3))
    assert cb.bound == 9
    assert biascx.complexity_bound(tensor.zero_tensor(F3, (2, 2, 2))).bound == 0


def test_me_identity_on_random_maps():
    for seed in range(20):
        T = tensor.random_tensor(F3, (3, 3, 3), seed=seed)
        cb = biascx.complexity_bound(T)
        assert cb.me_identity_holds
        ar = analytic.analytic_rank(T)
        assert cb.me.max_count == ar.zero_count
