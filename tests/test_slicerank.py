from types import SimpleNamespace

import numpy as np
import pytest

from trirank import analytic, geometric, slicerank, tensor
from trirank.errors import ContradictoryBounds, OutOfExactScope, TrirankError
from trirank.fields import make_field

F3 = make_field(3)


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
    assert isinstance(res, slicerank.NotAntichain)


def test_vertex_cover_agrees_with_exact_on_diagonals():
    values = [1, 2, 1]
    T = tensor.diagonal_tensor(F3, values)
    assert slicerank.vertex_cover_sr(T) == slicerank.slice_rank_exact(T).value == 3


def test_bounds_bracket_exact_value():
    for seed in range(10):
        T = tensor.random_tensor(F3, (3, 3, 3), seed=seed)
        ar = analytic.analytic_rank(T)
        gr = geometric.geometric_rank(T, kmax=3)
        b = slicerank.slice_rank_bounds(T, ar=ar, gr=gr)
        exact = slicerank.slice_rank_exact(T).value
        assert b.lo <= exact <= b.hi
        assert b.three_gr_bound == 3 * gr.gr


def test_contradictory_bounds_raise():
    T = tensor.levi_civita(F3)  # every slice span has dimension 3
    for ar, gr in ((SimpleNamespace(value=3.5), None), (None, SimpleNamespace(gr=4))):
        with pytest.raises(ContradictoryBounds, match=r"lower bound 4 exceeds upper bound 3"):
            slicerank.slice_rank_bounds(T, ar=ar, gr=gr)
    assert issubclass(ContradictoryBounds, TrirankError)
    b = slicerank.slice_rank_bounds(T, ar=SimpleNamespace(value=3.0), gr=SimpleNamespace(gr=3))
    assert (b.lo, b.hi) == (3, 3)


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
