import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from trirank import analytic, tensor
from trirank.errors import BudgetExceeded
from trirank.fields import make_field
from trirank.linalg import mat_mul
from trirank.rankprofile import point_block

F3 = make_field(3)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(analytic.__file__)))


def contract_x(T, x):
    """sum_i x_i A_i over the x-axis slices, as a plain matrix product."""
    n1, n2, n3 = T.dims
    row = np.array([x], dtype=np.int32)
    return mat_mul(row, T.entries.reshape(n1, n2 * n3), T.field).reshape(n2, n3)


def brute_zero_count(T):
    """Direct enumeration of f(x, y) = 0, independent of the rank shortcut."""
    F = T.field
    n1, n2, _ = T.dims
    count = 0
    for xc in range(F.q ** n1):
        x = [(xc // F.q ** i) % F.q for i in range(n1)]
        M = contract_x(T, x)
        for yc in range(F.q ** n2):
            y = np.array([(yc // F.q ** i) % F.q for i in range(n2)], dtype=np.int32)
            row = np.zeros(T.dims[2], dtype=np.int32)
            for j in range(n2):
                row = F.add[row, F.mul[y[j], M[j]]]
            if not row.any():
                count += 1
    return count


def brute_min_entropy(T):
    """Output histogram over every (x, y): f(x, y) for all y, 4096 x at a time."""
    F = T.field
    n1, n2, n3 = T.dims
    Y = point_block(F.q, n2, 0, F.q ** n2)
    A = tensor.slices(T, "x").reshape(n1, n2 * n3)
    weights = F.q ** np.arange(n3, dtype=np.int64)
    hist = np.zeros(F.q ** n3, dtype=np.int64)
    total_x, chunk = F.q ** n1, 1 << 12
    for start in range(0, total_x, chunk):
        X = point_block(F.q, n1, start, min(start + chunk, total_x))
        vals = mat_mul(Y[None], mat_mul(X, A, F).reshape(len(X), n2, n3), F)
        hist += np.bincount((vals * weights).sum(axis=2).ravel(), minlength=hist.size)
    return hist


@pytest.mark.parametrize(
    "T,expected",
    [
        (tensor.identity_tensor(F3, 1), 5),
        (tensor.levi_civita(F3), 105),
        (tensor.zero_tensor(F3, (2, 2, 2)), 81),
    ],
)
def test_zero_count_known_values(T, expected):
    assert analytic.zero_count(T) == expected


def test_zero_count_matches_brute_force():
    for seed in range(5):
        T = tensor.random_tensor(F3, (2, 2, 2), seed=seed)
        assert analytic.zero_count(T) == brute_zero_count(T)


def test_direct_sum_multiplies_zero_counts():
    T = tensor.tk_family(F3, 2)
    assert analytic.zero_count(T) == 105 ** 2


def test_analytic_rank_values():
    ar = analytic.analytic_rank(tensor.levi_civita(F3))
    assert abs(ar.value - math.log(729 / 105, 3)) < 1e-12
    assert analytic.analytic_rank(tensor.zero_tensor(F3, (2, 2, 2))).value == 0


def test_identity_closed_form():
    # AR(I_n) = n (2 - log_q(2q - 1))
    for q in (3, 5, 7):
        F = make_field(q)
        for n in (1, 2, 3):
            ar = analytic.analytic_rank(tensor.identity_tensor(F, n))
            assert abs(ar.value - n * (2 - math.log(2 * q - 1, q))) < 1e-12
            assert ar.zero_count == (2 * q - 1) ** n


def test_bias_matches_zero_count():
    # averaging chi over z kills every nonzero output, so the full character
    # average equals Pr[f(x, y) = 0] exactly
    T = tensor.identity_tensor(F3, 2)
    bias = analytic.bias_char_sum(T)
    assert abs(bias.imag) < 1e-9
    assert abs(bias.real - analytic.zero_count(T) / 81) < 1e-9


def test_bias_of_a_huge_empty_axis_returns_at_once():
    # the bias is 1 and q^(n1 + n2) = 3^(10^8) must not be formed; a
    # subprocess turns a stall into a failure
    code = (
        "from trirank import analytic, tensor; "
        "print(analytic.bias_char_sum(tensor.loads('tensor 3^1 0 100000000 1')))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert complex(proc.stdout) == 1


def test_bias_cross_checks_ar_on_random_tensors():
    for seed in range(5):
        T = tensor.random_tensor(F3, (2, 3, 2), seed=seed)
        bias = analytic.bias_char_sum(T)
        zc = analytic.zero_count(T)
        assert abs(bias.real - zc / 3 ** 5) < 1e-9
        assert abs(bias.imag) < 1e-9


@pytest.mark.parametrize(
    "F,dims",
    [
        (F3, (2, 3, 2)),
        (F3, (3, 2, 1)),
        (make_field(3, 2), (2, 2, 2)),
        (make_field(3, 2), (1, 2, 3)),
        (make_field(2), (3, 2, 4)),
        (make_field(2, 2), (2, 3, 1)),
        (make_field(5), (2, 2, 3)),
        (make_field(2, 3), (2, 1, 2)),
        (F3, (2, 2, 7)),
        (F3, (1, 1, 10)),
    ],
)
def test_histogram_zero_count_and_bias_agree(F, dims):
    # x-axis zero count vs the z-axis histogram and bias, and the histogram
    # vs enumeration of every (x, y), on random tensors and the zero tensor
    n1, n2, _ = dims
    cases = [tensor.random_tensor(F, dims, seed=seed) for seed in range(3)]
    for T in cases + [tensor.zero_tensor(F, dims)]:
        zc = analytic.zero_count(T)
        hist = analytic.min_entropy(T).histogram
        assert hist.dtype == np.int64
        assert hist.tobytes() == brute_min_entropy(T).tobytes()
        assert hist[0] == zc
        bias = analytic.bias_char_sum(T)
        assert round(bias.real * F.q ** (n1 + n2)) == zc
        assert bias == complex(Fraction(zc, F.q ** (n1 + n2)))


@pytest.mark.parametrize("F", [F3, make_field(2, 2)])
def test_min_entropy_of_a_direct_sum_matches_enumeration(F):
    # min_entropy reads every summand from its rank table at every affine z,
    # whether the summand lies on all z coordinates or on part of them
    levi = tensor.levi_civita(F)
    free_z = tensor.zero_tensor(F, (0, 0, 1))
    cases = [
        (tensor.direct_sum(tensor.direct_sum(levi, tensor.random_tensor(F, (1, 2, 2), seed=0)),
                           free_z), [3, 2]),
        (tensor.direct_sum(levi, free_z), [3]),
        (tensor.identity_tensor(F, 3), [1, 1, 1]),  # one summand per z coordinate
        (tensor.zero_tensor(F, (2, 2, 0)), []),
    ]
    for T, z_sizes in cases:
        assert [len(z) for _, _, z in T.summands] == z_sizes
        assert analytic.min_entropy(T).histogram.tobytes() == brute_min_entropy(T).tobytes()


def test_min_entropy_argmax_at_zero():
    T = tensor.identity_tensor(F3, 2)
    rep = analytic.min_entropy(T)
    assert rep.histogram.argmax() == 0
    assert rep.max_count == 25
    assert abs(rep.me - math.log2(81 / 25)) < 1e-12


def test_min_entropy_equals_ar_log2q():
    for seed in range(10):
        T = tensor.random_tensor(F3, (3, 3, 3), seed=seed)
        rep = analytic.min_entropy(T)
        ar = analytic.analytic_rank(T)
        assert rep.max_count == ar.zero_count
        assert abs(rep.me - ar.value * math.log2(3)) < 1e-12


def test_budget_errors():
    T = tensor.identity_tensor(F3, 3)
    with pytest.raises(BudgetExceeded):
        analytic.zero_count(T, budget=10)
    with pytest.raises(BudgetExceeded):
        analytic.min_entropy(T, budget=10)
    # the bias reads the q^n3 points z: 27 fit a budget of 27, not one of 26
    exact = complex(Fraction(analytic.zero_count(T), 3 ** 6))
    assert analytic.bias_char_sum(T, budget=27) == exact
    with pytest.raises(BudgetExceeded):
        analytic.bias_char_sum(T, budget=26)


def test_min_entropy_budget_bounds_the_z_side():
    # 3^8 input pairs exceed the budget; 1 projective z times 3 outputs do not
    T = tensor.random_tensor(F3, (4, 4, 1), seed=0)
    with pytest.raises(BudgetExceeded):
        analytic.zero_count(T, budget=100)
    hist = analytic.min_entropy(T, budget=100).histogram
    assert hist.sum() == 3 ** 8
    assert hist.tobytes() == brute_min_entropy(T).tobytes()
