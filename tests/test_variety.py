from fractions import Fraction

import numpy as np
import pytest

from trirank import variety
from trirank.errors import (
    BadParams, BudgetExceeded, PolySyntaxError, UnknownVariable, UnstableEstimate,
)
from trirank.fields import make_field

from jacobian_reference import jacobian_tangent, poly_partial

F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)


def system(text, field=F3, nvars=2):
    return variety.parse_poly_system(text, field, nvars)


def test_parser_basic_monomials():
    S = system("x1*x2 + 2*x2^2")
    assert S.polys == [{(1, 1): 1, (0, 2): 2}]
    assert S.maxdeg == 2


def test_parser_unary_minus_parens_and_semicolons():
    S = system("-x1 + 1; (x1 + x2)^2", nvars=2)
    assert len(S.polys) == 2
    assert S.polys[0] == {(1, 0): 2, (0, 0): 1}
    # (x1 + x2)^2 = x1^2 + 2 x1 x2 + x2^2
    assert S.polys[1] == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_parser_coefficients_reduce_mod_p():
    S = system("4*x1 + 3")
    assert S.polys == [{(1, 0): 1}]  # 4 = 1, 3 = 0 over F_3


def test_parser_syntax_error_has_position():
    with pytest.raises(PolySyntaxError) as exc:
        system("x1 +\n* x2")
    assert exc.value.line == 2
    assert exc.value.col == 1


def test_parser_unknown_variable():
    with pytest.raises(UnknownVariable):
        system("x3 + 1", nvars=2)


@pytest.mark.parametrize("text, error, message, line, col", [
    ("a", PolySyntaxError, "unexpected character 'a'", 1, 1),
    ("x1²", PolySyntaxError, "unexpected character '²'", 1, 3),  # a digit int() cannot read
    ("x + 1", PolySyntaxError, "variable needs an index", 1, 1),
    ("x1^x2", PolySyntaxError, "expected INT, got VAR", 1, 4),
    ("(x1 + x2", PolySyntaxError, "expected ), got EOF", 1, 9),
    ("x1 x2", PolySyntaxError, "unexpected token VAR", 1, 4),
    ("x1;;x2", PolySyntaxError, "unexpected token ;", 1, 4),
    ("x1 + x3", UnknownVariable, "x3 out of range 1..2", 1, 6),
    ("x1*x2 +\n\tx1 ^ (2)", PolySyntaxError, "expected INT, got (", 2, 7),
    # past Python's 4300-digit int-string conversion limit
    pytest.param("x1 + " + "1" * 5000, PolySyntaxError, "integer too long: 5000 digits", 1, 6,
                 id="5000-digit coefficient"),
    pytest.param("x1^" + "2" * 5000, PolySyntaxError, "integer too long: 5000 digits", 1, 4,
                 id="5000-digit exponent"),
    # a power above degree 729 = MAX_Q is rejected at its exponent, before it is expanded
    ("x1^99999999", PolySyntaxError, "power of degree above 729", 1, 4),
    ("(x1^700)^700", PolySyntaxError, "power of degree above 729", 1, 10),
    ("(x1*x2)^365", PolySyntaxError, "power of degree above 729", 1, 9),
    ("2^99999999 + x1", PolySyntaxError, "power of degree above 729", 1, 3),
    # 266,815 terms possible (every monomial of degree <= 729): rejected before it is expanded
    ("(1 + x1 + x2)^729", PolySyntaxError, "power expands to more than 700000 term products",
     1, 15),
])
def test_parser_errors_name_the_line_and_column(text, error, message, line, col):
    with pytest.raises(error) as exc:
        system(text)
    assert type(exc.value) is error
    assert str(exc.value) == f"{message} (line {line}, col {col})"
    if error is PolySyntaxError:
        assert (exc.value.line, exc.value.col) == (line, col)


def test_parser_accepts_powers_up_to_degree_729():
    assert system("x1^729 - 1").polys == [{(729, 0): 1, (0, 0): 2}]
    assert system("(x1*x2)^364; 2^729").maxdeg == 728
    # at most 730 terms, x1^a x2^b with a + b = 729; over F_3 it is the Frobenius power
    assert system("(x1 + x2)^729").polys == [{(729, 0): 1, (0, 729): 1}]


def test_parser_rejects_a_power_of_many_terms_at_its_exponent():
    with pytest.raises(PolySyntaxError) as exc:
        system("(x1+x2+x3+x4+x5)^729", nvars=5)
    assert (exc.value.line, exc.value.col) == (1, 18)


@pytest.mark.parametrize("text, message, col", [
    # two 3,150-term powers over F_7, each within its own budget: 9,922,500 term products
    ("(x1+x2+x3+x4+x5)^20 * (x1+x2+x3+x4+x5)^20", "product of more than 700000 term products",
     21),
    ("x1^700 * x2^30", "product of degree above 729", 8),
])
def test_parser_rejects_a_large_product_at_its_star(text, message, col):
    with pytest.raises(PolySyntaxError) as exc:
        system(text, field=make_field(7), nvars=5)
    assert str(exc.value) == f"{message} (line 1, col {col})"
    # one factor fewer parses
    assert system(text[: col - 1], field=make_field(7), nvars=5).polys


def test_parser_bounds_a_chain_of_products_by_its_total(monkeypatch):
    # over F_5, (x1+x2)^3 costs 2 + 4 + 6 = 12 term products and each `*x1` 4 more:
    # the 23rd passes a budget of 100 for the whole term
    monkeypatch.setattr(variety, "POWER_BUDGET", 100)
    text = "(x1+x2)^3" + "*x1" * 23
    with pytest.raises(PolySyntaxError) as exc:
        system(text, field=F5)
    assert str(exc.value) == f"product of more than 100 term products (line 1, col {10 + 3 * 22})"
    assert system(text[:-3], field=F5).maxdeg == 25


def test_parser_bounds_the_products_of_a_system_by_one_total(monkeypatch):
    # 12 + 6 * 4 = 36 term products per copy over F_5: two copies stay within a
    # budget of 100 for the whole system; the third's power (estimated at 24)
    # still fits, and its 5th `*x1` passes the budget, in any equation
    monkeypatch.setattr(variety, "POWER_BUDGET", 100)
    copy = "(x1+x2)^3" + "*x1" * 6
    assert system(" + ".join([copy] * 2), field=F5).polys
    for sep in (" + ", "; "):
        with pytest.raises(PolySyntaxError) as exc:
            system(sep.join([copy] * 3), field=F5)
        at = 2 * (len(copy) + len(sep)) + len("(x1+x2)^3") + 3 * 4
        assert str(exc.value) == f"product of more than 100 term products (line 1, col {at + 1})"


def test_parser_charges_powers_to_the_system_total():
    # each copy is bounded by 5 C(26, 5) = 328,900 term products (5 base terms
    # times at most C(j + 4, 4) terms of the j-th power), within the budget
    # alone; the expansions of the first eight spend enough that the 9th is
    # refused at its exponent (col 194) instead of every copy parsing
    copy = "(x1+x2+x3+x4+x5)^22"
    assert system(copy, field=F7, nvars=5).maxdeg == 22
    with pytest.raises(PolySyntaxError) as exc:
        system(" + ".join([copy] * 50), field=F7, nvars=5)
    budget = variety.POWER_BUDGET
    assert str(exc.value) == f"power expands to more than {budget} term products (line 1, col 194)"


def test_a_term_at_the_power_budget_is_its_longest_parsing_chain():
    # over F_7, (x1+...+x5)^20 keeps 3,150 terms; each `*x1` spends 3,150 more
    # term products: 211 of them are multiplied out (about a second), and the
    # 212th is refused at its `*`
    head = "(x1+x2+x3+x4+x5)^20"
    with pytest.raises(PolySyntaxError) as exc:
        system(head + "*x1" * 212, field=F7, nvars=5)
    col = len(head) + 3 * 211 + 1
    assert str(exc.value) == f"product of more than 700000 term products (line 1, col {col})"


def test_poly_partial_frobenius_kills_pth_powers():
    S = system("x1^3 + x1^2*x2")
    p = S.polys[0]
    d1 = poly_partial(p, 0, F3)
    assert d1 == {(1, 1): 2}  # d/dx1 (x1^3) = 0 mod 3
    d2 = poly_partial(p, 1, F3)
    assert d2 == {(2, 0): 1}


def test_count_points_hyperbola():
    S = system("x1*x2")
    # zeros of x*y over F_{q}: 2q - 1
    for k, expected in [(1, 5), (2, 17), (3, 53)]:
        rec = variety.count_points(S, k)
        assert rec.exact and rec.count == expected


@pytest.mark.parametrize("k,budget,samples,seed,count", [
    (3, 10 ** 6, 10 ** 4, 11, 1904296.875),
    (2, 10, 300000, 5, 16251.302083333332),  # 37 draws of at most CHUNK rows
])
def test_sampled_point_counts_are_pinned(k, budget, samples, seed, count):
    S = system("x1*x2 + x3*x4", field=F5, nvars=4)
    rec = variety.count_points(S, k, budget=budget, mc_samples=samples, seed=seed)
    assert (rec.count, rec.exact, rec.samples) == (count, False, samples)


def test_sampled_counts_past_the_float_range_are_refused():
    # 27^220 points at k = 3: the mean per draw cannot be scaled to the space as a float
    S = system("x1*x2 - 1", nvars=220)
    with pytest.raises(BudgetExceeded, match="sampled over F_27 is past the float range"):
        variety.count_points(S, 3, mc_samples=1000)


@pytest.mark.parametrize("count,samples,total", [
    (10 ** 400, 1, 1), (1, 1, 3 ** 700), (3, 1, 2 ** 1023),
], ids=["mean", "space", "product"])
def test_count_records_past_the_float_range_are_refused(count, samples, total):
    # past the range in the mean per draw, in the space, and only in their product
    with pytest.raises(BudgetExceeded, match="F_9 is past the float range"):
        variety.count_record(2, 9, count, samples, total)
    assert variety.count_record(2, 9, count).count == count  # exact counts stay integers


@pytest.mark.parametrize("samples", [0, -5])
def test_sampled_count_needs_a_sample(samples):
    S = system("x1*x2 + x3*x4", field=F5, nvars=4)
    with pytest.raises(BadParams, match="mc_samples must be >= 1"):
        variety.count_points(S, 2, budget=10, mc_samples=samples)
    with pytest.raises(BadParams, match="mc_samples must be >= 1"):
        variety.estimate_dim(S, 2, budget=10, mc_samples=samples)


def test_estimate_dim_curve_is_stable():
    est = variety.estimate_dim(system("x1*x2"), kmax=3)
    assert (est.dim, est.codim, est.status) == (1, 1, "stable")


def test_estimate_dim_hyperplane_exact_slopes():
    S = variety.parse_poly_system("x1 + x2 + x3", F3, 3)
    est = variety.estimate_dim(S, kmax=2)
    assert (est.dim, est.status) == (2, "stable")
    assert [c.count for c in est.counts] == [9, 81]


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_a_system_with_no_polynomials_holds_every_point(text):
    S = system(text)
    assert S.polys == []
    assert [variety.count_points(S, k).count for k in (1, 2)] == [9, 81]
    est = variety.estimate_dim(S, kmax=2)
    assert (est.dim, est.status) == (2, "stable")


def test_estimate_dim_empty_variety():
    est = variety.estimate_dim(system("1"), kmax=3)
    assert est.status == "empty"
    assert est.codim == 2


def test_estimate_dim_requires_tower():
    with pytest.raises(UnstableEstimate):
        variety.estimate_dim(system("x1*x2"), kmax=1)


@pytest.mark.parametrize("counts, samples, status, dim", [
    ([0, 0], None, "empty", -1),
    ([9, 0], None, "unstable", -1),  # the last slope is None
    ([27, 729], None, "stable", 3),  # one integer slope
    ([27, 500], None, "unstable", 3),  # one slope, 2.66
    ([30, 700, 20000], None, "stable", 3),  # 2.87 and 3.05 agree within SLOPE_MARGIN
    ([27, 243, 19683], None, "unstable", 4),  # 2 and 4 round apart
    ([3.0, 9.0], 100, "unstable", 1),  # a sampled integer slope, codim 3 > 2
], ids=["empty", "none", "integer", "fraction", "margin", "apart", "sampled"])
def test_estimate_from_counts_has_one_rule_per_case(counts, samples, status, dim):
    records = [variety.CountRecord(k, c, samples) for k, c in enumerate(counts, 1)]
    est = variety.estimate_from_counts(3, 4, records)
    assert (est.status, est.dim) == (status, dim)


def test_sz_check_hyperbola():
    S = system("x1*x2")
    est = variety.estimate_dim(S, kmax=3)
    rep = variety.sz_check(S, est)
    assert rep.holds and not rep.vacuous
    assert rep.lhs == Fraction(5, 9)
    assert rep.rhs == Fraction(2, 3)


def test_sz_check_vacuous_when_degree_reaches_q():
    S = system("x1^3 + x2")
    est = variety.estimate_dim(S, kmax=3)
    rep = variety.sz_check(S, est)
    assert rep.vacuous and rep.holds


def test_sz_check_rejects_unstable():
    est = variety.DimEstimate(nvars=2, dim=1, codim=1, status="unstable")
    with pytest.raises(UnstableEstimate):
        variety.sz_check(system("x1*x2"), est)


def test_jacobian_tangent_of_minors_at_rank_one_point():
    # 2x3 matrix of variables [[x1 x2 x3], [x4 x5 x6]]; all 2x2 minors
    minors = "x1*x5 - x2*x4; x1*x6 - x3*x4; x2*x6 - x3*x5"
    S = variety.parse_poly_system(minors, F3, 6)
    basis = jacobian_tangent(S, [1, 0, 0, 0, 0, 0])
    # tangent dimension mn - (m-r)(n-r) = 6 - 2 = 4 at a rank-1 point
    assert basis.shape[0] == 4


def test_jacobian_tangent_rejects_off_variety_points():
    S = variety.parse_poly_system("x1*x5 - x2*x4", F3, 6)
    with pytest.raises(ValueError, match="not a common zero"):
        jacobian_tangent(S, [1, 0, 0, 0, 1, 0])


def test_monte_carlo_counts_are_seeded():
    S = variety.parse_poly_system("x1*x2 + x3*x4", F5, 4)
    a = variety.count_points(S, 3, budget=10 ** 6, mc_samples=10 ** 4, seed=11)
    b = variety.count_points(S, 3, budget=10 ** 6, mc_samples=10 ** 4, seed=11)
    assert not a.exact
    assert a.count == b.count
