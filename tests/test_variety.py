from fractions import Fraction

import numpy as np
import pytest

from trirank import variety
from trirank.errors import PolySyntaxError, UnknownVariable, UnstableEstimate
from trirank.fields import make_field

from jacobian_reference import jacobian_tangent, poly_partial

F3 = make_field(3)
F5 = make_field(5)


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
    ("(1 + x1 + x2)^729", PolySyntaxError, "power expands to more than 2097152 term products",
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
    ("(x1+x2+x3+x4+x5)^20 * (x1+x2+x3+x4+x5)^20", "product of more than 2097152 term products",
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
    # 4 term products per `*x1` over F_5: the 26th passes a budget of 100 for the whole term
    monkeypatch.setattr(variety, "POWER_BUDGET", 100)
    text = "(x1+x2)^3" + "*x1" * 26
    with pytest.raises(PolySyntaxError) as exc:
        system(text, field=F5)
    assert str(exc.value) == f"product of more than 100 term products (line 1, col {10 + 3 * 25})"
    assert system(text[:-3], field=F5).maxdeg == 28


def test_parser_bounds_the_products_of_a_system_by_one_total(monkeypatch):
    # 40 term products per copy over F_5: two copies stay within a budget of 100
    # for the whole system, the third passes it at its 6th `*x1`, in any equation
    monkeypatch.setattr(variety, "POWER_BUDGET", 100)
    copy = "(x1+x2)^3" + "*x1" * 10
    assert system(" + ".join([copy] * 2), field=F5).polys
    for sep in (" + ", "; "):
        with pytest.raises(PolySyntaxError) as exc:
            system(sep.join([copy] * 3), field=F5)
        at = 2 * (len(copy) + len(sep)) + len("(x1+x2)^3") + 3 * 5
        assert str(exc.value) == f"product of more than 100 term products (line 1, col {at + 1})"


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
