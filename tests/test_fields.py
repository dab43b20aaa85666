import numpy as np
import pytest

from trirank.errors import DegreeOutOfBudget, FieldMismatch, NotPrime
from trirank.fields import make_field, parse_field
from trirank.tensor import Tensor3


def test_prime_field_matches_modular_arithmetic():
    F = make_field(7)
    for a in range(7):
        for b in range(7):
            assert F.add_codes(a, b) == (a + b) % 7
            assert F.mul_codes(a, b) == (a * b) % 7
        assert F.neg_code(a) == (-a) % 7


def test_f9_modulus_is_lex_least():
    F = make_field(3, 2)
    # t^2 + 1 is the first monic irreducible quadratic over F_3
    assert F.modulus == (1, 0, 1)
    t = 3  # the code of coefficients (0, 1)
    assert F.coeffs(t) == (0, 1)
    assert F.coeffs(F.mul_codes(t, t)) == (2, 0)  # t^2 = -1


def test_base_field_embeds_code_identically():
    F9 = make_field(3, 2)
    F3 = make_field(3)
    for a in range(3):
        for b in range(3):
            assert F9.add_codes(a, b) == F3.add_codes(a, b)
            assert F9.mul_codes(a, b) == F3.mul_codes(a, b)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (3, 2), (3, 3), (5, 2), (2, 6)])
def test_field_axioms_exhaustive(p, k):
    F = make_field(p, k)
    codes = range(F.q)
    for a in codes:
        assert F.add_codes(a, 0) == a
        assert F.mul_codes(a, 1) == a
        assert F.add_codes(a, F.neg_code(a)) == 0
        if a:
            assert F.mul_codes(a, int(F.inv[a])) == 1
    # spot-check associativity and distributivity on a grid
    sample = list(codes)[:: max(1, F.q // 7)]
    for a in sample:
        for b in sample:
            assert F.mul_codes(a, b) == F.mul_codes(b, a)
            for c in sample:
                assert F.mul_codes(a, F.add_codes(b, c)) == F.add_codes(
                    F.mul_codes(a, b), F.mul_codes(a, c)
                )


def test_frobenius_fixes_prime_subfield():
    F = make_field(3, 3)
    tbl = F.pow_table(27)
    for a in range(F.q):
        assert tbl[a, 27] == a  # x^(q) = x
        if a < 3:
            assert tbl[a, 3] == a


def test_pow_table_matches_repeated_mul():
    F = make_field(3, 2)
    tbl = F.pow_table(4)
    for a in range(F.q):
        power = 1
        for e in range(5):
            assert tbl[a, e] == power
            power = F.mul_codes(power, a)


def test_extension_and_lift():
    F3 = make_field(3)
    F27 = F3.extension(3)
    assert F27.q == 27
    assert F3.extension(1) is F3
    lifted = Tensor3(F3, [[[0, 1, 2]]]).lift(F27)
    # residues stay code-identical and arithmetic agrees on them
    assert lifted.field == F27 and lifted.entries.tolist() == [[[0, 1, 2]]]
    assert F27.mul_codes(2, 2) == F3.mul_codes(2, 2)
    with pytest.raises(FieldMismatch):
        make_field(3, 2).extension(2)
    for source, target in ((make_field(3, 2), F27), (F3, make_field(5))):
        with pytest.raises(FieldMismatch):
            Tensor3(source, [[[1]]]).lift(target)


def test_budget_and_validation_errors():
    with pytest.raises(NotPrime):
        make_field(4)
    with pytest.raises(DegreeOutOfBudget):
        make_field(3, 7)
    with pytest.raises(DegreeOutOfBudget):
        make_field(31, 2)  # 961 > 729


def test_parse_field_round_trip():
    assert parse_field("3^2").designation() == "3^2"
    assert parse_field("5") == make_field(5, 1)
    with pytest.raises(FieldMismatch):
        parse_field("abc")


def test_make_field_is_cached_and_deterministic():
    assert make_field(3, 2) is make_field(3, 2)
    assert make_field(3, 2).modulus == make_field(3, 2).modulus
