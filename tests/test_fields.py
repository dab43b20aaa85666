import numpy as np
import pytest

from trirank.errors import DegreeOutOfBudget, FieldMismatch, NotPrime
from trirank.fields import MAX_Q, Field, make_field, parse_field
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
    assert make_field(3) is make_field(3, 1) is parse_field("3")
    assert make_field(3, 2) is parse_field("3^2") is make_field(3).extension(2)
    assert make_field(3, 2).modulus == make_field(3, 2).modulus


def _reference_tables(F):
    """add, neg, mul, inv and coeffs of F by the generator construction.

    add and neg are digitwise mod p.  mul and inv come from exp/log tables of
    a generator of F_q^*, found by square-and-multiply over polynomial
    products reduced mod the modulus one pair at a time.
    """
    p, k, q = F.p, F.k, F.q
    coeffs = [tuple((a // p ** i) % p for i in range(k)) for a in range(q)]

    def mul(a, b):
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(coeffs[a]):
            for j, bj in enumerate(coeffs[b]):
                prod[i + j] = (prod[i + j] + ai * bj) % p
        for d in range(2 * k - 2, k - 1, -1):  # reduce by the monic modulus
            c, prod[d] = prod[d], 0
            for i in range(k):
                prod[d - k + i] = (prod[d - k + i] - c * F.modulus[i]) % p
        return sum(c * p ** i for i, c in enumerate(prod[:k]))

    def power(a, e):
        result = 1
        while e:
            if e & 1:
                result = mul(result, a)
            a, e = mul(a, a), e >> 1
        return result

    order = q - 1
    primes = [f for f in range(2, order + 1) if order % f == 0 and all(f % d for d in range(2, f))]
    g = next(g for g in range(1, q) if all(power(g, order // f) != 1 for f in primes))
    exp = [1]
    for _ in range(order - 1):
        exp.append(mul(exp[-1], g))
    exp = np.array(exp, dtype=np.int64)
    log = np.zeros(q, dtype=np.int64)
    log[exp] = np.arange(order)
    mul_tbl = np.zeros((q, q), dtype=np.int32)
    mul_tbl[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % order]
    inv = np.zeros(q, dtype=np.int32)
    inv[1:] = exp[-log[1:] % order]
    digits = np.array(coeffs, dtype=np.int64).reshape(q, k)
    weights = p ** np.arange(k)
    add = (((digits[:, None] + digits[None]) % p) @ weights).astype(np.int32)
    neg = ((-digits % p) @ weights).astype(np.int32)
    return add, neg, mul_tbl, inv, coeffs


def test_tables_match_generator_construction():
    # every field with q <= MAX_Q, built outside the make_field cache so that
    # each field's tables are freed after its check
    primes = [p for p in range(2, MAX_Q + 1) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    fields = [(p, k) for p in primes for k in range(1, 7) if p ** k <= MAX_Q]
    for p, k in fields:
        F = Field(p, k)
        add, neg, mul, inv, coeffs = _reference_tables(F)
        for name, table, ref in (("add", F.add, add), ("neg", F.neg, neg),
                                 ("mul", F.mul, mul), ("inv", F.inv, inv)):
            assert table.dtype == ref.dtype and table.tobytes() == ref.tobytes(), (F, name)
        assert [F.coeffs(a) for a in range(F.q)] == coeffs, F
