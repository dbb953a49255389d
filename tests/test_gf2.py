from math import gcd

import pytest

import oracles
from semibiplane import (
    field_mul,
    gold_table,
    inverse_table,
    is_bijection,
    is_semiplanar,
    make_field,
)
from semibiplane.gf2 import LEAST_IRREDUCIBLE


def test_modulus_table_is_least_irreducible():
    for e, m in LEAST_IRREDUCIBLE.items():
        assert m.bit_length() - 1 == e
        assert oracles.poly_is_irreducible(m)
        for smaller in range(1 << e, m):
            assert not oracles.poly_is_irreducible(smaller)


def test_make_field_range():
    assert make_field(3).modulus == 0b1011
    for e in (0, 9, -1):
        with pytest.raises(ValueError):
            make_field(e)


def test_field_mul_examples():
    # oracle: schoolbook multiply mod X^2+X+1, X^3+X+1
    gf4 = make_field(2)
    assert field_mul(gf4, 2, 2) == oracles.poly_mul_mod(2, 2, 0b111) == 3
    gf8 = make_field(3)
    assert field_mul(gf8, 2, 2) == 4
    assert field_mul(gf8, 2, 4) == oracles.poly_mul_mod(2, 4, 0b1011) == 3


@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_field_mul_matches_oracle_exhaustive(e):
    field = make_field(e)
    for a in range(field.size):
        for b in range(field.size):
            assert field_mul(field, a, b) == oracles.poly_mul_mod(a, b, field.modulus)


@pytest.mark.parametrize("e", [2, 3, 4])
def test_field_axioms_exhaustive(e):
    field = make_field(e)
    size = field.size
    for a in range(size):
        assert field_mul(field, a, 1) == a
        for b in range(size):
            assert field_mul(field, a, b) == field_mul(field, b, a)
            for c in range(size):
                assert field_mul(field, field_mul(field, a, b), c) == field_mul(
                    field, a, field_mul(field, b, c)
                )
                # distributivity over xor (field addition)
                assert field_mul(field, a, b ^ c) == field_mul(field, a, b) ^ field_mul(
                    field, a, c
                )


def test_gold_table_examples():
    assert gold_table(2, 1).values == (0, 1, 1, 1)
    assert gold_table(3, 1).values[2] == 3  # X^3 = X + 1
    for e in (2, 3, 4):
        for alpha in range(1, e):
            t = gold_table(e, alpha)
            assert t.values[0] == 0 and t.values[1] == 1


def test_gold_table_matches_pow_oracle():
    # x^(2^2+1) = x^5 = (x^2)^2 * x, chained through the schoolbook oracle
    field = make_field(3)
    t = gold_table(3, 2)
    for x in range(8):
        x2 = oracles.poly_mul_mod(x, x, field.modulus)
        x4 = oracles.poly_mul_mod(x2, x2, field.modulus)
        assert t.values[x] == oracles.poly_mul_mod(x4, x, field.modulus)


def test_gold_table_parameter_validation():
    with pytest.raises(ValueError):
        gold_table(3, 0)
    with pytest.raises(ValueError):
        gold_table(3, 3)
    with pytest.raises(ValueError):
        gold_table(9, 1)


def test_inverse_table_is_bijection():
    assert inverse_table(3).values == (0, 1, 5, 6, 7, 2, 3, 4)
    for e in (1, 2, 3, 4, 5):
        t = inverse_table(e)
        assert is_bijection(t)
        assert t.values[0] == 0 and t.values[1] == 1
        # x * x^-1 = 1 for x != 0
        field = make_field(e)
        for x in range(1, field.size):
            assert field_mul(field, x, t.values[x]) == 1


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_gold_semiplanarity_matches_gcd_rule(e):
    for alpha in range(1, e):
        verdict = is_semiplanar(gold_table(e, alpha))
        assert verdict.is_semiplanar == (gcd(alpha, e) == 1)


@pytest.mark.parametrize("e", range(1, 9))
def test_power_tables_match_field_pow(e):
    field = make_field(e)

    def power(x, n):
        r = 1
        for _ in range(n):
            r = oracles.poly_mul_mod(r, x, field.modulus)
        return r

    xs = range(field.size)
    for alpha in range(1, e):
        want = tuple(power(x, (1 << alpha) + 1) for x in xs)
        assert gold_table(e, alpha).values == want
    want = tuple(power(x, (1 << e) - 2) if x else 0 for x in xs)
    assert inverse_table(e).values == want
