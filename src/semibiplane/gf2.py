"""Arithmetic in GF(2^e) for e = 1..8, in the polynomial basis.

Field elements are bitmasks (bit i is the coefficient of X^i). Each degree
uses the lexicographically least irreducible polynomial; element labels in
any output are canonical only relative to that choice of basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .functions import FuncTable
from .groups import GroupSpec, make_group

#: Least irreducible polynomial per degree, as a bitmask including the
#: leading term.
LEAST_IRREDUCIBLE = {
    1: 0b10,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
}


@dataclass(frozen=True)
class FieldSpec:
    e: int
    modulus: int

    @property
    def size(self) -> int:
        return 1 << self.e


def _poly_mod(a: int, m: int) -> int:
    # degree(a) - degree(m) is the difference of the bit lengths
    while (shift := a.bit_length() - m.bit_length()) >= 0:
        a ^= m << shift
    return a


def _poly_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def make_field(e: int) -> FieldSpec:
    if e not in LEAST_IRREDUCIBLE:
        raise ValueError(f"unsupported extension degree {e} (supported: 1..8)")
    return FieldSpec(e, LEAST_IRREDUCIBLE[e])


def _check_element(field: FieldSpec, a: int) -> int:
    if not 0 <= a < field.size:
        raise ValueError(f"invalid field element {a} for GF(2^{field.e})")
    return a


def field_mul(field: FieldSpec, a: int, b: int) -> int:
    _check_element(field, a)
    _check_element(field, b)
    return _poly_mod(_poly_mul(a, b), field.modulus)


def bit_group(e: int) -> GroupSpec:
    """The additive group of GF(2^e): Z2^e with element index == bitmask."""
    return make_group([2] * e)


def _power_values(field: FieldSpec, n: int) -> tuple[int, ...]:
    """x -> x^n with 0 -> 0, as exp[(log x * n) mod (2^e - 1)] over the powers
    exp[i] = g^i of the least primitive element g."""
    for g in range(1, field.size):
        exp = [1]
        while (x := field_mul(field, exp[-1], g)) != 1:
            exp.append(x)
        if len(exp) == field.size - 1:
            break
    log = {x: i for i, x in enumerate(exp)}
    return (0,) + tuple(exp[log[x] * n % len(exp)] for x in range(1, field.size))


def gold_table(e: int, alpha: int) -> FuncTable:
    """Value table of x -> x^(2^alpha + 1) over the additive group of GF(2^e)."""
    field = make_field(e)
    if not 1 <= alpha < e:
        raise ValueError(f"invalid parameter alpha={alpha} (expected 1 <= alpha < {e})")
    G = bit_group(e)
    return FuncTable(G, G, _power_values(field, (1 << alpha) + 1))


def inverse_table(e: int) -> FuncTable:
    """Value table of x -> x^(2^e - 2) with 0 -> 0; a bijection of GF(2^e)."""
    field = make_field(e)
    G = bit_group(e)
    return FuncTable(G, G, _power_values(field, (1 << e) - 2))
