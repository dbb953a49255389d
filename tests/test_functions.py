import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from semibiplane import (
    TableParseError,
    fiber_sizes,
    format_table,
    format_tables,
    gold_table,
    inverse_table,
    is_bijection,
    is_semiplanar,
    limit_check,
    make_group,
    make_table,
    parse_table,
    s_set,
)
from semibiplane.functions import transform_rows
from semibiplane.groups import automorphisms

# all permutations of the nonzero elements fixing 0 are additive on Z2xZ2
V4_AUTOMORPHISMS = [
    (0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3),
    (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1),
]


def random_table(G, rng):
    return make_table(G, G, [rng.randrange(G.order) for _ in range(G.order)])


def test_functable_validation(z6):
    with pytest.raises(ValueError):
        make_table(z6, z6, [0, 1, 2])
    with pytest.raises(ValueError):
        make_table(z6, z6, [0, 1, 2, 3, 4, 6])


def test_is_semiplanar_gold(gold21):
    assert is_semiplanar(gold21).is_semiplanar
    assert is_semiplanar(gold21).witness is None


def test_is_semiplanar_identity_witness(z6, ident_z6):
    verdict = is_semiplanar(ident_z6)
    assert not verdict.is_semiplanar
    assert verdict.witness == (1, 1, 6)


def test_is_semiplanar_partial_constant(z6):
    f = make_table(z6, z6, [0, 0, 0, 2, 2, 4])
    assert not is_semiplanar(f).is_semiplanar


def test_is_semiplanar_rejects_order_mismatch(z6):
    f = make_table(make_group([2]), z6, [0, 1])
    with pytest.raises(ValueError):
        is_semiplanar(f)


@given(st.integers(min_value=0, max_value=6 ** 6 - 1))
@settings(max_examples=200)
def test_is_semiplanar_matches_oracle(z6, code):
    values = []
    for _ in range(6):
        code, d = divmod(code, 6)
        values.append(d)
    f = make_table(z6, z6, values)
    assert is_semiplanar(f).is_semiplanar == oracles.is_semiplanar(values, [6], [6])


def test_s_set_examples(gold21):
    assert s_set(gold21, 0, 0) == frozenset(range(4))
    assert s_set(gold21, 1, 0) == frozenset({2, 3})
    assert s_set(gold21, 1, 2) == frozenset()


def test_s_set_matches_oracle(z6, gold21):
    rng = random.Random(7)
    cases = [(gold21, [2, 2]), (random_table(z6, rng), [6]), (random_table(z6, rng), [6])]
    for f, fac in cases:
        for a in f.domain.elements():
            for b in f.codomain.elements():
                assert s_set(f, a, b) == frozenset(
                    oracles.solution_set(f.values, fac, fac, a, b)
                )


def test_s_set_substitution_identity():
    # |S(a, b)| equals the number of solutions of Delta_{f,-a}(z) = b
    rng = random.Random(123)
    for factors in ([6], [2, 2], [8], [2, 4], [4, 4], [16]):
        G = make_group(factors)
        f = random_table(G, rng)
        for a in G.elements():
            counts = oracles.delta_counts(f.values, factors, factors, G.neg(a))
            for b in G.elements():
                assert len(s_set(f, a, b)) == counts[b]


def test_fiber_sizes_and_limit(z6, gold21, ident_z6):
    const = make_table(z6, z6, [0] * 6)
    assert fiber_sizes(const) == {0: 6}
    assert limit_check(const) is False
    assert fiber_sizes(ident_z6) == {y: 1 for y in range(6)}
    assert limit_check(ident_z6) is True
    assert fiber_sizes(gold21) == {0: 1, 1: 3}
    assert limit_check(gold21) is True  # k = 4: the exclusion needs k > 4


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=6, max_size=6))
@settings(max_examples=300)
def test_limit_check_false_implies_not_semiplanar(z6, values):
    f = make_table(z6, z6, values)
    if not limit_check(f):
        assert not is_semiplanar(f).is_semiplanar


def test_is_bijection(z6, gold21, ident_z6):
    assert is_bijection(ident_z6)
    assert not is_bijection(gold21)
    assert is_bijection(inverse_table(3))


def test_bijection_has_empty_s_set_at_zero(z6, ident_z6):
    for f in (ident_z6, inverse_table(3), make_table(z6, z6, [3, 0, 5, 2, 1, 4])):
        assert is_bijection(f)
        for a in range(1, f.domain.order):
            assert s_set(f, a, 0) == frozenset()


def test_semiplanar_delta_hits_half_the_values_twice(gold21, found_small):
    tables = [gold21, gold_table(3, 1), inverse_table(3)]
    tables += found_small[(4,)] + found_small[(2, 2)]
    for f in tables:
        k, fac = f.domain.order, f.domain.factors
        for a in range(1, k):
            counts = oracles.delta_counts(f.values, fac, fac, a)
            assert len(counts) == k // 2
            assert set(counts.values()) == {2}


def test_equivalence_transform_identity_fixpoint(z2z2, gold21):
    ident = tuple(range(4))
    row = bytes(gold21.values)
    assert transform_rows([row], z2z2, z2z2, ident, ident, 0) == [row]


def test_equivalence_transform_translation(z2z2, gold21):
    # d = 1 leaves the image unnormalized, which only the oracle writes
    ident = tuple(range(4))
    values = oracles.transform(gold21.values, [2, 2], [2, 2], ident, ident, 0, 1)
    g = make_table(z2z2, z2z2, values)
    assert g.values == (1, 0, 0, 0)
    assert is_semiplanar(g).is_semiplanar


def test_equivalence_transform_domain_reversal(z6):
    f = make_table(z6, z6, [0, 1, 3, 2, 5, 4])
    rev = tuple((5 * x) % 6 for x in range(6))
    ident = tuple(range(6))
    (row,) = transform_rows([bytes(f.values)], z6, z6, rev, ident, 0)
    g = make_table(z6, z6, row)
    assert g.values == tuple(f.values[(5 * x) % 6] for x in range(6))
    assert is_semiplanar(g).is_semiplanar == is_semiplanar(f).is_semiplanar


def test_transform_rows_rejects_a_codomain_above_256():
    G, H = make_group([2]), make_group([257])
    with pytest.raises(ValueError, match="Z257 has order 257"):
        transform_rows([], G, H, (0, 1), tuple(range(257)), 0)


def test_transform_rows_at_a_codomain_of_256():
    G, H = make_group([2]), make_group([2, 128])
    psi = tuple(oracles.neg([2, 128], y) for y in range(256))
    row = bytes([7, 255])
    d = oracles.neg([2, 128], psi[7])
    want = oracles.transform(row, [2], [2, 128], (0, 1), psi, 0, d)
    assert transform_rows([row], G, H, (0, 1), psi, 0) == [bytes(want)]


# Semi-planar seeds per group: the first and last normalized Z2x4 tables of
# the search and gold(3, 1) over Z2x2x2; Z8 has none. Z4 and Z2x2 use their
# whole found sets.
SEMIPLANAR_SEEDS = {
    (4,): (), (2, 2): (), (8,): (),
    (2, 4): ((0, 0, 0, 2, 1, 5, 0, 6), (0, 7, 7, 7, 7, 4, 5, 1)),
    (2, 2, 2): ((0, 1, 3, 4, 5, 6, 7, 2),),
}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_transform_rows_match_oracle(found_small, data):
    # images renormalized by d = -psi(f(c)), on random tables and on
    # semi-planar ones moved by a constant
    factors = data.draw(st.sampled_from(sorted(SEMIPLANAR_SEEDS)))
    G = make_group(factors)
    k = G.order
    seeds = [*SEMIPLANAR_SEEDS[factors], *(f.values for f in found_small.get(factors, ()))]
    if seeds and data.draw(st.booleans()):
        shift = data.draw(st.integers(0, k - 1))
        values = tuple(oracles.add(factors, v, shift) for v in data.draw(st.sampled_from(seeds)))
        assert is_semiplanar(make_table(G, G, values)).is_semiplanar
    else:
        values = tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k)))
    auts = automorphisms(G)
    phi, psi = data.draw(st.sampled_from(auts)), data.draw(st.sampled_from(auts))
    c = data.draw(st.integers(0, k - 1))
    d = oracles.neg(factors, psi[values[c]])
    want = oracles.transform(values, factors, factors, phi, psi, c, d)
    assert transform_rows([bytes(values)], G, G, phi, psi, c) == [bytes(want)]


def additive_on_all_pairs(factors, perm):
    k = len(perm)
    return all(
        perm[oracles.add(factors, x, y)] == oracles.add(factors, perm[x], perm[y])
        for x in range(k) for y in range(k)
    )


@pytest.mark.parametrize("factors, size", [([2, 2], 6), ([2, 4], 8), ([2, 2, 2], 168)])
def test_automorphisms_match_all_pairs_oracle(factors, size):
    # additive maps fix 0, so the other k-1 entries are permuted
    from itertools import permutations

    from semibiplane import automorphisms

    k = oracles.group_order(factors)
    perms = ((0, *p) for p in permutations(range(1, k)))
    additive = [p for p in perms if additive_on_all_pairs(factors, p)]
    assert len(additive) == size
    assert automorphisms(make_group(factors)) == additive


def test_automorphisms_of_v4_are_the_hand_written_ones(z2z2):
    from semibiplane import automorphisms

    assert set(automorphisms(z2z2)) == set(V4_AUTOMORPHISMS)


def test_transform_preserves_semiplanarity_exhaustive_z6(z6):
    from semibiplane import automorphisms

    rng = random.Random(99)
    auts = automorphisms(z6)
    tables = [random_table(z6, rng) for _ in range(5)]
    for f in tables:
        want = is_semiplanar(f).is_semiplanar
        for phi in auts:
            for psi in auts:
                for c in range(6):
                    for d in range(6):
                        g = oracles.transform(f.values, [6], [6], phi, psi, c, d)
                        if d == oracles.neg([6], psi[f.values[c]]):
                            packed = transform_rows([bytes(f.values)], z6, z6, phi, psi, c)
                            assert packed == [bytes(g)]
                        assert is_semiplanar(make_table(z6, z6, g)).is_semiplanar == want


def test_transform_preserves_semiplanarity_exhaustive_v4(z2z2, found_small):
    semiplanar = found_small[(2, 2)]
    non = make_table(z2z2, z2z2, [0, 0, 0, 0])
    for f in list(semiplanar[:6]) + [non]:
        want = is_semiplanar(f).is_semiplanar
        for phi in V4_AUTOMORPHISMS:
            for psi in V4_AUTOMORPHISMS:
                for c in range(4):
                    for d in range(4):
                        g = oracles.transform(f.values, [2, 2], [2, 2], phi, psi, c, d)
                        if d == oracles.neg([2, 2], psi[f.values[c]]):
                            packed = transform_rows([bytes(f.values)], z2z2, z2z2, phi, psi, c)
                            assert packed == [bytes(g)]
                        assert is_semiplanar(make_table(z2z2, z2z2, g)).is_semiplanar == want


def test_parse_format_roundtrip(z6):
    f = parse_table("0,0,2,2,4,0", z6, z6)
    assert f.values == (0, 0, 2, 2, 4, 0)
    assert format_table(f) == "0,0,2,2,4,0"
    assert parse_table(format_table(f), z6, z6) == f
    assert parse_table(" 0, 0,2,2,4,0 \n", z6, z6) == f


def test_format_tables_matches_format_table():
    G = make_group([4, 4])
    rng = random.Random(5)
    tables = [tuple(rng.randrange(16) for _ in range(16)) for _ in range(20)]
    assert format_tables(tables, 16) == [format_table(make_table(G, G, t)) for t in tables]
    assert format_tables([], 16) == []


def test_parse_errors(z6):
    with pytest.raises(TableParseError):
        parse_table("0,1,2", z6, z6)
    with pytest.raises(TableParseError) as exc_info:
        parse_table("0,6,0,0,0,0", z6, z6)
    assert exc_info.value.position == 1
    with pytest.raises(TableParseError) as exc_info:
        parse_table("0,1,x,0,0,0", z6, z6)
    assert exc_info.value.position == 2
