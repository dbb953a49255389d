import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from semibiplane import (
    InvalidTransformError,
    TableParseError,
    delta,
    equivalence_transform,
    fiber_sizes,
    format_table,
    gold_table,
    inverse_table,
    is_automorphism,
    is_bijection,
    is_semiplanar,
    limit_check,
    make_group,
    make_table,
    parse_table,
    s_set,
)

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


def test_delta_of_constant_is_zero(z6):
    f = make_table(z6, z6, [3] * 6)
    for a in z6.elements():
        assert delta(f, a).values == (0,) * 6


def test_delta_of_identity_is_constant(z6, ident_z6):
    assert delta(ident_z6, 2).values == (2,) * 6


def test_delta_gold_example(gold21):
    assert delta(gold21, 1).values == (1, 1, 0, 0)


def test_delta_rejects_bad_translation(gold21):
    with pytest.raises(ValueError):
        delta(gold21, 4)


def test_delta_allows_distinct_groups():
    g = make_group([4])
    h = make_group([2, 2])
    f = make_table(g, h, [0, 1, 2, 3])
    assert delta(f, 1).values == tuple(
        oracles.sub([2, 2], f.values[oracles.add([4], x, 1)], f.values[x])
        for x in range(4)
    )


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
            d = delta(f, G.neg(a))
            counts = Counter(d.values)
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
        k = f.domain.order
        for a in range(1, k):
            counts = Counter(delta(f, a).values)
            assert len(counts) == k // 2
            assert set(counts.values()) == {2}


def test_equivalence_transform_identity_fixpoint(gold21):
    ident = tuple(range(4))
    assert equivalence_transform(gold21, ident, ident, 0, 0).values == gold21.values


def test_equivalence_transform_translation(gold21):
    ident = tuple(range(4))
    g = equivalence_transform(gold21, ident, ident, 0, 1)
    assert g.values == (1, 0, 0, 0)
    assert is_semiplanar(g).is_semiplanar


def test_equivalence_transform_domain_reversal(z6):
    f = make_table(z6, z6, [0, 1, 3, 2, 5, 4])
    rev = tuple((5 * x) % 6 for x in range(6))
    ident = tuple(range(6))
    g = equivalence_transform(f, rev, ident, 0, 0)
    assert g.values == tuple(f.values[(5 * x) % 6] for x in range(6))
    assert is_semiplanar(g).is_semiplanar == is_semiplanar(f).is_semiplanar


def test_equivalence_transform_rejects_non_automorphism(z6, ident_z6):
    shift = tuple((x + 1) % 6 for x in range(6))  # bijection, not additive
    ident = tuple(range(6))
    with pytest.raises(InvalidTransformError):
        equivalence_transform(ident_z6, shift, ident, 0, 0)
    with pytest.raises(InvalidTransformError):
        equivalence_transform(ident_z6, ident, ident[:-1], 0, 0)


def test_is_automorphism(z2z2, z6):
    for perm in V4_AUTOMORPHISMS:
        assert is_automorphism(z2z2, perm)
    assert is_automorphism(z6, tuple((5 * x) % 6 for x in range(6)))
    assert not is_automorphism(z6, tuple((x + 1) % 6 for x in range(6)))
    # exactly six additive bijections of Z2xZ2 (it is GL(2, 2) on indices)
    from itertools import permutations

    additive = [p for p in permutations(range(4)) if is_automorphism(z2z2, p)]
    assert additive == sorted(V4_AUTOMORPHISMS)
    # above order 256 the check stays exact: Z2^9 with the Gray-code map
    # x -> x ^ (x >> 1), which is GF(2)-linear, then with 1 and 2 swapped
    z2_9 = make_group([2] * 9)
    gray = tuple(x ^ (x >> 1) for x in range(512))
    assert is_automorphism(z2_9, gray)
    swap = {1: 2, 2: 1}
    assert not is_automorphism(z2_9, tuple(swap.get(y, y) for y in gray))


def additive_on_all_pairs(factors, perm):
    k = len(perm)
    return all(
        perm[oracles.add(factors, x, y)] == oracles.add(factors, perm[x], perm[y])
        for x in range(k) for y in range(k)
    )


def test_is_automorphism_matches_all_pairs_z2x4():
    # every permutation of Z2 x Z4, against additivity on all 64 pairs
    from itertools import permutations

    G = make_group([2, 4])
    additive = [p for p in permutations(range(8)) if additive_on_all_pairs([2, 4], p)]
    assert len(additive) == 8  # Aut(Z2 x Z4) is dihedral of order 8
    assert [p for p in permutations(range(8)) if is_automorphism(G, p)] == additive


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
                        g = equivalence_transform(f, phi, psi, c, d)
                        assert is_semiplanar(g).is_semiplanar == want


def test_transform_preserves_semiplanarity_exhaustive_v4(z2z2, found_small):
    semiplanar = found_small[(2, 2)]
    non = make_table(z2z2, z2z2, [0, 0, 0, 0])
    for f in list(semiplanar[:6]) + [non]:
        want = is_semiplanar(f).is_semiplanar
        for phi in V4_AUTOMORPHISMS:
            for psi in V4_AUTOMORPHISMS:
                for c in range(4):
                    for d in range(4):
                        g = equivalence_transform(f, phi, psi, c, d)
                        assert is_semiplanar(g).is_semiplanar == want


def test_parse_format_roundtrip(z6):
    f = parse_table("0,0,2,2,4,0", z6, z6)
    assert f.values == (0, 0, 2, 2, 4, 0)
    assert format_table(f) == "0,0,2,2,4,0"
    assert parse_table(format_table(f), z6, z6) == f
    assert parse_table(" 0, 0,2,2,4,0 \n", z6, z6) == f


def test_parse_errors(z6):
    with pytest.raises(TableParseError):
        parse_table("0,1,2", z6, z6)
    with pytest.raises(TableParseError) as exc_info:
        parse_table("0,6,0,0,0,0", z6, z6)
    assert exc_info.value.position == 1
    with pytest.raises(TableParseError) as exc_info:
        parse_table("0,1,x,0,0,0", z6, z6)
    assert exc_info.value.position == 2
