import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from semibiplane import (
    SearchBudgetError,
    automorphisms,
    coset,
    is_subgroup,
    make_group,
)
from semibiplane.groups import add_table, automorphism_generators, sub_table


def test_make_group_orders():
    assert make_group([6]).order == 6
    assert make_group([2, 2]).order == 4
    assert make_group([2, 3, 4]).order == 24


def test_make_group_rejects_bad_factors():
    with pytest.raises(ValueError):
        make_group([])
    with pytest.raises(ValueError):
        make_group([1])
    with pytest.raises(ValueError):
        make_group([6, 0])


def test_group_names():
    assert make_group([6]).name == "Z6"
    assert make_group([2, 2]).name == "Z2xZ2"


def test_add_examples():
    z6 = make_group([6])
    assert z6.add(4, 5) == 3
    v4 = make_group([2, 2])
    assert v4.add(1, 3) == 2  # digitwise xor
    for G in (z6, v4):
        for x in G.elements():
            assert G.add(G.zero, x) == x
            assert G.add(x, G.neg(x)) == G.zero


def test_element_range_checked():
    z6 = make_group([6])
    with pytest.raises(ValueError):
        z6.add(0, 6)
    with pytest.raises(ValueError):
        z6.neg(-1)


@given(st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=4))
@settings(deadline=None)
def test_encode_decode_roundtrip(factors):
    G = make_group(factors)
    for x in G.elements():
        assert G.encode(G.decode(x)) == x


@pytest.mark.parametrize("factors", [[6], [2, 2], [8], [2, 3, 4], [4, 4, 4], [2, 2, 2, 2, 2, 2]])
def test_group_axioms_exhaustive(factors):
    # associativity, identity and inverse on every triple; orders up to 64
    G = make_group(factors)
    k = G.order
    add = add_table(G)
    neg = [G.neg(x) for x in range(k)]
    for x in range(k):
        assert add[x * k + neg[x]] == 0
        assert add[0 * k + x] == x
        for y in range(k):
            assert add[x * k + y] == add[y * k + x]
            for z in range(k):
                assert add[add[x * k + y] * k + z] == add[x * k + add[y * k + z]]


@given(st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=2))
@settings(max_examples=25, deadline=None)
def test_tables_match_oracle(factors):
    G = make_group(factors)
    k = G.order
    add = add_table(G)
    sub = sub_table(G)
    for x in range(k):
        for y in range(k):
            assert add[x * k + y] == oracles.add(factors, x, y)
            assert sub[x * k + y] == oracles.sub(factors, x, y)


def test_index2_subgroups_complete_by_enumeration():
    # the half-size subsets containing 0 that is_subgroup accepts, order <= 8
    from itertools import combinations

    expected = {
        (6,): [{0, 2, 4}],
        (2, 2): [{0, 1}, {0, 2}, {0, 3}],
        (8,): [{0, 2, 4, 6}],
        (2, 4): [{0, 1, 4, 5}, {0, 2, 4, 6}, {0, 3, 4, 7}],
    }
    for factors, subgroups in expected.items():
        G = make_group(factors)
        k = G.order
        found = [
            set((0,) + rest)
            for rest in combinations(range(1, k), k // 2 - 1)
            if is_subgroup(G, frozenset((0,) + rest))
        ]
        assert found == subgroups


def test_is_subgroup_examples():
    z6 = make_group([6])
    assert is_subgroup(z6, {0, 2, 4})
    assert not is_subgroup(z6, {0, 1})
    assert not is_subgroup(z6, {1, 2})
    with pytest.raises(ValueError):
        is_subgroup(z6, set())
    with pytest.raises(ValueError):
        is_subgroup(z6, {0, 9})


def test_coset_examples():
    z6 = make_group([6])
    assert coset(z6, {0, 2, 4}, 1) == frozenset({1, 3, 5})
    assert coset(z6, {0, 2, 4}, 2) == frozenset({0, 2, 4})


def test_automorphisms_cyclic():
    z6 = make_group([6])
    auts = automorphisms(z6)
    assert len(auts) == 2
    assert tuple(range(6)) in auts
    assert tuple((5 * x) % 6 for x in range(6)) in auts
    assert len(automorphisms(make_group([2]))) == 1
    assert len(automorphisms(make_group([8]))) == 4


def test_automorphisms_accept_product_groups():
    auts = automorphisms(make_group([2, 2]))
    assert len(auts) == 6
    assert auts == sorted(auts)


@pytest.mark.parametrize("factors, size", [
    ([2, 2, 2], 168), ([4, 4], 96), ([2, 2, 4], 192), ([2, 8], 16),
    ([2, 6], 12), ([2, 2, 3], 12), ([3, 3], 48),
    *(([n], sum(gcd(u, n) == 1 for u in range(n))) for n in range(2, 16)),
])
def test_automorphisms_admit_every_order_up_to_15_and_the_order_16_products(factors, size):
    G = make_group(factors)
    auts = automorphisms(G)
    assert len(auts) == size  # |Aut(Zn)| is Euler's phi(n)
    assert tuple(range(G.order)) in auts


def test_automorphisms_refuse_z2_to_the_4_before_enumerating():
    # 16^4 candidate generator images on 16 elements, over the 2^14 budget
    t0 = time.perf_counter()
    with pytest.raises(SearchBudgetError, match="65536"):
        automorphisms(make_group([2, 2, 2, 2]))
    assert time.perf_counter() - t0 < 0.1


def test_automorphisms_refuse_z512_before_building_its_addition_table():
    # 512 candidates x 512 elements: the bound is on work, not on candidates
    t0 = time.perf_counter()
    with pytest.raises(SearchBudgetError, match="Z512"):
        automorphisms(make_group([512]))
    assert time.perf_counter() - t0 < 0.01


def factor_lists(limit):
    """Every factor list of moduli >= 2 with product at most ``limit``."""
    out = [[]]
    for fs in out:
        order = oracles.group_order(fs)
        out += [fs + [n] for n in range(2, limit // order + 1)]
    return out[1:]


def generated(gens, k):
    """The maps that compositions of ``gens`` reach from the identity."""
    span, frontier = {tuple(range(k))}, [tuple(range(k))]
    while frontier:
        frontier = [tuple(g[x] for x in s) for s in frontier for g in gens]
        frontier = [s for s in dict.fromkeys(frontier) if s not in span]
        span.update(frontier)
    return span


def test_automorphism_generators_generate_the_whole_group():
    # every group up to order 16 whose automorphisms fit AUT_WORK_BUDGET
    over_budget = []
    for factors in factor_lists(16):
        G = make_group(factors)
        try:
            auts = automorphisms(G)
        except SearchBudgetError:
            over_budget.append(factors)
            continue
        gens = automorphism_generators(G)
        assert set(gens) <= set(auts)
        assert len(generated(gens, G.order)) == len(auts)
    assert over_budget == [[2, 2, 2, 2]]


@pytest.mark.parametrize("factors, count", [
    ([4], 1), ([2, 2], 2), ([2, 4], 3), ([8], 2), ([2, 2, 2], 5),
])
def test_automorphism_generators_greedy_counts(factors, count):
    assert len(automorphism_generators(make_group(factors))) == count
