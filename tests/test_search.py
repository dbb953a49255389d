import random
from dataclasses import replace

import pytest

import oracles
from semibiplane import (
    SearchBudgetError,
    SearchOptions,
    UnsupportedGroupError,
    exhaustive_search,
    is_semiplanar,
    make_group,
    make_table,
    orbit_reduce,
    search_and_classify,
)
from semibiplane import _kernels_py, search
from semibiplane.groups import add_table, sub_table
from semibiplane.search import search_result_dict
from semibiplane.verify import _check_worker_determinism

UNPRUNED = SearchOptions(use_pruning=False, use_fiber_limit=False)


def values_of(result):
    return [f.values for f in result.found]


def test_z2_normalized(z2):
    result = exhaustive_search(z2, z2)
    assert result.count == 2
    assert values_of(result) == [(0, 0), (0, 1)]


def test_z2_unnormalized(z2):
    result = exhaustive_search(z2, z2, SearchOptions(fix_zero_at_zero=False))
    assert result.count == 4
    assert values_of(result) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_v4_normalized_matches_brute_oracle(z2z2):
    result = exhaustive_search(z2z2, z2z2)
    expected = oracles.brute_search([2, 2], [2, 2], fix_zero=True)
    assert result.count == len(expected) == 48
    assert values_of(result) == expected
    assert (0, 1, 1, 1) in values_of(result)


def test_z4_normalized_matches_brute_oracle(z4):
    result = exhaustive_search(z4, z4)
    expected = oracles.brute_search([4], [4], fix_zero=True)
    assert result.count == len(expected) == 8
    assert values_of(result) == expected == [
        (0, 0, 0, 2), (0, 0, 2, 0), (0, 1, 0, 3), (0, 1, 2, 1),
        (0, 2, 0, 0), (0, 2, 2, 2), (0, 3, 0, 1), (0, 3, 2, 3),
    ]


def test_cross_group_search_matches_brute_oracle(z4, z2z2):
    result = exhaustive_search(z4, z2z2)
    assert values_of(result) == oracles.brute_search([4], [2, 2], fix_zero=True)
    result = exhaustive_search(z2z2, z4)
    assert values_of(result) == oracles.brute_search([2, 2], [4], fix_zero=True)


def test_order_mismatch_rejected(z2, z4):
    with pytest.raises(ValueError):
        exhaustive_search(z2, z4)


@pytest.mark.parametrize("factors", [[2], [3], [4], [2, 2], [5], [6], [2, 3]])
@pytest.mark.parametrize("fix_zero", [True, False])
def test_pruned_and_unpruned_agree(factors, fix_zero):
    G = make_group(factors)
    combos = [
        SearchOptions(fix_zero_at_zero=fix_zero, use_pruning=p, use_fiber_limit=fl)
        for p in (False, True)
        for fl in (False, True)
    ]
    results = [exhaustive_search(G, G, opts) for opts in combos]
    baseline = values_of(results[0])
    for r in results[1:]:
        assert values_of(r) == baseline
        assert r.count == results[0].count


def unreduced_search(G, H, opts):
    """One pure-kernel call per value of f(1), merged: no shift reduction."""
    k = G.order
    gadd, gsub, hsub = add_table(G), sub_table(G), sub_table(H)
    visited, count, found = 0, 0, []
    for r in range(k):
        v, c, tables = _kernels_py.search_tables(
            k, gadd, gsub, hsub, opts.fix_zero_at_zero, r, opts.use_pruning, opts.use_fiber_limit
        )
        visited, count = visited + v, count + c
        found += tables
    return visited, count, sorted(found)


SHIFT_CASES = [
    (g, g, fix_zero)
    for g in ([2], [3], [4], [2, 2], [5], [6], [2, 3], [3, 2])
    for fix_zero in (True, False)
] + [([7], [7], True), ([4], [2, 2], True), ([2, 2], [4], True)]


@pytest.mark.parametrize(
    "gfac, hfac, fix_zero", SHIFT_CASES,
    ids=[f"{'x'.join(map(str, g))}-{'x'.join(map(str, h))}-{'norm' if z else 'full'}"
         for g, h, z in SHIFT_CASES],
)
def test_shift_reduction_matches_unreduced(gfac, hfac, fix_zero):
    G, H = make_group(gfac), make_group(hfac)
    for pruning in (False, True):
        for fiber in (False, True):
            opts = SearchOptions(
                fix_zero_at_zero=fix_zero, use_pruning=pruning, use_fiber_limit=fiber
            )
            result = exhaustive_search(G, H, opts)
            got = (result.visited, result.count, values_of(result))
            assert got == unreduced_search(G, H, opts), opts


def test_fiber_limit_cuts_leaves_only_at_k_5_and_7():
    # a shift-reduced count that ignored the fiber limit would read 140 and 23,856
    assert exhaustive_search(make_group([5]), make_group([5])).visited == 200
    assert exhaustive_search(make_group([7]), make_group([7])).visited == 25032


def test_visited_counts_unpruned(z6):
    norm = exhaustive_search(z6, z6, UNPRUNED)
    assert norm.visited == 6 ** 5 == 7776
    full = exhaustive_search(z6, z6, replace(UNPRUNED, fix_zero_at_zero=False))
    assert full.visited == 6 ** 6 == 46656
    assert norm.count == full.count == 0


def test_pruning_reduces_visited(z6):
    pruned = exhaustive_search(z6, z6)
    unpruned = exhaustive_search(z6, z6, UNPRUNED)
    assert pruned.visited < unpruned.visited
    assert pruned.count == unpruned.count


def test_normalized_times_order_equals_full():
    # f(0)=0 normalization is exactly the d-translation quotient
    for factors in ([2], [4], [2, 2]):
        G = make_group(factors)
        norm = exhaustive_search(G, G)
        full = exhaustive_search(G, G, SearchOptions(fix_zero_at_zero=False))
        assert norm.count * G.order == full.count


def test_everything_found_is_semiplanar_everything_else_is_not(z4):
    result = exhaustive_search(z4, z4, SearchOptions(fix_zero_at_zero=False))
    found = set(values_of(result))
    for values in oracles.all_tables(4, fix_zero=False):
        f = make_table(z4, z4, values)
        assert is_semiplanar(f).is_semiplanar == (values in found)


def test_missing_tables_sampled_z6_are_not_semiplanar(z6):
    rng = random.Random(31337)
    for _ in range(200):
        values = tuple(rng.randrange(6) for _ in range(6))
        f = make_table(z6, z6, values)
        assert not is_semiplanar(f).is_semiplanar  # nothing exists over Z6


def test_budget_guard():
    z9 = make_group([9])
    with pytest.raises(SearchBudgetError):
        exhaustive_search(z9, z9)  # default budget is order 8
    z3 = make_group([3])
    with pytest.raises(SearchBudgetError):
        exhaustive_search(z3, z3, SearchOptions(max_order=2))
    result = exhaustive_search(z3, z3, SearchOptions(max_order=3))
    assert result.visited > 0
    assert result.count == 0  # odd order cannot carry a semi-planar table


def test_max_results_truncates_list_not_count(z2z2):
    result = exhaustive_search(z2z2, z2z2, SearchOptions(max_results=5))
    assert result.count == 48
    assert len(result.found) == 5
    assert values_of(result) == oracles.brute_search([2, 2], [2, 2], True)[:5]


def test_shard_merge_check_fails_when_a_shift_is_dropped(monkeypatch):
    assert _check_worker_determinism().passed
    shifts = search._shifts
    # without its last nonzero shift, one f(1) shard is neither searched nor rebuilt
    monkeypatch.setattr(search, "_shifts", lambda G, H: shifts(G, H)[:-1])
    assert not _check_worker_determinism().passed


def test_search_result_dict_schema(z6):
    result = exhaustive_search(z6, z6)
    data = search_result_dict(result, z6, True)
    assert data["group"] == "Z6"
    assert data["normalized"] is True
    assert data["count"] == 0
    assert data["found"] == []
    assert isinstance(data["visited"], int)
    assert isinstance(data["elapsed_ms"], int)


def test_search_and_classify_v4(z2z2):
    classified = search_and_classify(z2z2, z2z2)
    assert len(classified) == 48
    kinds = {f.values: kind for f, kind in classified}
    assert kinds[(0, 1, 1, 1)] == "case-i"
    assert set(kinds.values()) == {"case-i", "case-ii"}


def test_search_and_classify_z2(z2):
    classified = search_and_classify(z2, z2)
    assert [(f.values, kind) for f, kind in classified] == [
        ((0, 0), "case-i"),
        ((0, 1), "case-ii"),
    ]


def test_search_and_classify_z6_empty(z6):
    assert search_and_classify(z6, z6) == []


def test_orbit_reduce_z2(z2):
    tables = [
        make_table(z2, z2, v) for v in [(0, 0), (0, 1), (1, 1), (1, 0)]
    ]
    reps = orbit_reduce(tables, z2, z2)
    assert [f.values for f in reps] == [(0, 0), (0, 1)]


def test_orbit_reduce_singleton(z4):
    # this table is its own orbit minimum, so the singleton maps to itself
    f = make_table(z4, z4, (0, 1, 0, 3))
    assert orbit_reduce([f], z4, z4) == [f]


def test_orbit_reduce_preserves_semiplanarity_classes(z4):
    found = list(exhaustive_search(z4, z4, SearchOptions(fix_zero_at_zero=False)).found)
    reps = orbit_reduce(found, z4, z4)
    assert len(reps) < len(found)
    for rep in reps:
        assert is_semiplanar(rep).is_semiplanar


def test_orbit_reduce_rejects_non_cyclic(z2z2):
    f = make_table(z2z2, z2z2, (0, 1, 1, 1))
    with pytest.raises(UnsupportedGroupError):
        orbit_reduce([f], z2z2, z2z2)
