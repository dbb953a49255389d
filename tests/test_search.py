import random
from dataclasses import replace

import pytest

import oracles
from semibiplane import (
    FuncTable,
    SearchBudgetError,
    SearchOptions,
    SearchResult,
    exhaustive_search,
    is_semiplanar,
    make_group,
    make_table,
)
from semibiplane import _kernels_py, kernels, search, verify
from semibiplane.groups import add_table, sub_table
from semibiplane.search import search_result_dict
from semibiplane.verify import (
    _check_fiber_limit,
    _check_transform_closure,
    _check_worker_determinism,
)

try:
    from semibiplane._speedups import search_tables as reference_search
except ImportError:
    reference_search = kernels.search_tables

UNPRUNED = SearchOptions(use_pruning=False)


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
    unpruned, pruned = (
        exhaustive_search(G, G, SearchOptions(fix_zero_at_zero=fix_zero, use_pruning=p))
        for p in (False, True)
    )
    assert values_of(pruned) == values_of(unpruned)
    assert pruned.count == unpruned.count


def unreduced_search(G, H, opts):
    """One pure-kernel call per value of f(1), merged: no shift reduction."""
    k = G.order
    gadd, gsub, hsub = add_table(G), sub_table(G), sub_table(H)
    visited, count, found = 0, 0, []
    for r in range(k):
        v, c, tables = _kernels_py.search_tables(
            k, gadd, gsub, hsub, opts.fix_zero_at_zero, r, opts.use_pruning
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
        opts = SearchOptions(fix_zero_at_zero=fix_zero, use_pruning=pruning)
        result = exhaustive_search(G, H, opts)
        got = (result.visited, result.count, values_of(result))
        assert got == unreduced_search(G, H, opts), opts


#: order-8 (G, H) pairs, normalized, with the pruned search's visited and
#: count, which no reduction may change
ORDER_8_CASES = [
    ([2, 4], [2, 4], 231424, 1024), ([4, 2], [4, 2], 231424, 1024),
    ([2, 2, 2], [2, 2, 2], 86016, 86016), ([4, 2], [2, 4], 231424, 1024),
    ([8], [2, 4], 244736, 0), ([2, 4], [8], 270848, 0),
    ([8], [2, 2, 2], 193536, 0), ([2, 2, 2], [8], 247296, 0),
    ([2, 4], [2, 2, 2], 86016, 0), ([2, 2, 2], [2, 4], 86016, 0),
]


@pytest.mark.parametrize(
    "gfac, hfac, visited, count", ORDER_8_CASES,
    ids=[f"{'x'.join(map(str, g))}-{'x'.join(map(str, h))}" for g, h, _, _ in ORDER_8_CASES],
)
def test_shift_reduction_matches_one_unsharded_call_at_order_8(gfac, hfac, visited, count):
    # The compiled kernel, when built, is the reference: one unsharded pure
    # call takes about 4 s on a 2-core x86-64 host.
    G, H = make_group(gfac), make_group(hfac)
    want = reference_search(8, add_table(G), sub_table(G), sub_table(H), True, -1, True)
    result = exhaustive_search(G, H)
    assert (result.visited, result.count) == (visited, count) == want[:2]
    assert list(result.values) == sorted(want[2])


def test_odd_orders_5_and_7_are_shift_reduced(monkeypatch):
    # Shifts by Hom(G, H) map the pruned search onto itself at every order:
    # a cyclic group and Z2x2x2 search one shard, Z2x4 one per coset of H[2].
    calls = []
    real = kernels.search_tables

    def spy(*args, **kwargs):
        calls.append(kwargs["pins"])
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "search_tables", spy)
    for factors, fix_zero, visited, count, shards in [
        ([5], True, 320, 0, 1), ([5], False, 1600, 0, 1),
        ([7], True, 26208, 0, 1), ([7], False, 183456, 0, 1),
        ([2, 4], True, 231424, 1024, 2), ([2, 2, 2], True, 86016, 86016, 1),
    ]:
        G = make_group(factors)
        result = exhaustive_search(G, G, SearchOptions(fix_zero_at_zero=fix_zero))
        assert (result.visited, result.count) == (visited, count)
        assert len(calls) == shards
        calls.clear()
    exhaustive_search(make_group([2, 4]), make_group([2, 4]))
    # f(g_2) at 0, the least element of H = H[4]; f(g_1) at 0 or 2, the least
    # elements of H[2] = {0, 1, 4, 5} and of its other coset
    assert calls == [[0, 0, 0, -1, -1, -1, -1, -1], [0, 2, 0, -1, -1, -1, -1, -1]]


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


def test_found_is_built_lazily_from_values():
    G, H = make_group([2, 4]), make_group([2, 4])
    result = exhaustive_search(G, H)
    assert "found" not in vars(result)
    assert len(result.values) == result.count == 1024
    assert result.found == tuple(FuncTable(G, H, v) for v in result.values)
    assert result.found is result.found


@pytest.mark.parametrize("cap", [0, 1, 7, 48, 100])
def test_max_results_keeps_the_sorted_prefix(z2z2, cap):
    full = exhaustive_search(z2z2, z2z2, SearchOptions(fix_zero_at_zero=False))
    assert list(full.values) == sorted(full.values)
    capped = exhaustive_search(
        z2z2, z2z2, SearchOptions(fix_zero_at_zero=False, max_results=cap)
    )
    assert capped.values == full.values[:cap]
    assert capped.count == full.count == 192


@pytest.mark.parametrize("cap", [-1, -2, -48])
def test_negative_max_results_is_refused_not_a_shorter_list(z2z2, cap):
    # values[:-1] would silently drop the last table while count stays 48
    with pytest.raises(ValueError, match="max_results"):
        exhaustive_search(z2z2, z2z2, SearchOptions(max_results=cap))


@pytest.mark.parametrize("values, match", [
    (((0, 1, 2, 4),), "entry 4"),
    (((0, 1, 2, -1),), "entry -1"),
    (((0, 1, 2, 3), (0, 1, 2)), "3 entries"),
    (((0, 1, 2, 3, 0),), "5 entries"),
])
def test_search_result_rejects_bad_tables(z4, values, match):
    with pytest.raises(ValueError, match=match):
        SearchResult(0, len(values), values, 0.0, z4, z4)


def test_search_result_rejects_count_below_stored(z4):
    with pytest.raises(ValueError, match="count"):
        SearchResult(0, 0, ((0, 1, 0, 3),), 0.0, z4, z4)


@pytest.fixture
def fresh_searches():
    """Checks called outside ``run_checks`` share its search cache; clear it
    around a test that patches the search."""
    verify._search.cache_clear()
    yield
    verify._search.cache_clear()


def test_shard_merge_check_fails_when_a_shift_is_dropped(monkeypatch, fresh_searches):
    assert _check_worker_determinism().passed
    verify._search.cache_clear()
    homs = search.homomorphisms
    # without its last homomorphism, part of each orbit is never rebuilt
    monkeypatch.setattr(search, "homomorphisms", lambda G, H: homs(G, H)[:-1])
    assert not _check_worker_determinism().passed


@pytest.mark.parametrize("deep", [False, True])
def test_verify_runs_each_search_once_per_run(monkeypatch, deep):
    calls = []
    real = verify.exhaustive_search

    def spy(G, H, opts=None):
        calls.append((G.name, opts))
        return real(G, H, opts)

    monkeypatch.setattr(verify, "exhaustive_search", spy)
    assert all(r.passed for r in verify.run_checks(deep=deep))
    assert len(calls) == len(set(calls))
    assert len([c for c in calls if c[0] == "Z6"]) == 4
    assert len([c for c in calls if c[0] == "Z2xZ4"]) == (1 if deep else 0)
    assert verify._search.cache_info().currsize == 0


def test_fiber_limit_check_fails_on_a_table_with_a_large_fiber(monkeypatch, fresh_searches):
    G = make_group([2, 2, 2])
    wide = make_table(G, G, (0, 0, 0, 0, 0, 1, 2, 3))  # 0 has 5 > 8/2 preimages
    corpus = verify._fiber_corpus
    for deep in (False, True):
        assert _check_fiber_limit(deep).passed
        monkeypatch.setattr(verify, "_fiber_corpus", lambda deep: [*corpus(deep), wide])
        result = _check_fiber_limit(deep)
        assert not result.passed
        assert "(0, 0, 0, 0, 0, 1, 2, 3)" in result.detail
        monkeypatch.undo()


@pytest.mark.parametrize("fault", ["zero table", "one wrong entry"])
def test_transform_closure_fails_under_a_broken_transform(monkeypatch, fresh_searches, fault):
    real = verify.transform_rows

    def broken(rows, G, H, phi, psi, c):
        images = real(rows, G, H, phi, psi, c)
        if fault == "zero table":
            return [bytes(len(g)) for g in images]
        return [g[:-1] + bytes([(g[-1] + 1) % H.order]) for g in images]

    assert _check_transform_closure().passed
    monkeypatch.setattr(verify, "transform_rows", broken)
    assert not _check_transform_closure().passed


def test_transform_closure_fails_when_a_found_table_is_dropped(fresh_searches, monkeypatch):
    # the closure is checked from generators only, so a hole in the Z2x4 orbit
    # must still show: some found table maps onto the dropped one
    real = verify._search
    dropped = real((2, 4), SearchOptions()).values[1]

    def holed(factors, opts):
        result = real(factors, opts)
        if factors != (2, 4):
            return result
        return replace(result, values=tuple(v for v in result.values if v != dropped))

    monkeypatch.setattr(verify, "_search", holed)
    assert _check_transform_closure(deep=False).passed
    result = _check_transform_closure(deep=True)
    assert not result.passed
    assert result.detail.startswith("Z2xZ4: (")
    assert result.detail.endswith(f" maps to {dropped}, not found")


def test_search_result_dict_schema(z6):
    result = exhaustive_search(z6, z6)
    data = search_result_dict(result, True)
    assert data["group"] == "Z6"
    assert data["normalized"] is True
    assert data["count"] == 0
    assert data["found"] == []
    assert isinstance(data["visited"], int)
    assert isinstance(data["elapsed_ms"], int)
