"""End-to-end acceptance suite.

One test per headline guarantee, each printing a PASS line with its elapsed
time so the suite doubles as a human-readable checklist (run with ``-s`` or
``-rA`` to see the lines). Runtime bounds are asserted where stated.
"""

import json
import time
from dataclasses import replace
from math import gcd

import pytest

from semibiplane import (
    SearchOptions,
    Structure,
    classify_split,
    component_graph,
    components,
    exhaustive_search,
    gold_table,
    inverse_table,
    is_bijection,
    is_hypercube_graph,
    is_semiplanar,
    is_subgroup,
    make_group,
    make_table,
    verify_axioms,
    verify_divisible,
    verify_phi_isomorphism,
)
from semibiplane.search import search_result_dict
from semibiplane.splitting import split_report_dict
from semibiplane.verify import (
    _check_difference_lemma,
    _check_fiber_limit,
    _check_intersection_criterion,
    _check_p_characterization,
    _check_transform_closure,
)

UNPRUNED = SearchOptions(use_pruning=False, use_fiber_limit=False)


def report(criterion, elapsed, detail):
    print(f"[acceptance] {criterion}: PASS in {elapsed:.2f}s ({detail})")


def test_criterion_1_gold_family_matches_gcd_rule():
    t0 = time.perf_counter()
    for e in (2, 3, 4, 5):
        for alpha in range(1, e):
            verdict = is_semiplanar(gold_table(e, alpha))
            assert verdict.is_semiplanar == (gcd(alpha, e) == 1), (e, alpha)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("1 gold-family", elapsed, "e=2..5, all alpha, verdict == gcd rule")


@pytest.mark.parametrize("e", [3, 4, 5, 6, 7])
def test_criterion_2_gold_structures_are_sbp(e):
    t0 = time.perf_counter()
    rep = verify_axioms(Structure(gold_table(e, 1)))
    elapsed = time.perf_counter() - t0
    assert rep.is_semibiplane
    assert rep.v == 2 ** (2 * e)
    assert rep.k == 2 ** e
    assert elapsed < 60.0
    report(f"2 sbp(4^{e},2^{e})", elapsed, "connected, both axioms hold, inside the 60s budget")


def test_criterion_3_hypercube_case():
    t0 = time.perf_counter()
    S = Structure(gold_table(2, 1))
    part = components(S)
    assert part.component_count == 2
    for label in (0, 1):
        assert sum(1 for c in part.component_of_point if c == label) == 8
        assert sum(1 for c in part.component_of_line if c == label) == 8
        assert is_hypercube_graph(component_graph(S, part, label), 4)
        assert verify_divisible(S, part, label).is_divisible
    rep = classify_split(S, part)
    assert rep.kind == "case-i"
    H = S.f.codomain
    assert is_subgroup(H, rep.codomain_subgroup)
    assert len(rep.codomain_subgroup) == 2
    outside = sorted(set(H.elements()) - rep.codomain_subgroup)
    assert outside == [2, 3]
    for h in outside:
        assert verify_phi_isomorphism(S, part, h)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("3 hypercube-case", elapsed,
           "two sbp(8,4) components, Q4 graphs, divisible, case-i, phi_h isomorphisms")


def test_criterion_4_z6_nonexistence():
    z6 = make_group([6])
    t0 = time.perf_counter()
    norm = exhaustive_search(z6, z6, UNPRUNED)
    full = exhaustive_search(z6, z6, replace(UNPRUNED, fix_zero_at_zero=False))
    unpruned_elapsed = time.perf_counter() - t0
    assert (norm.visited, norm.count) == (7776, 0)
    assert (full.visited, full.count) == (46656, 0)
    assert unpruned_elapsed < 10.0

    t0 = time.perf_counter()
    pnorm = exhaustive_search(z6, z6, SearchOptions())
    pfull = exhaustive_search(z6, z6, SearchOptions(fix_zero_at_zero=False))
    pruned_elapsed = time.perf_counter() - t0
    assert pruned_elapsed < 1.0
    assert pnorm.count == norm.count == 0
    assert pfull.count == full.count == 0
    assert [f.values for f in pnorm.found] == [f.values for f in norm.found]
    assert [f.values for f in pfull.found] == [f.values for f in full.found]
    report("4 z6-nonexistence", unpruned_elapsed + pruned_elapsed,
           "7776 + 46656 candidates, zero found, pruned and unpruned agree")


def test_criterion_5_k2_degenerate_case():
    t0 = time.perf_counter()
    z2 = make_group([2])
    ident = make_table(z2, z2, [0, 1])
    assert is_semiplanar(ident).is_semiplanar
    S = Structure(ident)
    part = components(S)
    assert part.component_count == 2
    assert classify_split(S, part).kind == "case-ii"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("5 k2-degenerate", elapsed, "identity over Z2: semi-planar, split, case-ii")


def test_criterion_6_bijection_connected():
    t0 = time.perf_counter()
    f = inverse_table(3)
    assert is_bijection(f)
    assert is_semiplanar(f).is_semiplanar
    assert components(Structure(f)).component_count == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("6 bijection-connected", elapsed, "x^6 over GF(8): bijective, connected")


@pytest.mark.parametrize(
    "check",
    [
        _check_intersection_criterion,
        _check_p_characterization,
        _check_difference_lemma,
        _check_transform_closure,
        _check_fiber_limit,
    ],
    ids=lambda c: c.__name__.removeprefix("_check_"),
)
def test_criterion_7_property_suites(check):
    t0 = time.perf_counter()
    result = check()
    assert result.passed, result.detail
    report(f"7 {result.name}", time.perf_counter() - t0, result.detail)


def test_criterion_8_worker_determinism():
    t0 = time.perf_counter()
    z6 = make_group([6])
    # criterion 3 reports: the split classification is reproducible
    S = Structure(gold_table(2, 1))
    part = components(S)
    assert json.dumps(split_report_dict(classify_split(S, part))) == json.dumps(
        split_report_dict(classify_split(S, components(S)))
    )
    # criterion 4 reports: the searches themselves
    for opts, normalized in ((UNPRUNED, True), (SearchOptions(fix_zero_at_zero=False), False)):
        one = exhaustive_search(z6, z6, opts, workers=1)
        many = exhaustive_search(z6, z6, opts, workers=3)
        assert json.dumps(search_result_dict(one, z6, normalized, timing=False)) == \
            json.dumps(search_result_dict(many, z6, normalized, timing=False))
    report("8 worker-determinism", time.perf_counter() - t0,
           "classification and search reports byte-identical for 1 vs 3 workers")
