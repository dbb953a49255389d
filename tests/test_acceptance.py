"""End-to-end acceptance suite.

One test per headline guarantee, each printing a PASS line with its elapsed
time so the suite doubles as a human-readable checklist (run with ``-s`` or
``-rA`` to see the lines). Runtime bounds are asserted where stated. Where
``verify-paper`` runs the same guarantee, the test calls its check.
"""

import json
import time
from dataclasses import replace

import pytest

from semibiplane import (
    SearchOptions,
    Structure,
    classify_split,
    components,
    exhaustive_search,
    gold_table,
    make_group,
    verify_axioms,
)
from semibiplane.splitting import split_report_dict
from semibiplane.verify import (
    _check_difference_lemma,
    _check_fiber_limit,
    _check_gold_family,
    _check_hypercube,
    _check_intersection_criterion,
    _check_inverse,
    _check_k2,
    _check_p_characterization,
    _check_transform_closure,
    _check_worker_determinism,
)

UNPRUNED = SearchOptions(use_pruning=False)


def report(criterion, elapsed, detail):
    print(f"[acceptance] {criterion}: PASS in {elapsed:.2f}s ({detail})")


def run_check(criterion, check, budget=None):
    t0 = time.perf_counter()
    result = check()
    elapsed = time.perf_counter() - t0
    assert result.passed, result.detail
    if budget is not None:
        assert elapsed < budget
    report(f"{criterion} {result.name}", elapsed, result.detail)


def test_criterion_1_gold_family_matches_gcd_rule():
    run_check(1, _check_gold_family, budget=5.0)


@pytest.mark.parametrize("e", [3, 4, 5, 6, 7, 8])
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
    run_check(3, _check_hypercube, budget=1.0)


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
    run_check(5, _check_k2, budget=1.0)


def test_criterion_6_bijection_connected():
    run_check(6, _check_inverse, budget=1.0)


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
    run_check(7, check)


def test_criterion_8_worker_determinism():
    # the split classification is reproducible
    S = Structure(gold_table(2, 1))
    assert json.dumps(split_report_dict(classify_split(S, components(S)))) == json.dumps(
        split_report_dict(classify_split(S, components(S)))
    )
    run_check(8, _check_worker_determinism)
