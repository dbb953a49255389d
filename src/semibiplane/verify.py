"""Built-in verification checklist.

Runs every structural guarantee the library is built around, end to end, on
concrete instances: the Gold family criterion, the connected sbp(2^2e, 2^e)
constructions, the hypercube split case, the Z6 non-existence search, the
degenerate k = 2 case, the bijection rule, the solution-set and line-class
characterizations, transform closure, fiber-limit soundness, and the merging
of shift-rebuilt search shards. The CLI exposes this as ``verify-paper``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from math import gcd

from .functions import (
    FuncTable,
    equivalence_transform,
    is_bijection,
    is_semiplanar,
    make_table,
    s_set,
)
from .gf2 import gold_table, inverse_table
from .groups import automorphisms, is_subgroup, make_group
from .incidence import (
    ComponentPartition,
    Structure,
    axiom_report_dict,
    common_points,
    component_graph,
    components,
    is_hypercube_graph,
    verify_axioms,
)
from .search import SearchOptions, exhaustive_search
from .splitting import (
    KIND_CASE_I,
    KIND_CASE_II,
    classify_split,
    verify_difference_lemma,
    verify_divisible,
    verify_p_characterization,
    verify_phi_isomorphism,
)

_RNG_SEED = 0x5B9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _unpruned(fix_zero: bool) -> SearchOptions:
    return SearchOptions(
        fix_zero_at_zero=fix_zero, use_pruning=False, use_fiber_limit=False
    )


def _check_gold_family() -> CheckResult:
    for e in range(2, 6):
        for alpha in range(1, e):
            got = is_semiplanar(gold_table(e, alpha)).is_semiplanar
            want = gcd(alpha, e) == 1
            if got != want:
                return CheckResult(
                    "gold-family", False,
                    f"e={e} alpha={alpha}: semi-planar={got}, gcd rule says {want}",
                )
    return CheckResult(
        "gold-family", True,
        "x^(2^a+1) semi-planar exactly when gcd(a, e) = 1, for e = 2..5",
    )


def _check_gold_sbp(deep: bool) -> CheckResult:
    degrees = (3, 4, 5) if deep else (3, 4)
    for e in degrees:
        report = verify_axioms(Structure(gold_table(e, 1)))
        if not (report.is_semibiplane and report.v == 4 ** e and report.k == 2 ** e):
            return CheckResult(
                "gold-sbp-connected", False, f"e={e}: {axiom_report_dict(report)}"
            )
    return CheckResult(
        "gold-sbp-connected", True,
        f"gold e in {degrees}: connected sbp(4^e, 2^e), both axioms hold",
    )


def _check_hypercube() -> CheckResult:
    S = Structure(gold_table(2, 1))
    part = components(S)
    name = "hypercube-split"
    if part.component_count != 2:
        return CheckResult(name, False, f"expected 2 components, got {part.component_count}")
    for label in (0, 1):
        pts = sum(1 for c in part.component_of_point if c == label)
        lns = sum(1 for c in part.component_of_line if c == label)
        if pts != 8 or lns != 8:
            return CheckResult(name, False, f"component {label} has {pts} points, {lns} lines")
        if not is_hypercube_graph(component_graph(S, part, label), 4):
            return CheckResult(name, False, f"component {label} is not the hypercube graph Q4")
        if not verify_divisible(S, part, label).is_divisible:
            return CheckResult(name, False, f"component {label} is not divisible")
    report = classify_split(S, part)
    H = S.f.codomain
    if report.kind != KIND_CASE_I or not is_subgroup(H, report.codomain_subgroup):
        return CheckResult(name, False, f"classification came out {report.kind}")
    outside = sorted(set(H.elements()) - report.codomain_subgroup)
    if outside != [2, 3]:
        return CheckResult(name, False, f"H - B is {outside}, expected [2, 3]")
    for h in outside:
        if not verify_phi_isomorphism(S, part, h):
            return CheckResult(name, False, f"(x, y) -> (x, y+{h}) is not an isomorphism")
    return CheckResult(
        name, True,
        "gold(2,1): two sbp(8,4) components, both Q4 hypercubes, divisible, "
        "case-i with index-2 B, translation isomorphisms verified",
    )


def _check_z6() -> CheckResult:
    z6 = make_group([6])
    name = "z6-nonexistence"
    norm = exhaustive_search(z6, z6, _unpruned(True))
    full = exhaustive_search(z6, z6, _unpruned(False))
    if norm.visited != 7776 or full.visited != 46656:
        return CheckResult(
            name, False,
            f"unpruned enumerations visited {norm.visited}/{full.visited}, expected 7776/46656",
        )
    pruned_norm = exhaustive_search(z6, z6, SearchOptions())
    pruned_full = exhaustive_search(z6, z6, SearchOptions(fix_zero_at_zero=False))
    counts = (norm.count, full.count, pruned_norm.count, pruned_full.count)
    if counts != (0, 0, 0, 0):
        return CheckResult(name, False, f"searches found {counts} semi-planar tables")
    return CheckResult(
        name, True,
        "no semi-planar function over Z6: 7776 normalized + 46656 full candidates, "
        "pruned and unpruned agree",
    )


def _check_k2() -> CheckResult:
    z2 = make_group([2])
    ident = make_table(z2, z2, [0, 1])
    name = "k2-degenerate"
    if not is_semiplanar(ident).is_semiplanar:
        return CheckResult(name, False, "identity over Z2 not semi-planar")
    S = Structure(ident)
    part = components(S)
    if part.component_count != 2:
        return CheckResult(name, False, f"{part.component_count} components, expected 2")
    report = classify_split(S, part)
    if report.kind != KIND_CASE_II:
        return CheckResult(name, False, f"classification came out {report.kind}")
    return CheckResult(
        name, True, "identity over Z2: semi-planar, splits, classifies as case-ii"
    )


def _check_inverse() -> CheckResult:
    f = inverse_table(3)
    name = "inverse-bijection"
    if not is_bijection(f):
        return CheckResult(name, False, "x -> x^6 over GF(8) is not a bijection")
    if not is_semiplanar(f).is_semiplanar:
        return CheckResult(name, False, "x -> x^6 over GF(8) is not semi-planar")
    if components(Structure(f)).component_count != 1:
        return CheckResult(name, False, "structure of the bijection is not connected")
    return CheckResult(
        name, True, "x -> x^6 over GF(8): bijective, semi-planar, connected structure"
    )


def _intersection_criterion_holds(f: FuncTable) -> bool:
    # |S(a, b)| = 2 iff L(alpha*a, d+b) meets L((alpha+1)*a, d) for all d, alpha
    S = Structure(f)
    G, H = f.domain, f.codomain
    nh = H.order
    for a in range(1, G.order):
        multiples = [G.zero]
        while True:
            nxt = G.add(multiples[-1], a)
            if nxt == G.zero:
                break
            multiples.append(nxt)
        for b in H.elements():
            lhs = len(s_set(f, a, b)) == 2
            rhs = True
            for alpha in range(len(multiples)):
                aa = multiples[alpha]
                bb = multiples[(alpha + 1) % len(multiples)]
                for d in H.elements():
                    l1 = aa * nh + H.add(d, b)
                    l2 = bb * nh + d
                    if not common_points(S, l1, l2):
                        rhs = False
                        break
                if not rhs:
                    break
            if lhs != rhs:
                return False
    return True


def _found_tables(factors) -> list[FuncTable]:
    G = make_group(factors)
    return list(exhaustive_search(G, G).found)


def _split_corpus() -> list[tuple[FuncTable, Structure, ComponentPartition]]:
    corpus = []
    for factors in ([2], [4], [2, 2]):
        for f in _found_tables(factors):
            S = Structure(f)
            part = components(S)
            if part.component_count == 2:
                corpus.append((f, S, part))
    return corpus


def _check_intersection_criterion() -> CheckResult:
    name = "intersection-criterion"
    tables = [gold_table(2, 1)] + _found_tables([2, 2])
    for f in tables:
        if not _intersection_criterion_holds(f):
            return CheckResult(name, False, f"fails for table {f.values}")
    return CheckResult(
        name, True,
        f"|S(a,b)| = 2 iff the shifted line pencils always meet, on {len(tables)} tables",
    )


def _check_p_characterization() -> CheckResult:
    name = "p-characterization"
    corpus = _split_corpus()
    for f, S, part in corpus:
        if not verify_p_characterization(S, part):
            return CheckResult(name, False, f"fails for table {f.values}")
    return CheckResult(
        name, True,
        f"component-0 classes are exactly the b with |S(a,b)| = 2, "
        f"on all {len(corpus)} split examples",
    )


def _check_difference_lemma() -> CheckResult:
    name = "difference-lemma"
    corpus = _split_corpus()
    for f, S, part in corpus:
        if not verify_difference_lemma(S, part):
            return CheckResult(name, False, f"fails for table {f.values}")
    return CheckResult(
        name, True,
        f"overlapping classes force the base class pattern at a-c and c-a, "
        f"on all {len(corpus)} split examples",
    )


def _check_transform_closure() -> CheckResult:
    name = "transform-closure"
    z6 = make_group([6])
    rng = random.Random(_RNG_SEED)
    tables = []
    while len(tables) < 100:
        values = tuple(rng.randrange(6) for _ in range(6))
        f = make_table(z6, z6, values)
        if not is_semiplanar(f).is_semiplanar:
            tables.append(f)
    tables.extend(exhaustive_search(z6, z6).found)  # none exist over Z6
    auts = automorphisms(z6)
    for f in tables:
        verdict = is_semiplanar(f).is_semiplanar
        for phi in auts:
            for psi in auts:
                for c in range(6):
                    for d in range(6):
                        g = equivalence_transform(f, phi, psi, c, d)
                        if is_semiplanar(g).is_semiplanar != verdict:
                            return CheckResult(
                                name, False,
                                f"verdict changed under (phi,psi,c,d) on {f.values}",
                            )
    return CheckResult(
        name, True,
        f"semi-planarity verdict invariant under all 144 Z6 transforms on {len(tables)} tables",
    )


def _check_fiber_limit() -> CheckResult:
    name = "fiber-limit-soundness"
    z6 = make_group([6])
    for fix_zero in (True, False):
        for pruning in (True, False):
            base = SearchOptions(
                fix_zero_at_zero=fix_zero, use_pruning=pruning, use_fiber_limit=False
            )
            without = exhaustive_search(z6, z6, base)
            with_limit = exhaustive_search(z6, z6, replace(base, use_fiber_limit=True))
            if [f.values for f in without.found] != [f.values for f in with_limit.found]:
                return CheckResult(
                    name, False, f"fiber limit changed results (fix_zero={fix_zero})"
                )
    return CheckResult(
        name, True, "fiber-limit pruning never changes the found set over Z6"
    )


def _check_worker_determinism() -> CheckResult:
    # Benchmark digests pin check names, hence the old name. Z4 and Z2x2
    # search one f(1) shard, rebuild the rest by shifts, and have tables.
    name = "worker-determinism"
    for factors in ([4], [2, 2]):
        G = make_group(factors)
        for fix_zero in (True, False):
            pruned = exhaustive_search(G, G, SearchOptions(fix_zero_at_zero=fix_zero))
            brute = exhaustive_search(G, G, _unpruned(fix_zero))
            got = (pruned.count, [f.values for f in pruned.found])
            want = (brute.count, [f.values for f in brute.found])
            if got != want:
                return CheckResult(
                    name, False,
                    f"{G.name} fix_zero={fix_zero}: shift-reduced search differs "
                    f"from brute force (count {got[0]} vs {want[0]})",
                )
    return CheckResult(
        name, True,
        "shift-reduced pruned search equals brute force on Z4 and Z2x2, "
        "normalized and full",
    )


def run_checks(inject_fault: str | None = None, deep: bool = False) -> list[CheckResult]:
    """Run the whole checklist; ``inject_fault`` forces the named check to
    fail (negative-control hook for tests)."""
    producers = [
        lambda: _check_gold_family(),
        lambda: _check_gold_sbp(deep),
        lambda: _check_hypercube(),
        lambda: _check_z6(),
        lambda: _check_k2(),
        lambda: _check_inverse(),
        lambda: _check_intersection_criterion(),
        lambda: _check_p_characterization(),
        lambda: _check_difference_lemma(),
        lambda: _check_transform_closure(),
        lambda: _check_fiber_limit(),
        lambda: _check_worker_determinism(),
    ]
    results = [p() for p in producers]
    if inject_fault is not None:
        names = {r.name for r in results}
        if inject_fault not in names:
            raise ValueError(f"unknown check name {inject_fault!r} (known: {sorted(names)})")
        results = [
            CheckResult(r.name, False, "injected fault (test hook)")
            if r.name == inject_fault
            else r
            for r in results
        ]
    return results
