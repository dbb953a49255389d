"""Built-in verification checklist.

Runs every structural guarantee the library is built around, end to end, on
concrete instances: the Gold family criterion, the connected sbp(2^2e, 2^e)
constructions, the hypercube split case, the Z6 non-existence search, the
degenerate k = 2 case, the bijection rule, the solution-set and line-class
characterizations, transform closure, fiber-limit soundness, and the merging
of shift-rebuilt search shards. The CLI exposes this as ``verify-paper``.
Transform closure is exact on the found sets of Z4 and Z2x2; ``deep`` adds
Z2x4 there and to fiber-limit soundness, which over Z6 compares empty sets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial
from math import gcd, prod

from .functions import (
    FuncTable,
    is_bijection,
    is_semiplanar,
    make_table,
    s_set,
    transform_values,
)
from .gf2 import gold_table, inverse_table
from .groups import automorphisms, is_subgroup, make_group, neg_table
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
from .search import SearchOptions, SearchResult, exhaustive_search
from .splitting import (
    KIND_CASE_I,
    KIND_CASE_II,
    classify_split,
    verify_difference_lemma,
    verify_divisible,
    verify_p_characterization,
    verify_phi_isomorphism,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _unpruned(fix_zero: bool) -> SearchOptions:
    return SearchOptions(
        fix_zero_at_zero=fix_zero, use_pruning=False, use_fiber_limit=False
    )


@lru_cache(maxsize=None)
def _search(factors: tuple[int, ...], opts: SearchOptions) -> SearchResult:
    """Search over G -> G, shared by the checks that ask for the same G and
    options; ``run_checks`` clears it so each run searches afresh."""
    G = make_group(factors)
    return exhaustive_search(G, G, opts)


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
    name = "z6-nonexistence"
    norm = _search((6,), _unpruned(True))
    full = _search((6,), _unpruned(False))
    if norm.visited != 7776 or full.visited != 46656:
        return CheckResult(
            name, False,
            f"unpruned enumerations visited {norm.visited}/{full.visited}, expected 7776/46656",
        )
    pruned_norm = _search((6,), SearchOptions())
    pruned_full = _search((6,), SearchOptions(fix_zero_at_zero=False))
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
        while (nxt := G.add(multiples[-1], a)) != G.zero:
            multiples.append(nxt)
        steps = list(zip(multiples, multiples[1:] + multiples[:1]))
        for b in H.elements():
            meet = all(
                common_points(S, aa * nh + H.add(d, b), bb * nh + d)
                for aa, bb in steps for d in H.elements()
            )
            if (len(s_set(f, a, b)) == 2) != meet:
                return False
    return True


def _split_corpus() -> list[tuple[FuncTable, Structure, ComponentPartition]]:
    corpus = []
    for factors in ((2,), (4,), (2, 2)):
        for f in _search(factors, SearchOptions()).found:
            S = Structure(f)
            part = components(S)
            if part.component_count == 2:
                corpus.append((f, S, part))
    return corpus


def _check_intersection_criterion() -> CheckResult:
    name = "intersection-criterion"
    tables = [gold_table(2, 1), *_search((2, 2), SearchOptions()).found]
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


def _check_transform_closure(deep: bool = False) -> CheckResult:
    # N + H is every semi-planar table and transforms are bijections on all
    # tables, so N closed under generators (renormalized by d = -psi(f(c)))
    # makes the semi-planar tables and their complement unions of orbits.
    name = "transform-closure"
    sizes = []
    for factors in ((4,), (2, 2), (2, 4)) if deep else ((4,), (2, 2)):
        G = make_group(factors)
        values = _search(factors, SearchOptions()).values
        found = set(values)
        if not found:
            return CheckResult(name, False, f"{G.name}: the search found no table")
        ident = tuple(G.elements())
        auts = [a for a in automorphisms(G) if a != ident]
        gens = [(a, ident, 0) for a in auts] + [(ident, a, 0) for a in auts]
        gens += [(ident, ident, prod(factors[:i])) for i in range(len(factors))]
        neg = neg_table(G)
        for f in values:
            for phi, psi, c in gens:
                g = transform_values(f, G, G, phi, psi, c, neg[psi[f[c]]])
                if g not in found:
                    return CheckResult(name, False, f"{G.name}: {f} maps to {g}, not found")
        sizes.append(f"{G.name} ({len(found)})")
    return CheckResult(
        name, True,
        f"normalized found sets of {', '.join(sizes)} closed under every "
        "automorphism of G and of H and the factor-generator translations",
    )


def _check_fiber_limit(deep: bool = False) -> CheckResult:
    name = "fiber-limit-soundness"
    cases = [
        ((6,), SearchOptions(fix_zero_at_zero=fz, use_pruning=pr, use_fiber_limit=False), 0)
        for fz in (True, False) for pr in (True, False)
    ]
    if deep:  # Z6 has no table, so only Z2x4 can show a table the limit cuts
        cases.append(((2, 4), SearchOptions(use_fiber_limit=False), 1024))
    for factors, base, count in cases:
        without = _search(factors, base)
        with_limit = _search(factors, replace(base, use_fiber_limit=True))
        if (without.values, without.count) != (with_limit.values, count):
            return CheckResult(
                name, False,
                f"{without.domain.name} fix_zero={base.fix_zero_at_zero}: {with_limit.count} "
                f"tables with the fiber limit, {without.count} without, expected {count}",
            )
    return CheckResult(
        name, True,
        "fiber-limit pruning keeps the found set over Z6, which has no tables"
        + (", and the 1024 normalized tables over Z2xZ4" if deep else ""),
    )


def _check_worker_determinism() -> CheckResult:
    # Benchmark digests pin check names, hence the old name. Z4 and Z2x2
    # search one f(1) shard, rebuild the rest by shifts, and have tables.
    name = "worker-determinism"
    for factors in ((4,), (2, 2)):
        for fix_zero in (True, False):
            pruned = _search(factors, SearchOptions(fix_zero_at_zero=fix_zero))
            brute = _search(factors, _unpruned(fix_zero))
            if (pruned.count, pruned.values) != (brute.count, brute.values):
                return CheckResult(
                    name, False,
                    f"{pruned.domain.name} fix_zero={fix_zero}: shift-reduced search "
                    f"differs from brute force (count {pruned.count} vs {brute.count})",
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
        _check_gold_family,
        partial(_check_gold_sbp, deep),
        _check_hypercube,
        _check_z6,
        _check_k2,
        _check_inverse,
        _check_intersection_criterion,
        _check_p_characterization,
        _check_difference_lemma,
        partial(_check_transform_closure, deep),
        partial(_check_fiber_limit, deep),
        _check_worker_determinism,
    ]
    _search.cache_clear()
    try:
        results = [p() for p in producers]
    finally:
        _search.cache_clear()
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
