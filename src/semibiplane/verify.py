"""Built-in verification checklist.

Runs every structural guarantee the library is built around, end to end, on
concrete instances: the Gold family criterion, the connected sbp(2^2e, 2^e)
constructions, the hypercube split case, the Z6 non-existence search, the
degenerate k = 2 case, the bijection rule, the solution-set and line-class
characterizations, transform closure, the fiber bound, and the merging of
shift-rebuilt search shards. The CLI exposes this as ``verify-paper``.
Transform closure is exact on the found sets of Z4 and Z2x2; ``deep`` adds
Z2x4 there, and its 1,024 tables and gold(5, 1) to the fiber bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import gcd, prod

from .functions import (
    FuncTable,
    is_bijection,
    is_semiplanar,
    limit_check,
    make_table,
    s_set,
    transform_rows,
)
from .gf2 import gold_table, inverse_table
from .groups import add_table, automorphism_generators, is_subgroup, make_group
from .incidence import (
    ComponentPartition,
    Structure,
    axiom_report_dict,
    component_graph,
    components,
    is_hypercube_graph,
    points_on_line,
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
    norm = _search((6,), SearchOptions(use_pruning=False))
    full = _search((6,), SearchOptions(fix_zero_at_zero=False, use_pruning=False))
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
    k, nh = f.domain.order, f.codomain.order
    gadd, hadd = add_table(f.domain), add_table(f.codomain)
    lines = [points_on_line(S, line) for line in range(S.line_count)]
    for a in range(1, k):
        multiples = [0]
        while (nxt := gadd[multiples[-1] * k + a]) != 0:
            multiples.append(nxt)
        steps = list(zip(multiples, multiples[1:] + multiples[:1]))
        for b in range(nh):
            meet = all(
                lines[aa * nh + hadd[d * nh + b]] & lines[bb * nh + d]
                for aa, bb in steps for d in range(nh)
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


def _check_split_corpus(name: str, holds, claim: str) -> CheckResult:
    corpus = _split_corpus()
    for f, S, part in corpus:
        if not holds(S, part):
            return CheckResult(name, False, f"fails for table {f.values}")
    return CheckResult(name, True, f"{claim}, on all {len(corpus)} split examples")


def _check_p_characterization() -> CheckResult:
    return _check_split_corpus(
        "p-characterization", verify_p_characterization,
        "component-0 classes are exactly the b with |S(a,b)| = 2",
    )


def _check_difference_lemma() -> CheckResult:
    return _check_split_corpus(
        "difference-lemma", verify_difference_lemma,
        "overlapping classes force the base class pattern at a-c and c-a",
    )


def _check_transform_closure(deep: bool = False) -> CheckResult:
    # N + H is every semi-planar table, and transforms are bijections on all tables
    # that commute with adding constants. So N closed under generators of Aut(G), Aut(H)
    # and the translations (renormalized by d = -psi(f(c))) makes N + H a union of orbits.
    name = "transform-closure"
    sizes = []
    for factors in ((4,), (2, 2), (2, 4)) if deep else ((4,), (2, 2)):
        G = make_group(factors)
        rows = [bytes(f) for f in _search(factors, SearchOptions()).values]
        found = set(rows)
        if not found:
            return CheckResult(name, False, f"{G.name}: the search found no table")
        ident, gens = tuple(G.elements()), automorphism_generators(G)
        maps = [(a, ident, 0) for a in gens] + [(ident, a, 0) for a in gens]
        maps += [(ident, ident, prod(factors[:i])) for i in range(len(factors))]
        for phi, psi, c in maps:
            for f, g in zip(rows, transform_rows(rows, G, G, phi, psi, c)):
                if g not in found:
                    bad = f"{G.name}: {tuple(f)} maps to {tuple(g)}, not found"
                    return CheckResult(name, False, bad)
        sizes.append(f"{G.name} ({len(found)})")
    return CheckResult(
        name, True,
        f"normalized found sets of {', '.join(sizes)} closed under every "
        "automorphism of G and of H and the factor-generator translations",
    )


def _fiber_corpus(deep: bool) -> list[FuncTable]:
    """Semi-planar tables with k > 4: gold(e, 1) for e = 3, 4 (5 under
    ``deep``), and under ``deep`` the normalized Z2x4 found set, which
    transform-closure has already searched."""
    tables = [gold_table(e, 1) for e in ((3, 4, 5) if deep else (3, 4))]
    if deep:
        tables += _search((2, 4), SearchOptions()).found
    return tables


def _check_fiber_limit(deep: bool = False) -> CheckResult:
    # The benchmark digests pin check names, hence the old name.
    name = "fiber-limit-soundness"
    tables = _fiber_corpus(deep)
    for f in tables:
        if not limit_check(f):
            return CheckResult(
                name, False,
                f"{f.domain.name}: table {f.values} has a fiber above k/2",
            )
    return CheckResult(
        name, True,
        f"every fiber is at most k/2 on {len(tables)} semi-planar tables: gold(e, 1) "
        + ("for e = 3..5 and the normalized Z2xZ4 found set" if deep else "for e = 3, 4"),
    )


def _check_worker_determinism() -> CheckResult:
    # Benchmark digests pin check names, hence the old name. Z4 and Z2x2
    # search one f(1) shard, rebuild the rest by shifts, and have tables.
    name = "worker-determinism"
    for factors in ((4,), (2, 2)):
        for fix_zero in (True, False):
            pruned = _search(factors, SearchOptions(fix_zero_at_zero=fix_zero))
            brute = _search(factors, SearchOptions(fix_zero_at_zero=fix_zero, use_pruning=False))
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


def run_checks(deep: bool = False) -> list[CheckResult]:
    """Run the whole checklist."""
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
        return [p() for p in producers]
    finally:
        _search.cache_clear()
