"""Analysis of structures that split into two components.

For a split structure the lines L(a, b) with fixed a divide into the two
components; the b-sets of those classes are governed by an index-2 subgroup
B of H and a subgroup A of G of index 1 or 2. ``classify_split`` computes
both subgroups, decides which of the two membership laws holds, and
re-verifies that law against the actual component labels line by line, so
any internal inconsistency surfaces as ``TheoremViolationError`` rather than
a silently wrong report. Divisibility and the translation isomorphism
between the components are verified from first principles as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotSplitError, TheoremViolationError
from .functions import is_semiplanar, s_set
from .groups import add_table, coset, is_subgroup, sub_table
from .incidence import (
    ComponentPartition,
    Structure,
    is_incident,
    lines_through_point,
)

KIND_CONNECTED = "connected"
KIND_CASE_I = "case-i"
KIND_CASE_II = "case-ii"


@dataclass(frozen=True)
class SplitReport:
    """Outcome of classifying a split structure.

    ``codomain_subgroup`` is the index-2 subgroup B of H formed by the b with
    L(0, b) in component 0; ``domain_subgroup`` is the subgroup A of the a
    whose line classes match a = 0. ``case-i`` means A is all of G (component
    membership depends on b alone); ``case-ii`` means A has index 2 and
    membership depends on the coset pair of (a, b). The reps are the minimum
    elements outside A and B (None where the complement is empty or the
    structure is connected).
    """

    kind: str
    codomain_subgroup: frozenset[int] | None
    domain_subgroup: frozenset[int] | None
    domain_rep: int | None
    codomain_rep: int | None
    line_classes: dict[tuple[int, int], frozenset[int]] | None


@dataclass(frozen=True)
class DivisibilityReport:
    is_divisible: bool
    #: Point classes (as sorted tuples of point ids) when divisible.
    classes: tuple[tuple[int, ...], ...]
    #: (p1, p2, shared_line_count) witnessing the first violation.
    failure: tuple[int, int, int] | None


def _require_split(partition: ComponentPartition) -> None:
    if partition.component_count != 2:
        raise NotSplitError(
            f"structure has {partition.component_count} component(s), need exactly 2"
        )


def line_classes(
    S: Structure, partition: ComponentPartition
) -> dict[tuple[int, int], frozenset[int]]:
    """The partition of H per translation a: key (a, 1) holds the b with
    L(a, b) in component 0, key (a, 2) the rest."""
    _require_split(partition)
    nh = S.f.codomain.order
    out: dict[tuple[int, int], frozenset[int]] = {}
    for a in S.f.domain.elements():
        first = frozenset(
            b for b in range(nh) if partition.component_of_line[a * nh + b] == 0
        )
        out[(a, 1)] = first
        out[(a, 2)] = frozenset(range(nh)) - first
    return out


def verify_p_characterization(S: Structure, partition: ComponentPartition) -> bool:
    """Check that for every nonzero a the component-0 class is exactly the b
    with |S(a, b)| = 2 and the component-1 class exactly those with 0."""
    classes = line_classes(S, partition)
    f = S.f
    for a in range(1, f.domain.order):
        sizes = [len(s_set(f, a, b)) for b in f.codomain.elements()]
        two = frozenset(b for b, n in enumerate(sizes) if n == 2)
        none = frozenset(b for b, n in enumerate(sizes) if n == 0)
        if classes[(a, 1)] != two or classes[(a, 2)] != none:
            return False
    return True


def classify_split(S: Structure, partition: ComponentPartition) -> SplitReport:
    """Classify a split structure of a semi-planar function.

    Returns a connected report when there is a single component. For a split
    structure, computes B and A, picks case (i) or (ii), and verifies the
    asserted membership law against every line's actual component label.
    """
    f = S.f
    if not is_semiplanar(f).is_semiplanar:
        raise ValueError("classification requires a semi-planar function")
    if partition.component_count == 1:
        return SplitReport(KIND_CONNECTED, None, None, None, None, None)
    classes = line_classes(S, partition)

    G, H = f.domain, f.codomain
    k = G.order
    B = classes[(0, 1)]
    if len(B) != k // 2 or not is_subgroup(H, B):
        raise TheoremViolationError(
            f"component-0 class at a=0 is not an index-2 subgroup: {sorted(B)}"
        )
    A = frozenset(a for a in G.elements() if classes[(a, 1)] == B)
    if len(A) not in (k // 2, k) or not is_subgroup(G, A):
        raise TheoremViolationError(
            f"translation set A is not a subgroup of index 1 or 2: {sorted(A)}"
        )

    h = min(set(H.elements()) - B)
    nh = H.order
    if len(A) == k:
        kind, g = KIND_CASE_I, None
        in_first = lambda a, b: b in B
    else:
        kind = KIND_CASE_II
        g = min(set(G.elements()) - A)
        A_g = coset(G, A, g)
        B_h = coset(H, B, h)
        in_first = lambda a, b: (a in A and b in B) or (a in A_g and b in B_h)

    for a in G.elements():
        for b in H.elements():
            expected = partition.component_of_line[a * nh + b] == 0
            if in_first(a, b) != expected:
                raise TheoremViolationError(
                    f"membership law {kind} disagrees with the partition at L({a},{b})"
                )
    return SplitReport(kind, B, A, g, h, classes)


def verify_difference_lemma(S: Structure, partition: ComponentPartition) -> bool:
    """Whenever the classes of a and c overlap on either side, the class
    pattern at a - c and c - a must equal the one at 0."""
    classes = line_classes(S, partition)
    k, gsub = S.f.domain.order, sub_table(S.f.domain)
    base = classes[(0, 1)]
    for a in range(k):
        for c in range(k):
            if not (classes[(a, 1)] & classes[(c, 1)] or classes[(a, 2)] & classes[(c, 2)]):
                continue
            if classes[(gsub[a * k + c], 1)] != base or classes[(gsub[c * k + a], 1)] != base:
                return False
    return True


def verify_divisible(
    S: Structure, partition: ComponentPartition, label: int
) -> DivisibilityReport:
    """Check one component is divisible, from first principles.

    The relation "shares no line" (plus reflexivity) must be an equivalence
    on the component's points, and every cross-class pair must share exactly
    two lines. Classes are derived from the relation itself, not assumed.
    """
    if not 0 <= label < partition.component_count:
        raise ValueError(
            f"invalid component label {label} (structure has {partition.component_count})"
        )
    points = [
        p for p in range(S.point_count) if partition.component_of_point[p] == label
    ]
    pencils = {p: lines_through_point(S, p) for p in points}
    rows = {
        p: frozenset(q for q in points if q == p or not (pencils[p] & pencils[q]))
        for p in points
    }
    for p in points:
        for q in rows[p]:
            if rows[q] != rows[p]:  # not an equivalence relation
                return DivisibilityReport(
                    False, (), (min(p, q), max(p, q), len(pencils[p] & pencils[q]))
                )
    for p in points:
        for q in points:
            if q <= p or q in rows[p]:
                continue
            shared = len(pencils[p] & pencils[q])
            if shared != 2:
                return DivisibilityReport(False, (), (p, q, shared))
    classes = tuple(sorted({tuple(sorted(r)) for r in rows.values()}))
    return DivisibilityReport(True, classes, None)


def verify_phi_isomorphism(S: Structure, partition: ComponentPartition, h: int) -> bool:
    """Check that (x, y) -> (x, y + h) maps component 0 onto component 1
    bijectively and preserves incidence in both directions."""
    _require_split(partition)
    H = S.f.codomain
    H.check(h)
    nh = H.order
    B = frozenset(b for b in range(nh) if partition.component_of_line[b] == 0)
    if h in B:
        raise ValueError(
            f"h={h} lies in the index-2 subgroup; the translation would fix each component"
        )
    hadd = add_table(H)

    def map_id(i: int) -> int:
        major, minor = divmod(i, nh)
        return major * nh + hadd[minor * nh + h]

    pts0 = [p for p in range(S.point_count) if partition.component_of_point[p] == 0]
    pts1 = {p for p in range(S.point_count) if partition.component_of_point[p] == 1}
    lns0 = [l for l in range(S.line_count) if partition.component_of_line[l] == 0]
    lns1 = {l for l in range(S.line_count) if partition.component_of_line[l] == 1}
    if {map_id(p) for p in pts0} != pts1 or {map_id(l) for l in lns0} != lns1:
        return False
    for p in pts0:
        fp = map_id(p)
        for l in lns0:
            if is_incident(S, p, l) != is_incident(S, fp, map_id(l)):
                return False
    return True


def split_report_dict(report: SplitReport) -> dict:
    """JSON-ready dict: {"kind", "B", "A", "g", "h"} with sorted element lists."""
    return {
        "kind": report.kind,
        "B": sorted(report.codomain_subgroup) if report.codomain_subgroup is not None else [],
        "A": sorted(report.domain_subgroup) if report.domain_subgroup is not None else [],
        "g": report.domain_rep,
        "h": report.codomain_rep,
    }
