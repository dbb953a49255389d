"""The incidence structure built from a function table.

Points are pairs (x, y), lines are L(a, b), and (x, y) lies on L(a, b)
exactly when y = f(x - a) + b. Point (x, y) has id x*|H| + y and line
L(a, b) has id a*|H| + b. This module checks the two 0-or-2 axioms plus
connectivity, computes components, recognizes hypercube incidence graphs,
and exports DOT.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .functions import FuncTable
from .groups import add_table, sub_table


@dataclass(frozen=True)
class Structure:
    """Immutable view of S(G, H; f); all queries are computed from ``f``."""

    f: FuncTable

    @property
    def point_count(self) -> int:
        return self.f.domain.order * self.f.codomain.order

    @property
    def line_count(self) -> int:
        return self.point_count

    @property
    def points_per_line(self) -> int:
        return self.f.domain.order

    def point_id(self, x: int, y: int) -> int:
        self.f.domain.check(x)
        self.f.codomain.check(y)
        return x * self.f.codomain.order + y

    def line_id(self, a: int, b: int) -> int:
        return self.point_id(a, b)

    def point_xy(self, point: int) -> tuple[int, int]:
        self.check_id(point)
        return divmod(point, self.f.codomain.order)

    def line_ab(self, line: int) -> tuple[int, int]:
        return self.point_xy(line)

    def check_id(self, i: int) -> int:
        if not 0 <= i < self.point_count:
            raise ValueError(f"invalid id {i} (structure has {self.point_count} points/lines)")
        return i


@dataclass(frozen=True)
class ComponentPartition:
    """Connected-component labels; label 0 is the component of L(0, 0) and
    labels are ordered by the smallest line id they contain."""

    component_of_point: tuple[int, ...]
    component_of_line: tuple[int, ...]
    component_count: int


@dataclass(frozen=True)
class AxiomReport:
    is_semibiplane: bool
    v: int
    k: int
    component_count: int
    #: ("points", 0, j, shared_count) for the first pair of points (in
    #: lexicographic id order) that shares a number of lines other than 0 or
    #: 2, read from the semi-planarity witness (a, y, count) of f as
    #: j = a*|H| + y; the first id is always point 0 and the kind always
    #: "points", since translations carry any failing pair to one through
    #: point 0 and a failing line pair implies a failing point pair. None
    #: when both axioms hold.
    failure: tuple[str, int, int, int] | None


@dataclass(frozen=True)
class Graph:
    """Undirected graph as an adjacency tuple (vertex ids 0..n-1)."""

    adjacency: tuple[frozenset[int], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency]


def is_incident(S: Structure, point: int, line: int) -> bool:
    x, y = S.point_xy(point)
    a, b = S.line_ab(line)
    f = S.f
    k, nh = f.domain.order, f.codomain.order
    gsub = sub_table(f.domain)
    hadd = add_table(f.codomain)
    return y == hadd[f.values[gsub[x * k + a]] * nh + b]


def points_on_line(S: Structure, line: int) -> frozenset[int]:
    a, b = S.line_ab(line)
    f = S.f
    k, nh = f.domain.order, f.codomain.order
    gsub = sub_table(f.domain)
    hadd = add_table(f.codomain)
    return frozenset(
        x * nh + hadd[f.values[gsub[x * k + a]] * nh + b] for x in range(k)
    )


def lines_through_point(S: Structure, point: int) -> frozenset[int]:
    x, y = S.point_xy(point)
    f = S.f
    k, nh = f.domain.order, f.codomain.order
    gsub = sub_table(f.domain)
    hsub = sub_table(f.codomain)
    return frozenset(
        a * nh + hsub[y * nh + f.values[gsub[x * k + a]]] for a in range(k)
    )


def _require_distinct(i: int, j: int) -> None:
    if i == j:
        raise ValueError(f"ids must be distinct, got {i} twice")


def common_lines(S: Structure, p1: int, p2: int) -> frozenset[int]:
    _require_distinct(p1, p2)
    return lines_through_point(S, p1) & lines_through_point(S, p2)


def common_points(S: Structure, l1: int, l2: int) -> frozenset[int]:
    _require_distinct(l1, l2)
    return points_on_line(S, l1) & points_on_line(S, l2)


def verify_axioms(S: Structure) -> AxiomReport:
    """Check both 0-or-2 axioms over all pairs, plus connectivity."""
    # Translations (x, y) -> (x+g, y+h), L(a, b) -> L(a+g, b+h) keep incidence
    # and act regularly on points and on lines, so any failing pair maps to
    # a failing pair (0, j): row 0 holds the lexicographically first failure.
    # Lines 0, j share as many points as points 0, j share lines, so the
    # points' row 0 decides both axioms. Points (0, 0) and (a, y) share the
    # lines L(-t, -f(t)) with f(t+a) - f(t) = y, so row 0 is f's difference
    # table and its first failure is f's semi-planarity witness (a, y, count)
    # at id a*|H| + y; the points (0, y) share no line with (0, 0).
    f = S.f
    k, nh = f.domain.order, f.codomain.order
    hit = kernels.semiplanar_witness(
        f.values, add_table(f.domain), sub_table(f.codomain), k, nh
    )
    failure = None if hit is None else ("points", 0, hit[0] * nh + hit[1], hit[2])
    part = components(S)
    ok = failure is None and part.component_count == 1
    return AxiomReport(ok, S.point_count, S.points_per_line, part.component_count, failure)


def components(S: Structure) -> ComponentPartition:
    """Label the components as the cosets of the translation subgroup of
    G x H generated by the lines meeting L(0, 0); see
    ``kernels.coset_labels``."""
    f = S.f
    G, H = f.domain, f.codomain
    return ComponentPartition(*kernels.coset_labels(
        f.values, add_table(G), add_table(H), sub_table(H), G.order, H.order
    ))


def component_graph(S: Structure, partition: ComponentPartition, label: int) -> Graph:
    """Bipartite incidence graph of one component.

    Vertices are the component's points in id order followed by its lines in
    id order.
    """
    if not 0 <= label < partition.component_count:
        raise ValueError(
            f"invalid component label {label} (structure has {partition.component_count})"
        )
    v = S.point_count
    points = [p for p in range(v) if partition.component_of_point[p] == label]
    lines = [l for l in range(v) if partition.component_of_line[l] == label]
    index = {("p", p): i for i, p in enumerate(points)}
    index.update({("l", l): len(points) + i for i, l in enumerate(lines)})
    adjacency = [set() for _ in range(len(points) + len(lines))]
    for l in lines:
        li = index[("l", l)]
        for p in points_on_line(S, l):
            pi = index[("p", p)]
            adjacency[pi].add(li)
            adjacency[li].add(pi)
    return Graph(tuple(frozenset(nbrs) for nbrs in adjacency))


def hypercube_graph(n: int) -> Graph:
    """The n-dimensional hypercube graph Q_n on vertex set 0..2^n-1."""
    if n < 1:
        raise ValueError("hypercube dimension must be >= 1")
    size = 1 << n
    return Graph(
        tuple(frozenset(u ^ (1 << b) for b in range(n)) for u in range(size))
    )


def is_hypercube_graph(graph: Graph, n: int) -> bool:
    """True iff ``graph`` is isomorphic to the n-dimensional hypercube Q_n.

    Each vertex gets a coordinate label: vertex 0 gets 0, its neighbours in
    sorted order get 1, 2, 4, ..., and each vertex of a later breadth-first
    layer gets the OR of its neighbours' labels in the layer before. An
    n-regular graph on 2^n vertices is Q_n iff the labels are a bijection
    onto 0..2^n-1 under which every edge flips exactly one bit: such a graph
    has Q_n's edge count, so the labels map it onto all of Q_n. Conversely,
    Q_n has an automorphism that fixes 0 and sends 0's sorted neighbours to
    1, 2, 4, ...; every vertex's label is then its image.
    """
    if n < 1:
        raise ValueError("hypercube dimension must be >= 1")
    size = 1 << n
    adjacency = graph.adjacency
    if graph.vertex_count != size or any(len(nbrs) != n for nbrs in adjacency):
        return False
    depth = [-1] * size
    label = [0] * size
    depth[0] = 0
    layer = sorted(adjacency[0])
    for bit, w in enumerate(layer):
        depth[w], label[w] = 1, 1 << bit
    d = 1
    while layer:
        d += 1
        nxt = []
        for u in layer:
            for w in adjacency[u]:
                if depth[w] < 0:
                    depth[w] = d
                    nxt.append(w)
                if depth[w] == d:
                    label[w] |= label[u]
        layer = nxt
    return set(label) == set(range(size)) and all(
        (label[u] ^ label[w]).bit_count() == 1
        for u in range(size) for w in adjacency[u]
    )


_DOT_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f",
)


def export_dot(S: Structure, partition: ComponentPartition | None = None) -> str:
    """DOT text of the incidence graph: points as circles ``p_x_y``, lines as
    boxes ``L_a_b``, one edge per incidence. Byte-stable for fixed input;
    components get distinct colors when a partition is supplied."""
    v = S.point_count
    out = ["graph sbp {"]
    for p in range(v):
        x, y = S.point_xy(p)
        attrs = "shape=circle"
        if partition is not None:
            attrs += f', color="{_DOT_PALETTE[partition.component_of_point[p] % len(_DOT_PALETTE)]}"'
        out.append(f'  "p_{x}_{y}" [{attrs}];')
    for l in range(v):
        a, b = S.line_ab(l)
        attrs = "shape=box"
        if partition is not None:
            attrs += f', color="{_DOT_PALETTE[partition.component_of_line[l] % len(_DOT_PALETTE)]}"'
        out.append(f'  "L_{a}_{b}" [{attrs}];')
    for p in range(v):
        x, y = S.point_xy(p)
        for l in sorted(lines_through_point(S, p)):
            a, b = S.line_ab(l)
            out.append(f'  "p_{x}_{y}" -- "L_{a}_{b}";')
    out.append("}")
    return "\n".join(out) + "\n"


def axiom_report_dict(report: AxiomReport) -> dict:
    """JSON-ready dict: {"v", "k", "semibiplane", "components", "failure"}."""
    failure = None
    if report.failure is not None:
        kind, i, j, c = report.failure
        failure = {"kind": kind, "ids": [i, j], "count": c}
    return {
        "v": report.v,
        "k": report.k,
        "semibiplane": report.is_semibiplane,
        "components": report.component_count,
        "failure": failure,
    }
