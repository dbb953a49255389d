"""The incidence structure built from a function table.

Points are pairs (x, y), lines are L(a, b), and (x, y) lies on L(a, b)
exactly when y = f(x - a) + b. Point (x, y) has id x*|H| + y and line
L(a, b) has id a*|H| + b. This module checks the two 0-or-2 axioms plus
connectivity, computes components, recognizes hypercube incidence graphs,
and exports DOT.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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
    #: ("points" | "lines", id1, id2, shared_count) for the first pair (in
    #: lexicographic id order, points scanned before lines) that meets in a
    #: number of blocks other than 0 or 2. None when both axioms hold.
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


def _row0_failure(S: Structure, blocks, members) -> tuple[int, int, int] | None:
    """First (0, j, count) where id j shares a count other than 0 or 2 of
    blocks with id 0; ``blocks(S, 0)`` are the blocks through id 0 and
    ``members(S, block)`` the ids in a block."""
    shared = [0] * S.point_count
    for block in blocks(S, 0):
        for j in members(S, block):
            shared[j] += 1
    for j in range(1, S.point_count):
        if shared[j] != 0 and shared[j] != 2:
            return (0, j, shared[j])
    return None


def verify_axioms(S: Structure) -> AxiomReport:
    """Check both 0-or-2 axioms over all pairs, plus connectivity."""
    # Translations (x, y) -> (x+g, y+h), L(a, b) -> L(a+g, b+h) keep incidence
    # and act regularly on points and on lines, so any failing pair maps to
    # a failing pair (0, j): row 0 holds the lexicographically first failure.
    failure = None
    hit = _row0_failure(S, lines_through_point, points_on_line)
    if hit is not None:
        failure = ("points",) + hit
    else:
        hit = _row0_failure(S, points_on_line, lines_through_point)
        if hit is not None:
            failure = ("lines",) + hit
    part = components(S)
    ok = failure is None and part.component_count == 1
    return AxiomReport(ok, S.point_count, S.points_per_line, part.component_count, failure)


def components(S: Structure) -> ComponentPartition:
    """Breadth-first labeling of the bipartite incidence graph.

    Seeds are taken in line-id order, so component labels come out ordered by
    smallest contained line id and L(0, 0) always lands in component 0.
    """
    v = S.point_count
    comp_pt = [-1] * v
    comp_ln = [-1] * v
    label = 0
    for seed in range(v):
        if comp_ln[seed] >= 0:
            continue
        comp_ln[seed] = label
        queue = deque([(False, seed)])
        while queue:
            is_point, i = queue.popleft()
            if is_point:
                for l in lines_through_point(S, i):
                    if comp_ln[l] < 0:
                        comp_ln[l] = label
                        queue.append((False, l))
            else:
                for p in points_on_line(S, i):
                    if comp_pt[p] < 0:
                        comp_pt[p] = label
                        queue.append((True, p))
        label += 1
    return ComponentPartition(tuple(comp_pt), tuple(comp_ln), label)


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


def _find_isomorphism(g1: Graph, g2: Graph):
    """Backtracking isomorphism search with degree and adjacency pruning."""
    n = g1.vertex_count
    if n != g2.vertex_count or g1.edge_count != g2.edge_count:
        return None
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return None
    deg1 = g1.degrees()
    deg2 = g2.degrees()

    # map vertices in BFS order from 0 so each new vertex attaches to mapped ones
    order = []
    seen = [False] * n
    queue = deque()
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue.append(start)
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in sorted(g1.adjacency[u]):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)

    mapping = [-1] * n
    used = [False] * n

    def extend(pos):
        if pos == n:
            return True
        u = order[pos]
        for w in range(n):
            if used[w] or deg1[u] != deg2[w]:
                continue
            ok = True
            for prev in order[:pos]:
                if (prev in g1.adjacency[u]) != (mapping[prev] in g2.adjacency[w]):
                    ok = False
                    break
            if not ok:
                continue
            mapping[u] = w
            used[w] = True
            if extend(pos + 1):
                return True
            mapping[u] = -1
            used[w] = False
        return False

    return mapping if extend(0) else None


def is_hypercube_graph(graph: Graph, n: int) -> bool:
    """True iff ``graph`` is isomorphic to the n-dimensional hypercube Q_n."""
    if n < 1:
        raise ValueError("hypercube dimension must be >= 1")
    if graph.vertex_count != 1 << n:
        return False
    if any(d != n for d in graph.degrees()):
        return False
    return _find_isomorphism(graph, hypercube_graph(n)) is not None


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
