import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from semibiplane import (
    Graph,
    Structure,
    common_lines,
    common_points,
    component_graph,
    components,
    export_dot,
    gold_table,
    hypercube_graph,
    is_hypercube_graph,
    is_incident,
    lines_through_point,
    make_group,
    make_table,
    points_on_line,
    verify_axioms,
)


@pytest.fixture(scope="module")
def s_gold21():
    return Structure(gold_table(2, 1))


@pytest.fixture(scope="module")
def s_gold31():
    return Structure(gold_table(3, 1))


@pytest.fixture(scope="module")
def s_ident2():
    z2 = make_group([2])
    return Structure(make_table(z2, z2, [0, 1]))


def test_point_line_id_roundtrip(s_gold21):
    for i in range(s_gold21.point_count):
        x, y = s_gold21.point_xy(i)
        assert s_gold21.point_id(x, y) == i
    with pytest.raises(ValueError):
        s_gold21.point_xy(16)


def test_is_incident_examples(s_gold21):
    f = s_gold21.f
    assert is_incident(s_gold21, s_gold21.point_id(0, f.values[0]), s_gold21.line_id(0, 0))
    assert is_incident(s_gold21, s_gold21.point_id(2, 1), s_gold21.line_id(0, 0))
    assert not is_incident(s_gold21, s_gold21.point_id(0, 1), s_gold21.line_id(0, 0))


def test_is_incident_matches_oracle(s_gold21, s_ident2):
    for S, fac in ((s_gold21, [2, 2]), (s_ident2, [2])):
        for p in range(S.point_count):
            for l in range(S.line_count):
                assert is_incident(S, p, l) == oracles.incident(S.f.values, fac, fac, p, l)


def test_points_on_line_example(s_gold21):
    pts = points_on_line(s_gold21, s_gold21.line_id(0, 0))
    expect = {s_gold21.point_id(x, y) for x, y in [(0, 0), (1, 1), (2, 1), (3, 1)]}
    assert pts == expect


def test_lines_through_point_example(s_gold21):
    lns = lines_through_point(s_gold21, s_gold21.point_id(0, 0))
    expect = {s_gold21.line_id(a, b) for a, b in [(0, 0), (1, 1), (2, 1), (3, 1)]}
    assert lns == expect


def test_line_and_point_regularity():
    # every line exactly k points, every point exactly k lines, for any f
    rng = random.Random(5)
    for factors in ([6], [2, 2], [4]):
        G = make_group(factors)
        f = make_table(G, G, [rng.randrange(G.order) for _ in range(G.order)])
        S = Structure(f)
        for i in range(S.point_count):
            assert len(points_on_line(S, i)) == G.order
            assert len(lines_through_point(S, i)) == G.order


def test_common_lines_examples(s_gold21):
    p = s_gold21.point_id
    l = s_gold21.line_id
    assert common_lines(s_gold21, p(0, 0), p(0, 1)) == frozenset()
    assert common_lines(s_gold21, p(0, 0), p(1, 1)) == {l(0, 0), l(1, 1)}
    assert common_points(s_gold21, l(0, 0), l(0, 1)) == frozenset()
    with pytest.raises(ValueError):
        common_lines(s_gold21, p(0, 0), p(0, 0))


def test_verify_axioms_gold31(s_gold31):
    report = verify_axioms(s_gold31)
    assert report.is_semibiplane
    assert report.v == 64 and report.k == 8
    assert report.component_count == 1
    assert report.failure is None


def test_verify_axioms_identity_z6():
    z6 = make_group([6])
    S = Structure(make_table(z6, z6, range(6)))
    report = verify_axioms(S)
    assert not report.is_semibiplane
    assert report.failure is not None
    kind, i, j, count = report.failure
    # identical to the naive scan in lexicographic pair order
    assert (kind, i, j, count) == ("points", 0, 7, 6)


def test_verify_axioms_gold21_disconnected(s_gold21):
    report = verify_axioms(s_gold21)
    assert not report.is_semibiplane  # pairwise axioms hold but it splits
    assert report.failure is None
    assert report.component_count == 2


#: (domain factors, codomain factors) for the oracle cross-check
ORACLE_GROUPS = [
    ([6], [6]), ([2, 2], [2, 2]), ([8], [8]), ([2, 4], [2, 4]),
    ([2, 2, 2], [2, 2, 2]), ([4, 4], [4, 4]), ([2], [4]), ([4], [2]),
]


@given(st.sampled_from(ORACLE_GROUPS), st.data())
@settings(max_examples=120, deadline=None)
def test_verify_axioms_failure_matches_full_scan(groups, data):
    gfac, hfac = groups
    G, H = make_group(gfac), make_group(hfac)
    values = data.draw(
        st.lists(st.integers(0, H.order - 1), min_size=G.order, max_size=G.order)
    )
    report = verify_axioms(Structure(make_table(G, H, values)))
    assert report.failure == oracles.first_axiom_failure(values, gfac, hfac)


def test_verify_axioms_failure_matches_full_scan_semiplanar(found_small):
    for factors, tables in found_small.items():
        for f in tables:
            report = verify_axioms(Structure(f))
            assert report.failure is None
            assert oracles.first_axiom_failure(f.values, factors, factors) is None


def test_self_duality_of_intersection_multisets():
    # point-pair and line-pair intersection counts agree as multisets, k <= 8
    rng = random.Random(17)
    cases = [gold_table(2, 1), gold_table(3, 1)]
    z6 = make_group([6])
    cases.append(make_table(z6, z6, [rng.randrange(6) for _ in range(6)]))
    for f in cases:
        S = Structure(f)
        v = S.point_count
        pencils = [lines_through_point(S, p) for p in range(v)]
        sets = [points_on_line(S, l) for l in range(v)]
        pts = Counter(
            len(pencils[i] & pencils[j]) for i in range(v) for j in range(i + 1, v)
        )
        lns = Counter(
            len(sets[i] & sets[j]) for i in range(v) for j in range(i + 1, v)
        )
        assert pts == lns


def test_components_examples(s_gold21, s_gold31, s_ident2):
    assert components(s_gold21).component_count == 2
    assert components(s_gold31).component_count == 1
    assert components(s_ident2).component_count == 2


def test_components_label_zero_contains_line00(s_gold21, s_ident2):
    for S in (s_gold21, s_ident2):
        part = components(S)
        assert part.component_of_line[0] == 0
        # labels ordered by smallest contained line id
        firsts = [
            min(l for l in range(S.line_count) if part.component_of_line[l] == c)
            for c in range(part.component_count)
        ]
        assert firsts == sorted(firsts)


def test_components_sizes_for_semiplanar(found_small):
    for factors, tables in found_small.items():
        k = 1
        for n in factors:
            k *= n
        for f in tables:
            S = Structure(f)
            part = components(S)
            assert part.component_count in (1, 2)
            if part.component_count == 2:
                for label in (0, 1):
                    pts = sum(1 for c in part.component_of_point if c == label)
                    lns = sum(1 for c in part.component_of_line if c == label)
                    assert pts == k * k // 2
                    assert lns == k * k // 2


def test_component_graph_counts(s_gold21, s_gold31):
    part = components(s_gold21)
    g = component_graph(s_gold21, part, 0)
    assert g.vertex_count == 16
    assert g.edge_count == 32
    assert set(g.degrees()) == {4}
    part31 = components(s_gold31)
    g31 = component_graph(s_gold31, part31, 0)
    assert g31.vertex_count == 128
    assert g31.edge_count == 512


def test_component_graph_bad_label(s_gold31):
    part = components(s_gold31)
    with pytest.raises(ValueError):
        component_graph(s_gold31, part, 1)


def test_hypercube_recognition(s_gold21):
    part = components(s_gold21)
    for label in (0, 1):
        assert is_hypercube_graph(component_graph(s_gold21, part, label), 4)
    assert is_hypercube_graph(hypercube_graph(3), 3)
    # 16-cycle: right vertex count, wrong degrees
    cycle = Graph(
        tuple(frozenset({(i - 1) % 16, (i + 1) % 16}) for i in range(16))
    )
    assert not is_hypercube_graph(cycle, 4)
    # 4-regular bipartite 16-vertex graph that is not Q4: two copies of K44
    k44 = tuple(
        frozenset(range(4, 8)) if i < 4 else frozenset(range(4)) for i in range(8)
    )
    two_k44 = Graph(
        k44 + tuple(frozenset(v + 8 for v in nbrs) for nbrs in k44)
    )
    assert all(d == 4 for d in two_k44.degrees()) and two_k44.vertex_count == 16
    assert not is_hypercube_graph(two_k44, 4)
    assert not is_hypercube_graph(hypercube_graph(3), 4)


def test_intersection_criterion_k8(s_gold31):
    # |S(a,b)| = 2 iff the shifted line pencils always meet; exhaustive at k=8
    from semibiplane import inverse_table
    from semibiplane.verify import _intersection_criterion_holds

    assert _intersection_criterion_holds(s_gold31.f)
    assert _intersection_criterion_holds(inverse_table(3))


def test_export_dot_structure(s_ident2):
    dot = export_dot(s_ident2)
    lines = dot.splitlines()
    assert lines[0] == "graph sbp {"
    assert lines[-1] == "}"
    node_lines = [l for l in lines if "[shape=" in l]
    edge_lines = [l for l in lines if " -- " in l]
    assert len(node_lines) == 8  # 4 points + 4 lines
    # one edge per incident pair; the k = 2 identity structure has 8
    assert len(edge_lines) == len(
        oracles.incidence_pairs(s_ident2.f.values, [2], [2])
    ) == 8
    assert dot == export_dot(s_ident2)  # byte-stable


def test_export_dot_components_colored(s_gold21):
    part = components(s_gold21)
    dot = export_dot(s_gold21, part)
    colors = {l.split('color="')[1].split('"')[0] for l in dot.splitlines() if "color=" in l}
    assert len(colors) == 2
