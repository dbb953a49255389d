import pytest

from semibiplane import (
    NotSplitError,
    SearchOptions,
    Structure,
    classify_split,
    components,
    exhaustive_search,
    gold_table,
    is_subgroup,
    line_classes,
    make_group,
    make_table,
    points_on_line,
    verify_difference_lemma,
    verify_divisible,
    verify_p_characterization,
    verify_phi_isomorphism,
)
from semibiplane.incidence import ComponentPartition
from semibiplane.splitting import split_report_dict


@pytest.fixture(scope="module")
def gold21_split():
    S = Structure(gold_table(2, 1))
    return S, components(S)


@pytest.fixture(scope="module")
def ident2_split():
    z2 = make_group([2])
    S = Structure(make_table(z2, z2, [0, 1]))
    return S, components(S)


def shuffled(partition):
    """Break a partition by flipping the label of the last line (which has
    a != 0): no membership law can reproduce it, and the nonzero-a classes
    stop matching the solution sets."""
    lines = list(partition.component_of_line)
    lines[-1] ^= 1
    return ComponentPartition(
        partition.component_of_point, tuple(lines), partition.component_count
    )


def test_line_classes_gold21(gold21_split):
    S, part = gold21_split
    classes = line_classes(S, part)
    for a in range(4):
        assert classes[(a, 1)] == frozenset({0, 1})
        assert classes[(a, 1)] | classes[(a, 2)] == frozenset(range(4))
        assert not classes[(a, 1)] & classes[(a, 2)]
        assert len(classes[(a, 1)]) == 2  # k/2 in each class


def test_line_classes_requires_split():
    S = Structure(gold_table(3, 1))
    with pytest.raises(NotSplitError):
        line_classes(S, components(S))


def test_p_characterization(gold21_split, ident2_split, split_examples):
    for S, part in (gold21_split, ident2_split):
        assert verify_p_characterization(S, part)
    for _, S, part in split_examples:
        assert verify_p_characterization(S, part)


def test_p_characterization_negative_control(gold21_split):
    S, part = gold21_split
    assert not verify_p_characterization(S, shuffled(part))


def test_classify_gold21_case_i(gold21_split):
    S, part = gold21_split
    report = classify_split(S, part)
    assert report.kind == "case-i"
    assert report.codomain_subgroup == frozenset({0, 1})
    assert report.domain_subgroup == frozenset(range(4))
    assert report.domain_rep is None
    assert report.codomain_rep == 2
    assert is_subgroup(S.f.codomain, report.codomain_subgroup)
    assert split_report_dict(report) == {
        "kind": "case-i",
        "B": [0, 1],
        "A": [0, 1, 2, 3],
        "g": None,
        "h": 2,
    }


def test_classify_identity_z2_case_ii(ident2_split):
    S, part = ident2_split
    report = classify_split(S, part)
    assert report.kind == "case-ii"
    assert report.codomain_subgroup == frozenset({0})
    assert report.domain_subgroup == frozenset({0})
    assert report.domain_rep == 1
    assert report.codomain_rep == 1


def test_classify_connected():
    S = Structure(gold_table(3, 1))
    report = classify_split(S, components(S))
    assert report.kind == "connected"
    assert split_report_dict(report) == {
        "kind": "connected",
        "B": [],
        "A": [],
        "g": None,
        "h": None,
    }


def test_classify_rejects_non_semiplanar(z6, ident_z6):
    S = Structure(ident_z6)
    with pytest.raises(ValueError):
        classify_split(S, components(S))


def test_classify_all_split_examples(split_examples):
    # B is an index-2 subgroup, A a subgroup of index 1 or 2, and the
    # membership law is re-verified line by line inside classify_split
    from semibiplane import coset

    for f, S, part in split_examples:
        report = classify_split(S, part)
        k = f.domain.order
        assert report.kind in ("case-i", "case-ii")
        assert len(report.codomain_subgroup) == k // 2
        assert is_subgroup(f.codomain, report.codomain_subgroup)
        assert is_subgroup(f.domain, report.domain_subgroup)
        # the a=0 component-1 class is exactly the coset B + h
        assert report.line_classes[(0, 2)] == coset(
            f.codomain, report.codomain_subgroup, report.codomain_rep
        )
        if report.kind == "case-i":
            assert len(report.domain_subgroup) == k
            assert report.domain_rep is None
        else:
            assert len(report.domain_subgroup) == k // 2
            assert report.domain_rep == min(
                set(f.domain.elements()) - report.domain_subgroup
            )


#: (G, H) -> (count, case-i, case-ii) over the normalized semi-planar tables
SPLIT_CENSUS = {
    ((2,), (2,)): (2, 1, 1),
    ((4,), (4,)): (8, 4, 4),
    ((4,), (2, 2)): (24, 12, 12),
    ((2, 2), (4,)): (16, 4, 12),
    ((2, 2), (2, 2)): (48, 12, 36),
    # no table at order 6, so no split sbp(18, 6)
    ((6,), (6,)): (0, 0, 0),
    ((2, 3), (6,)): (0, 0, 0),
}


def test_normalized_split_census_up_to_order_4(found_small):
    kinds, census = {}, {}
    for gf, hf in SPLIT_CENSUS:
        found = exhaustive_search(make_group(gf), make_group(hf), SearchOptions()).found
        kinds[gf, hf] = [classify_split(S, components(S)).kind for S in map(Structure, found)]
        k = kinds[gf, hf]
        census[gf, hf] = (len(k), k.count("case-i"), k.count("case-ii"))
    # every table splits: the two cases add up to the whole found set
    assert census == SPLIT_CENSUS
    assert [f.values for f in found_small[(2,)]] == [(0, 0), (0, 1)]
    assert kinds[(2,), (2,)] == ["case-i", "case-ii"]
    # every normalized Z2 x Z4 table is connected
    G = make_group([2, 4])
    found = exhaustive_search(G, G, SearchOptions()).found
    assert len(found) == 1024
    assert {components(Structure(f)).component_count for f in found} == {1}


def test_difference_lemma(gold21_split, ident2_split, split_examples):
    for S, part in (gold21_split, ident2_split):
        assert verify_difference_lemma(S, part)
    for _, S, part in split_examples:
        assert verify_difference_lemma(S, part)


def test_difference_lemma_negative_control(gold21_split):
    S, part = gold21_split
    assert not verify_difference_lemma(S, shuffled(part))


def test_divisible_gold21(gold21_split):
    S, part = gold21_split
    for label in (0, 1):
        report = verify_divisible(S, part, label)
        assert report.is_divisible
        assert report.failure is None
        assert sum(len(c) for c in report.classes) == 8
    assert verify_divisible(S, part, 0).classes == ((0, 1), (4, 5), (8, 9), (12, 13))


def test_divisible_identity_z2(ident2_split):
    S, part = ident2_split
    for label in (0, 1):
        assert verify_divisible(S, part, label).is_divisible


def test_divisible_all_split_examples(split_examples):
    for _, S, part in split_examples:
        for label in (0, 1):
            report = verify_divisible(S, part, label)
            assert report.is_divisible
            # same-class pairs share no line, checked by construction; the
            # class sizes must tile the component
            assert sum(len(c) for c in report.classes) == S.point_count // 2


def test_divisible_fails_on_connected_whole():
    S = Structure(gold_table(3, 1))
    part = components(S)
    report = verify_divisible(S, part, 0)
    assert not report.is_divisible
    assert report.failure is not None


def test_divisible_bad_label(gold21_split):
    S, part = gold21_split
    with pytest.raises(ValueError):
        verify_divisible(S, part, 2)


def test_same_component_lines_with_distinct_a_intersect(split_examples):
    for f, S, part in split_examples:
        nh = f.codomain.order
        for label in (0, 1):
            lines = [l for l in range(S.line_count) if part.component_of_line[l] == label]
            for l1 in lines:
                for l2 in lines:
                    if l2 <= l1 or l1 // nh == l2 // nh:
                        continue
                    assert points_on_line(S, l1) & points_on_line(S, l2)


def test_phi_isomorphism_gold21(gold21_split):
    S, part = gold21_split
    assert verify_phi_isomorphism(S, part, 2)
    assert verify_phi_isomorphism(S, part, 3)
    with pytest.raises(ValueError):
        verify_phi_isomorphism(S, part, 1)  # lies in B


def test_phi_isomorphism_all_split_examples(split_examples):
    for f, S, part in split_examples:
        report = classify_split(S, part)
        for h in sorted(set(f.codomain.elements()) - report.codomain_subgroup):
            assert verify_phi_isomorphism(S, part, h)


def test_phi_requires_split():
    S = Structure(gold_table(3, 1))
    with pytest.raises(NotSplitError):
        verify_phi_isomorphism(S, components(S), 1)
