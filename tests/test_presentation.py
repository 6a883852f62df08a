import json

import pytest

from a2cent.errors import PresentationError
from a2cent.presentation import (BUILTIN_PRESENTATIONS, _canonical_class, load,
                                 load_named, loads)


def test_c1_shape(c1):
    assert c1.generator_count == 7
    assert c1.thickness_q == 2
    assert len(c1.rotation_classes) == 7
    assert (0, 0, 6) in c1.rotation_classes
    assert (1, 3, 5) in c1.rotation_classes


def test_first_table_row_zero(c1):
    # the "values of j" table: rotations starting with 0 are (0,0,.), (0,2,.), (0,6,.)
    assert c1.first_table[0] == [0, 2, 6]


def test_straight(c1):
    assert c1.straight(0, 5)
    assert c1.straight(5, 0)
    assert c1.straight(6, 6)
    assert not c1.straight(0, 0)
    assert not c1.straight(0, 2)
    assert not c1.straight(1, 5)


def test_completion_is_sparse(c1):
    assert [dict(row) for row in c1.completion] == [
        {k: j for (i2, j, k) in c1.rotations if i2 == i} for i in range(7)]


def test_complete(c1):
    assert c1.complete(0, 6) == 0
    assert c1.complete(0, 3) == 2
    assert c1.complete(2, 6) is None


def test_relators_starting_with(c1):
    assert c1.relators_starting_with(0) == [(0, 6), (2, 3), (6, 0)]
    for i in range(7):
        assert len(c1.relators_starting_with(i)) == c1.thickness_q + 1


def test_index_range(c1):
    with pytest.raises(IndexError):
        c1.straight(7, 0)
    with pytest.raises(IndexError):
        c1.complete(0, -1)


def test_straight_count_per_generator(c1):
    # m - (q+1) = 4 straight continuations after each label
    for i in range(7):
        assert sum(c1.straight(i, j) for j in range(7)) == 4


def test_rotations_closed_under_rotation(c1):
    rots = set(c1.rotations)
    assert len(rots) == 21
    for (i, j, k) in rots:
        assert (j, k, i) in rots and (k, i, j) in rots


def test_completion_consistent_with_rotations(c1):
    for (i, j, k) in c1.rotations:
        assert c1.complete(i, k) == j
        assert not c1.straight(i, j)


def test_link_is_fano_incidence(c1):
    nodes, degrees, girth, diameter = c1.link_stats()
    assert nodes == 14
    assert degrees == {3}
    assert girth == 6
    assert diameter == 3


def check_strip_tables(pres):
    """steps and row_pairs against their definitions, from the rotations."""
    rotations = sorted(pres.rotation_set)
    assert set(pres.steps) == set(rotations)
    for (a, s, t) in rotations:
        assert pres.steps[a, s, t] == tuple(
            (b, u) for (s2, b, u) in rotations if s2 == s and (b, u) != (t, a))
    rows = [(a, s, t, b, u) for (a, s, t) in rotations for (s2, b, u) in rotations
            if s2 == s and (b, u) != (t, a)]
    straight = {(i, j) for i in range(pres.generator_count)
                for j in range(pres.generator_count)} - pres.bent_pairs
    assert pres.row_pairs == {(row, nxt) for row in rows for nxt in rows
                              if nxt[2] == row[4] and (row[0], nxt[0]) in straight
                              and (row[3], nxt[3]) in straight}


def check_transitions(pres):
    """transitions against its definition, from the rotations: the rows
    (a, s, t, b, u) of each lower triangle, in the order of their upper
    triangles, whose next lower triangle (a', s', u) exists; no empty
    entries."""
    rotations = sorted(pres.rotation_set)
    expected = {}
    for (a, s, t) in rotations:
        for a_next in range(pres.generator_count):
            entry = tuple(((a, s, t, b, u), s_next, u)
                          for (s2, b, u) in rotations if s2 == s and (b, u) != (t, a)
                          for (a2, s_next, u2) in rotations if a2 == a_next and u2 == u)
            if entry:
                expected[a, s, t, a_next] = entry
    assert dict(pres.transitions) == expected
    assert all(pres.transitions.values())


def test_strip_tables_of_c1(c1):
    check_strip_tables(c1)
    check_transitions(c1)
    assert len(c1.transitions) == 105
    assert sum(len(uppers) for uppers in c1.steps.values()) == 42  # q of q+1 per triangle
    assert len(c1.row_pairs) == 168


def test_strip_tables_of_a_non_building():
    pres = load(_doc([[3, 0, 1], [3, 1, 2], [0, 2, 1], [3, 2, 0]], m=4), strict=False)
    check_strip_tables(pres)
    check_transitions(pres)


def copies_of_c1(k):
    """k disjoint copies of c1, copy c on the generators 7c..7c+6."""
    return _doc([[7 * c + x for x in t] for c in range(k)
                 for t in BUILTIN_PRESENTATIONS["c1"]["relators"]], m=7 * k)


def test_disjoint_copies_load_with_tables_linear_in_the_generators(c1):
    # 2800 generators; the link graph is 400 disjoint Fano incidence graphs,
    # so only the lenient load accepts it
    pres = load(copies_of_c1(400), strict=False)
    assert pres.warnings == ("link graph diameter is None, expected 3",)
    assert len(pres.completion) == 2800
    assert all(len(row) == 3 for row in pres.completion)  # q+1 entries per generator
    assert pres.complete(0, 7) is None and pres.complete(2793, 2799) == 2793
    for name in ("rotation_set", "steps", "transitions", "row_pairs"):
        assert len(getattr(pres, name)) == 400 * len(getattr(c1, name)), name
    assert max(len(pres.rotation_set), len(pres.steps), len(pres.transitions),
               len(pres.row_pairs)) == len(pres.row_pairs) == 24 * 2800


def test_round_trip(c1):
    again = loads(c1.dumps())
    assert again == c1
    assert again.to_document() == BUILTIN_PRESENTATIONS["c1"]


def test_load_named_variants(tmp_path, c1):
    assert load_named("builtin:c1") == c1
    path = tmp_path / "p.json"
    path.write_text(c1.dumps())
    assert load_named(str(path)) == c1


def _doc(relators, m=7):
    return {"generators": m, "relators": relators}


def test_reject_torsion_triple():
    with pytest.raises(PresentationError, match="torsion triple"):
        load(_doc([[1, 1, 1], [0, 2, 3]]))


def test_reject_duplicate_class():
    with pytest.raises(PresentationError, match="duplicate rotation class"):
        load(_doc([[0, 2, 3], [2, 3, 0]]))


def test_reject_out_of_range():
    with pytest.raises(PresentationError, match="out of range"):
        load(_doc([[0, 2, 9]]))


def test_reject_pair_violation():
    rels = [list(t) for t in sorted({_canonical_class(t) for t in
                                     [(0, 0, 6), (0, 2, 3), (1, 2, 6), (1, 3, 5),
                                      (1, 5, 4), (2, 4, 5), (3, 4, 6)]})]
    rels.append([0, 2, 5])  # rotation (0,2,5) clashes with (0,2,3) on first pair
    with pytest.raises(PresentationError, match="pair-uniqueness"):
        load(_doc(rels))


def test_reject_non_uniform_thickness():
    with pytest.raises(PresentationError, match="non-uniform thickness"):
        load(_doc([[0, 1, 2], [0, 2, 3]], m=4))


def test_reject_more_generators_than_rotations_before_building_tables():
    # 400 000 generators cannot all head one of the 3 rotations of one class
    with pytest.raises(PresentationError, match="non-uniform thickness") as exc:
        load(_doc([[0, 1, 2]], m=400_000))
    assert len(str(exc.value)) < 1024
    # the per-relator checks still come first
    with pytest.raises(PresentationError, match="torsion triple"):
        load(_doc([[1, 1, 1]], m=400_000))


def test_reject_thin_presentation():
    with pytest.raises(PresentationError, match="q=0 < 2"):
        load(_doc([[0, 1, 2]], m=3))


def test_lenient_downgrades_link_failure():
    # combinatorially sound (pair-unique, uniform q=2) but the link graph has
    # girth 4, so it is not a building link: strict rejects, lenient warns
    doc = _doc([[0, 0, 1], [0, 2, 2], [1, 1, 2]], m=3)
    with pytest.raises(PresentationError, match="link condition"):
        load(doc, strict=True)
    pres = load(doc, strict=False)
    assert any("girth is 4" in w for w in pres.warnings)


def test_strict_c1_has_no_warnings(c1):
    assert c1.warnings == ()


def test_issue_report_lists_all_problems():
    with pytest.raises(PresentationError) as exc:
        load(_doc([[1, 1, 1], [0, 2, 9], [0, 0]]))
    assert len(exc.value.issues) == 3


def test_dumps_is_json(c1):
    doc = json.loads(c1.dumps())
    assert doc["generators"] == 7
