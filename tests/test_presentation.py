import json
import random
import re

import pytest

from a2cent import strips
from a2cent.errors import PresentationError
from a2cent.presentation import (BUILTIN_PRESENTATIONS, _canonical_class, _rotations, load,
                                 load_named, loads)
from presentations import (OPPOSITE_BENDS, OTHER_Q2, SINGER_Q4, link_stats, relabelled_c1,
                           rotation_set, unchecked)


def test_c1_shape(c1):
    assert c1.generator_count == 7
    assert c1.thickness_q == 2
    assert len(c1.rotation_classes) == 7
    assert (0, 0, 6) in c1.rotation_classes
    assert (1, 3, 5) in c1.rotation_classes


def test_straight(c1):
    assert c1.straight(0, 5)
    assert c1.straight(5, 0)
    assert c1.straight(6, 6)
    assert not c1.straight(0, 0)
    assert not c1.straight(0, 2)
    assert not c1.straight(1, 5)


def test_relators_starting_with(c1):
    # rotations starting with 0 are (0,0,6), (0,2,3), (0,6,0)
    assert c1.starting[0] == ((0, 6), (2, 3), (6, 0))
    for i in range(7):
        assert len(c1.starting[i]) == c1.thickness_q + 1
        assert list(c1.starting[i]) == sorted(c1.starting[i])


def test_index_range(c1):
    with pytest.raises(IndexError, match=r"^generator index 7 out of range 0\.\.6$"):
        c1.straight(7, 0)
    with pytest.raises(IndexError, match=r"^generator index -1 out of range 0\.\.6$"):
        c1.straight(0, -1)


def test_straight_count_per_generator(c1):
    # m - (q+1) = 4 straight continuations after each label
    for i in range(7):
        assert sum(c1.straight(i, j) for j in range(7)) == 4


def test_rotations_closed_under_rotation(c1):
    rots = rotation_set(c1)
    assert len(rots) == 21
    for (i, j, k) in rots:
        assert (j, k, i) in rots and (k, i, j) in rots


def test_completion_consistent_with_rotations(c1):
    # each rotation (i, j, k) is the only one with first/last pair (i, k),
    # and is listed in starting[i]
    middle = {}
    for (i, j, k) in rotation_set(c1):
        assert middle.setdefault((i, k), j) == j
        assert (j, k) in c1.starting[i]
        assert not c1.straight(i, j)
    assert sum(len(row) for row in c1.starting) == len(rotation_set(c1))


def test_link_is_fano_incidence(c1):
    nodes, degrees, girth, diameter = link_stats(c1.starting)
    assert nodes == 14
    assert degrees == {3}
    assert girth == 6
    assert diameter == 3


def straight_windows(pres, length):
    """Every window of ``length`` letters whose consecutive pairs are
    straight, in lexicographic order."""
    windows = [(i,) for i in range(pres.generator_count)]
    for _ in range(length - 1):
        windows = [w + (j,) for w in windows for j in range(pres.generator_count)
                   if (w[-1], j) not in pres.bent_pairs]
    return windows


def brute_window_steps(pres, window):
    """The strip walk's row chains over a window, from the rotation set:
    for each lower triangle (window[0], s, t), every chain of rows
    (a_k, s_k, t_k, b_k, u_k) with a_k = window[k], (s_k, b_k, u_k) a
    rotation other than the fold (s_k, t_k, a_k), and (a_{k+1}, s_{k+1}, u_k)
    a rotation, with t_{k+1} = u_k, each with the pair (s, t) it ends in,
    in lexicographic order of the upper triangles."""
    by_first = {}
    for rot in sorted(rotation_set(pres)):
        by_first.setdefault(rot[0], []).append(rot)

    def chains(k, s, t):
        if k == len(window) - 1:
            return [((), (s, t))]
        return [(((window[k], s, t, b, u),) + rows, end)
                for (_s, b, u) in by_first[s] if (b, u) != (t, window[k])
                for (_a, s_next, u_next) in by_first.get(window[k + 1], ()) if u_next == u
                for rows, end in chains(k + 1, s_next, u)]

    return {(s, t): tuple(chains(0, s, t)) for (_a, s, t) in by_first.get(window[0], ())}


def check_window_steps(pres, windows):
    """``strips._window_steps`` equals its brute force on every window;
    returns the number of windows and of the chains over them."""
    chains = 0
    for window in windows:
        steps = strips._window_steps(pres, window)
        assert steps == brute_window_steps(pres, window), window
        chains += sum(len(entry) for entry in steps.values())
    return len(windows), chains


def sampled_windows(pres, seed=25, count=60):
    """Every straight 2-letter window and a seeded sample of ``count``
    straight windows of each longer length up to WINDOW + 1."""
    rng = random.Random(seed)
    windows = straight_windows(pres, 2)
    for length in range(3, strips.WINDOW + 2):
        every = straight_windows(pres, length)
        windows += rng.sample(every, min(count, len(every)))
    return windows


def test_strip_tables_of_c1(c1):
    """Every straight window the strip walk can memoize on c1: 2 to
    WINDOW + 1 letters."""
    windows = [w for length in range(2, strips.WINDOW + 2) for w in straight_windows(c1, length)]
    assert check_window_steps(c1, windows) == (588, 3 * 588)  # one chain per start


def test_singer_q4_is_a_building_of_thickness_4():
    assert (SINGER_Q4.generator_count, SINGER_Q4.thickness_q) == (21, 4)
    assert len(SINGER_Q4.rotation_classes) == 35
    assert link_stats(SINGER_Q4.starting) == (42, {5}, 6, 3)


def test_strip_tables_of_a_non_building():
    """Partial strips branch here, so a window's chains outnumber its three
    starts: every straight window of 2 to 4 letters, 168 chains."""
    pres = unchecked(_doc([[3, 0, 1], [3, 1, 2], [0, 2, 1], [3, 2, 0]], m=4))
    assert check_window_steps(pres, sampled_windows(pres)) == (12, 168)


@pytest.mark.parametrize("pres, expected", [
    (relabelled_c1(20111), (148, 444)),
    (OTHER_Q2, (148, 444)),
    (OPPOSITE_BENDS, (70, 440)),
    (SINGER_Q4, (456, 2280)),
], ids=["relabelled_c1", "other_q2", "opposite_bends", "singer_q4"])
def test_strip_tables_of_the_test_presentations(pres, expected):
    """The fold test b == t of the strip walk drops exactly the rows with
    (b, u) == (t, a), as (s, t) heads one rotation, and ``starting[a']``
    finds the one next lower triangle: the chains over every straight
    2-letter window and a sample of longer ones equal their brute force;
    the numbers of windows and chains."""
    assert check_window_steps(pres, sampled_windows(pres)) == expected


def copies_of_c1(k):
    """k disjoint copies of c1, copy c on the generators 7c..7c+6."""
    return _doc([[7 * c + x for x in t] for c in range(k)
                 for t in BUILTIN_PRESENTATIONS["c1"]["relators"]], m=7 * k)


def test_disjoint_copies_load_with_tables_linear_in_the_generators(c1):
    # 2800 generators; the link graph is 400 disjoint Fano incidence graphs,
    # so load rejects it, after building the tables that unchecked builds
    doc = copies_of_c1(400)
    with pytest.raises(PresentationError) as exc:
        load(doc)
    assert exc.value.issues == ["link condition failure (5600 nodes): link graph is not a "
                                "projective plane: m = 2800, expected q^2+q+1 = 7"]
    pres = unchecked(doc)
    assert len(pres.starting) == 2800
    assert all(len(row) == 3 for row in pres.starting)  # q+1 entries per generator
    assert 7 not in [k for (_j, k) in pres.starting[0]]
    assert (2793, 2799) in pres.starting[2793]
    assert len(pres.bent_pairs) == 400 * len(c1.bent_pairs) == 21 * 400


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


def test_load_reads_any_rotation_of_a_relator(c1):
    """A relator may be given by any of its rotations, such as (0, 6, 0)
    for (0, 0, 6): a letter repeated first and last is no torsion triple."""
    relators = BUILTIN_PRESENTATIONS["c1"]["relators"]
    for r in range(3):
        assert load(_doc([t[r:] + t[:r] for t in relators])) == c1


def test_reject_duplicate_class():
    with pytest.raises(PresentationError, match="duplicate rotation class"):
        load(_doc([[0, 2, 3], [2, 3, 0]]))


def test_reject_out_of_range():
    with pytest.raises(PresentationError, match="out of range"):
        load(_doc([[0, 2, 9]]))
    # m = 7: index 7 is the least out of range
    with pytest.raises(PresentationError,
                       match=r"relator \(0, 2, 7\) has a generator index out of range"):
        load(_doc([[0, 2, 7]]))


def test_reject_pair_violation():
    rels = [list(t) for t in sorted({_canonical_class(t) for t in
                                     [(0, 0, 6), (0, 2, 3), (1, 2, 6), (1, 3, 5),
                                      (1, 5, 4), (2, 4, 5), (3, 4, 6)]})]
    rels.append([0, 2, 5])  # rotation (0,2,5) clashes with (0,2,3) on first pair
    with pytest.raises(PresentationError) as exc:
        load(_doc(rels))
    # (2,3,0) and (2,5,0) also share a first/last pair, which is the same fact
    assert exc.value.issues == [
        "pair-uniqueness violation: rotations (0,2,3) and (0,2,5) share first pair (0,2)"]


def random_relator_classes(rng):
    """3 to 7 generators and enough distinct rotation classes, none a
    torsion triple, that every generator could head a rotation: a document
    that reaches the pair-uniqueness check."""
    m = rng.randint(3, 7)
    count = rng.randint(-(-m // 3), m + 2)  # m >= 3 letters give at least 8 classes
    classes = set()
    while len(classes) < count:
        t = tuple(rng.randrange(m) for _ in range(3))
        if not t[0] == t[1] == t[2]:
            classes.add(_canonical_class(t))
    return m, sorted(classes)


def test_pair_uniqueness_checks_first_pairs_only():
    """Over seeded random rotation-closed relator sets, load reports a
    pair-uniqueness issue exactly when two rotations share a first pair,
    which is exactly when two share a first/last pair (brute force over all
    pairs of rotations); each issue names two rotations that share the
    named pair."""
    rng = random.Random(2024)
    outcomes = {True: 0, False: 0}
    for _ in range(5000):
        m, classes = random_relator_classes(rng)
        rotations = {r for c in classes for r in _rotations(c)}
        shared_first = any(r != s and r[:2] == s[:2] for r in rotations for s in rotations)
        shared_first_last = any(r != s and r[::2] == s[::2] for r in rotations for s in rotations)
        assert shared_first == shared_first_last, classes
        try:
            load(_doc([list(c) for c in classes], m=m))
            issues = []
        except PresentationError as exc:
            issues = exc.issues
        pair_issues = [i for i in issues if i.startswith("pair-uniqueness")]
        assert bool(pair_issues) == shared_first, (m, classes, issues)
        assert pair_issues == issues or not pair_issues, issues
        for issue in pair_issues:
            r, s, pair = re.fullmatch(
                r"pair-uniqueness violation: rotations \((.*)\) and \((.*)\) "
                r"share first pair \((.*)\)", issue).groups()
            r, s, pair = (tuple(map(int, x.split(","))) for x in (r, s, pair))
            assert r != s and {r, s} <= rotations and r[:2] == s[:2] == pair, issue
        outcomes[shared_first] += 1
    assert min(outcomes.values()) > 1000, outcomes


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


def test_reject_more_generators_than_rotations_at_the_boundary():
    """c1's 7 classes make 21 rotations: 21 generators pass the count and
    fail on the rotations per generator, 22 fail the count."""
    with pytest.raises(PresentationError) as exc:
        load(_doc(BUILTIN_PRESENTATIONS["c1"]["relators"], m=22))
    assert exc.value.issues == [
        "non-uniform thickness: 22 generators but only 21 rotations, so some generator heads none"]
    with pytest.raises(PresentationError, match="rotation counts per first generator"):
        load(_doc(BUILTIN_PRESENTATIONS["c1"]["relators"], m=21))


def test_one_generator_passes_the_count_check():
    """One generator is a positive count; its only triple is torsion."""
    with pytest.raises(PresentationError) as exc:
        load(_doc([[0, 0, 0]], m=1))
    assert exc.value.issues == [
        "torsion triple (0, 0, 0): x0^3 = 1 contradicts torsion-freeness"]


def c1_with_false_for_0():
    """c1 with JSON false in place of each generator 0; false == 0 in Python."""
    return _doc([[False if x == 0 else x for x in t]
                 for t in BUILTIN_PRESENTATIONS["c1"]["relators"]])


def test_reject_booleans_as_generator_indices():
    doc = c1_with_false_for_0()
    assert doc["relators"] == BUILTIN_PRESENTATIONS["c1"]["relators"]
    with pytest.raises(PresentationError) as exc:
        load(doc)
    assert exc.value.issues == ["relator [False, False, 6] is not an integer triple",
                                "relator [False, 2, 3] is not an integer triple"]
    # the message, as a traceback shows it, joins the issues
    assert str(exc.value) == "; ".join(exc.value.issues)


def test_reject_boolean_generator_count():
    with pytest.raises(PresentationError) as exc:
        load({"generators": True, "relators": [[0, 0, 0]]})
    assert exc.value.issues == ["generators must be a positive integer, got True"]


def test_reject_thin_presentation():
    with pytest.raises(PresentationError, match="q=0 < 2"):
        load(_doc([[0, 1, 2]], m=3))


def test_issue_report_lists_all_problems():
    with pytest.raises(PresentationError) as exc:
        load(_doc([[1, 1, 1], [0, 2, 9], [0, 0]]))
    assert len(exc.value.issues) == 3


def test_dumps_is_json(c1):
    doc = json.loads(c1.dumps())
    assert doc["generators"] == 7


# -- the counting link check against the exact BFS of the link ------------------

def check_counting_equals_bfs(doc):
    """load's link check against the girth and diameter that the link BFS
    (``presentations.link_stats``) finds on the document's tables: load
    accepts iff the link has girth 6 and diameter 3, and otherwise raises
    the girth-4 failure iff two lines share two points, else the
    not-a-plane failure; the link is always (q+1)-regular.  Returns
    whether the link is a plane."""
    pres = unchecked(doc)
    _nodes, degrees, girth, diameter = link_stats(pres.starting)
    q, m = pres.thickness_q, pres.generator_count
    assert degrees == {q + 1}
    building = girth == 6 and diameter == 3
    if girth == 4:
        issue = "link graph girth is 4, expected 6"
    else:
        issue = f"link graph is not a projective plane: m = {m}, expected q^2+q+1 = {q * q + q + 1}"
    try:
        load(doc)
    except PresentationError as exc:
        assert not building and exc.issues == [f"link condition failure ({2 * m} nodes): {issue}"]
    else:
        assert building, doc
    return building


def relabelled_c1_document(seed):
    perm = list(range(7))
    random.Random(seed).shuffle(perm)
    return _doc([[perm[x] for x in t] for t in BUILTIN_PRESENTATIONS["c1"]["relators"]])


def shifted_triples(m):
    """The relators [i, i+1, i+3] mod m: pair-unique with q = 2, and a plane
    (the Fano plane of the difference set {0, 1, 3}) only at m = 7."""
    return _doc([[i, (i + 1) % m, (i + 3) % m] for i in range(m)], m=m)


def backtracked_q2_relators(rng):
    """Seven rotation classes on the generators 0..6, found by a backtracking
    search in the order of ``rng``, such that each generator heads three
    rotations and no first pair or (first, last) pair repeats: a document
    that passes pair uniqueness and uniform thickness with q = 2."""
    heads = [0] * 7
    firsts, ends, classes = set(), set(), []
    pairs = [(j, k) for j in range(7) for k in range(7)]

    def extend():
        if len(classes) == 7:
            return True
        i = next(g for g in range(7) if heads[g] < 3)
        for (j, k) in rng.sample(pairs, len(pairs)):
            c = _canonical_class((i, j, k))
            rots = _rotations(c)
            new_firsts = {(a, b) for (a, b, _c) in rots}
            new_ends = {(a, c) for (a, _b, c) in rots}
            if i == j == k or c in classes or new_firsts & firsts or new_ends & ends:
                continue
            for (a, _b, _c) in rots:
                heads[a] += 1
            if max(heads) <= 3:
                classes.append(c)
                firsts.update(new_firsts)
                ends.update(new_ends)
                if extend():
                    return True
                classes.pop()
                firsts.difference_update(new_firsts)
                ends.difference_update(new_ends)
            for (a, _b, _c) in rots:
                heads[a] -= 1
        return False

    assert extend()
    return [list(c) for c in classes]


def test_counting_equals_bfs_on_c1_and_relabellings():
    assert check_counting_equals_bfs(BUILTIN_PRESENTATIONS["c1"])
    for seed in range(20):
        assert check_counting_equals_bfs(relabelled_c1_document(seed))


def test_counting_equals_bfs_on_the_lenient_documents():
    # pair-unique documents with uniform q = 2 whose links have girth 4
    assert not check_counting_equals_bfs(_doc([[0, 0, 1], [0, 2, 2], [1, 1, 2]], m=3))
    assert not check_counting_equals_bfs(_doc([[3, 0, 1], [3, 1, 2], [0, 2, 1], [3, 2, 0]],
                                              m=4))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_counting_equals_bfs_on_disjoint_copies_of_c1(k):
    assert not check_counting_equals_bfs(copies_of_c1(k))


def test_counting_equals_bfs_on_shifted_triples():
    assert [m for m in range(7, 61) if check_counting_equals_bfs(shifted_triples(m))] == [7]


def test_counting_equals_bfs_on_backtracked_q2_documents():
    rng = random.Random(6)
    verdicts = [check_counting_equals_bfs(_doc(backtracked_q2_relators(rng)))
                for _ in range(2000)]
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("pres", [
    load_named("c1"), relabelled_c1(20111), OTHER_Q2, SINGER_Q4,
], ids=["c1", "relabelled_c1", "other_q2", "singer_q4"])
def test_unchecked_builds_the_tables_of_load(pres):
    """The test helper that builds the presentations load rejects gives
    load's tables on the presentations load accepts."""
    again = unchecked(pres.to_document())
    assert again == pres
    assert (again.starting, again.bent_pairs) == (pres.starting, pres.bent_pairs)


def test_load_runs_no_bfs_on_a_large_connected_non_building():
    # 2800 generators and a connected link of girth 6 and diameter > 3;
    # a BFS from every link node here took minutes, and the counting check
    # rejects it at once
    with pytest.raises(PresentationError) as exc:
        load(shifted_triples(2800))
    assert exc.value.issues == ["link condition failure (5600 nodes): link graph is not a "
                                "projective plane: m = 2800, expected q^2+q+1 = 7"]
