from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from a2cent.errors import InvariantError, NotAWallWord
from a2cent.presentation import load_named
from a2cent.quotient import build_quotient
from a2cent.strips import (WINDOW, anchored_readings, enumerate_periodic_strips, flip_shifts,
                           strip_json, swapped_rows)
from a2cent.walls import (check_wall_sequence, least_rotation, minimal_period, wall_necklaces,
                          wall_word)
from presentations import OTHER_Q2, SINGER_Q4, relabelled_c1
from strip_oracle import (canonical_edge_key, columns, full_scan_flip_shifts,
                          full_scan_least_rotation, full_scan_wall_word, group_by_wall_shifts,
                          oracle_enumerate, reference_enumerate,
                          row_anchored_readings, shift, validate_strip, window_keys)

C1 = load_named("c1")


def walls_through(pres, length):
    """Every wall necklace of length 1..length, by length then lexicographically."""
    return [w for n in range(1, length + 1) for w in wall_necklaces(pres, n)]


def strip_rows(presentation, wall):
    """The rows of the strips that the walk returns at the wall, in order."""
    return [rows for rows, _start in enumerate_periodic_strips(presentation, wall)]


WALL_WORDS_3 = [w for n in (1, 2, 3) for w in wall_necklaces(C1, n)]

ALL_STRIPS = [rows for w in WALL_WORDS_3 for rows in strip_rows(C1, w)]

# Figure fixture: the three strips along the (0,5) wall, all 30 labels,
# given by their columns a, s, t, b, u.
FIG3_STRIPS = [
    tuple(zip((0, 5), (0, 1), (6, 3), (2, 2), (3, 6))),
    tuple(zip((0, 5), (2, 4), (3, 1), (6, 6), (1, 3))),
    tuple(zip((0, 5), (6, 2), (0, 4), (3, 3), (4, 0))),
]
CONST = tuple(zip((6, 6), (0, 0), (0, 0), (6, 6), (0, 0)))  # a strip along the (6) wall


def test_fig3_fixture_strips_are_valid():
    for s in FIG3_STRIPS:
        validate_strip(C1, s)


def test_enumerate_at_05_matches_figure():
    assert strip_rows(C1, (0, 5)) == FIG3_STRIPS


def test_enumerate_at_constant_wall():
    strips = strip_rows(C1, (6, 6))
    assert strips[0] == CONST
    assert len(strips) == 3
    classes = group_by_wall_shifts(strips, wall_period=1)
    assert sorted(len(c) for c in classes) == [1, 2]


def test_shift_and_period():
    s = FIG3_STRIPS[0]
    assert shift(s, 2) == s
    assert columns(shift(s, 1))[0] == (5, 0)
    assert minimal_period(s) == 2
    assert minimal_period(CONST) == 1


def test_swap_example():
    sw = swapped_rows(FIG3_STRIPS[0])
    assert sw == tuple(zip((2, 2), (3, 6), (0, 1), (5, 0), (1, 0)))
    validate_strip(C1, sw)


def base_wall(rows):
    """The strip's base wall a, as a test id."""
    return str(columns(rows)[0])


@pytest.mark.parametrize("s", ALL_STRIPS, ids=base_wall)
def test_swap_squared_is_shift_by_one(s):
    assert swapped_rows(swapped_rows(s)) == shift(s, 1)
    validate_strip(C1, swapped_rows(s))


@pytest.mark.parametrize("s", ALL_STRIPS, ids=base_wall)
def test_edge_key_invariant_under_shift_and_swap(s):
    key = canonical_edge_key(s)
    for r in range(len(s)):
        assert canonical_edge_key(shift(s, r)) == key
    assert canonical_edge_key(swapped_rows(s)) == key


def test_empty_strip_has_no_period():
    with pytest.raises(ValueError, match="empty sequence"):
        minimal_period(())


def test_flip_shifts_examples():
    assert flip_shifts(CONST, 1) == [0, 1]
    assert flip_shifts(FIG3_STRIPS[0], 2) == []


@pytest.mark.parametrize("s", [s for s in ALL_STRIPS if flip_shifts(s, minimal_period(s))],
                         ids=base_wall)
def test_median_divisibility(s):
    """The least flip shift d of a flip strip has 2d+1 equal to its period:
    the swap of the swap is the shift by 1, so the period divides 2d+1, and
    d is below the period."""
    pe = minimal_period(s)
    assert pe % 2 == 1
    assert flip_shifts(s, pe)[0] == (pe - 1) // 2


@pytest.mark.parametrize(
    "wall",
    WALL_WORDS_3 + wall_necklaces(C1, 4)
    + [pytest.param(w, marks=pytest.mark.slow) for w in wall_necklaces(C1, 5)],
    ids=str)
def test_dfs_equals_oracle(wall):
    assert sorted(strip_rows(C1, wall)) == sorted(oracle_enumerate(C1, wall))


def test_dfs_equals_oracle_on_singer_q4():
    """At q=4, at every wall necklace of length 1 and 2."""
    walls = walls_through(SINGER_Q4, 2)
    assert len(walls) == 168
    for wall in walls:
        assert sorted(strip_rows(SINGER_Q4, wall)) \
            == sorted(oracle_enumerate(SINGER_Q4, wall)), wall


@pytest.mark.parametrize("wall", WALL_WORDS_3, ids=str)
def test_valency_bound(wall):
    assert len(enumerate_periodic_strips(C1, wall)) <= C1.thickness_q + 1


def test_enumeration_rotation_equivariant():
    for wall in [(0, 5), (0, 1, 4)]:
        n = len(wall)
        base = strip_rows(C1, wall)
        for r in range(1, n):
            rotated = strip_rows(C1, wall[r:] + wall[:r])
            assert sorted(rotated) == sorted(shift(s, r) for s in base)


def test_strip_periods_refine_wall_periods():
    for s in ALL_STRIPS:
        a, _s, _t, b, _u = columns(s)
        assert minimal_period(s) % minimal_period(a) == 0
        assert minimal_period(s) % minimal_period(b) == 0


def test_validate_rejects_broken_seam():
    a, s, t, b, u = columns(FIG3_STRIPS[0])
    broken = tuple(zip(a, s, (t[1], t[0]), b, u))
    with pytest.raises(InvariantError):
        validate_strip(C1, broken)


def test_validate_rejects_degenerate_fold():
    # upper triangle mirroring the lower folds w back onto the base wall
    folded = tuple(zip((6, 6), (0, 0), (0, 0), (0, 0), (6, 6)))
    with pytest.raises(InvariantError):
        validate_strip(C1, folded)


def test_oracle_guard():
    with pytest.raises(ValueError):
        oracle_enumerate(C1, (6,) * 7)


def test_columns_round_trip():
    s = FIG3_STRIPS[0]
    assert s == ((0, 0, 6, 2, 3), (5, 1, 3, 2, 6))
    assert columns(s) == ((0, 5), (0, 1), (6, 3), (2, 2), (3, 6))
    assert tuple(zip(*columns(s))) == s
    assert strip_json(s) == {"a": [0, 5], "s": [0, 1], "t": [6, 3], "b": [2, 2], "u": [3, 6]}


@given(st.sampled_from(ALL_STRIPS), st.integers(min_value=0, max_value=11),
       st.integers(min_value=0, max_value=11))
def test_shift_is_an_action(s, r1, r2):
    assert shift(shift(s, r1), r2) == shift(s, r1 + r2)


@given(st.sampled_from(ALL_STRIPS), st.integers(min_value=0, max_value=11))
def test_swap_commutes_with_shift(s, r):
    assert swapped_rows(shift(s, r)) == shift(swapped_rows(s), r)


# Reference: shift, swap and edge keys on the five label sequences, as the
# strip was stored before it became a tuple of rows.

def ref_shift(cols, r):
    r %= len(cols[0])
    return tuple(seq[r:] + seq[:r] for seq in cols)


def ref_swap(cols):
    a, s, _t, b, u = cols
    n = len(a)
    return (b, u, s, tuple(a[(k + 1) % n] for k in range(n)),
            tuple(s[(k + 1) % n] for k in range(n)))


def ref_edge_key(cols):
    return min(tuple(zip(*ref_shift(base, r)))
               for base in (cols, ref_swap(cols)) for r in range(len(cols[0])))


def any_strip(n):
    labels = st.tuples(*[st.integers(min_value=0, max_value=6)] * n)
    return st.tuples(*[labels] * 5).map(lambda cols: tuple(zip(*cols)))


# valid strips of c1, plus arbitrary labels: the row algebra needs neither
# the relators nor a wall
STRIPS = st.one_of(
    st.sampled_from(ALL_STRIPS),
    st.integers(min_value=1, max_value=6).flatmap(any_strip))


@given(STRIPS, st.integers(min_value=-13, max_value=13))
def test_shift_equals_column_reference(s, r):
    assert columns(shift(s, r)) == ref_shift(columns(s), r)


@given(STRIPS)
def test_swap_equals_column_reference(s):
    assert columns(swapped_rows(s)) == ref_swap(columns(s))


@given(STRIPS)
def test_edge_key_equals_column_reference(s):
    assert canonical_edge_key(s) == ref_edge_key(columns(s))


@given(STRIPS)
def test_flip_shifts_and_period_equal_column_reference(s):
    cols = columns(s)
    n = len(cols[0])
    pe = minimal_period(s)
    assert flip_shifts(s, pe) == [d for d in range(n) if ref_shift(ref_swap(cols), d) == cols]
    assert pe == min(p for p in range(1, n + 1) if n % p == 0 and ref_shift(cols, p) == cols)


@st.composite
def flip_symmetric_strip(draw):
    """A strip with shift(swapped_rows(s), d) == s: a and s repeat with period
    gcd(2d + 1, n), and b, u, t are read off them."""
    n = draw(st.integers(min_value=1, max_value=8))
    d = draw(st.integers(min_value=0, max_value=n - 1))
    g = gcd(2 * d + 1, n)
    a0 = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=g, max_size=g))
    s0 = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=g, max_size=g))
    a = [a0[k % g] for k in range(n)]
    s = [s0[k % g] for k in range(n)]
    return tuple(zip(a, s, [s[(k + d) % n] for k in range(n)],
                     [a[(k - d) % n] for k in range(n)], [s[(k - d) % n] for k in range(n)]))


@given(st.one_of(STRIPS, flip_symmetric_strip()))
def test_flip_shifts_equal_brute_force(s):
    assert flip_shifts(s, minimal_period(s)) == \
        [d for d in range(len(s)) if shift(swapped_rows(s), d) == s]


def test_flip_shifts_equal_brute_force_on_enumerated_strips():
    """The one comparison at d = period // 2 against all n shifts, on every
    strip of OTHER_Q2 through length 4 and of the fixtures' powers h^k,
    k <= 12."""
    strips = [s for w in walls_through(OTHER_Q2, 4) for s in strip_rows(OTHER_Q2, w)]
    strips += [s for h in ((0, 5), (0, 1, 4)) for k in range(1, 13) for s in strip_rows(C1, h * k)]
    flips = 0
    for s in strips:
        brute = [d for d in range(len(s)) if shift(swapped_rows(s), d) == s]
        assert flip_shifts(s, minimal_period(s)) == brute, s
        flips += bool(brute)
    assert (len(strips), flips) == (162 + 72, 4 + 12)


def outcome(fn, *args):
    """fn(*args), or the type, arguments and message of what it raised."""
    try:
        return fn(*args)
    except (IndexError, InvariantError, NotAWallWord, ValueError) as exc:
        return (type(exc), exc.args, str(exc))


def check_enumerate_equals_reference(presentation, walls):
    """Same strips with the same start pairs in the same order (or the same
    exception) as ``reference_enumerate`` at every rotation of every wall."""
    outcomes = []
    for wall in walls:
        for r in range(len(wall)):
            rotated = wall[r:] + wall[:r]
            got = outcome(enumerate_periodic_strips, presentation, rotated)
            assert got == outcome(reference_enumerate, presentation, rotated), rotated
            outcomes.append(got)
    return outcomes


def test_enumerate_equals_reference_through_length_6():
    check_enumerate_equals_reference(C1, walls_through(C1, 6))


@pytest.mark.slow
def test_enumerate_equals_reference_at_length_7():
    check_enumerate_equals_reference(C1, wall_necklaces(C1, 7))


def test_enumerate_equals_reference_on_relabelled_c1():
    pres = relabelled_c1(20111)
    assert pres.rotation_classes != C1.rotation_classes
    walls = walls_through(pres, 6)
    outcomes = check_enumerate_equals_reference(pres, walls)
    assert sum(len(found) for found in outcomes) > 1000


def test_enumerate_equals_reference_on_other_q2():
    outcomes = check_enumerate_equals_reference(OTHER_Q2, walls_through(OTHER_Q2, 6))
    assert sum(len(found) for found in outcomes) > 1000


def check_walk_contract(presentation, walls):
    """At every wall, the walk returns each strip with its start pair
    rows[0][1:3], and the start pairs are distinct and come in the order of
    the initial triangles.  Returns the number of strips."""
    strips = 0
    for wall in walls:
        found = enumerate_periodic_strips(presentation, wall)
        starts = [start for _rows, start in found]
        assert starts == [rows[0][1:3] for rows, _start in found], wall
        assert starts == [pair for pair in presentation.starting[wall[0]] if pair in starts], wall
        assert len(set(starts)) == len(starts), wall
        strips += len(found)
    return strips


@pytest.mark.parametrize("pres, expected", [
    (C1, 1120),
    (relabelled_c1(20111), 1120),
    (OTHER_Q2, 1127),
], ids=["c1", "relabelled_c1", "other_q2"])
def test_walk_returns_each_strip_with_its_start_pair(pres, expected):
    assert check_walk_contract(pres, walls_through(pres, 6)) == expected


# The walk advances WINDOW wall letters per step through the row chains,
# built from ``starting``, that each presentation keeps in its memo,
# ``_windows``.

def test_window_memo_cold_and_warm():
    """The same strips as the reference on a fresh presentation, whose memo
    starts empty, and again once the memo holds every window met."""
    pres = load_named("c1")
    assert not pres._windows
    walls = walls_through(pres, 6)
    cold = check_enumerate_equals_reference(pres, walls)
    assert pres._windows
    assert check_enumerate_equals_reference(pres, walls) == cold


def test_window_memo_is_per_presentation():
    """Calls on c1 and a relabelled c1 alternate at every wall of either, so
    a memo keyed by the window alone, shared between presentations, would
    answer one from the other's windows."""
    pair = (load_named("c1"), relabelled_c1(20111))
    for wall in sorted(set(walls_through(pair[0], 6)) | set(walls_through(pair[1], 6))):
        for pres in pair:
            if pres.bent_pairs.isdisjoint(zip(wall, wall[1:] + wall[:1])):
                check_enumerate_equals_reference(pres, [wall])
    shared = set(pair[0]._windows) & set(pair[1]._windows)
    assert any(pair[0]._windows[w] != pair[1]._windows[w] for w in shared)


def test_window_memo_is_not_compared():
    warmed = load_named("c1")
    for wall in walls_through(warmed, 5):
        enumerate_periodic_strips(warmed, wall)
    fresh = load_named("c1")
    assert warmed._windows and not fresh._windows
    assert warmed == fresh and hash(warmed) == hash(fresh)


def every_rotation_of_some(pres, n, count=12):
    """Every rotation of about ``count`` wall necklaces of length n, spread
    over the sorted list."""
    necklaces = wall_necklaces(pres, n)
    return [wall[r:] + wall[:r] for wall in necklaces[::max(1, len(necklaces) // count)]
            for r in range(n)]


@pytest.mark.parametrize("n", range(1, 9), ids=lambda n: f"n{n}-mod{n % WINDOW}")
def test_window_memo_at_every_length_mod_window(n):
    """Walls shorter than WINDOW and walls whose length leaves 0, 1 and 2
    over a multiple of it, so that the last window has WINDOW + 1 letters
    or wraps after one or two: at each, the reference's strips on a fresh
    presentation, whose first call builds every window of the wall and no
    other, and the same strips from the warm memo."""
    for wall in every_rotation_of_some(C1, n):
        expected = outcome(reference_enumerate, C1, wall)
        pres = load_named("c1")
        assert outcome(enumerate_periodic_strips, pres, wall) == expected, wall
        assert set(pres._windows) == set(window_keys(wall)), wall
        assert outcome(enumerate_periodic_strips, pres, wall) == expected, wall


@pytest.mark.parametrize("missing", [0, -1], ids=["first", "last"])
def test_window_memo_with_one_window_missing(missing, monkeypatch):
    """A memo that holds every window of the wall but its first, or but its
    last: the wall is checked once, the missing window is built again and
    no other, and the strips are the reference's.  Walls of 4 to 8 letters,
    whose first and last windows differ."""
    checked = []

    def counting_check(presentation, labels):
        checked.append(tuple(labels))
        check_wall_sequence(presentation, labels)

    monkeypatch.setattr("a2cent.strips.check_wall_sequence", counting_check)
    for n in range(WINDOW + 1, 9):
        for wall in every_rotation_of_some(C1, n, count=4):
            pres = load_named("c1")
            enumerate_periodic_strips(pres, wall)
            kept = dict(pres._windows)
            gone = window_keys(wall)[missing]
            del pres._windows[gone]
            checked.clear()
            assert enumerate_periodic_strips(pres, wall) == reference_enumerate(C1, wall), wall
            assert checked == [wall]
            assert pres._windows.keys() == kept.keys()
            assert all(pres._windows[key] is steps for key, steps in kept.items() if key != gone)


def test_warm_memo_skips_the_wall_check_with_the_same_outcome():
    """A wall whose windows are all in the memo is not checked again: on a
    presentation warmed by every c1 necklace through length 6 and on a
    fresh load, the same strips or the same error for the empty wall, the
    labels -1 and m, a bent pair at each position of a few walls, and a
    long wall whose windows are all in the warm memo but one bent one.  A
    rejected wall adds no window to either memo, even where all its
    windows but one are straight."""
    warmed = load_named("c1")
    for wall in walls_through(warmed, 6):
        enumerate_periodic_strips(warmed, wall)
    memo = dict(warmed._windows)
    m = warmed.generator_count

    def bent_at(wall, k):
        """The wall with a letter at k that bends with its predecessor."""
        x = next(x for x in range(m) if (wall[k - 1], x) in warmed.bent_pairs)
        return wall[:k] + (x,) + wall[k + 1:]

    base = (2, 5, 3, 6, 4, 3)
    long_wall = base * 5  # 6 is a multiple of WINDOW: base's windows, repeated
    assert all(long_wall[k:k + WINDOW + 1] in memo for k in range(0, len(long_wall), WINDOW))
    bent_long = bent_at(long_wall, 8)
    assert [bent_long[k:k + WINDOW + 1] in memo
            for k in range(0, len(bent_long), WINDOW)].count(False) == 1
    walls = [(), long_wall, bent_long, (0, 5) * 8]
    for wall in [(0, 5), (0, 1, 4), (0, 1, 4, 3, 3, 1, 1)]:
        for k in range(len(wall)):
            walls += [wall[:k] + (x,) + wall[k + 1:] for x in (-1, m)]
            walls.append(bent_at(wall, k))
    errors = set()
    for wall in walls:
        fresh = load_named("c1")
        got = outcome(enumerate_periodic_strips, warmed, wall)
        assert got == outcome(enumerate_periodic_strips, fresh, wall), wall
        if isinstance(got, tuple):
            errors.add(got[0])
            assert not fresh._windows, wall  # checked before any window is built
    assert errors == {ValueError, IndexError, NotAWallWord}
    assert warmed._windows.keys() == memo.keys()  # no window of a bent wall was kept
    assert all(warmed._windows[key] is steps for key, steps in memo.items())


def test_warm_memo_builds_the_quotient_without_the_wall_check(monkeypatch):
    """A second build on the same presentation finds the windows of every
    wall it walks in the memo: it never calls check_wall_sequence and
    returns the same graphs.  A wall longer than WINDOW takes more than one
    window, so a memo key of the wrong length would miss on it."""
    pres = load_named("c1")
    words = [(0, 5), (0, 1, 4), (0, 1, 4, 3, 3, 1, 1)]
    cold = [build_quotient(pres, word).to_json() for word in words]

    def unexpected_check(*_args):
        raise AssertionError("check_wall_sequence called on a warm memo")

    monkeypatch.setattr("a2cent.strips.check_wall_sequence", unexpected_check)
    assert [build_quotient(pres, word).to_json() for word in words] == cold


def test_window_memo_holds_straight_windows_only():
    """After every c1 wall necklace through length 7, the memo keys are
    straight words of 2 to WINDOW + 1 letters, of which c1 has 588."""
    pres = load_named("c1")
    for wall in walls_through(pres, 7):
        enumerate_periodic_strips(pres, wall)
    straight = [(x,) for x in range(pres.generator_count)]
    windows = set()
    for _ in range(WINDOW):
        straight = [w + (x,) for w in straight for x in range(pres.generator_count)
                    if (w[-1], x) not in pres.bent_pairs]
        windows.update(straight)
    assert len(windows) == 588
    assert set(pres._windows) <= windows


# wall_word, the opposite wall's least rotation, the median label and
# flip_shifts scan one period, not all n phases, so a high power h^k no
# longer costs k^2 scans: each equals its full scan in tests/strip_oracle.py.

def check_one_period_scans(presentation, walls):
    """At every rotation of every wall, wall_word equals its full scan; at
    every strip of the wall, so do flip_shifts and the least rotation of the
    opposite wall over one strip period.  Returns the numbers of strips and
    of flip strips checked."""
    strips_seen = flips_seen = 0
    for wall in walls:
        for r in range(len(wall)):
            rotated = wall[r:] + wall[:r]
            assert wall_word(presentation, rotated) == full_scan_wall_word(presentation, rotated)
        for s in strip_rows(presentation, wall):
            pe, b = minimal_period(s), columns(s)[3]
            assert flip_shifts(s, pe) == full_scan_flip_shifts(s), wall
            canon, r, p = least_rotation(b[:pe])
            assert (canon * (len(s) // pe), r, p) == full_scan_least_rotation(b), wall
            strips_seen += 1
            flips_seen += bool(flip_shifts(s, pe))
    return strips_seen, flips_seen


@pytest.mark.parametrize("pres", [C1, relabelled_c1(20111), OTHER_Q2],
                         ids=["c1", "relabelled_c1", "other_q2"])
def test_one_period_scans_through_length_6(pres):
    strips_seen, flips_seen = check_one_period_scans(pres, walls_through(pres, 6))
    assert strips_seen > 1000 and flips_seen > 10


def test_one_period_scans_on_powers_of_the_fixtures():
    powers = [h * k for h in ((0, 5), (0, 1, 4)) for k in range(1, 41)]
    assert check_one_period_scans(C1, powers) == (240, 40)


def check_strip_facts(presentation, walls):
    """At every rotation of every wall: the strips come sorted by rows, each
    wall-stabilizer class has period // wall_period members sharing one edge
    key, and each flip strip has an odd period p and least flip shift
    (p - 1) // 2.  Returns the numbers of walls, strips and flip strips
    checked."""
    walls_seen = strips_seen = flips_seen = 0
    for wall in walls:
        for r in range(len(wall)):
            rotated = wall[r:] + wall[:r]
            strips = strip_rows(presentation, rotated)
            walls_seen += 1
            strips_seen += len(strips)
            assert strips == sorted(strips), rotated
            wall_period = minimal_period(rotated)
            for cls in group_by_wall_shifts(strips, wall_period):
                assert len(cls) == minimal_period(cls[0]) // wall_period, rotated
                assert len({canonical_edge_key(s) for s in cls}) == 1, rotated
            for s in strips:
                pe = minimal_period(s)
                ds = flip_shifts(s, pe)
                if ds:
                    flips_seen += 1
                    assert pe % 2 == 1 and ds[0] == (pe - 1) // 2, rotated
    return walls_seen, strips_seen, flips_seen


def test_strip_facts_through_length_6():
    assert check_strip_facts(C1, walls_through(C1, 6)) \
        == (5678, 6126, 76)


def test_strip_facts_on_relabelled_c1():
    pres = relabelled_c1(20111)
    assert check_strip_facts(pres, walls_through(pres, 6)) \
        == (5678, 6126, 76)


def check_anchored_readings(presentation, walls):
    """For every strip S at every canonical wall W, with B the canonical
    rotation of S's opposite wall: the reference readings of S (the rows of
    every shift of S, and of its swap, that reads off a canonical wall) are
    the strips enumerated at W and at B whose edge key is S's, each listed
    once; the start pairs that the quotient BFS registers when it keeps S
    are the first lower triangles of those readings, in order, and each
    names exactly that one strip among those enumerated at its wall (W for
    the shifts, B for the swaps); and S has a flip shift only if B is W.
    Returns the numbers of strips checked and of those with both walls on
    one necklace."""
    enumerated = {}

    def strips_at(wall):
        if wall not in enumerated:
            enumerated[wall] = strip_rows(presentation, wall)
        return enumerated[wall]

    checked = one_necklace = 0
    for wall in walls:
        for s in strips_at(wall):
            pe = minimal_period(s)
            canon_b, dd, p_b = least_rotation(columns(s)[3])
            flips = flip_shifts(s, pe)
            assert not flips or canon_b == wall, (wall, s)
            args = (minimal_period(wall),) if flips else (minimal_period(wall), (dd, p_b))
            reference = row_anchored_readings(s, *args)
            key = canonical_edge_key(s)
            orbit = {t for w in {wall, canon_b} for t in strips_at(w)
                     if canonical_edge_key(t) == key}
            assert len(reference) == len(set(reference)), (wall, s)
            assert set(reference) == orbit, (wall, s)
            own, opposite = anchored_readings(s, pe, *args)
            assert len(own) + len(opposite) == len(reference), (wall, s)
            ats = [wall] * len(own) + [canon_b] * len(opposite)
            for pair, reading, at in zip(own + opposite, reference, ats):
                assert pair == reading[0][1:3], (wall, s)
                named = [t for t in strips_at(at) if t[0][1:3] == pair]
                assert named == [reading], (wall, s, pair)
            checked += 1
            one_necklace += canon_b == wall
    return checked, one_necklace


@pytest.mark.parametrize("pres, expected", [
    (C1, (1120, 22)),
    (relabelled_c1(20111), (1120, 22)),
    (OTHER_Q2, (1127, 22)),
], ids=["c1", "relabelled_c1", "other_q2"])
def test_anchored_readings_are_the_enumerated_orbit(pres, expected):
    walls = walls_through(pres, 6)
    assert check_anchored_readings(pres, walls) == expected
