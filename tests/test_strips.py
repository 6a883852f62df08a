import pytest
from hypothesis import given
from hypothesis import strategies as st

from a2cent.errors import InvariantError
from a2cent.presentation import load_named
from a2cent.strips import (Strip, canonical_edge_key, enumerate_periodic_strips,
                           flip_shifts, group_by_wall_shifts, median_order,
                           oracle_enumerate, shift, swap, validate_strip)
from a2cent.walls import minimal_period, wall_necklaces

C1 = load_named("c1")

WALL_WORDS_3 = [w for n in (1, 2, 3) for w in wall_necklaces(C1, n)]

ALL_STRIPS = [s for w in WALL_WORDS_3 for s in enumerate_periodic_strips(C1, w)]

# Figure fixture: the three strips along the (0,5) wall, all 30 labels.
FIG3_STRIPS = [
    Strip(a=(0, 5), s=(0, 1), t=(6, 3), b=(2, 2), u=(3, 6)),
    Strip(a=(0, 5), s=(2, 4), t=(3, 1), b=(6, 6), u=(1, 3)),
    Strip(a=(0, 5), s=(6, 2), t=(0, 4), b=(3, 3), u=(4, 0)),
]


def test_fig3_fixture_strips_are_valid():
    for s in FIG3_STRIPS:
        validate_strip(C1, s)


def test_enumerate_at_05_matches_figure():
    assert enumerate_periodic_strips(C1, (0, 5)) == FIG3_STRIPS


def test_enumerate_at_constant_wall():
    strips = enumerate_periodic_strips(C1, (6, 6))
    assert strips[0] == Strip((6, 6), (0, 0), (0, 0), (6, 6), (0, 0))
    assert len(strips) == 3
    classes = group_by_wall_shifts(strips, wall_period=1)
    assert sorted(len(c) for c in classes) == [1, 2]


def test_triangle_readings():
    s = FIG3_STRIPS[0]
    assert s.lower_triangle(0) == (0, 0, 6)
    assert s.upper_triangle(0) == (0, 2, 3)
    assert s.lower_triangle(1) == (5, 1, 3)
    assert s.upper_triangle(1) == (1, 2, 6)


def test_shift_and_period():
    s = FIG3_STRIPS[0]
    assert shift(s, 2) == s
    assert shift(s, 1).a == (5, 0)
    assert s.period == 2
    const = Strip((6, 6), (0, 0), (0, 0), (6, 6), (0, 0))
    assert const.period == 1


def test_swap_example():
    s = FIG3_STRIPS[0]
    sw = swap(s)
    assert sw == Strip(a=(2, 2), s=(3, 6), t=(0, 1), b=(5, 0), u=(1, 0))
    validate_strip(C1, sw)


@pytest.mark.parametrize("s", ALL_STRIPS, ids=lambda s: str(s.a))
def test_swap_squared_is_shift_by_one(s):
    assert swap(swap(s)) == shift(s, 1)
    validate_strip(C1, swap(s))


@pytest.mark.parametrize("s", ALL_STRIPS, ids=lambda s: str(s.a))
def test_edge_key_invariant_under_shift_and_swap(s):
    key = canonical_edge_key(s)
    for r in range(s.length):
        assert canonical_edge_key(shift(s, r)) == key
    assert canonical_edge_key(swap(s)) == key


def test_flip_shifts_examples():
    const = Strip((6, 6), (0, 0), (0, 0), (6, 6), (0, 0))
    assert flip_shifts(const) == [0, 1]
    assert median_order(const) == 4
    assert flip_shifts(FIG3_STRIPS[0]) == []
    with pytest.raises(InvariantError):
        median_order(FIG3_STRIPS[0])


@pytest.mark.parametrize("s", [s for s in ALL_STRIPS if flip_shifts(s)],
                         ids=lambda s: str(s.a))
def test_median_divisibility(s):
    d = flip_shifts(s)[0]
    assert (2 * s.length) % (2 * d + 1) == 0
    assert median_order(s) == 2 * s.length // (2 * d + 1)


@pytest.mark.parametrize(
    "wall",
    WALL_WORDS_3 + wall_necklaces(C1, 4)
    + [pytest.param(w, marks=pytest.mark.slow) for w in wall_necklaces(C1, 5)],
    ids=str)
def test_dfs_equals_oracle(wall):
    assert sorted(enumerate_periodic_strips(C1, wall), key=lambda s: s.rows()) \
        == sorted(oracle_enumerate(C1, wall), key=lambda s: s.rows())


@pytest.mark.parametrize("wall", WALL_WORDS_3, ids=str)
def test_valency_bound(wall):
    assert len(enumerate_periodic_strips(C1, wall)) <= C1.thickness_q + 1


def test_enumeration_rotation_equivariant():
    for wall in [(0, 5), (0, 1, 4)]:
        n = len(wall)
        base = enumerate_periodic_strips(C1, wall)
        for r in range(1, n):
            rotated = enumerate_periodic_strips(C1, wall[r:] + wall[:r])
            assert sorted(s.rows() for s in rotated) == \
                sorted(shift(s, r).rows() for s in base)


def test_strip_periods_refine_wall_periods():
    for s in ALL_STRIPS:
        assert s.period % minimal_period(s.a) == 0
        assert s.period % minimal_period(s.b) == 0


def test_validate_rejects_broken_seam():
    s = FIG3_STRIPS[0]
    broken = Strip(s.a, s.s, (s.t[1], s.t[0]), s.b, s.u)
    with pytest.raises(InvariantError):
        validate_strip(C1, broken)


def test_validate_rejects_degenerate_fold():
    # upper triangle mirroring the lower folds w back onto the base wall
    folded = Strip((6, 6), (0, 0), (0, 0), (0, 0), (6, 6))
    with pytest.raises(InvariantError):
        validate_strip(C1, folded)


def test_oracle_guard():
    with pytest.raises(ValueError):
        oracle_enumerate(C1, (6,) * 7)


def test_constructor_rejects_unequal_lengths():
    with pytest.raises(InvariantError, match="sequence lengths differ"):
        Strip((0, 5), (0, 1), (6, 3), (2, 2), (3,))


def test_columns_round_trip():
    s = FIG3_STRIPS[0]
    assert s.rows() == ((0, 0, 6, 2, 3), (5, 1, 3, 2, 6))
    assert Strip.from_rows(s.rows()) == s
    assert Strip(s.a, s.s, s.t, s.b, s.u) == s
    assert s.to_json() == {"a": [0, 5], "s": [0, 1], "t": [6, 3], "b": [2, 2], "u": [3, 6]}
    assert repr(s) == "Strip(a=(0, 5), s=(0, 1), t=(6, 3), b=(2, 2), u=(3, 6))"
    assert len({s, Strip.from_rows(s.rows())}) == 1


@given(st.sampled_from(ALL_STRIPS), st.integers(min_value=0, max_value=11),
       st.integers(min_value=0, max_value=11))
def test_shift_is_an_action(s, r1, r2):
    assert shift(shift(s, r1), r2) == shift(s, r1 + r2)


@given(st.sampled_from(ALL_STRIPS), st.integers(min_value=0, max_value=11))
def test_swap_commutes_with_shift(s, r):
    assert swap(shift(s, r)) == shift(swap(s), r)


# Reference: shift, swap and edge keys on the five label sequences, as the
# strip was stored before it became a tuple of rows.

def ref_columns(strip):
    return (strip.a, strip.s, strip.t, strip.b, strip.u)


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
    return st.tuples(*[labels] * 5).map(lambda cols: Strip(*cols))


# valid strips of c1, plus arbitrary labels: the row algebra needs neither
# the relators nor a wall
STRIPS = st.one_of(
    st.sampled_from(ALL_STRIPS),
    st.integers(min_value=1, max_value=6).flatmap(any_strip))


@given(STRIPS, st.integers(min_value=-13, max_value=13))
def test_shift_equals_column_reference(s, r):
    assert ref_columns(shift(s, r)) == ref_shift(ref_columns(s), r)


@given(STRIPS)
def test_swap_equals_column_reference(s):
    assert ref_columns(swap(s)) == ref_swap(ref_columns(s))


@given(STRIPS)
def test_edge_key_equals_column_reference(s):
    assert canonical_edge_key(s) == ref_edge_key(ref_columns(s))


@given(STRIPS)
def test_flip_shifts_and_period_equal_column_reference(s):
    cols = ref_columns(s)
    n = len(cols[0])
    assert flip_shifts(s) == [d for d in range(n) if ref_shift(ref_swap(cols), d) == cols]
    assert s.period == min(p for p in range(1, n + 1)
                           if n % p == 0 and ref_shift(cols, p) == cols)
