import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from a2cent import walls
from a2cent.errors import NotAWallWord
from a2cent.walls import (canonical_rotation, check_wall_sequence, minimal_period,
                          wall_necklaces, wall_word)
from strip_oracle import full_scan_minimal_period

label_seqs = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=9)


@given(label_seqs)
def test_canonical_rotation_is_a_rotation_and_idempotent(seq):
    canon = canonical_rotation(seq)
    n = len(seq)
    assert canon in {tuple(seq[r:] + seq[:r]) for r in range(n)}
    assert canonical_rotation(canon) == canon


def least_rotation(seq):
    seq = tuple(seq)
    return min(seq[r:] + seq[:r] for r in range(len(seq)))


@given(st.one_of(
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12),
    st.lists(st.tuples(*[st.integers(min_value=0, max_value=1)] * 5), min_size=1, max_size=8),
    st.lists(st.sampled_from([(0, 0, 0, 0, 0), (0, 1, 2, 3, 4), (0, 1, 2, 3, 5)]),
             min_size=1, max_size=8)))
def test_canonical_rotation_equals_least_rotation(seq):
    """Labels with many repeats, and rows as strips store them."""
    assert canonical_rotation(seq) == least_rotation(seq)


@given(label_seqs, st.integers(min_value=0, max_value=8))
def test_canonical_rotation_invariant_under_rotation(seq, r):
    r %= len(seq)
    assert canonical_rotation(seq[r:] + seq[:r]) == canonical_rotation(seq)


@given(label_seqs)
def test_minimal_period_divides_and_tiles(seq):
    p = minimal_period(seq)
    assert len(seq) % p == 0
    assert tuple(seq) == tuple(seq[:p]) * (len(seq) // p)


@given(st.one_of(
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12),
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=12).map(lambda x: x * 2),
    st.lists(st.tuples(*[st.integers(min_value=0, max_value=1)] * 5), min_size=1, max_size=8)))
def test_least_rotation_gives_the_least_anchor(seq):
    """walls.least_rotation returns the canonical rotation, the least
    shift that reaches it and the minimal period."""
    canon, r, p = walls.least_rotation(seq)
    seq = tuple(seq)
    assert canon == least_rotation(seq)
    assert r == min(k for k in range(len(seq)) if seq[k:] + seq[:k] == canon)
    assert p == full_scan_minimal_period(seq)


@given(st.one_of(
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12),
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6)
    .flatmap(lambda x: st.integers(min_value=1, max_value=4).map(lambda k: x * k))))
def test_periods_are_the_multiples_of_the_minimal_period(seq):
    """For every p dividing the length, the sequence is invariant under the
    rotation by p iff p is a multiple of the minimal period."""
    seq = tuple(seq)
    n = len(seq)
    for p in range(1, n + 1):
        if n % p == 0:
            assert (seq[p:] + seq[:p] == seq) == (p % minimal_period(seq) == 0)


def test_minimal_period_examples():
    assert minimal_period((6, 6)) == 1
    assert minimal_period((0, 5)) == 2
    assert minimal_period((0, 5, 0, 5)) == 2
    # seq[2] == seq[0] and 2 divides 4, yet 2 is not a period
    assert minimal_period((0, 5, 0, 6)) == 4


@st.composite
def false_start_period(draw):
    """A sequence with seq[p] == seq[0] for a proper divisor p of its
    length, which is often not a period: labels, or rows as strips store
    them."""
    label = draw(st.sampled_from([st.integers(min_value=0, max_value=2),
                                  st.tuples(*[st.integers(min_value=0, max_value=1)] * 5)]))
    p = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=2, max_value=4))
    seq = draw(st.lists(label, min_size=p * k, max_size=p * k))
    seq[p] = seq[0]
    return seq


@given(st.one_of(label_seqs, false_start_period(),
                 st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12)))
def test_minimal_period_equals_full_scan(seq):
    assert minimal_period(seq) == full_scan_minimal_period(seq)


def test_minimal_period_of_an_empty_sequence():
    with pytest.raises(ValueError, match="empty sequence"):
        minimal_period(())


def test_wall_word_canonicalizes(c1):
    assert wall_word(c1, (5, 0)) == wall_word(c1, (0, 5)) == ((0, 5), 2)
    assert wall_word(c1, (6, 6)) == ((6, 6), 1)
    assert wall_word(c1, (5, 0, 5, 0)) == ((0, 5, 0, 5), 2)


def test_wall_word_rejects_bent_pairs(c1):
    with pytest.raises(NotAWallWord) as exc:
        wall_word(c1, (0, 2))
    assert exc.value.position == 0
    assert exc.value.pair == (0, 2)
    with pytest.raises(NotAWallWord) as exc:
        wall_word(c1, (5, 0, 2))
    assert (exc.value.position, exc.value.pair) == (1, (0, 2))
    with pytest.raises(NotAWallWord) as exc:
        wall_word(c1, (5, 0, 0))  # wraps: the bent pair is cyclic
    assert exc.value.pair == (0, 0)


def test_wall_word_checks_indices(c1):
    with pytest.raises(IndexError):
        wall_word(c1, (0, 9))


def test_check_wall_sequence_checks_indices_first(c1):
    # (0, 2) bends, but the out-of-range letter is reported first
    for word in [(0, 2, 9), (-1,), (7, 5)]:
        with pytest.raises(IndexError):
            check_wall_sequence(c1, word)


def brute_force_necklaces(presentation, n):
    """Reference: canonical rotations of every wall word of length n."""
    out = set()
    for word in itertools.product(range(presentation.generator_count), repeat=n):
        try:
            check_wall_sequence(presentation, word)
        except NotAWallWord:
            continue
        out.add(canonical_rotation(word))
    return sorted(out)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_wall_necklaces_equal_brute_force(c1, n):
    assert wall_necklaces(c1, n) == brute_force_necklaces(c1, n)


def test_wall_necklace_count_at_seven(c1):
    assert len(wall_necklaces(c1, 7)) == 2342


def test_wall_necklaces_rejects_empty_length(c1):
    with pytest.raises(ValueError):
        wall_necklaces(c1, 0)


def test_all_rotations_of_a_wall_word_are_wall_words(c1):
    for word in [(0, 5), (0, 1, 4), (5, 5, 6)]:
        n = len(word)
        for r in range(n):
            assert wall_word(c1, word[r:] + word[:r])[0] == canonical_rotation(word)

