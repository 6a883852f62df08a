import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from a2cent.errors import NotAWallWord
from a2cent.walls import (Necklace, canonical_rotation, check_wall_sequence,
                          minimal_period, stabilizer_generator_word,
                          stabilizer_order, wall_necklaces, wall_word)
from a2cent.words import FormalWord

label_seqs = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=9)


@given(label_seqs)
def test_canonical_rotation_is_a_rotation_and_idempotent(seq):
    canon = canonical_rotation(seq)
    n = len(seq)
    assert canon in {tuple(seq[r:] + seq[:r]) for r in range(n)}
    assert canonical_rotation(canon) == canon


@given(label_seqs, st.integers(min_value=0, max_value=8))
def test_canonical_rotation_invariant_under_rotation(seq, r):
    r %= len(seq)
    assert canonical_rotation(seq[r:] + seq[:r]) == canonical_rotation(seq)


@given(label_seqs)
def test_minimal_period_divides_and_tiles(seq):
    p = minimal_period(seq)
    assert len(seq) % p == 0
    assert tuple(seq) == tuple(seq[:p]) * (len(seq) // p)


def test_minimal_period_examples():
    assert minimal_period((6, 6)) == 1
    assert minimal_period((0, 5)) == 2
    assert minimal_period((0, 5, 0, 5)) == 2


def test_wall_word_canonicalizes(c1):
    assert wall_word(c1, (5, 0)) == wall_word(c1, (0, 5))
    neck = wall_word(c1, (0, 5))
    assert neck.labels == (0, 5)
    assert neck.period == 2
    assert neck.display_label == "(0,5)"
    assert wall_word(c1, (6, 6)).display_label == "(6)"


def test_wall_word_rejects_bent_pairs(c1):
    with pytest.raises(NotAWallWord) as exc:
        wall_word(c1, (0, 2))
    assert exc.value.position == 0
    assert exc.value.pair == (0, 2)
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
            assert wall_word(c1, word[r:] + word[:r]).labels == canonical_rotation(word)


def test_necklace_validates_period():
    with pytest.raises(Exception):
        Necklace((0, 5), 3)
    with pytest.raises(ValueError):
        Necklace((), 1)


def test_stabilizer_order():
    assert stabilizer_order(2, 1) == 2
    assert stabilizer_order(2, 2) == 1
    assert stabilizer_order(6, 2) == 3


def test_stabilizer_generator_word():
    base = FormalWord.generator(6, -1)
    w = stabilizer_generator_word(base, (2, 2), 1)
    assert str(w) == "x6^-1 x2 x6"
    w = stabilizer_generator_word(FormalWord(), (0, 5, 0, 5), 2)
    assert str(w) == "x0 x5"
