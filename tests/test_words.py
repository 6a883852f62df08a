import pytest
from hypothesis import given
from hypothesis import strategies as st

from a2cent.words import FormalWord

letters = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6), st.sampled_from([1, -1])),
    max_size=12)


def word_of(pairs):
    w = FormalWord()
    for g, e in pairs:
        w = w * FormalWord.generator(g, e)
    return w


def test_free_reduction_on_multiply():
    w = FormalWord.generator(3, -1) * FormalWord.generator(3, 1)
    assert w == FormalWord.identity()
    w = FormalWord.from_indices([0, 5]) * FormalWord.generator(5, -1)
    assert w.letters == ((0, 1),)


def test_constructor_rejects_unreduced():
    with pytest.raises(ValueError):
        FormalWord(((2, 1), (2, -1)))
    with pytest.raises(ValueError):
        FormalWord(((2, 3),))


def test_spell_rejects_an_unreduced_part():
    """spell reduces only the seams between its parts, and validates the
    product: a part that is not reduced, or has a bad exponent, raises."""
    with pytest.raises(ValueError, match="not freely reduced"):
        FormalWord.spell([((2, 1),), ((3, 1), (3, -1))])
    with pytest.raises(ValueError, match="not freely reduced"):
        FormalWord.spell([((4, -1), (4, 1))])
    with pytest.raises(ValueError, match="exponent must be"):
        FormalWord.spell([((2, 1),), ((3, 2),)])
    assert FormalWord.spell([((2, 1), (3, 1)), ((3, -1), (5, 1))]).letters == ((2, 1), (5, 1))


def test_str():
    w = FormalWord.generator(6, -1) * FormalWord.generator(2) * FormalWord.generator(6)
    assert str(w) == "x6^-1 x2 x6"
    assert str(FormalWord()) == "1"


def test_letters_are_shared():
    """generator, from_indices and inverse take their letters from one
    table per process, so equal letters are one object."""
    inverse = FormalWord.from_indices([3]).inverse()
    assert FormalWord.generator(3, -1).letters[0] is inverse.letters[0]
    assert FormalWord.generator(3).letters[0] is FormalWord.from_indices([3]).letters[0]
    assert FormalWord.generator(3).letters[0] is FormalWord.generator(3, -1).inverse().letters[0]
    with pytest.raises(ValueError, match="exponent must be"):
        FormalWord.generator(3, 2)


def test_from_indices_enters_new_letters():
    """from_indices at generator indices no shared letter has been made for
    enters them in the tables first."""
    w = FormalWord.from_indices([2000, 2001])
    assert w.letters == ((2000, 1), (2001, 1))
    assert w.letters[1] is FormalWord.generator(2001).letters[0]


def test_inverse_of_letters_made_elsewhere():
    """A word built from its own letter tuples, at generator indices no
    shared letter has been made for, still inverts."""
    w = FormalWord(((1000, 1), (1001, -1)))
    assert w.inverse().letters == ((1001, 1), (1000, -1))
    assert w.inverse().letters[1] is FormalWord.generator(1000, -1).letters[0]


def test_conjugate():
    h = FormalWord.generator(2).conjugate_by(FormalWord.generator(6, -1))
    assert h.letters == ((6, -1), (2, 1), (6, 1))


@given(letters, letters, letters)
def test_associativity(p1, p2, p3):
    a, b, c = word_of(p1), word_of(p2), word_of(p3)
    assert (a * b) * c == a * (b * c)


@given(letters)
def test_inverse_cancels(pairs):
    w = word_of(pairs)
    assert w * w.inverse() == FormalWord.identity()
    assert w.inverse().inverse() == w


def reference_product(left, right):
    """Letter tuple of left * right by the letter-by-letter stack reduction."""
    out = list(left)
    for letter in right:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


few_letters = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from([1, -1])),
    max_size=12)


@given(few_letters, few_letters, st.integers(min_value=0, max_value=14))
def test_product_equals_stack_reduction(p1, p2, k):
    """right starts with the inverse of the last k letters of left, so the
    seam cancels fully, partially or not at all."""
    left = FormalWord(reference_product((), p1))
    cancelled = FormalWord(left.letters[len(left) - min(k, len(left)):]).inverse()
    right = FormalWord(reference_product(cancelled.letters, p2))
    for a, b in ((left, right), (right, left), (left, left.inverse()), (left, cancelled)):
        assert (a * b).letters == reference_product(a.letters, b.letters)


def fold(factors):
    """The left fold of ``*`` over the factors."""
    w = FormalWord()
    for factor in factors:
        w = w * factor
    return w


@given(st.lists(few_letters, max_size=5), st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=14))
def test_n_ary_product_equals_fold(parts, at, k):
    """FormalWord.product equals the left fold of * and the stack reduction,
    also with a middle factor that cancels completely: at position ``at`` the
    inverse of the last k letters of the product so far is inserted, and the
    original factors stay around it."""
    factors = [FormalWord(reference_product((), p)) for p in parts]
    at = min(at, len(factors))
    so_far = fold(factors[:at])
    cancelling = FormalWord(so_far.letters[len(so_far) - min(k, len(so_far)):]).inverse()
    for case in (factors, factors[:at] + [cancelling] + factors[at:],
                 factors[:at] + [cancelling, cancelling.inverse()] + factors[at:]):
        expected = ()
        for factor in case:
            expected = reference_product(expected, factor.letters)
        assert FormalWord.product(case).letters == expected
        assert FormalWord.product(case) == fold(case)


def test_n_ary_product_of_nothing_is_the_identity():
    assert FormalWord.product(()) == FormalWord.identity()
    assert FormalWord.product(iter([FormalWord.generator(1)])).letters == ((1, 1),)
