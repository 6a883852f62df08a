import pytest
from hypothesis import given
from hypothesis import strategies as st

from a2cent.words import NEGATIVE, POSITIVE, FormalWord, inverse_letters, share_letters

# the letters of the generators the tests use, entered as build_quotient
# enters a presentation's generators
share_letters(range(7))

letters = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6), st.sampled_from([1, -1])),
    max_size=12)


def word_of(pairs):
    """The reduced word of a list of letters, one letter per part."""
    return FormalWord.spell([(letter,) for letter in pairs])


def test_free_reduction_on_multiply():
    w = FormalWord.spell([((3, -1),), ((3, 1),)])
    assert w == FormalWord.identity()
    w = FormalWord.spell([((0, 1), (5, 1)), ((5, -1),)])
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
    w = FormalWord(((6, -1), (2, 1), (6, 1)))
    assert str(w) == "x6^-1 x2 x6"
    assert str(FormalWord()) == "1"


def test_letters_are_shared():
    """inverse_letters takes its letters from one table per exponent, so
    equal letters are one object, whatever tuples the word was made of."""
    assert inverse_letters(((3, 1),)) == ((3, -1),)
    assert inverse_letters(((3, 1),))[0] is NEGATIVE[3]
    assert inverse_letters(((3, -1),))[0] is POSITIVE[3]
    assert inverse_letters(((1, 1), (3, -1))) == ((3, 1), (1, -1))
    assert inverse_letters(()) == ()


@given(letters, letters, letters)
def test_associativity(p1, p2, p3):
    a, b, c = word_of(p1), word_of(p2), word_of(p3)
    ab = FormalWord.spell((a.letters, b.letters))
    bc = FormalWord.spell((b.letters, c.letters))
    assert FormalWord.spell((ab.letters, c.letters)) == FormalWord.spell((a.letters, bc.letters))


@given(letters)
def test_inverse_cancels(pairs):
    w = word_of(pairs)
    inverse = inverse_letters(w.letters)
    assert FormalWord.spell((w.letters, inverse)) == FormalWord.identity()
    assert FormalWord.spell((inverse, w.letters)) == FormalWord.identity()
    assert FormalWord(inverse_letters(inverse)) == w


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
    left = reference_product((), p1)
    cancelled = inverse_letters(left[len(left) - min(k, len(left)):])
    right = reference_product(cancelled, p2)
    for a, b in ((left, right), (right, left), (left, inverse_letters(left)), (left, cancelled)):
        assert FormalWord.spell((a, b)).letters == reference_product(a, b)


def fold(parts):
    """The left fold of two-part spells over the parts."""
    w = FormalWord()
    for part in parts:
        w = FormalWord.spell((w.letters, part))
    return w


@given(st.lists(few_letters, max_size=5), st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=14))
def test_n_ary_product_equals_fold(parts, at, k):
    """spell of many parts equals the left fold of two-part spells and the
    stack reduction, also with a middle part that cancels completely: at
    position ``at`` the inverse of the last k letters of the product so far
    is inserted, and the original parts stay around it."""
    factors = [reference_product((), p) for p in parts]
    at = min(at, len(factors))
    so_far = fold(factors[:at]).letters
    cancelling = inverse_letters(so_far[len(so_far) - min(k, len(so_far)):])
    for case in (factors, factors[:at] + [cancelling] + factors[at:],
                 factors[:at] + [cancelling, inverse_letters(cancelling)] + factors[at:]):
        expected = ()
        for factor in case:
            expected = reference_product(expected, factor)
        assert FormalWord.spell(case).letters == expected
        assert FormalWord.spell(case) == fold(case)


def test_n_ary_product_of_nothing_is_the_identity():
    assert FormalWord.spell(()) == FormalWord.identity()
    assert FormalWord.spell(iter([((1, 1),)])).letters == ((1, 1),)
