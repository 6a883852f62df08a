"""Freely reduced words in the generators and their inverses.

Words are witnesses only: no relator rewriting is ever applied, so two words
representing the same group element need not compare equal.
"""

from __future__ import annotations

from .frozen import Frozen

# The process's one tuple per letter: generator index -> (index, +1) and
# -> (index, -1).  Indices are entered on first use, not per call, so the
# words spelled from these tables share at most 2m letter objects however
# long they grow.
POSITIVE: dict[int, tuple[int, int]] = {}
NEGATIVE: dict[int, tuple[int, int]] = {}


def share_letters(gens) -> None:
    """Enter the letters of the generator indices ``gens`` in the tables."""
    for g in gens:
        if g not in POSITIVE:
            POSITIVE[g], NEGATIVE[g] = (g, 1), (g, -1)


def inverse_letters(letters: tuple) -> tuple:
    """The letters of the inverse word, from the shared tables."""
    try:
        return tuple([NEGATIVE[g] if e == 1 else POSITIVE[g] for g, e in reversed(letters)])
    except KeyError:  # a word made with generator indices not yet entered
        share_letters([g for g, _e in letters])
        return inverse_letters(letters)


class FormalWord(Frozen):
    """A freely reduced word; letters are (generator index, exponent in {+1,-1})."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[tuple[int, int], ...] = ()):
        for gen, exp in letters:
            if exp not in (1, -1):
                raise ValueError(f"exponent must be +-1, got {exp}")
        for (g1, e1), (g2, e2) in zip(letters, letters[1:]):
            if g1 == g2 and e1 == -e2:
                raise ValueError("word is not freely reduced")
        object.__setattr__(self, "letters", letters)

    def _key(self):
        return (self.letters,)

    @staticmethod
    def identity() -> "FormalWord":
        return _IDENTITY

    @staticmethod
    def from_indices(indices) -> "FormalWord":
        """Positive word x_{i0} x_{i1} ... (no reduction needed)."""
        indices = tuple(indices)
        share_letters(indices)
        return FormalWord(tuple([POSITIVE[i] for i in indices]))

    @staticmethod
    def generator(i: int, exp: int = 1) -> "FormalWord":
        share_letters((i,))
        # a bad exponent keeps a letter of its own, for the constructor to reject
        letter = POSITIVE[i] if exp == 1 else NEGATIVE[i] if exp == -1 else (i, exp)
        return FormalWord((letter,))

    @staticmethod
    def product(factors) -> "FormalWord":
        """The reduced product of reduced words, validated once."""
        return FormalWord.spell([factor.letters for factor in factors])

    @staticmethod
    def spell(parts) -> "FormalWord":
        """The reduced product of reduced letter tuples, validated once.

        Each part cancels against the end of the product so far until a
        seam pair does not cancel; a part may cancel completely.
        """
        out = []
        for right in parts:
            c, most = 0, len(right)
            while c < most and out and out[-1][0] == right[c][0] and out[-1][1] == -right[c][1]:
                out.pop()
                c += 1
            out.extend(right[c:])
        return FormalWord(tuple(out))

    def __mul__(self, other: "FormalWord") -> "FormalWord":
        return FormalWord.product((self, other))

    def inverse(self) -> "FormalWord":
        """The inverse word, not validated again: the inverse of a reduced
        word is reduced."""
        word = object.__new__(FormalWord)
        object.__setattr__(word, "letters", inverse_letters(self.letters))
        return word

    def conjugate_by(self, c: "FormalWord") -> "FormalWord":
        """c * self * c^-1."""
        return FormalWord.product((c, self, c.inverse()))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        for g, e in self.letters:
            parts.append(f"x{g}" if e == 1 else f"x{g}^-1")
        return " ".join(parts)


_IDENTITY = FormalWord()
