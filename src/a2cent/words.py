"""Freely reduced words in the generators and their inverses.

Words are witnesses only: no relator rewriting is ever applied, so two words
representing the same group element need not compare equal.  A word is
spelled one way, ``FormalWord.spell``, from letter tuples that cancel only
at their seams; ``inverse_letters`` gives the letters of an inverse.
"""

from __future__ import annotations

from .frozen import Frozen

# The process's one tuple per letter: generator index -> (index, +1) and
# -> (index, -1).  ``build_quotient`` enters all m generators before it
# spells a word, so the words spelled from these tables share at most 2m
# letter objects however long they grow.
POSITIVE: dict[int, tuple[int, int]] = {}
NEGATIVE: dict[int, tuple[int, int]] = {}


def share_letters(gens) -> None:
    """Enter the letters of the generator indices ``gens`` in the tables."""
    for g in gens:
        if g not in POSITIVE:
            POSITIVE[g], NEGATIVE[g] = (g, 1), (g, -1)


def inverse_letters(letters: tuple) -> tuple:
    """The letters of the inverse word, from the shared tables, which must
    hold every generator of ``letters``."""
    return tuple([NEGATIVE[g] if e == 1 else POSITIVE[g] for g, e in reversed(letters)])


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

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        for g, e in self.letters:
            parts.append(f"x{g}" if e == 1 else f"x{g}^-1")
        return " ".join(parts)


_IDENTITY = FormalWord()
