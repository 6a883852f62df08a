"""Wall words, necklace canonicalization and wall stabilizer arithmetic.

An oriented wall is labelled by a cyclic positive word all of whose
consecutive pairs are straight.  Its necklace (the word up to rotation) is
the orbit invariant used as the BFS dedup key; the stabilizer of the wall in
the centralizer quotient is cyclic of order n/p where p is the minimal
period.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError, NotAWallWord
from .presentation import TrianglePresentation
from .words import FormalWord


def canonical_rotation(labels):
    """Lexicographically least rotation of the sequence (as a tuple)."""
    seq = tuple(labels)
    n = len(seq)
    return min(seq[r:] + seq[:r] for r in range(n))


def minimal_period(labels):
    seq = tuple(labels)
    n = len(seq)
    for p in range(1, n + 1):
        if n % p == 0 and seq == seq[p:] + seq[:p]:
            return p
    raise AssertionError("unreachable: n is always a period")


@dataclass(frozen=True)
class Necklace:
    """Canonical cyclic label sequence of an oriented wall, at g-length n."""

    labels: tuple[int, ...]  # the canonical rotation, length n
    period: int

    def __post_init__(self):
        if not self.labels:
            raise ValueError("necklace must be nonempty")
        if len(self.labels) % self.period != 0:
            raise InvariantError(
                f"period {self.period} does not divide length {len(self.labels)}")

    @property
    def length(self) -> int:
        return len(self.labels)

    @property
    def display_label(self) -> str:
        """One period in round brackets, e.g. "(0,5)" or "(2)"."""
        return "(" + ",".join(str(x) for x in self.labels[: self.period]) + ")"


def check_wall_sequence(presentation: TrianglePresentation, labels) -> None:
    """Raise NotAWallWord at the first cyclically consecutive bent pair.

    Every label is range-checked first (IndexError).
    """
    seq = tuple(labels)
    if not seq:
        raise ValueError("empty word")
    out_of_range = [i for i in seq if not 0 <= i < presentation.generator_count]
    if out_of_range:
        presentation._check_index(out_of_range[0])
    bent = presentation.bent_pairs
    for k, pair in enumerate(zip(seq, seq[1:] + seq[:1])):
        if pair in bent:
            raise NotAWallWord(k, pair)


def wall_necklaces(presentation: TrianglePresentation, n: int) -> list[tuple[int, ...]]:
    """Canonical rotations of all wall words of length n, sorted.

    Generates the closed walks of length n in the straight digraph (i -> j
    when the pair i, j is straight) that start at their least letter, which
    every canonical rotation does, and keeps the canonical ones.
    """
    if n < 1:
        raise ValueError(f"necklace length must be positive, got {n}")
    m = presentation.generator_count
    bent = presentation.bent_pairs
    succ = [[j for j in range(m) if (i, j) not in bent] for i in range(m)]
    out = []

    def extend(walk):
        if len(walk) == n:
            if (walk[-1], walk[0]) not in bent:
                word = tuple(walk)
                if canonical_rotation(word) == word:
                    out.append(word)
            return
        for j in succ[walk[-1]]:
            if j >= walk[0]:
                walk.append(j)
                extend(walk)
                walk.pop()

    for first in range(m):
        extend([first])
    return out


def wall_word(presentation: TrianglePresentation, word) -> Necklace:
    """Canonical Necklace of a cyclic positive wall word.

    The oriented bi-infinite path with these periodic labels is a wall, and
    an axial wall for the element the word spells, with |g| = len(word).
    """
    seq = tuple(word)
    check_wall_sequence(presentation, seq)
    return Necklace(canonical_rotation(seq), minimal_period(seq))


def stabilizer_order(n: int, p: int) -> int:
    """Order n/p of the wall stabilizer image in the centralizer quotient.

    The full stabilizer is infinite cyclic, generated by the minimal
    translation h_p; g = h_p^(n/p).
    """
    if n % p != 0:
        raise InvariantError(f"period {p} does not divide g-length {n}")
    return n // p


def stabilizer_generator_word(base: FormalWord, labels, period: int) -> FormalWord:
    """Witness for the minimal translation along the wall through ``base``.

    The wall through vertex c with phase-aligned labels a_0, a_1, ... is
    translated one period by c x_{a_0} ... x_{a_{p-1}} c^-1.
    """
    core = FormalWord.from_indices(tuple(labels)[:period])
    return core.conjugate_by(base)
