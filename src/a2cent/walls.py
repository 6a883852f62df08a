"""Wall words, necklace canonicalization and wall stabilizer arithmetic.

An oriented wall is labelled by a cyclic positive word all of whose
consecutive pairs are straight.  Its necklace (the word up to rotation) is
the orbit invariant used as the BFS dedup key; the stabilizer of the wall in
the centralizer quotient is cyclic of order n/p where p is the minimal
period.
"""

from __future__ import annotations

from .errors import NotAWallWord
from .presentation import TrianglePresentation


def canonical_rotation(labels):
    """Lexicographically least rotation of the sequence (as a tuple), from
    ``least_rotation``."""
    return least_rotation(labels)[0]


def least_rotation(labels):
    """The canonical rotation of the sequence, the least r with the sequence
    rotated by r equal to it, and the sequence's minimal period, from one
    scan of the positions of the least letter.

    Only the rotations by those positions can be least; each is read as a
    slice of the doubled sequence, in the order of r.  The rotations equal
    to the canonical one are those by r plus multiples of the period, so
    the first one after r gives the period, and the scan stops there: every
    later rotation repeats one already compared.  With none, the period is
    the length.
    """
    seq = tuple(labels)
    n = len(seq)
    first = min(seq)
    doubled = seq + seq
    r = s = seq.index(first)
    canon = doubled[r:r + n]
    for _ in range(seq.count(first) - 1):
        s = seq.index(first, s + 1)
        rotation = doubled[s:s + n]
        if rotation < canon:
            canon, r = rotation, s
        elif rotation == canon:
            return canon, r, s - r
    return canon, r, n


def minimal_period(labels):
    """The least p dividing n with the sequence invariant under rotation by
    p, from ``least_rotation``.  Raises ValueError on an empty sequence."""
    seq = tuple(labels)
    if not seq:
        raise ValueError("empty sequence has no period")
    return least_rotation(seq)[2]


def check_wall_sequence(presentation: TrianglePresentation, labels) -> None:
    """Raise NotAWallWord at the first cyclically consecutive bent pair.

    Every label is range-checked first (IndexError).
    """
    seq = tuple(labels)
    if not seq:
        raise ValueError("empty word")
    m = presentation.generator_count
    if min(seq) < 0 or max(seq) >= m:
        presentation._check_index(next(i for i in seq if not 0 <= i < m))
    pairs = tuple(zip(seq, seq[1:] + seq[:1]))
    bent = presentation.bent_pairs
    if not bent.isdisjoint(pairs):
        k = next(k for k, pair in enumerate(pairs) if pair in bent)
        raise NotAWallWord(k, pairs[k])


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
    # depth first, least successor first: a walk's extensions are pushed
    # in reverse, so the words come out sorted.  An explicit stack, as a
    # closure that calls itself is a reference cycle and would keep the
    # result alive until a collection
    stack = [(first,) for first in reversed(range(m))]
    while stack:
        walk = stack.pop()
        if len(walk) == n:
            if (walk[-1], walk[0]) not in bent and canonical_rotation(walk) == walk:
                out.append(walk)
            continue
        stack += [walk + (j,) for j in reversed(succ[walk[-1]]) if j >= walk[0]]
    return out


def wall_word(presentation: TrianglePresentation, word) -> tuple[tuple[int, ...], int]:
    """The canonical rotation of a cyclic positive wall word and its
    minimal period p, a divisor of n.

    The oriented bi-infinite path with these periodic labels is a wall, and
    an axial wall for the element the word spells, with |g| = n = len(word).
    Both come from one ``least_rotation`` scan, which stops at the first
    rotation that repeats the least one, after about one period.
    """
    seq = tuple(word)
    check_wall_sequence(presentation, seq)
    canon, _r, p = least_rotation(seq)
    return canon, p
