"""Periodic strips adjacent to an axial wall.

A strip between parallel walls is described at one g-period by five cyclic
label sequences, all indexed k = 0..n-1:

    a : base-wall edges      v_k   -> v_{k+1}
    s : diagonal edges       v_{k+1} -> w_k
    t : diagonal edges       w_k   -> v_k
    b : opposite-wall edges  w_k   -> w_{k+1}
    u : diagonal edges       w_{k+1} -> v_{k+1}

Lower triangle {v_k, v_{k+1}, w_k} reads (a_k, s_k, t_k); upper triangle
{v_{k+1}, w_k, w_{k+1}} reads (s_k, b_k, u_k); the shared seam edge forces
t_{k+1} = u_k.  Strips are the edges of the tree of axial walls; a strip
that coincides with a shift of its own wall-swapped reading supports a glide
reflection, so its tree edge is inverted and acquires a median vertex.

A strip is the tuple of its n rows (a_k, s_k, t_k, b_k, u_k); the five
sequences are its columns.  The functions below take the rows and the
strip's minimal period, which their callers already hold.  A shift is a
rotation of the rows.  A wall closes at most one strip per start pair
(s_0, t_0), so ``anchored_readings`` names by their start pairs the
shifts of a strip and of its swap (the strip read from the opposite wall)
that read off a canonical wall.

In a building each step of the walk is a permutation of the q+1 start
pairs.  The vertex link is a projective plane (``presentation.load``
checks it), in which line i holds point j iff (i, j) heads a rotation, and
the start pairs (s_k, t_k) of a_k name the points s_k of line a_k, one
each.  Along a straight wall (a_k, a_{k+1}) heads none, so line a_k
misses point a_{k+1}, and s -> u, with u_k the one common line of s_k and
a_{k+1}, maps the points of line a_k onto the lines through a_{k+1}: each
of those meets line a_k in one point.  A row's upper choices (b, u) are
``starting[s_k]``, whose lines u are the lines through s_k, so u_k is the
one choice whose line holds a_{k+1}, and (u_k, s_k, b_k) fixes the upper
triangle; the fold, u = a_k, is not that choice, as line a_k misses
a_{k+1}.  And u -> s' is one-to-one: (u_k, a_{k+1}) heads one rotation,
(u_k, a_{k+1}, s_{k+1}), which fixes the next lower triangle (a_{k+1},
s_{k+1}, u_k) and its start pair (s_{k+1}, u_k), and ``starting[a_{k+1}]``
holds it.  So the path from a start pair (s_0, t_0) never dies and never
branches, and the strips at a wall of length n are the start pairs that
their paths bring back after n letters.

The walk follows each path WINDOW wall letters at a time; each
presentation memoizes the one row chain of each start pair over a window
of letters, built from ``presentation.starting`` alone, and a wall that
passes the wall check has all its missing windows built before its walk
starts, so the walk itself only looks them up.  Every row it chains is
two relator rotations that do not fold, every seam closes, and the base
wall is checked or straight by the memo.  The opposite wall b is straight
too, so the walk checks nothing more: at w_{k+1} the upper triangles k,
k+1 and the lower triangle k+1 make a path of length 3 in the vertex link
that the fold rule and the straight base wall keep from backtracking, and
a bent pair (b_k, b_{k+1}) would close it into a 4-cycle, which the link
of a building, of girth 6, does not have.
"""

from __future__ import annotations

from .presentation import TrianglePresentation
from .walls import check_wall_sequence


def swapped_rows(rows: tuple) -> tuple:
    """The rows of the strip's swap: the strip read from the opposite wall,
    in the same orientation, (b_k, u_k, s_k, a_{k+1}, s_{k+1}).  Swapping
    twice shifts by 1."""
    return tuple([(b, u, s, a_next, s_next)
                  for (_a, s, _t, b, u), (a_next, s_next, _tn, _bn, _un)
                  in zip(rows, rows[1:] + rows[:1])])


def strip_json(rows: tuple) -> dict:
    """The strip's five label sequences, as lists keyed by their names."""
    a, s, t, b, u = map(list, zip(*rows))
    return {"a": a, "s": s, "t": t, "b": b, "u": u}


WINDOW = 3  # wall letters per step of the strip walk


def enumerate_periodic_strips(presentation: TrianglePresentation, wall) -> list[tuple]:
    """All n-periodic strips adjacent to the wall with the given labels, as
    (rows, start) pairs, where start is the strip's start pair (s_0, t_0),
    ``rows[0][1:3]``.

    ``wall`` is the phase-aligned label sequence (length n = |g| in edges).
    A lower triangle on a straight wall continues in one way (module
    docstring), so the walk from each initial lower triangle
    (a_0, s_0, t_0) is one path.  A step advances WINDOW letters: the wall
    letters a_k .. a_{k+WINDOW} (fewer at the end) key the one row chain of
    each (s_k, t_k) over them and the pair it ends in, chained from
    ``presentation.starting`` the first time the window is met and kept in
    the presentation's memo, so a step is one lookup.  The memo holds only
    windows of walls that passed ``check_wall_sequence``, and a wall's
    windows cover all its cyclic pairs, so a nonempty wall whose windows
    are all in the memo is straight and in range: the wall is checked only
    when a window is missing, with the same errors, and then every missing
    window is built, all before the walk.  The paths start from the pairs
    of ``presentation.starting[a_0]``, in that order, and a path that ends
    in its start pair after n letters closes a strip, whose rows are then
    read off the windows once.  So the start pairs are distinct and each
    names one strip at the wall.
    """
    a = tuple(wall)
    ring = a + a[:1]
    windows = presentation._windows
    chain = [windows.get(ring[k:k + WINDOW + 1]) for k in range(0, len(a), WINDOW)]
    if not a or None in chain:
        check_wall_sequence(presentation, a)
        chain = [_window_steps(presentation, ring[k:k + WINDOW + 1])
                 for k in range(0, len(a), WINDOW)]
    closed = []
    for start in presentation.starting[a[0]]:
        end = start
        for steps in chain:
            end = steps[end][1]
        if end == start:
            rows = []
            for steps in chain:
                more, end = steps[end]
                rows += more
            closed.append((tuple(rows), start))
    return closed


def _window_steps(presentation, window):
    """The memo entry of the window, built and kept on its first use: for
    each (s, t) with (window[0], s, t) a rotation, the (rows, (s', u)) of
    its one row chain over the window's letters; ``afters[k][u]`` is the s'
    of the next lower triangle (window[k + 1], s', u), and of the upper
    choices (b, u) in ``starting[s]`` exactly one has its u there (module
    docstring)."""
    steps = presentation._windows.get(window)
    if steps is not None:
        return steps
    starting = presentation.starting
    afters = [{u: s_next for s_next, u in starting[a_next]} for a_next in window[1:]]
    steps = {}
    for start in starting[window[0]]:
        rows, (sk, tk) = (), start
        for ak, after in zip(window, afters):
            b, u = next((b, u) for b, u in starting[sk] if u in after)
            rows += ((ak, sk, tk, b, u),)
            sk, tk = after[u], u
        steps[start] = (rows, (sk, tk))
    presentation._windows[window] = steps
    return steps


def anchored_readings(rows: tuple, period: int, wall_period: int,
                      swap: tuple[int, int] | None = None) -> tuple[list, list]:
    """The start pairs (s_0, t_0) of every shift of the strip, and of its
    swap, that reads off a canonical wall, in two lists: its edge orbit as
    enumerated at its own wall and at the opposite one.  A wall closes at
    most one strip per start pair, so a pair names one strip at its wall.

    ``period`` is the strip's minimal period.  The shift by r reads off a
    canonical wall of period ``wall_period`` iff r is a multiple of it, and
    starts (s_r, t_r).  With ``swap = (dd, p_b)`` from ``(canon_b, dd, p_b)
    = least_rotation(b)``, the swap shifted by r reads off canon_b iff r is
    dd plus a multiple of p_b, and starts (u_r, s_r), as its row 0 is
    (b_r, u_r, s_r, a_{r+1}, s_{r+1}).  With ``swap`` None the second list
    is empty: the first is the wall-stabilizer class, and a glide strip's
    swap is one of its shifts.  Shifts run over one strip period, so the
    pairs in a list are distinct.
    """
    own = [row[1:3] for row in rows[:period:wall_period]]
    if swap is None:
        return own, []
    dd, p_b = swap
    return own, [(row[4], row[1]) for row in rows[dd:period:p_b]]


def flip_shifts(rows: tuple, period: int) -> list[int]:
    """All d in [0, n) such that the swapped rows rotated by d are the
    rows, for a strip of minimal period ``period``.

    Nonempty iff the strip carries a glide reflection exchanging its two
    walls; the least d gives glide translation d + 1/2 base edges, and the
    median vertex group has order 2n/(2d+1).  A flip at d reads row k as
    row k+d of the swap, so t_k = s_{k+d} and u_k = s_{k+d+1}: the seams
    t_{k+1} = u_k close, and swapping twice shifts by 1.  Swapping both
    sides of "the swap shifted by d is the rows" gives the rows shifted by
    d+1 equal to the swap, the rows shifted by -d, so the period divides
    2d+1; two flips differ by a period of the swap, a rotation of the rows.
    So the flips are (period - 1)/2 plus the multiples of an odd period,
    and one comparison at d = period // 2 decides them all; for an even
    period it fails, as the period does not divide 2d+1 = period + 1.
    """
    sw = swapped_rows(rows)
    d = period // 2
    return list(range(d, len(rows), period)) if sw[d:] + sw[:d] == rows else []
