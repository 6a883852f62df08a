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

The strips along a wall are found by one walk that starts from the row
chains over the wall's first window and extends them WINDOW wall letters
at a time; each presentation memoizes the row chains over a window of
letters, built from ``presentation.starting`` alone, and a wall that
passes the wall check has all its missing windows built before its walk
starts, so the walk itself only looks them up.  A row's
upper choices (b, u) are ``starting[s]`` but the fold b == t ((s, t) heads
one rotation, (s, t, a), so b == t forces u == a), and its next lower
triangle (a', s', u) is the rotation (u, a', s'), which the pair (u, a')
heads at most once, so ``starting[a']`` gives at most one s' for u.  So
every row of a closed walk is two relator rotations that do not fold, every
seam closes, and the base wall is checked or straight by the memo.  The
opposite wall b is straight too, so the walk checks nothing more: at
w_{k+1} the upper triangles k, k+1 and the lower triangle k+1 make a path
of length 3 in the vertex link that the fold rule and the straight base
wall keep from backtracking, and a bent pair (b_k, b_{k+1}) would close it
into a 4-cycle, which the link of a building, of girth 6, does not have
(``presentation.load`` rejects every other link).
"""

from __future__ import annotations

from .errors import AmbiguousStrip
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
    a, s, t, b, u = map(list, zip(*rows)) if rows else ([], [], [], [], [])
    return {"a": a, "s": s, "t": t, "b": b, "u": u}


WINDOW = 3  # wall letters per step of the strip walk


def enumerate_periodic_strips(presentation: TrianglePresentation, wall) -> list[tuple]:
    """All n-periodic strips adjacent to the wall with the given labels, as
    (rows, start) pairs, where start is the strip's start pair (s_0, t_0),
    ``rows[0][1:3]``.

    ``wall`` is the phase-aligned label sequence (length n = |g| in edges).
    One walk along the wall carries every partial strip, starting from each
    of the q+1 initial lower triangles (a_0, s_0, t_0).  At position k a
    partial strip ending in lower triangle (a_k, s_k, t_k) extends by each
    non-folding upper choice (b_k, u_k); the next lower triangle
    (a_{k+1}, s_{k+1}, u_k) is forced across the seam, and the extension
    dies when it does not exist.  A step advances WINDOW letters: the wall
    letters a_k .. a_{k+WINDOW} (fewer at the end) key the extensions of
    each (s_k, t_k) over them, chained from ``presentation.starting`` the
    first time the window is met and kept in the presentation's memo, so a
    step is one lookup per partial strip.  The memo holds only windows of
    walls that passed ``check_wall_sequence``, and a wall's windows cover
    all its cyclic pairs, so a nonempty wall whose windows are all in the
    memo is straight and in range: the wall is checked only when a window
    is missing, with the same errors, and then every missing window is
    built, all before the walk.  The walks start as the row chains of the
    first window from each initial pair, in the order of
    ``presentation.starting[a_0]``.  After n letters a strip closes when
    its next lower triangle is its initial one.  Each initial triangle
    closes at most one strip (asserted at every start; AmbiguousStrip
    otherwise), so the start pairs are distinct and each names one strip
    at the wall.  Strips come in the order of their initial triangles.
    """
    a = tuple(wall)
    ring = a + a[:1]
    windows = presentation._windows
    chain = [windows.get(ring[k:k + WINDOW + 1]) for k in range(0, len(a), WINDOW)]
    if not a or None in chain:
        check_wall_sequence(presentation, a)
        chain = [_window_steps(presentation, ring[k:k + WINDOW + 1])
                 for k in range(0, len(a), WINDOW)]
    # (rows, (s_k, t_k)): every walk starts as a row chain of the first window
    walks = [walk for start in presentation.starting[a[0]] for walk in chain[0][start]]
    for steps in chain[1:]:
        if not walks:
            return []
        walks = [(rows + more, st) for rows, start in walks for more, st in steps[start]]
    # a closed walk ends in its start pair, so its st is its start
    closed = [(rows, st) for rows, st in walks if rows[0][1:3] == st]
    starts = [st for _rows, st in closed]
    for start in starts:
        if starts.count(start) > 1:
            raise AmbiguousStrip((a[0], *start))
    return closed


def _window_steps(presentation, window):
    """The memo entry of the window, built and kept on its first use: for
    each (s, t) with (window[0], s, t) a rotation, the (rows, (s', u)) of
    each row chain over the window's letters, its upper choices in the
    order of ``starting``; ``afters[k][u]`` is the s' of the next lower
    triangle (window[k + 1], s', u)."""
    steps = presentation._windows.get(window)
    if steps is not None:
        return steps
    starting = presentation.starting
    afters = [{u: s_next for s_next, u in starting[a_next]} for a_next in window[1:]]
    steps = {}
    for start in starting[window[0]]:
        walks = [((), start)]
        for ak, after in zip(window, afters):
            walks = [(rows + ((ak, sk, tk, b, u),), (after[u], u)) for rows, (sk, tk) in walks
                     for b, u in starting[sk] if b != tk and u in after]
        steps[start] = tuple(walks)
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
