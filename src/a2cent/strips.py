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

In memory a strip is the tuple of its n rows (a_k, s_k, t_k, b_k, u_k),
returned by ``rows()``; the five sequences are columns read from it.  A
strip computes its period at most once.  A shift is a rotation of the rows.
A wall closes at most one strip per start pair (s_0, t_0), so
``anchored_readings`` names by their start pairs the shifts of a strip and
of its swap (the strip read from the opposite wall) that read off a
canonical wall.

Enumeration and validation read two tables that ``presentation.load``
builds once: ``transitions`` gives, for a lower triangle and the next base
label, each non-folding row together with the next lower triangle across
its seam, and ``row_pairs`` holds the valid consecutive row pairs, so a
valid strip is recognized by a set containment over its cyclic pairs.  The
strips along a wall are found by one walk that extends rows WINDOW wall
letters at a time, by one lookup in ``transitions`` chained over those
letters; each presentation memoizes the chains per window of letters.
"""

from __future__ import annotations

from .errors import AmbiguousStrip, InvariantError
from .presentation import TrianglePresentation
from .walls import check_wall_sequence, minimal_period

def _column(index, name):
    return property(lambda self: tuple([row[index] for row in self._rows]),
                    doc=f"The {name} labels, k = 0..n-1.")


class Strip:
    """A periodic strip at one g-period, stored as its rows (a, s, t, b, u)."""

    __slots__ = ("_rows", "_period")

    def __init__(self, a, s, t, b, u):
        if not len(a) == len(s) == len(t) == len(b) == len(u):
            raise InvariantError("sequence lengths differ")
        self._rows = tuple(zip(a, s, t, b, u))
        self._period = None

    @classmethod
    def from_rows(cls, rows: tuple) -> "Strip":
        """The strip with these (a, s, t, b, u) rows, given as a tuple."""
        strip = cls.__new__(cls)
        strip._rows = rows
        strip._period = None
        return strip

    a = _column(0, "base-wall")
    s = _column(1, "diagonal v_{k+1} -> w_k")
    t = _column(2, "diagonal w_k -> v_k")
    b = _column(3, "opposite-wall")
    u = _column(4, "diagonal w_{k+1} -> v_{k+1}")

    def __eq__(self, other):
        if not isinstance(other, Strip):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return f"Strip(a={self.a}, s={self.s}, t={self.t}, b={self.b}, u={self.u})"

    @property
    def length(self) -> int:
        return len(self._rows)

    @property
    def period(self) -> int:
        """Minimal p_e with all five sequences invariant under shift by p_e
        (ValueError on an empty strip)."""
        if self._period is None:
            self._period = minimal_period(self._rows)
        return self._period

    def rows(self):
        return self._rows

    def swapped_rows(self):
        """The rows of the strip's swap: the strip read from the opposite
        wall, in the same orientation, (b_k, u_k, s_k, a_{k+1}, s_{k+1}).
        Swapping twice shifts by 1."""
        return tuple([(b, u, s, a_next, s_next)
                      for (_a, s, _t, b, u), (a_next, s_next, _tn, _bn, _un)
                      in zip(self._rows, self._rows[1:] + self._rows[:1])])

    def to_json(self):
        a, s, t, b, u = map(list, zip(*self._rows)) if self._rows else ([], [], [], [], [])
        return {"a": a, "s": s, "t": t, "b": b, "u": u}


def validate_strip(presentation: TrianglePresentation, strip: Strip) -> None:
    """Check that the rows form a strip; raises InvariantError on failure.

    A strip is valid when every row is a lower and an upper relator rotation
    that do not fold onto the base wall, consecutive rows close their seams,
    and both walls are straight.  A nonempty strip whose cyclic row pairs
    all lie in ``presentation.row_pairs`` is valid; any other goes through
    the checks one by one and raises the first that fails (an empty strip
    raises ValueError).  Sequence lengths are checked on construction, and
    periods need none: every column is invariant under the row period p_e.
    """
    rows = strip.rows()
    if not (rows and presentation.row_pairs.issuperset(zip(rows, rows[1:] + rows[:1]))):
        rotations = presentation.rotation_set
        bent = presentation.bent_pairs
        for k, ((a, s, t, b, u), (_an, _sn, t_next, b_next, _un)) in \
                enumerate(zip(rows, rows[1:] + rows[:1])):
            if (a, s, t) not in rotations:
                raise InvariantError(
                    f"lower triangle {(a, s, t)} at k={k} is not a relator rotation")
            if (s, b, u) not in rotations:
                raise InvariantError(
                    f"upper triangle {(s, b, u)} at k={k} is not a relator rotation")
            if t_next != u:
                raise InvariantError(f"seam mismatch at k={k}: t_{k + 1}={t_next} != u_{k}={u}")
            # degenerate fold: upper triangle mirroring the lower one would put
            # w_{k+1} back on the base wall
            if b == t and u == a:
                raise InvariantError(
                    f"degenerate strip: upper triangle at k={k} folds onto the base wall")
            if (b, b_next) in bent:
                raise InvariantError(f"opposite wall bends at k={k}")
        check_wall_sequence(presentation, strip.a)
        check_wall_sequence(presentation, strip.b)


WINDOW = 3  # wall letters per step of the strip walk


def enumerate_periodic_strips(presentation: TrianglePresentation, wall,
                              skip=frozenset()) -> list[Strip]:
    """All n-periodic strips adjacent to the wall with the given labels,
    but those whose start pair (s_0, t_0) is in ``skip``.

    ``wall`` is the phase-aligned label sequence (length n = |g| in edges).
    One walk along the wall carries every partial strip, starting from each
    of the q+1 initial lower triangles (a_0, s_0, t_0).  At position k a
    partial strip ending in lower triangle (a_k, s_k, t_k) extends by each
    non-folding upper choice (b_k, u_k); the next lower triangle
    (a_{k+1}, s_{k+1}, u_k) is forced across the seam, and the extension
    dies when it does not exist.  A step advances WINDOW letters: the wall
    letters a_k .. a_{k+WINDOW} (fewer at the end) key the extensions of
    each (s_k, t_k) over them, chained from ``presentation.transitions`` the
    first time the window is met and kept in the presentation's memo, so a
    step is one lookup per partial strip.  The memo holds only windows of
    walls that passed ``check_wall_sequence``, and a wall's windows cover
    all its cyclic pairs, so a nonempty wall whose windows are all in the
    memo is straight and in range: the wall is checked only when a window
    is missing, before the walk, with the same errors.  After n letters a
    strip closes when its next lower triangle is its initial one.  Each
    initial triangle closes at most one strip (asserted; AmbiguousStrip
    otherwise), and every strip returned is validated.  Strips come in the
    order of their initial triangles in ``presentation.starting[a_0]``.

    Every start is walked and every closed walk is checked for ambiguity;
    then a walk whose start pair is in ``skip`` is dropped without being
    wrapped or validated.  The quotient BFS skips the start pairs that it
    has registered at a wall.  By the ambiguity check each names one closed
    walk, and that walk is a shift of a strip validated at another wall, or
    of its swap (the same strip read from the other wall).  A shift or a
    swap of a valid strip is valid, so skipping its validation loses no
    check.
    """
    a = tuple(wall)
    ring = a + a[:1]
    windows = presentation._windows
    chain = [windows.get(ring[k:k + WINDOW + 1]) for k in range(0, len(a), WINDOW)]
    if not a or None in chain:
        check_wall_sequence(presentation, a)
    walks = [((), st) for st in presentation.starting[a[0]]]  # (rows, (s_k, t_k))
    for k, steps in zip(range(0, len(a), WINDOW), chain):
        if steps is None:
            window = ring[k:k + WINDOW + 1]
            steps = windows.get(window)  # met earlier in this wall
            if steps is None:
                steps = windows[window] = _window_steps(presentation, window)
        walks = [(rows + more, st) for rows, start in walks for more, st in steps[start]]
        if not walks:
            return []
    closed = [rows for rows, st in walks if rows[0][1:3] == st]
    starts = [rows[0][1:3] for rows in closed]
    found = []
    for rows, start in zip(closed, starts):
        if starts.count(start) > 1:
            raise AmbiguousStrip((a[0], *start))
        if start not in skip:
            strip = Strip.from_rows(rows)
            validate_strip(presentation, strip)
            found.append(strip)
    return found


def _window_steps(presentation, window):
    """For each (s, t) with (window[0], s, t) a rotation, the (rows, (s', u))
    of each row chain over the window's letters, in the order of
    ``transitions``."""
    steps = {}
    for start in presentation.starting[window[0]]:
        walks = [((), start)]
        for ak, a_next in zip(window, window[1:]):
            walks = [(rows + (row,), (s_next, u)) for rows, (sk, tk) in walks
                     for row, s_next, u in presentation.transitions.get((ak, sk, tk, a_next), ())]
        steps[start] = tuple(walks)
    return steps


def anchored_readings(strip: Strip, wall_period: int, swap_shift: int | None = None,
                      other_period: int = 0) -> tuple[list, list]:
    """The start pairs (s_0, t_0) of every shift of the strip, and of its
    swap, that reads off a canonical wall, in two lists: its edge orbit as
    enumerated at its own wall and at the opposite one.  A wall closes at
    most one strip per start pair, so a pair names one strip at its wall.

    The shift by r reads off a canonical wall of period ``wall_period`` iff
    r is a multiple of it, and starts (s_r, t_r).  With ``(canon_b,
    swap_shift, other_period) = least_rotation(b)``, the swap shifted by r
    reads off canon_b iff r is swap_shift plus a multiple of other_period,
    and starts (u_r, s_r), as its row 0 is (b_r, u_r, s_r, a_{r+1}, s_{r+1}).
    With ``swap_shift`` None the second list is empty: the first is the
    wall-stabilizer class, and a glide strip's swap is one of its shifts.
    Shifts run over one strip period, so the pairs in a list are distinct.
    """
    rows = strip.rows()
    pe = strip.period
    own = [row[1:3] for row in rows[:pe:wall_period]]
    if swap_shift is None:
        return own, []
    return own, [(row[4], row[1]) for row in rows[swap_shift:pe:other_period]]


def flip_shifts(strip: Strip) -> list[int]:
    """All d in [0, n) such that the swapped rows rotated by d are the rows.

    Nonempty iff the strip carries a glide reflection exchanging its two
    walls; the minimal d gives glide translation d + 1/2 base edges, and
    2d+1 is the strip period, as swapping twice shifts by 1.  The
    median vertex group has order 2n/(2d+1).  Only the d below the strip
    period are tested, of which at most one holds (2d+1 is the period): the
    others add multiples of it.
    """
    rows = strip.rows()
    sw = strip.swapped_rows()
    pe = strip.period
    ds = [d for d, row in enumerate(sw[:pe]) if row == rows[0] and sw[d:] + sw[:d] == rows]
    return [d + k for d in ds for k in range(0, len(sw), pe)]
