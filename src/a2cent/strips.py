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
shift is a rotation of the rows, and ``canonical_edge_key`` is the least
rotation of the rows or of the swapped rows.
"""

from __future__ import annotations

import itertools

from .errors import AmbiguousStrip, InvariantError, NotAWallWord
from .presentation import TrianglePresentation
from .walls import canonical_rotation, check_wall_sequence, minimal_period

ORACLE_MAX_LENGTH = 6  # (q+1)^(2n) blowup guard for the brute-force oracle


def _column(index, name):
    return property(lambda self: tuple([row[index] for row in self._rows]),
                    doc=f"The {name} labels, k = 0..n-1.")


class Strip:
    """A periodic strip at one g-period, stored as its rows (a, s, t, b, u)."""

    __slots__ = ("_rows",)

    def __init__(self, a, s, t, b, u):
        if not len(a) == len(s) == len(t) == len(b) == len(u):
            raise InvariantError("sequence lengths differ")
        self._rows = tuple(zip(a, s, t, b, u))

    @classmethod
    def from_rows(cls, rows: tuple) -> "Strip":
        """The strip with these (a, s, t, b, u) rows, given as a tuple."""
        strip = cls.__new__(cls)
        strip._rows = rows
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
        """Minimal p_e with all five sequences invariant under shift by p_e."""
        return minimal_period(self._rows)

    def rows(self):
        return self._rows

    def lower_triangle(self, k: int):
        a, s, t, _b, _u = self._rows[k]
        return (a, s, t)

    def upper_triangle(self, k: int):
        _a, s, _t, b, u = self._rows[k]
        return (s, b, u)

    def to_json(self):
        return {"a": list(self.a), "s": list(self.s), "t": list(self.t),
                "b": list(self.b), "u": list(self.u)}


def _swapped_rows(rows):
    """Rows of the strip read from the opposite wall: (b_k, u_k, s_k, a_{k+1}, s_{k+1})."""
    return tuple([(b, u, s, a_next, s_next)
                  for (_a, s, _t, b, u), (a_next, s_next, _tn, _bn, _un)
                  in zip(rows, rows[1:] + rows[:1])])


def shift(strip: Strip, r: int) -> Strip:
    """Re-read the strip starting r base edges further along."""
    rows = strip.rows()
    r %= len(rows)
    return Strip.from_rows(rows[r:] + rows[:r])


def swap(strip: Strip) -> Strip:
    """Re-read the strip from the opposite wall (same orientation).

    swap(swap(strip)) == shift(strip, 1).
    """
    return Strip.from_rows(_swapped_rows(strip.rows()))


def validate_strip(presentation: TrianglePresentation, strip: Strip) -> None:
    """Assert every Strip invariant; raises InvariantError on failure.

    Equal sequence lengths are checked when the strip is constructed.
    """
    rows = strip.rows()
    rotations = presentation.rotation_set
    bent = presentation.bent_pairs
    for k, ((a, s, t, b, u), (_an, _sn, t_next, b_next, _un)) in \
            enumerate(zip(rows, rows[1:] + rows[:1])):
        if (a, s, t) not in rotations:
            raise InvariantError(f"lower triangle {(a, s, t)} at k={k} is not a relator rotation")
        if (s, b, u) not in rotations:
            raise InvariantError(f"upper triangle {(s, b, u)} at k={k} is not a relator rotation")
        if t_next != u:
            raise InvariantError(f"seam mismatch at k={k}: t_{k + 1}={t_next} != u_{k}={u}")
        # degenerate fold: upper triangle mirroring the lower one would put
        # w_{k+1} back on the base wall
        if b == t and u == a:
            raise InvariantError(f"degenerate strip: upper triangle at k={k} folds onto the base wall")
        if (b, b_next) in bent:
            raise InvariantError(f"opposite wall bends at k={k}")
    a, b = strip.a, strip.b
    check_wall_sequence(presentation, a)
    check_wall_sequence(presentation, b)
    # wall periods refine the strip period
    pe = strip.period
    if pe % minimal_period(a) != 0 or pe % minimal_period(b) != 0:
        raise InvariantError("strip period is not a multiple of its wall periods")


def enumerate_periodic_strips(presentation: TrianglePresentation, wall) -> list[Strip]:
    """All n-periodic strips adjacent to the wall with the given labels.

    ``wall`` is the phase-aligned label sequence (length n = |g| in edges).
    Each of the q+1 initial lower triangles determines at most one strip
    (asserted; AmbiguousStrip otherwise); branching happens only over upper
    triangle choices, the next lower triangle being forced across the seam.
    """
    a = tuple(wall)
    check_wall_sequence(presentation, a)
    found = []
    for (s0, t0) in presentation.starting[a[0]]:
        completions = []
        _extend(presentation.starting, presentation.completion, a, 0, s0, t0, [], completions)
        if len(completions) > 1:
            raise AmbiguousStrip((a[0], s0, t0))
        if completions:
            strip = Strip.from_rows(completions[0])
            validate_strip(presentation, strip)
            found.append(strip)
    return found


def _extend(starting, completion, a, k, sk, tk, rows, completions):
    """Extend ``rows`` (rows 0..k-1) by every row k whose lower triangle is
    (a_k, sk, tk); each full cyclic closure is appended to ``completions``."""
    ak = a[k]
    last = k == len(a) - 1
    complete_next = completion[a[0] if last else a[k + 1]]
    for (bk, uk) in starting[sk]:
        if bk == tk and uk == ak:
            continue  # would fold the strip flat onto the base wall
        s_next = complete_next[uk]  # forced by the next lower triangle
        if s_next is None:
            continue
        row = (ak, sk, tk, bk, uk)
        if last:
            # cyclic closure: the next lower triangle must be the initial one
            _a0, s0, t0, _b0, _u0 = rows[0] if rows else row
            if s_next == s0 and uk == t0:
                completions.append((*rows, row))
        else:
            rows.append(row)
            _extend(starting, completion, a, k + 1, s_next, uk, rows, completions)
            rows.pop()


def oracle_enumerate(presentation: TrianglePresentation, wall) -> list[Strip]:
    """Independent brute-force enumeration: try every combination of lower
    and upper triangles and keep those satisfying all Strip invariants."""
    a = tuple(wall)
    n = len(a)
    if n > ORACLE_MAX_LENGTH:
        raise ValueError(f"oracle guarded to length <= {ORACLE_MAX_LENGTH}")
    check_wall_sequence(presentation, a)
    out = []
    lower_choices = [presentation.relators_starting_with(a[k]) for k in range(n)]
    for lowers in itertools.product(*lower_choices):
        s = tuple(jk[0] for jk in lowers)
        t = tuple(jk[1] for jk in lowers)
        upper_choices = [presentation.relators_starting_with(s[k]) for k in range(n)]
        for uppers in itertools.product(*upper_choices):
            b = tuple(jk[0] for jk in uppers)
            u = tuple(jk[1] for jk in uppers)
            strip = Strip(a, s, t, b, u)
            try:
                validate_strip(presentation, strip)
            except (InvariantError, NotAWallWord):
                continue
            out.append(strip)
    return out


def canonical_edge_key(strip: Strip):
    """Least representative over all shifts of the strip and of its swap.

    Equal keys identify the same quotient edge (strip orbits up to the
    translation and wall-swap symmetries).  The key is a tuple of rows.
    """
    rows = strip.rows()
    return min(canonical_rotation(rows), canonical_rotation(_swapped_rows(rows)))


def flip_shifts(strip: Strip) -> list[int]:
    """All d in [0, n) such that shift(swap(strip), d) == strip.

    Nonempty iff the strip carries a glide reflection exchanging its two
    walls; the minimal d gives glide translation d + 1/2 base edges and
    median vertex group order 2n/(2d+1).
    """
    rows = strip.rows()
    sw = _swapped_rows(rows)
    return [d for d, row in enumerate(sw) if row == rows[0] and sw[d:] + sw[:d] == rows]


def median_order(strip: Strip) -> int:
    """Order 2n/(2d+1) of the glide image in the quotient (d = minimal flip shift)."""
    ds = flip_shifts(strip)
    if not ds:
        raise InvariantError("strip is not flip-symmetric")
    d = ds[0]
    n = strip.length
    if (2 * n) % (2 * d + 1) != 0 or n % (2 * d + 1) != 0:
        raise InvariantError(
            f"glide step 2*{d}+1 does not divide 2n=2*{n}; invariant violation")
    return 2 * n // (2 * d + 1)


def group_by_wall_shifts(strips: list[Strip], wall_period: int) -> list[list[Strip]]:
    """Partition anchored strips into wall-stabilizer orbits.

    Two strips at the same wall are identified iff they agree up to a shift
    by a multiple of the wall period (the action of the wall stabilizer).
    Classes are sorted by their least member; so are the members.
    """
    n = strips[0].length if strips else 0
    remaining = sorted(strips, key=Strip.rows)
    classes = []
    while remaining:
        rows = remaining[0].rows()
        orbit = {rows[j:] + rows[:j] for j in range(0, n, wall_period)}
        classes.append([st for st in remaining if st.rows() in orbit])
        remaining = [st for st in remaining if st.rows() not in orbit]
    return classes
