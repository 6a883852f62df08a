"""References the strip layer is checked against, on strips given as
their row tuples, as the package returns them: a strip's five label
sequences and its shift, a strip check that runs every invariant one by
one, a brute-force strip enumeration, the edge key that names a strip
orbit, a strip's anchored readings as whole rows, a grouping of the strips
at one wall into wall-stabilizer classes, and the full scans over all n
phases of five computations that the package runs over one period or cuts
short.

The package checks no strip this way: its walk builds rows that are valid
and seams that close, and on the link of a building, of girth 6, the
opposite wall is straight (``strips.enumerate_periodic_strips``)."""

import itertools

from a2cent.errors import InvariantError, NotAWallWord
from a2cent.presentation import TrianglePresentation
from a2cent.strips import swapped_rows
from a2cent.walls import canonical_rotation, check_wall_sequence, minimal_period
from presentations import rotation_set

ORACLE_MAX_LENGTH = 6  # (q+1)^(2n) blowup guard for the brute-force oracle


def columns(rows):
    """The five label sequences (a, s, t, b, u) of a strip, as tuples."""
    return tuple(zip(*rows)) if rows else ((),) * 5


def shift(rows, r: int):
    """Re-read the strip starting r base edges further along."""
    r %= len(rows)
    return rows[r:] + rows[:r]


def validate_strip(presentation: TrianglePresentation, rows) -> None:
    """Check that the rows form a strip, one invariant at a time, and raise
    InvariantError at the first that fails (NotAWallWord or IndexError from
    a wall, ValueError on an empty strip): every row is a lower and an upper
    relator rotation that do not fold onto the base wall, consecutive rows
    close their seams, both walls are straight, and the strip period is a
    multiple of both wall periods."""
    rotations = rotation_set(presentation)
    bent = presentation.bent_pairs
    for k, ((a, s, t, b, u), (_an, _sn, t_next, b_next, _un)) in \
            enumerate(zip(rows, rows[1:] + rows[:1])):
        if (a, s, t) not in rotations:
            raise InvariantError(f"lower triangle {(a, s, t)} at k={k} is not a relator rotation")
        if (s, b, u) not in rotations:
            raise InvariantError(f"upper triangle {(s, b, u)} at k={k} is not a relator rotation")
        if t_next != u:
            raise InvariantError(f"seam mismatch at k={k}: t_{k + 1}={t_next} != u_{k}={u}")
        if b == t and u == a:
            raise InvariantError(f"degenerate strip: upper triangle at k={k} folds onto the base wall")
        if (b, b_next) in bent:
            raise InvariantError(f"opposite wall bends at k={k}")
    a, _s, _t, b, _u = columns(rows)
    check_wall_sequence(presentation, a)
    check_wall_sequence(presentation, b)
    pe = minimal_period(rows)
    if pe % minimal_period(a) != 0 or pe % minimal_period(b) != 0:
        raise InvariantError("strip period is not a multiple of its wall periods")


def oracle_enumerate(presentation: TrianglePresentation, wall) -> list[tuple]:
    """Independent brute-force enumeration: try every combination of lower
    and upper triangles and keep those satisfying all strip invariants."""
    a = tuple(wall)
    n = len(a)
    if n > ORACLE_MAX_LENGTH:
        raise ValueError(f"oracle guarded to length <= {ORACLE_MAX_LENGTH}")
    check_wall_sequence(presentation, a)
    out = []
    lower_choices = [presentation.starting[a[k]] for k in range(n)]
    for lowers in itertools.product(*lower_choices):
        s = tuple(jk[0] for jk in lowers)
        t = tuple(jk[1] for jk in lowers)
        upper_choices = [presentation.starting[s[k]] for k in range(n)]
        for uppers in itertools.product(*upper_choices):
            b = tuple(jk[0] for jk in uppers)
            u = tuple(jk[1] for jk in uppers)
            rows = tuple(zip(a, s, t, b, u))
            try:
                validate_strip(presentation, rows)
            except (InvariantError, NotAWallWord):
                continue
            out.append(rows)
    return out


def canonical_edge_key(rows):
    """Least representative over all shifts of the strip and of its swap.

    Equal keys identify the same quotient edge (strip orbits up to the
    translation and wall-swap symmetries).  The key is a tuple of rows.
    """
    return min(canonical_rotation(rows), canonical_rotation(swapped_rows(rows)))


def row_anchored_readings(rows, wall_period: int, swap=None) -> list[tuple]:
    """``strips.anchored_readings`` as whole readings: the rows of every
    shift of the strip, and of its swap, that reads off a canonical wall, in
    the order of the start pairs that the package lists (its own wall's,
    then the opposite wall's)."""
    pe = minimal_period(rows)
    readings = [rows[r:] + rows[:r] for r in range(0, pe, wall_period)]
    if swap is not None:
        sw = swapped_rows(rows)
        readings += [sw[r:] + sw[:r] for r in range(swap[0], pe, swap[1])]
    return readings


def group_by_wall_shifts(strips: list[tuple], wall_period: int) -> list[list[tuple]]:
    """Partition the strips at one wall into wall-stabilizer orbits.

    Two strips at the same wall are identified iff they agree up to a shift
    by a multiple of the wall period (the action of the wall stabilizer).
    Classes are sorted by their least member; so are the members.
    """
    n = len(strips[0]) if strips else 0
    remaining = sorted(strips)
    classes = []
    while remaining:
        rows = remaining[0]
        orbit = {rows[j:] + rows[:j] for j in range(0, n, wall_period)}
        classes.append([st for st in remaining if st in orbit])
        remaining = [st for st in remaining if st not in orbit]
    return classes


# Full scans over all n phases, as the package ran them before it scanned
# one period: a sequence of period p reads the same at phases r and r + p.

def full_scan_minimal_period(labels):
    """``walls.minimal_period``, comparing every rotation by p in 1..n
    with the sequence.  (Invariance under p gives invariance under
    gcd(p, n), so the least such p divides n.)"""
    seq = tuple(labels)
    if not seq:
        raise ValueError("empty sequence has no period")
    return min(p for p in range(1, len(seq) + 1) if seq[p:] + seq[:p] == seq)


def full_scan_wall_word(presentation: TrianglePresentation, word):
    """``walls.wall_word``, with the canonical rotation the least of all n
    rotations."""
    seq = tuple(word)
    check_wall_sequence(presentation, seq)
    return min(seq[r:] + seq[:r] for r in range(len(seq))), full_scan_minimal_period(seq)


def full_scan_least_rotation(labels):
    """``walls.least_rotation`` over all n rotations."""
    seq = tuple(labels)
    return (*min((seq[r:] + seq[:r], r) for r in range(len(seq))), full_scan_minimal_period(seq))


def full_scan_flip_shifts(rows) -> list[int]:
    """``strips.flip_shifts``, testing every d in [0, n)."""
    sw = swapped_rows(rows)
    return [d for d in range(len(rows)) if sw[d:] + sw[:d] == rows]


def full_scan_median_display_label(rows, d: int) -> str:
    """The median vertex label of ``quotient.build_quotient``, minimized over
    all n anchor phases."""
    candidates = []
    for k0 in range(len(rows)):
        sp = rows[k0:] + rows[:k0]
        word = (sp[0][2],) if d == 0 else tuple([row[0] for row in sp[:d]]) + sp[d][:2]
        candidates.append(canonical_rotation(word))
    return "[" + ",".join(str(x) for x in min(candidates)) + "]"
