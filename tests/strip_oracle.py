"""References the strip layer is checked against, on strips given as
their row tuples, as the package returns them: a strip's five label
sequences and its shift, a strip check that runs every invariant one by
one, a brute-force strip enumeration, the recursive strip search, the
row chains over a window by brute force, the edge key that names a strip
orbit, a strip's anchored readings as whole rows, a grouping of the
strips at one wall into wall-stabilizer classes, and the full scans over
all n phases of five computations that the package runs over one period
or cuts short.

The package checks no strip this way: its walk builds rows that are valid
and seams that close, and on the link of a building, of girth 6, the
opposite wall is straight (``strips.enumerate_periodic_strips``)."""

import functools
import itertools

from a2cent.errors import InvariantError, NotAWallWord
from a2cent.presentation import TrianglePresentation
from a2cent.strips import WINDOW, swapped_rows
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


# Reference: the recursive strip search, as it was before the strip walk
# chained its rows window by window.

def reference_enumerate(presentation, wall):
    """The strips at the wall by a recursive search, as (rows, (s_0, t_0))
    pairs, each checked by ``validate_strip``.  The search follows every
    continuation, and asserts that each start closes at most one strip,
    as the link of a building has each start continue in one way."""
    a = tuple(wall)
    check_wall_sequence(presentation, a)
    # completion[i][k] is the unique j with rotation (i, j, k)
    completion = [{} for _ in range(presentation.generator_count)]
    for (i, j, k) in rotation_set(presentation):
        completion[i][k] = j
    found = []
    for (s0, t0) in presentation.starting[a[0]]:
        completions = []
        _reference_extend(presentation.starting, completion, a, 0, s0, t0, [], completions)
        assert len(completions) <= 1, (a[0], s0, t0)
        if completions:
            validate_strip(presentation, completions[0])
            found.append((completions[0], (s0, t0)))
    return found


def _reference_extend(starting, completion, a, k, sk, tk, rows, completions):
    ak = a[k]
    last = k == len(a) - 1
    complete_next = completion[a[0] if last else a[k + 1]]
    for (bk, uk) in starting[sk]:
        if bk == tk and uk == ak:
            continue
        s_next = complete_next.get(uk)
        if s_next is None:
            continue
        row = (ak, sk, tk, bk, uk)
        if last:
            _a0, s0, t0, _b0, _u0 = rows[0] if rows else row
            if s_next == s0 and uk == t0:
                completions.append((*rows, row))
        else:
            rows.append(row)
            _reference_extend(starting, completion, a, k + 1, s_next, uk, rows, completions)
            rows.pop()


@functools.lru_cache(maxsize=4096)
def brute_window_steps(pres, window):
    """The strip walk's row chains over a window, from the rotation set:
    for each lower triangle (window[0], s, t), every chain of rows
    (a_k, s_k, t_k, b_k, u_k) with a_k = window[k], (s_k, b_k, u_k) a
    rotation other than the fold (s_k, t_k, a_k), and (a_{k+1}, s_{k+1}, u_k)
    a rotation, with t_{k+1} = u_k, each with the pair (s, t) it ends in,
    in lexicographic order of the upper triangles."""
    by_first = {}
    for rot in sorted(rotation_set(pres)):
        by_first.setdefault(rot[0], []).append(rot)

    def chains(k, s, t):
        if k == len(window) - 1:
            return [((), (s, t))]
        return [(((window[k], s, t, b, u),) + rows, end)
                for (_s, b, u) in by_first[s] if (b, u) != (t, window[k])
                for (_a, s_next, u_next) in by_first.get(window[k + 1], ()) if u_next == u
                for rows, end in chains(k + 1, s_next, u)]

    return {(s, t): tuple(chains(0, s, t)) for (_a, s, t) in by_first.get(window[0], ())}


def window_keys(wall):
    """The strip walk's windows of the wall: the WINDOW + 1 letters from
    each multiple of WINDOW, read cyclically, fewer at the end."""
    ring = wall + wall[:1]
    return [ring[k:k + WINDOW + 1] for k in range(0, len(wall), WINDOW)]


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
