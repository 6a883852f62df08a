"""The brute-force strip enumeration that the strip walk is checked against."""

import itertools

from a2cent.errors import InvariantError, NotAWallWord
from a2cent.presentation import TrianglePresentation
from a2cent.strips import Strip, validate_strip
from a2cent.walls import check_wall_sequence

ORACLE_MAX_LENGTH = 6  # (q+1)^(2n) blowup guard for the brute-force oracle


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
