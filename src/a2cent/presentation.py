"""Triangle presentations and the local geometry of their buildings.

A triangle presentation has generators x_0..x_{m-1} and relators
x_i x_j x_k = 1 stored as rotation classes.  The derived lookup tables answer
the two local questions everything else is built on: which rotations start
with a given label, and does a pair of consecutive edge labels continue
straight (no common triangle).  As the pair (k, i) heads at most one
rotation (k, i, j), the rotations starting with i hold at most one (j, k)
per k, and the strip walk reads no other table.

The vertex link is the incidence graph with a point t and a line s for each
generator, t on s iff some rotation (s, t, .) exists.  The presentation
defines an A~2 building iff the link is a projective plane of order q
(Cartwright-Mantero-Steger-Zappa, Geom. Dedicata 47, 1993): no two lines
share two points, and m = q^2 + q + 1.  load() checks those two facts by
counting point pairs, in O(m q^2), and accepts buildings only: a document
whose link is no plane raises PresentationError, as the quotient the package
computes is a quotient of that building.  So every TrianglePresentation has
a link of 2m nodes, (q+1)-regular, of girth 6 and diameter 3.
"""

from __future__ import annotations

import json
from itertools import combinations

from .errors import PresentationError
from .frozen import Frozen


def _rotations(triple):
    i, j, k = triple
    return [(i, j, k), (j, k, i), (k, i, j)]


def _canonical_class(triple):
    return min(_rotations(triple))


# The group C.1: seven generators, seven relators.
_C1_RELATORS = (
    (0, 0, 6),
    (0, 2, 3),
    (1, 2, 6),
    (1, 3, 5),
    (1, 5, 4),
    (2, 4, 5),
    (3, 4, 6),
)

BUILTIN_PRESENTATIONS = {
    "c1": {"generators": 7, "relators": [list(t) for t in _C1_RELATORS]},
}


class TrianglePresentation(Frozen):
    """Validated triangle presentation of an A~2 building; immutable after
    construction.

    The lookup tables are built once by load() and never change, and each
    holds one entry per rotation, never one per pair of generators:
    ``starting[i]`` holds the sorted (j, k) with rotation (i, j, k), and
    ``bent_pairs`` the (i, j) that lie on a common triangle.
    A strip row (a, s, t, b, u) is a lower triangle (a, s, t) and an upper
    triangle (s, b, u), both rotations, so ``starting[s]`` lists its upper
    choices; the next lower triangle (a', s', u) is the rotation (u, a', s'),
    and (u, a') heads at most one, so ``starting[a']`` holds at most one
    (s', u) for each u.  The strip walk chains its rows from ``starting``
    alone: they are valid and their seams close by construction, and the
    link's girth 6 keeps the opposite wall straight, so the walk checks
    nothing against ``bent_pairs``.  Strips and walls read the tables
    directly; ``straight`` adds the generator range check.
    ``rotation_classes`` holds the canonical (least) rotation of each class.
    Equality and hashing read only ``generator_count``, ``rotation_classes``
    and ``thickness_q``: the tables follow from the first two.
    ``_windows``, the strip walk's memo (``strips.enumerate_periodic_strips``),
    starts empty, grows to one entry per straight window met and is not compared.
    It holds only windows of walls that passed ``walls.check_wall_sequence``,
    so a wall whose windows are all in it is straight and in range.
    """

    __slots__ = ("generator_count", "rotation_classes", "thickness_q", "starting",
                 "bent_pairs", "_windows")

    def __init__(self, generator_count: int, rotation_classes: frozenset, thickness_q: int,
                 starting: tuple, bent_pairs: frozenset):
        object.__setattr__(self, "generator_count", generator_count)
        object.__setattr__(self, "rotation_classes", rotation_classes)
        object.__setattr__(self, "thickness_q", thickness_q)
        object.__setattr__(self, "starting", starting)
        object.__setattr__(self, "bent_pairs", bent_pairs)
        object.__setattr__(self, "_windows", {})

    def _key(self):
        return (self.generator_count, self.rotation_classes, self.thickness_q)

    # -- queries -----------------------------------------------------------

    def straight(self, i: int, j: int) -> bool:
        """True iff edges labelled i then j continue a wall (no triangle (i,j,.))."""
        self._check_index(i)
        self._check_index(j)
        return (i, j) not in self.bent_pairs

    def _check_index(self, i):
        """Raise IndexError unless 0 <= i < generator_count."""
        if not 0 <= i < self.generator_count:
            raise IndexError(f"generator index {i} out of range 0..{self.generator_count - 1}")

    # -- serialization -----------------------------------------------------

    def to_document(self):
        return {
            "generators": self.generator_count,
            "relators": [list(t) for t in sorted(self.rotation_classes)],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_document(), indent=2) + "\n"


def _is_int(x) -> bool:
    """True for an int that is not a bool (JSON true/false load as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def load(document) -> TrianglePresentation:
    """Validate a presentation document and build the lookup tables.

    ``document`` is a dict with fields ``generators`` (int) and ``relators``
    (list of integer triples, one representative per rotation class).  It
    must present an A~2 building: every check, the link condition included,
    raises PresentationError when it fails.
    """
    issues = []

    if not isinstance(document, dict):
        raise PresentationError(
            [f"presentation document must be an object, got {type(document).__name__}"])
    m = document.get("generators")
    if not _is_int(m) or m < 1:
        raise PresentationError([f"generators must be a positive integer, got {m!r}"])
    raw = document.get("relators")
    if not raw:
        raise PresentationError(["relators list is missing or empty"])
    if not isinstance(raw, (list, tuple)):
        raise PresentationError([f"relators must be a list, got {raw!r}"])

    classes = set()
    for triple in raw:
        if not isinstance(triple, (list, tuple)) or len(triple) != 3 or \
                not all(_is_int(x) for x in triple):
            issues.append(f"relator {triple!r} is not an integer triple")
            continue
        t = tuple(triple)
        if not all(0 <= x < m for x in t):
            issues.append(f"relator {t} has a generator index out of range")
            continue
        if t[0] == t[1] == t[2]:
            issues.append(f"torsion triple {t}: x{t[0]}^3 = 1 contradicts torsion-freeness")
            continue
        c = _canonical_class(t)
        if c in classes:
            issues.append(f"duplicate rotation class {t} (class representative {c})")
            continue
        classes.add(c)
    if issues:
        raise PresentationError(issues)
    # every generator must head q+1 >= 1 of the 3*|classes| rotations; check
    # that before building any table with one entry per generator
    if m > 3 * len(classes):
        raise PresentationError(
            [f"non-uniform thickness: {m} generators but only {3 * len(classes)} "
             f"rotations, so some generator heads none"])

    rotations = set()
    for c in classes:
        rotations.update(_rotations(c))

    # pair uniqueness: two rotations (i, j, k) and (i, j', k) sharing a
    # first/last pair rotate to (k, i, j) and (k, i, j'), which share a first
    # pair, and conversely, so checking first pairs suffices
    last = {}  # (i, j) -> the k of the rotation (i, j, k)
    starting = {i: [] for i in range(m)}
    for (i, j, k) in sorted(rotations):
        if last.setdefault((i, j), k) != k:
            issues.append(
                f"pair-uniqueness violation: rotations ({i},{j},{last[(i, j)]}) "
                f"and ({i},{j},{k}) share first pair ({i},{j})")
        starting[i].append((j, k))
    if issues:
        raise PresentationError(issues)

    # uniform thickness: rotating (i, j, k) to (k, i, j) matches the rotations
    # ending in k with those starting with k, so counting starts suffices
    counts = {i: len(starting[i]) for i in range(m)}
    if len(set(counts.values())) != 1:
        raise PresentationError(
            [f"non-uniform thickness: rotation counts per first generator are {counts}"])
    q = counts[0] - 1
    if q < 2:
        raise PresentationError(
            [f"thickness q={q} < 2: every generator must head q+1 >= 3 rotations"])
    starting = tuple(tuple(starting[i]) for i in range(m))

    # link condition: the link is a projective plane of order q.  Line s holds
    # the q+1 distinct points t of the rotations (s, t, .), and each point lies
    # on q+1 lines.  Two lines sharing two points close a 4-cycle.  Otherwise
    # the m (q+1) q / 2 point pairs on lines are distinct, so they are all
    # m (m-1) / 2 pairs, and every two points (and dually every two lines)
    # meet exactly once, iff m = q^2 + q + 1: girth 6 and diameter 3.
    pairs = [pair for row in starting for pair in combinations([t for (t, _k) in row], 2)]
    link_issue = None
    if len(set(pairs)) < len(pairs):
        link_issue = "link graph girth is 4, expected 6"
    elif m != q * q + q + 1:
        link_issue = (f"link graph is not a projective plane: m = {m}, "
                      f"expected q^2+q+1 = {q * q + q + 1}")
    if link_issue:
        raise PresentationError([f"link condition failure ({2 * m} nodes): {link_issue}"])

    return TrianglePresentation(
        generator_count=m,
        rotation_classes=frozenset(classes),
        thickness_q=q,
        starting=starting,
        bent_pairs=frozenset(last),
    )


def loads(text: str) -> TrianglePresentation:
    return load(json.loads(text))


def load_named(name: str) -> TrianglePresentation:
    """Load ``builtin:<id>``, a bare builtin id, or a JSON document path."""
    key = name[len("builtin:"):] if name.startswith("builtin:") else name
    if key in BUILTIN_PRESENTATIONS:
        return load(BUILTIN_PRESENTATIONS[key])
    with open(name, "r", encoding="utf-8") as fh:
        return load(json.load(fh))
