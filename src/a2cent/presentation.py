"""Triangle presentations and the local geometry of their buildings.

A triangle presentation has generators x_0..x_{m-1} and relators
x_i x_j x_k = 1 stored as rotation classes.  The derived lookup tables answer
the two local questions everything else is built on: does a pair of
consecutive edge labels continue straight (no common triangle), and what is
the unique third label completing a given (first, last) pair.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import PresentationError


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


@dataclass(frozen=True)
class TrianglePresentation:
    """Validated triangle presentation; immutable after construction.

    The lookup tables are built once by load() and never change, and each
    holds O(|rotations|) entries (times a factor of q), never one per pair of
    generators: ``rotation_set`` holds all 3*|classes| rotations,
    ``starting[i]`` the sorted (j, k) with rotation (i, j, k),
    ``completion[i]`` a read-only mapping from each k with some rotation
    (i, ., k) to that unique j, and ``bent_pairs`` the (i, j) that lie on a
    common triangle.  Three tables serve the strip layer:
    ``steps[(a, s, t)]`` maps each lower triangle (a rotation) to its
    non-folding upper choices (b, u), in the order of ``starting[s]``;
    ``transitions[(a, s, t, a')]`` holds, in the same order, the
    ``(row, s', u)`` for each such choice whose next lower triangle
    (a', s', u) exists, where row is (a, s, t, b, u), and has no empty
    entries; and ``row_pairs`` holds every valid consecutive strip row pair
    ((a, s, t, b, u), (a', s', t', b', u')): both rows are valid, t' == u,
    and neither (a, a') nor (b, b') is bent.  Strips and walls read the
    tables directly; the query methods below add the generator range check.
    """

    generator_count: int
    rotation_classes: frozenset  # canonical representatives (least rotation)
    thickness_q: int
    rotation_set: frozenset = field(repr=False, compare=False)
    starting: tuple = field(repr=False, compare=False)  # of tuples of (j, k)
    completion: tuple = field(repr=False, compare=False)  # of mappings k -> j
    bent_pairs: frozenset = field(repr=False, compare=False)
    steps: MappingProxyType = field(repr=False, compare=False)  # (a, s, t) -> ((b, u), ...)
    transitions: MappingProxyType = field(repr=False, compare=False)  # (a, s, t, a') -> ((row, s', u), ...)
    row_pairs: frozenset = field(repr=False, compare=False)
    warnings: tuple = ()

    # -- queries -----------------------------------------------------------

    @property
    def rotations(self):
        """All 3*|classes| rotations as a sorted list of triples."""
        return sorted(self.rotation_set)

    @property
    def first_table(self):
        """For each i, the sorted j with some rotation (i, j, .)."""
        return {i: [j for (j, _k) in row] for i, row in enumerate(self.starting)}

    def straight(self, i: int, j: int) -> bool:
        """True iff edges labelled i then j continue a wall (no triangle (i,j,.))."""
        self._check_index(i)
        self._check_index(j)
        return (i, j) not in self.bent_pairs

    def complete(self, i: int, k: int):
        """The unique j with rotation (i, j, k), or None."""
        self._check_index(i)
        self._check_index(k)
        return self.completion[i].get(k)

    def relators_starting_with(self, i: int):
        """The q+1 rotations (i, j, k), returned as sorted (j, k) pairs."""
        self._check_index(i)
        return list(self.starting[i])

    def _check_index(self, i):
        """Raise IndexError unless 0 <= i < generator_count."""
        if not 0 <= i < self.generator_count:
            raise IndexError(f"generator index {i} out of range 0..{self.generator_count - 1}")

    # -- link graph --------------------------------------------------------

    def link_graph(self):
        """Bipartite incidence graph of the vertex link.

        Nodes are ("P", t) and ("L", s); ("P", t) ~ ("L", s) iff some rotation
        (s, t, .) exists.  Returns adjacency dict.
        """
        return _link_graph(self.starting)

    def link_stats(self):
        """(node count, degree set, girth, diameter) of the link graph."""
        return _link_stats(self.link_graph())

    # -- serialization -----------------------------------------------------

    def to_document(self):
        return {
            "generators": self.generator_count,
            "relators": [list(t) for t in sorted(self.rotation_classes)],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_document(), indent=2) + "\n"


def _link_graph(starting):
    adj = {("P", t): set() for t in range(len(starting))}
    adj.update({("L", s): set() for s in range(len(starting))})
    for s, row in enumerate(starting):
        for (t, _k) in row:
            adj[("L", s)].add(("P", t))
            adj[("P", t)].add(("L", s))
    return adj


def _link_stats(adj):
    degrees = {len(v) for v in adj.values()}
    return (len(adj), degrees, _girth(adj), _diameter(adj))


def _girth(adj):
    """Length of a shortest cycle (BFS from every node); None if acyclic."""
    best = None
    for root in adj:
        dist = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for nb in adj[node]:
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    parent[nb] = node
                    queue.append(nb)
                elif parent[node] != nb:
                    cycle = dist[node] + dist[nb] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def _diameter(adj):
    best = 0
    for root in adj:
        dist = {root: 0}
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for nb in adj[node]:
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    queue.append(nb)
        if len(dist) < len(adj):
            return None  # disconnected
        best = max(best, max(dist.values()))
    return best


def load(document, strict: bool = True) -> TrianglePresentation:
    """Validate a presentation document and build the lookup tables.

    ``document`` is a dict with fields ``generators`` (int) and ``relators``
    (list of integer triples, one representative per rotation class).  With
    ``strict=False`` the link girth/diameter check is downgraded to a warning,
    for experimenting with non-building presentations.
    """
    issues = []
    warnings = []

    if not isinstance(document, dict):
        raise PresentationError(
            [f"presentation document must be an object, got {type(document).__name__}"])
    m = document.get("generators")
    if not isinstance(m, int) or m < 1:
        raise PresentationError([f"generators must be a positive integer, got {m!r}"])
    raw = document.get("relators")
    if not raw:
        raise PresentationError(["relators list is missing or empty"])
    if not isinstance(raw, (list, tuple)):
        raise PresentationError([f"relators must be a list, got {raw!r}"])

    classes = set()
    for triple in raw:
        if not isinstance(triple, (list, tuple)) or len(triple) != 3 or \
                not all(isinstance(x, int) for x in triple):
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

    # pair uniqueness
    completion = {}
    starting = {i: [] for i in range(m)}
    first_pairs = set()
    for (i, j, k) in sorted(rotations):
        if (i, k) in completion:
            issues.append(
                f"pair-uniqueness violation: rotations ({i},{completion[(i, k)]},{k}) "
                f"and ({i},{j},{k}) share first/last pair ({i},{k})")
        else:
            completion[(i, k)] = j
        if (i, j) in first_pairs:
            issues.append(f"pair-uniqueness violation: two rotations start with ({i},{j})")
        first_pairs.add((i, j))
        starting[i].append((j, k))
    if issues:
        raise PresentationError(issues)

    # uniform thickness
    counts_first = {i: len(starting[i]) for i in range(m)}
    counts_last = {i: 0 for i in range(m)}
    for (_i, _j, k) in rotations:
        counts_last[k] += 1
    distinct = set(counts_first.values()) | set(counts_last.values())
    if len(distinct) != 1:
        issues.append(
            f"non-uniform thickness: rotation counts per generator are "
            f"first={counts_first}, last={counts_last}")
        raise PresentationError(issues)
    q = distinct.pop() - 1
    if q < 2:
        issues.append(f"thickness q={q} < 2: every generator must head q+1 >= 3 rotations")
        raise PresentationError(issues)
    starting = tuple(tuple(starting[i]) for i in range(m))
    completion_rows = [{} for _ in range(m)]
    for (i, k), j in completion.items():
        completion_rows[i][k] = j

    # link condition: (q+1)-biregular bipartite graph of girth 6 and diameter 3
    nodes, degrees, girth, diameter = _link_stats(_link_graph(starting))
    link_issues = []
    if degrees != {q + 1}:
        link_issues.append(
            f"link graph is not ({q + 1})-regular (degrees {sorted(degrees)})")
    if girth != 6:
        link_issues.append(f"link graph girth is {girth}, expected 6")
    if diameter != 3:
        link_issues.append(f"link graph diameter is {diameter}, expected 3")
    if link_issues:
        if strict:
            raise PresentationError(
                [f"link condition failure ({nodes} nodes): " + "; ".join(link_issues)])
        warnings.extend(link_issues)

    steps, transitions, row_pairs = _strip_tables(rotations, starting, first_pairs)
    return TrianglePresentation(
        generator_count=m,
        rotation_classes=frozenset(classes),
        thickness_q=q,
        rotation_set=frozenset(rotations),
        starting=starting,
        completion=tuple(MappingProxyType(row) for row in completion_rows),
        bent_pairs=frozenset(first_pairs),
        steps=steps,
        transitions=transitions,
        row_pairs=row_pairs,
        warnings=tuple(warnings),
    )


def _strip_tables(rotations, starting, bent):
    """The step and transition tables and the valid consecutive row pairs
    of strips.

    A row (a, s, t, b, u) is valid when (a, s, t) and (s, b, u) are
    rotations and the upper triangle does not fold onto the lower one
    (b == t and u == a).
    """
    steps = {(a, s, t): tuple((b, u) for (b, u) in starting[s] if not (b == t and u == a))
             for (a, s, t) in sorted(rotations)}
    ending = defaultdict(list)  # u -> the (a', s') with rotation (a', s', u)
    for (a, s, t) in sorted(rotations):
        ending[t].append((a, s))
    transitions = defaultdict(list)
    by_seam = defaultdict(list)  # t -> valid rows with that t
    for (a, s, t), uppers in steps.items():
        for (b, u) in uppers:
            row = (a, s, t, b, u)
            by_seam[t].append(row)
            for (a_next, s_next) in ending[u]:
                transitions[a, s, t, a_next].append((row, s_next, u))
    row_pairs = frozenset(
        (row, nxt)
        for rows in by_seam.values() for row in rows for nxt in by_seam[row[4]]
        if (row[0], nxt[0]) not in bent and (row[3], nxt[3]) not in bent)
    return (MappingProxyType(steps),
            MappingProxyType({key: tuple(entry) for key, entry in transitions.items()}),
            row_pairs)


def loads(text: str, strict: bool = True) -> TrianglePresentation:
    return load(json.loads(text), strict=strict)


def load_named(name: str, strict: bool = True) -> TrianglePresentation:
    """Load ``builtin:<id>``, a bare builtin id, or a JSON document path."""
    key = name[len("builtin:"):] if name.startswith("builtin:") else name
    if key in BUILTIN_PRESENTATIONS:
        return load(BUILTIN_PRESENTATIONS[key], strict=strict)
    with open(name, "r", encoding="utf-8") as fh:
        return load(json.load(fh), strict=strict)
