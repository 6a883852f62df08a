"""Presentations the tests run beside the builtin c1, the relator rotations
of any presentation, seeded wall words drawn on any presentation, the
tables of a document that ``load`` rejects, and the vertex link's
statistics by BFS."""

import functools
import random
from collections import deque

from a2cent.presentation import BUILTIN_PRESENTATIONS, TrianglePresentation, load
from a2cent.walls import canonical_rotation, minimal_period


@functools.cache
def rotation_set(presentation) -> frozenset:
    """All 3*|classes| relator rotations (i, j, k) of the presentation."""
    return frozenset(c[r:] + c[:r] for c in presentation.rotation_classes for r in range(3))


def unchecked(document) -> TrianglePresentation:
    """The presentation of a document built with the constructor, with no
    check at all: the tables that ``load`` builds, for a document whose link
    is no projective plane, which ``load`` rejects.  The walk and the
    quotient on such a presentation are compared with their references,
    but describe no building."""
    m = document["generators"]
    classes = frozenset(min(t, t[1:] + t[:1], t[2:] + t[:2])
                        for t in map(tuple, document["relators"]))
    rotations = sorted(c[r:] + c[:r] for c in classes for r in range(3))
    starting = [[] for _ in range(m)]
    for (i, j, k) in rotations:
        starting[i].append((j, k))
    return TrianglePresentation(m, classes, len(starting[0]) - 1, tuple(map(tuple, starting)),
                                frozenset((i, j) for (i, j, _k) in rotations))


def link_stats(starting):
    """(node count, degree set, girth, diameter) of the vertex link of
    ``starting``, the incidence graph with a point t and a line s per
    generator, t on s iff (t, k) is in ``starting[s]``, by a BFS from every
    node; girth is None if it is acyclic, diameter None if it is
    disconnected.  The reference for the counting link check of ``load``."""
    m = len(starting)
    adj = [[] for _ in range(2 * m)]  # node t is the point t, m + s the line s
    for s, row in enumerate(starting):
        for (t, _k) in row:
            adj[m + s].append(t)
            adj[t].append(m + s)
    girth, diameter = None, 0
    for root in range(2 * m):
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
                    girth = cycle if girth is None else min(girth, cycle)
        if len(dist) < 2 * m:
            diameter = None  # disconnected
        elif diameter is not None:
            diameter = max(diameter, max(dist.values()))
    return 2 * m, {len(nbs) for nbs in adj}, girth, diameter


def relabelled_c1(seed):
    """c1 with its generators renamed by a seeded permutation."""
    perm = list(range(7))
    random.Random(seed).shuffle(perm)
    doc = BUILTIN_PRESENTATIONS["c1"]
    return load({"generators": 7, "relators": [[perm[x] for x in t] for t in doc["relators"]]})


# a second q=2 building presentation, no relabelling of c1: no relator repeats
# a letter, and some primitive wall words keep quotients that do not simplify
OTHER_Q2 = load({"generators": 7, "relators": [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 4, 5],
                                               [2, 6, 4], [3, 5, 6], [4, 6, 5]]})

# pair-unique with uniform q=2, but the link has girth 4, so load rejects
# it: partial strips branch, and some initial triangles close two strips
NON_BUILDING = unchecked({"generators": 4,
                          "relators": [[3, 0, 1], [3, 1, 2], [0, 2, 1], [3, 2, 0]]})

# pair-unique with uniform q=2 and a link of girth 4, which load rejects,
# that closes some walks whose opposite wall bends
OPPOSITE_BENDS = unchecked({"generators": 5,
                            "relators": [[1, 0, 2], [4, 0, 4], [4, 3, 2], [2, 3, 1], [1, 3, 0]]})


# a q=4 building presentation (m = 21), the Singer-cyclic one of CMSZ
# (Geom. Dedicata 47, 1993): the rotation classes of (x, x+b, x+f(b)) mod 21
# for x in Z/21 and b -> f(b) below, where S = {7, 9, 14, 15, 18} is a
# perfect difference set mod 21; x -> x+1 is an automorphism
SINGER_Q4 = load({"generators": 21, "relators": sorted(
    {min(t, t[1:] + t[:1], t[2:] + t[:2])
     for x in range(21) for b, fb in {7: 14, 9: 3, 14: 7, 15: 12, 18: 6}.items()
     for t in [(x, (x + b) % 21, (x + fb) % 21)]})})


def deep_walls(pres, count=20, seed=12, lengths=(12, 13, 14)):
    """``count`` distinct primitive wall words of the given lengths, as
    canonical rotations of seeded random closed walks in the straight
    digraph."""
    rng = random.Random(seed)
    m = pres.generator_count
    succ = [[j for j in range(m) if (i, j) not in pres.bent_pairs] for i in range(m)]
    walls = []
    while len(walls) < count:
        n = rng.choice(lengths)
        walk = [rng.randrange(m)]
        while len(walk) < n:
            walk.append(rng.choice(succ[walk[-1]]))
        word = canonical_rotation(walk)
        if (walk[-1], walk[0]) in pres.bent_pairs or minimal_period(word) != n \
                or word in walls:
            continue
        walls.append(word)
    return walls
