"""Presentations the tests run beside the builtin c1, the relator rotations
of any presentation, and seeded wall words drawn on any presentation."""

import functools
import random

from a2cent.presentation import BUILTIN_PRESENTATIONS, load
from a2cent.walls import canonical_rotation, minimal_period


@functools.cache
def rotation_set(presentation) -> frozenset:
    """All 3*|classes| relator rotations (i, j, k) of the presentation."""
    return frozenset(c[r:] + c[:r] for c in presentation.rotation_classes for r in range(3))


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

# pair-unique with uniform q=2, but the link has girth 4: partial strips
# branch, and some initial triangles close two strips
NON_BUILDING = load({"generators": 4, "relators": [[3, 0, 1], [3, 1, 2], [0, 2, 1], [3, 2, 0]]},
                    strict=False)

# pair-unique with uniform q=2 and a link of girth 4 that closes some walks
# whose opposite wall bends: the one check the strip walk leaves open fires
OPPOSITE_BENDS = load({"generators": 5,
                       "relators": [[1, 0, 2], [4, 0, 4], [4, 3, 2], [2, 3, 1], [1, 3, 0]]},
                      strict=False)


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
