"""Presentations the tests run beside the builtin c1."""

import random

from a2cent.presentation import BUILTIN_PRESENTATIONS, load


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
