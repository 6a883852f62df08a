"""BFS construction of the quotient graph of groups.

Vertices are orbits of axial walls (keyed by their necklace) and of median
lines of flip-symmetric strips (one per such strip orbit); edges are orbits
of strips.  Edges are deduplicated by their anchored readings: each shift of
a kept strip, or of its swap, that reads off a canonical wall, named by the
wall's vertex and its start pair (s_0, t_0), as a wall closes at most one
strip per start pair.  Two strips lie in one orbit iff one is a shift of the
other or of its swap, so a kept edge's readings name exactly the strips of
its orbit that the BFS meets (the later members of its wall-stabilizer
class, the back-edge at the other wall, the second end of a loop), each
dropped by one set lookup; a parallel edge, a different orbit, is kept.  A
glide maps b onto a, so only a strip with both walls on one necklace is
tested for one.

The readings are kept as one set of start pairs per wall vertex, taken out
when the wall is dequeued.  It then holds exactly the back-edges registered
by the strips kept at earlier walls, and it grows as the wall's own strips
are kept.  The strip walk returns each strip with its start pair, so one
lookup in the set drops a strip whose orbit is known: about half of all
closed walks are such back-edges, each a shift of the swap of a strip
already kept, and they are read no further.

All witness words are relative to the base vertex of the canonical rotation
of the input element.  The BFS records a witness tree: each new wall vertex
keeps its parent and the strip that found it, whose rows give the short
reduced suffix x_{t_0}^-1 x_{b_0} ... x_{b_{dd-1}} that carries the
parent's base vertex to its own.  Suffix letters come from the shared
letter tables of ``words``, so that the witnesses of a graph hold at most
2m distinct letter objects.  A vertex's base witness is the product of the
suffixes along its tree path; the suffixes are read, and the witness
spelled, only when an output word needs it (a stabilizer generator, a
median glide or a non-tree conjugator, which also reads the suffix of its
own strip), and then once.  Every word is spelled one way, by
``FormalWord.spell`` from letter tuples: a base witness from its suffixes,
a stabilizer generator or glide as the base witness c conjugating a core
(``_conjugate``), and a non-tree conjugator as c_v, the strip's suffix and
c_w^-1.  So each output word is validated once.

The group data holds by construction: a wall of minimal period p (p | n)
gets order n/p; an edge whose strip has period p_e (p | p_e | n) gets order
n/p_e and multipliers p_e/p at its walls; a median vertex gets order 2n/p_e
and multiplier 2, as its glide step d has 2d+1 = p_e (``strips.flip_shifts``);
each new vertex adds one tree edge.  tests/test_quotient.py asserts this
through wall length 6.

``build_quotient`` and ``QuotientGraphOfGroups.to_json`` run with the
cyclic garbage collector paused (``_collector_paused``): they make no
reference cycles, so every collection they would trigger only re-traverses
the graph built so far.
"""

from __future__ import annotations

import functools
import gc
from collections import deque

from .presentation import TrianglePresentation
from .strips import anchored_readings, enumerate_periodic_strips, flip_shifts, strip_json
from .walls import canonical_rotation, least_rotation, minimal_period, wall_word
from .words import NEGATIVE, POSITIVE, FormalWord, inverse_letters, share_letters


def _collector_paused(build):
    """``build`` run with CPython's cyclic garbage collector paused.

    The two bulk builders, ``build_quotient`` and
    ``QuotientGraphOfGroups.to_json``, allocate tens of thousands of
    tracked objects on a large quotient, and each collection they trigger
    re-traverses the graph built so far; on the 18-letter c1 word the
    collector took about two thirds of ``to_json``.  Neither makes a
    reference cycle (tests/test_quotient.py checks the whole pipeline for
    cyclic garbage), so reference counting frees all they allocate and the
    pause leaves nothing behind.  The pause is process-wide: what another
    thread allocates meanwhile is not collected either.  A collector that
    the caller had disabled stays disabled.
    """
    @functools.wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class QuotientVertex:
    __slots__ = ("index", "kind", "group_order", "generator_witness", "display_label",
                 "sequence", "period")

    def __init__(self, index: int, kind: str, group_order: int,
                 generator_witness: FormalWord, display_label: str,
                 sequence: tuple[int, ...] = (), period: int = 0):
        self.index = index
        self.kind = kind  # "wall" | "median"
        self.group_order = group_order
        self.generator_witness = generator_witness
        self.display_label = display_label
        # wall vertices only
        self.sequence = sequence
        self.period = period


class QuotientEdge:
    __slots__ = ("index", "endpoints", "group_order", "multipliers", "conjugator_witness",
                 "in_spanning_tree", "strip")

    def __init__(self, index: int, endpoints: tuple[int, int], group_order: int,
                 multipliers: tuple[int, int], conjugator_witness: FormalWord,
                 in_spanning_tree: bool, strip: tuple):
        self.index = index
        self.endpoints = endpoints
        self.group_order = group_order
        self.multipliers = multipliers
        self.conjugator_witness = conjugator_witness
        self.in_spanning_tree = in_spanning_tree
        self.strip = strip  # the rows (a_k, s_k, t_k, b_k, u_k)


class QuotientGraphOfGroups:
    __slots__ = ("element", "n", "classification", "vertices", "edges")

    def __init__(self, element: tuple[int, ...], n: int, classification: str,
                 vertices: list[QuotientVertex], edges: list[QuotientEdge]):
        self.element = element
        self.n = n
        self.classification = classification  # "single_axis" | "graph_of_groups"
        self.vertices = vertices  # vertices[0] is the base vertex, the axial wall of g
        self.edges = edges

    @property
    def betti_number(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    @_collector_paused
    def to_json(self):
        labels = [v.display_label for v in self.vertices]
        vertices = []
        for v in self.vertices:
            word = v.generator_witness
            letters = word.letters
            vertices.append({
                "label": v.display_label,
                "kind": v.kind,
                "group_order": v.group_order,
                "generator_witness": [[g, x] for g, x in letters] if letters else [],
                "generator_witness_str": str(word) if letters else None,
            })
        edges = []
        for e in self.edges:
            i, j = e.endpoints
            letters = e.conjugator_witness.letters
            edges.append({
                "endpoints": [labels[i], labels[j]],
                "group_order": e.group_order,
                "multipliers": list(e.multipliers),
                "in_spanning_tree": e.in_spanning_tree,
                "conjugator_witness": [[g, x] for g, x in letters] if letters else [],
                "strip": strip_json(e.strip),
            })
        return {
            "element": list(self.element),
            "n": self.n,
            "classification": self.classification,
            "base_vertex": labels[0],
            "betti_number": self.betti_number,
            "vertices": vertices,
            "edges": edges,
        }

    def to_dot(self) -> str:
        lines = ["graph quotient {", "  node [shape=ellipse];"]
        for v in self.vertices:
            ann = f"\\nZ/{v.group_order}Z" if v.group_order > 1 else ""
            shape = "  shape=box" if v.kind == "median" else ""
            lines.append(
                f'  v{v.index} [label="{v.display_label}{ann}"{"," + shape if shape else ""}];')
        for e in self.edges:
            i, j = e.endpoints
            attrs = []
            if e.group_order > 1:
                attrs.append(f'label="Z/{e.group_order}Z"')
            if not e.in_spanning_tree:
                attrs.append("style=dashed")
            suffix = f' [{", ".join(attrs)}]' if attrs else ""
            lines.append(f"  v{i} -- v{j}{suffix};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _median_display_label(rows: tuple, period: int, d: int, digits: list[str]) -> str:
    """Bracketed positive word conjugate to the glide, e.g. "[0]" or "[2,3,5]".

    For the least flip shift d (the glide step) the core word is
    a_0..a_{d-1} x_{t_d}^-1; with d = 0 the positive representative is the
    single letter t_0 (the inverse glide), otherwise x_{t_d}^-1 expands
    through the lower triangle to x_{a_d} x_{s_d}.
    The label is minimized over anchor phases below the strip's minimal
    period (the others repeat them) and rotations.  ``digits[x]`` is the
    decimal string of generator x.
    """
    candidates = []
    for k0 in range(period):
        sp = rows[k0:] + rows[:k0]
        if d == 0:
            word = (sp[0][2],)
        else:
            word = tuple([row[0] for row in sp[:d]]) + sp[d][:2]
        candidates.append(canonical_rotation(word))
    best = min(candidates)
    return "[" + ",".join([digits[x] for x in best]) + "]"


def _suffix(rows: tuple, dd: int) -> tuple:
    """The letters of x_{t_0}^-1 x_{b_0} ... x_{b_{dd-1}}, which carry the
    base vertex of the strip's wall to that of its opposite wall, whose
    canonical rotation starts at b_dd.  The word is reduced: t_0 == b_0
    would make the upper triangle (s_0, t_0, a_0), the fold."""
    return (NEGATIVE[rows[0][2]],) + tuple([POSITIVE[row[3]] for row in rows[:dd]])


def _conjugate(base: FormalWord, *core: tuple) -> FormalWord:
    """base x core x base^-1, spelled from the letter tuples of ``core``
    in one reduction."""
    return FormalWord.spell((base.letters, *core, inverse_letters(base.letters)))


@_collector_paused
def build_quotient(presentation: TrianglePresentation, element) -> QuotientGraphOfGroups:
    """Quotient graph of groups of the axial-wall tree for a wall word."""
    labels, period = wall_word(presentation, element)
    n = len(labels)
    digits = [str(x) for x in range(presentation.generator_count)]
    share_letters(range(presentation.generator_count))

    vertices: list[QuotientVertex] = []
    edges: list[QuotientEdge] = []
    wall_ids: dict[tuple, int] = {}
    # wall vertex -> start pairs (s_0, t_0) of the kept edges' anchored readings there
    readings: dict[int, set] = {}
    # witness tree: wall vertex -> (parent, rows, dd) of the strip that found
    # it; spelled base witnesses
    tree_links: dict[int, tuple[int, tuple, int]] = {}
    spelled: dict[int, FormalWord] = {}

    def base_witness(vid) -> FormalWord:
        """The base witness of a wall vertex, spelled from its nearest
        spelled ancestor in the witness tree."""
        suffixes = []
        top = vid
        while top not in spelled:
            top, rows, dd = tree_links[top]
            suffixes.append(_suffix(rows, dd))
        if suffixes:
            suffixes.append(spelled[top].letters)
            spelled[vid] = FormalWord.spell(reversed(suffixes))
        return spelled[vid]

    def new_wall_vertex(sequence, p, link=None) -> int:
        """A wall vertex for the canonical ``sequence`` of minimal period p,
        a divisor of n, found through ``link``, its witness-tree link."""
        vid = len(vertices)
        if link is None:
            spelled[vid] = FormalWord.identity()
        else:
            tree_links[vid] = link
        order = n // p
        # the wall through the base vertex c, with labels a_0 a_1 ... from
        # it, is translated one period by c x_{a_0} ... x_{a_{p-1}} c^-1
        gen = (_conjugate(base_witness(vid), tuple([POSITIVE[x] for x in sequence[:p]]))
               if order > 1 else FormalWord.identity())
        vertices.append(QuotientVertex(
            vid, "wall", order, gen, "(" + ",".join([digits[x] for x in sequence[:p]]) + ")",
            sequence, p))
        wall_ids[sequence] = vid
        readings[vid] = set()
        return vid

    base = new_wall_vertex(labels, period)
    queue = deque([base])

    while queue:
        vid = queue.popleft()
        v = vertices[vid]
        # the set can go: no strip kept later ends at a dequeued wall, whose
        # walk kept the strip's orbit or dropped it as a known back-edge
        seen = readings.pop(vid)
        # strips come sorted by rows, so the first strip of an orbit seen is
        # the least of its wall-stabilizer class; registering the orbit's
        # anchored readings drops the later members of the class here, the
        # second end of a loop here and the back-edge at the other wall when
        # that wall is dequeued
        for rows, start in enumerate_periodic_strips(presentation, v.sequence):
            if start in seen:
                continue
            # p | pe | n, so a strip at a primitive wall (p == n) has
            # pe == n with no scan
            pe = n if v.period == n else minimal_period(rows)
            # b repeats with period dividing pe: the least rotation of one
            # period, repeated, and its minimal period, that of b and so of
            # the wall vertex canon_b
            canon_b, dd, p_b = least_rotation([row[3] for row in rows[:pe]])
            canon_b *= n // pe
            ds = flip_shifts(rows, pe) if canon_b == v.sequence else None
            if ds:
                d = ds[0]  # 2d+1 == pe
                # the core a_0..a_{d-1} x_{t_d}^-1 in two parts, so that
                # spell reduces the seam between them too
                positive = tuple([POSITIVE[row[0]] for row in rows[:d]])
                glide = _conjugate(base_witness(vid), positive, (NEGATIVE[rows[d][2]],))
                other = len(vertices)
                vertices.append(QuotientVertex(
                    other, "median", 2 * n // pe, glide,
                    _median_display_label(rows, pe, d, digits)))
                mu_other, conj, is_new = 2, FormalWord.identity(), True
                seen.update(anchored_readings(rows, pe, v.period)[0])
            else:
                is_new = canon_b not in wall_ids
                if is_new:
                    other = new_wall_vertex(canon_b, p_b, (vid, rows, dd))
                    queue.append(other)
                    conj = FormalWord.identity()
                else:
                    other = wall_ids[canon_b]
                    conj = FormalWord.spell((base_witness(vid).letters, _suffix(rows, dd),
                                             inverse_letters(base_witness(other).letters)))
                mu_other = pe // p_b
                own, opposite = anchored_readings(rows, pe, v.period, (dd, p_b))
                seen.update(own)
                # the other end of a loop is this wall, whose set is popped
                (seen if other == vid else readings[other]).update(opposite)
            edges.append(QuotientEdge(len(edges), (vid, other), n // pe,
                                      (pe // v.period, mu_other), conj, is_new, rows))

    # a strip at the base vertex always makes an edge, the first one
    classification = "graph_of_groups" if edges else "single_axis"
    return QuotientGraphOfGroups(labels, n, classification, vertices, edges)


def vertex_witnesses(graph: QuotientGraphOfGroups) -> dict[str, FormalWord]:
    """Generator witness per nontrivial vertex group, keyed by display label."""
    return {v.display_label: v.generator_witness
            for v in graph.vertices if v.group_order > 1}
