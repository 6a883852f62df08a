"""Fundamental group of the quotient graph of groups, and its simplification.

The presentation has one generator h_<label> per nontrivial vertex group and
one letter c_<index> per non-tree geometric edge; tree-edge letters are set
to the identity at construction.  Simplification repeatedly collapses edges
whose edge group surjects onto an endpoint group; when only trivial edge
groups remain the result is a free product of cyclics with an explicit free
rank.  Every inclusion is injective, so an edge group surjects exactly when
its order equals the endpoint's: the collapse reads group orders only, and
the multipliers are output data for fundamental_group.

The collapse runs off a worklist: a heap of edge indices, an
incidence set per vertex and a count per vertex of incident edges with a
nontrivial group.  A collapse moves only the edges at the absorbed vertex
and pushes them again; the other edges at the vertex that absorbed it are
pushed again only when that vertex's count fell, the one change that can
make them collapsible.  So a step costs time in the degrees of those two
vertices, not in the edge count, and where every edge group is trivial it
pushes only the moved edges.  Each step still takes the collapsible edge
of least index (see simplify).
"""

from __future__ import annotations

from heapq import heappop, heappush

from .errors import InvariantError
from .frozen import Frozen
from .quotient import QuotientGraphOfGroups


Word = tuple  # of (symbol, exponent) pairs


class GroupPresentation(Frozen):
    __slots__ = ("generators", "relations", "central")

    def __init__(self, generators: tuple[str, ...], relations: tuple[Word, ...],
                 central: str | None = None):
        """``central`` names the central letter, if any."""
        declared = set(generators)
        for rel in relations:
            for sym, _e in rel:
                if sym not in declared:
                    raise InvariantError(f"relation mentions undeclared generator {sym}")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "central", central)

    def _key(self):
        return (self.generators, self.relations, self.central)

    def render(self) -> str:
        gens = ", ".join(self.generators)
        rels = ", ".join(render_word(r) for r in self.relations) or "-"
        return f"< {gens} | {rels} >"

    def to_json(self):
        return {
            "generators": list(self.generators),
            "relations": [render_word(r) for r in self.relations],
            "central": self.central,
        }


def render_word(word: Word) -> str:
    if not word:
        return "1"
    parts = []
    for sym, e in word:
        parts.append(sym if e == 1 else f"{sym}^{e}")
    return "*".join(parts)


class IsoType(Frozen):
    """Free product of cyclics: Z^{*a} * (Z/n1) * ... with orders sorted."""

    __slots__ = ("free_rank", "cyclic_orders")

    def __init__(self, free_rank: int, cyclic_orders: tuple[int, ...]):
        if any(o < 2 for o in cyclic_orders):
            raise ValueError("cyclic orders must be >= 2")
        if tuple(sorted(cyclic_orders)) != cyclic_orders:
            raise ValueError("cyclic orders must be sorted ascending")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "cyclic_orders", cyclic_orders)

    def _key(self):
        return (self.free_rank, self.cyclic_orders)

    def render(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{{*{self.free_rank}}}")
        i = 0
        orders = self.cyclic_orders
        while i < len(orders):
            j = i
            while j < len(orders) and orders[j] == orders[i]:
                j += 1
            mult = j - i
            parts.append(f"(Z/{orders[i]})" if mult == 1 else f"(Z/{orders[i]})^{{*{mult}}}")
            i = j
        return " * ".join(parts) if parts else "1"

    def abelianization(self):
        """(free rank, invariant factors) of the abelianized free product:
        Z^r plus the Smith normal form of the diagonal matrix of the orders."""
        orders = self.cyclic_orders
        diagonal = [[o if i == j else 0 for j in range(len(orders))] for i, o in enumerate(orders)]
        factors = smith_diagonal(diagonal) if orders else []
        return self.free_rank, tuple(d for d in factors if d > 1)


class Unsimplified(Frozen):
    """A nontrivial non-collapsible edge group remained."""

    __slots__ = ("presentation",)

    def __init__(self, presentation: GroupPresentation):
        object.__setattr__(self, "presentation", presentation)

    def _key(self):
        return (self.presentation,)


def _vertex_symbol(label: str) -> str:
    return f"h_{label}"


def _edge_symbol(index: int) -> str:
    return f"c_{index}"


def fundamental_group(graph: QuotientGraphOfGroups) -> GroupPresentation:
    """Presentation of the Bass-Serre fundamental group of the quotient.

    Relations: h_v^order = 1 per nontrivial vertex; per edge with nontrivial
    group the conjugation relation equating the two inclusion images through
    the multipliers, with the edge letter omitted on tree edges.
    """
    gens = []
    rels = []
    for v in graph.vertices:
        if v.group_order > 1:
            gens.append(_vertex_symbol(v.display_label))
            rels.append(((_vertex_symbol(v.display_label), v.group_order),))
    for e in graph.edges:
        if not e.in_spanning_tree:
            gens.append(_edge_symbol(e.index))
    for e in graph.edges:
        if e.group_order <= 1:
            continue
        v1 = graph.vertices[e.endpoints[0]]
        v2 = graph.vertices[e.endpoints[1]]
        h1 = (_vertex_symbol(v1.display_label), e.multipliers[0])
        h2 = (_vertex_symbol(v2.display_label), -e.multipliers[1])
        if e.in_spanning_tree:
            rels.append((h1, h2))
        else:
            c = _edge_symbol(e.index)
            rels.append(((c, 1), h2, (c, -1), h1))
    return GroupPresentation(tuple(gens), tuple(rels))


def full_centralizer_presentation(graph: QuotientGraphOfGroups) -> GroupPresentation:
    """Presentation of the full centralizer as a central extension by <g>.

    The quotient relations h_v^order = 1 lift to h_v^order = g (this holds on
    the nose for wall translations and glides); conjugation relations hold
    unchanged; g is central.  Setting g = 1 recovers fundamental_group.
    """
    inner = fundamental_group(graph)
    gens = inner.generators + ("g",)
    rels = []
    for rel in inner.relations:
        if len(rel) == 1:  # torsion relation h^o = 1 lifts to h^o = g
            rels.append((rel[0], ("g", -1)))
        else:
            rels.append(rel)
    for sym in inner.generators:
        rels.append(((sym, 1), ("g", 1), (sym, -1), ("g", -1)))
    return GroupPresentation(tuple(gens), tuple(rels), central="g")


# -- simplification ---------------------------------------------------------

def simplify(graph: QuotientGraphOfGroups):
    """Collapse edges with surjective inclusions; classify if possible.

    Returns an IsoType when every surviving edge group is trivial, otherwise
    Unsimplified wrapping the raw presentation.

    Collapsibility reads only group orders and the tree flag.  Every edge
    group includes injectively, so its image in an endpoint group of order
    o has its own order: the inclusion is onto iff the two orders are equal.
    A collapse composes injections, so an edge moved onto the kept vertex
    still includes injectively, and the rule stays exact.

    Every edge index starts on a heap.  Each step pops indices until one
    names an edge that still exists and is collapsible now, and collapses
    it; the indices popped before it are dropped.  A collapse of ``gone``
    into ``kept`` moves only the edges that were at ``gone``, and pushes
    them again.  An edge that stays at ``kept`` keeps its endpoints and
    their orders; of its inputs to collapsible only ``nontrivial[kept]``
    can change, and only a fall can make it collapsible, so these edges
    are pushed again only when that count fell.  No other edge changes
    at all.  So a dropped edge is pushed again whenever it could become
    collapsible, and each step takes the collapsible edge of least index,
    as a scan of all edges would.
    """
    orders = {v.index: v.group_order for v in graph.vertices}
    edges = {e.index: (e.endpoints[0], e.endpoints[1], e.group_order, e.in_spanning_tree)
             for e in graph.edges}
    incident = {v: set() for v in orders}
    nontrivial = dict.fromkeys(orders, 0)  # incident edges with oe > 1, loops once
    for idx, (v1, v2, oe, _t) in edges.items():
        incident[v1].add(idx)
        incident[v2].add(idx)
        if oe > 1:
            for v in {v1, v2}:
                nontrivial[v] += 1
    heap = sorted(edges)

    def collapsible(idx):
        """(gone, kept) for a collapsible edge, else None."""
        v1, v2, oe, tree = edges[idx]
        if v1 == v2:
            return None
        # absorb an endpoint whose group the edge group surjects onto;
        # across a non-tree edge the absorbed generator comes back
        # conjugated by the edge letter, which is only sound when no
        # other nontrivial edge group includes into that endpoint: the
        # edge itself is its one nontrivial edge, or it has none
        if oe == orders[v2] and (tree or nontrivial[v2] <= 1):
            return v2, v1
        if oe == orders[v1] and (tree or nontrivial[v1] <= 1):
            return v1, v2
        return None

    while heap:
        idx = heappop(heap)
        if idx not in edges:
            continue
        move = collapsible(idx)
        if move is None:
            continue
        gone, kept = move
        before = nontrivial[kept]
        if edges.pop(idx)[2] > 1:
            nontrivial[kept] -= 1
        del orders[gone]
        moved = incident.pop(gone)
        moved.discard(idx)
        at_kept = incident[kept]
        at_kept.discard(idx)
        for jdx in moved:
            w1, w2, oe, tree = edges[jdx]
            if oe > 1 and kept not in (w1, w2):
                nontrivial[kept] += 1
            edges[jdx] = (kept if w1 == gone else w1, kept if w2 == gone else w2, oe, tree)
        del nontrivial[gone]
        at_kept |= moved
        for jdx in at_kept if nontrivial[kept] < before else moved:
            heappush(heap, jdx)

    if any(oe > 1 for (_v1, _v2, oe, _t) in edges.values()):
        return Unsimplified(fundamental_group(graph))
    free_rank = len(edges) - len(orders) + 1
    cyclic = tuple(sorted(o for o in orders.values() if o > 1))
    return IsoType(free_rank, cyclic)


# -- abelianization ---------------------------------------------------------

def smith_diagonal(rows) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    ``rows`` is a nonempty list of equal-length integer rows.  Returns the
    min(rows, columns) invariant factors d_1 | d_2 | ..., all >= 0, zeros
    last.  Pivoting on a least nonzero entry makes |pivot| fall whenever a
    remainder is left, so the elimination terminates.
    """
    a = [list(row) for row in rows]
    m, n = len(a), len(a[0])
    diag = []
    for p in range(min(m, n)):
        while True:
            nonzero = [(abs(a[i][j]), i, j) for i in range(p, m) for j in range(p, n) if a[i][j]]
            if not nonzero:
                return diag + [0] * (min(m, n) - p)
            _abs, i, j = min(nonzero)
            a[p], a[i] = a[i], a[p]
            for row in a:
                row[p], row[j] = row[j], row[p]
            pivot = a[p][p]
            reduced = True
            for i in range(p + 1, m):
                q = a[i][p] // pivot
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[p])]
                reduced = reduced and a[i][p] == 0
            for j in range(p + 1, n):
                q = a[p][j] // pivot
                if q:
                    for row in a:
                        row[j] -= q * row[p]
                reduced = reduced and a[p][j] == 0
            if not reduced:
                continue  # a remainder is left: it becomes the next, smaller pivot
            # d_p must divide every entry of the rest; if some entry is not
            # a multiple, add its row so that the next pass leaves a remainder
            stray = next((i for i in range(p + 1, m)
                          for j in range(p + 1, n) if a[i][j] % pivot), None)
            if stray is None:
                diag.append(abs(pivot))
                break
            a[p] = [x + y for x, y in zip(a[p], a[stray])]
    return diag


def abelianization(presentation: GroupPresentation):
    """(free rank, invariant factors > 1) via Smith normal form of the
    exponent-sum relation matrix.  Independent of the graph simplifier."""
    gens = list(presentation.generators)
    index = {gname: i for i, gname in enumerate(gens)}
    rows = []
    for rel in presentation.relations:
        row = [0] * len(gens)
        for sym, e in rel:
            row[index[sym]] += e
        rows.append(row)
    if not rows:
        return len(gens), ()
    nonzero = [d for d in smith_diagonal(rows) if d != 0]
    free_rank = len(gens) - len(nonzero)
    torsion = tuple(sorted(d for d in nonzero if d > 1))
    return free_rank, torsion
