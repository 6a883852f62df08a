"""Fundamental group of the quotient graph of groups, and its simplification.

The presentation has one generator h_<label> per nontrivial vertex group and
one letter c_<index> per non-tree geometric edge; tree-edge letters are set
to the identity at construction.  Simplification contracts, in one pass
over the edges, every edge whose edge group is all of an endpoint group;
when only trivial edge groups remain the result is a free product of
cyclics with an explicit free rank.  Every inclusion is injective, so an
edge group is all of an endpoint group exactly when the two orders are
equal: the contraction reads group orders only, and the multipliers and
the tree flag are output data for fundamental_group.
"""

from __future__ import annotations

from .errors import InvariantError
from .frozen import Frozen
from .quotient import QuotientGraphOfGroups


Word = tuple  # of (symbol, exponent) pairs


class GroupPresentation(Frozen):
    __slots__ = ("generators", "relations")

    def __init__(self, generators: tuple[str, ...], relations: tuple[Word, ...]):
        declared = set(generators)
        for rel in relations:
            for sym, _e in rel:
                if sym not in declared:
                    raise InvariantError(f"relation mentions undeclared generator {sym}")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relations", relations)

    def _key(self):
        return (self.generators, self.relations)

    def render(self) -> str:
        gens = ", ".join(self.generators)
        rels = ", ".join(render_word(r) for r in self.relations) or "-"
        return f"< {gens} | {rels} >"

    def to_json(self):
        return {
            "generators": list(self.generators),
            "relations": [render_word(r) for r in self.relations],
            "central": None,  # the document's key, kept so that its bytes hold
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


# -- simplification ---------------------------------------------------------

def simplify(graph: QuotientGraphOfGroups):
    """Contract edges with surjective inclusions; classify if possible.

    Returns an IsoType when every edge group left is trivial, otherwise
    Unsimplified wrapping the raw presentation.

    One pass over the edges, in any order, keeps ``into``: a union-find
    map from each absorbed vertex to the vertex that absorbed it.  An edge
    between two representatives whose order equals one's order absorbs
    that one; any other nontrivial edge group survives.  This is exact
    (Serre, Trees, I.4-5):

    1. Contracting a non-loop edge whose group has an endpoint's order
       keeps pi_1: inclusions are injective, and any non-loop edge lies
       in some maximal tree, on which pi_1 does not depend.
    2. The absorbed vertex's order divides the kept vertex's, which keeps
       its order.  So an edge that is a loop, or whose order is below
       both its endpoints' orders, when the pass reaches it stays so: no
       contraction makes another edge contractible.
    3. A nontrivial edge group C left over has an infinite normalizer: on
       a loop the stable letter conjugates C onto the one subgroup of its
       order in a cyclic vertex group, C itself; on a non-loop C is normal
       in the infinite amalgam Z/a *_C Z/b.  In a free product of cyclics
       a nontrivial finite subgroup lies in a conjugate of a finite factor
       (Kurosh), which contains its normalizer; so pi_1 is no such product.
    4. Otherwise pi_1 is the free product of the vertex groups left and a
       free group of rank E - V + 1, as each contraction removes one edge
       and one vertex; Grushko and Kurosh fix that rank and those orders.
    """
    orders = {v.index: v.group_order for v in graph.vertices}
    into = {}

    def find(v):
        while v in into:
            up = into[v]
            into[v] = into.get(up, up)  # path halving
            v = into[v]
        return v

    for e in graph.edges:
        v1, v2 = find(e.endpoints[0]), find(e.endpoints[1])
        oe = e.group_order
        if v1 != v2 and oe == orders[v2]:
            into[v2] = v1
        elif v1 != v2 and oe == orders[v1]:
            into[v1] = v2
        elif oe > 1:
            return Unsimplified(fundamental_group(graph))
    free_rank = len(graph.edges) - len(orders) + 1
    cyclic = tuple(sorted(o for v, o in orders.items() if o > 1 and v not in into))
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
