"""Fundamental group of the quotient graph of groups, and its simplification.

The presentation has one generator h_<label> per nontrivial vertex group and
one letter c_<index> per non-tree geometric edge; tree-edge letters are set
to the identity at construction.  Simplification repeatedly collapses tree
edges whose edge group surjects onto an endpoint group; when only trivial
edge groups remain the result is a free product of cyclics with an explicit
free rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InvariantError
from .quotient import QuotientGraphOfGroups


Word = tuple  # of (symbol, exponent) pairs


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[str, ...]
    relations: tuple[Word, ...]
    central: str | None = None  # name of the central letter, if any

    def __post_init__(self):
        declared = set(self.generators)
        for rel in self.relations:
            for sym, _e in rel:
                if sym not in declared:
                    raise InvariantError(f"relation mentions undeclared generator {sym}")

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


@dataclass(frozen=True)
class IsoType:
    """Free product of cyclics: Z^{*a} * (Z/n1) * ... with orders sorted."""

    free_rank: int
    cyclic_orders: tuple[int, ...]

    def __post_init__(self):
        if any(o < 2 for o in self.cyclic_orders):
            raise ValueError("cyclic orders must be >= 2")
        if tuple(sorted(self.cyclic_orders)) != self.cyclic_orders:
            raise ValueError("cyclic orders must be sorted ascending")

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
        """(free rank, invariant factors) of the abelianized free product."""
        return _invariant_factors(self.free_rank, list(self.cyclic_orders))


@dataclass(frozen=True)
class Unsimplified:
    """A nontrivial non-collapsible edge group remained."""

    presentation: GroupPresentation


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

def _collapse_state(graph: QuotientGraphOfGroups):
    orders = {v.index: v.group_order for v in graph.vertices}
    edges = {e.index: (e.endpoints[0], e.endpoints[1], e.group_order,
                       e.multipliers[0], e.multipliers[1], e.in_spanning_tree)
             for e in graph.edges}
    return orders, edges


def simplify(graph: QuotientGraphOfGroups, order_hint=None):
    """Collapse tree edges with surjective inclusions; classify if possible.

    Returns an IsoType when every surviving edge group is trivial, otherwise
    Unsimplified wrapping the raw presentation.  ``order_hint`` (a sequence of
    edge indices) steers which collapsible edge is taken first; used by the
    confluence tests, irrelevant to the result.
    """
    orders, edges = _collapse_state(graph)
    pref = {idx: pos for pos, idx in enumerate(order_hint or [])}

    def other_edges_trivial(vertex, skip):
        return all(oe == 1 for jdx, (w1, w2, oe, _m1, _m2, _t) in edges.items()
                   if jdx != skip and vertex in (w1, w2))

    while True:
        candidates = []
        for idx, (v1, v2, oe, m1, m2, tree) in edges.items():
            if v1 == v2:
                continue
            # absorb an endpoint whose group the edge group surjects onto;
            # across a non-tree edge the absorbed generator comes back
            # conjugated by the edge letter, which is only sound when no
            # other nontrivial edge group includes into that endpoint
            if oe == orders[v2] and gcd(m2, orders[v2]) == 1 and \
                    (tree or other_edges_trivial(v2, idx)):
                candidates.append((idx, v2, v1, m2, m1))
            elif oe == orders[v1] and gcd(m1, orders[v1]) == 1 and \
                    (tree or other_edges_trivial(v1, idx)):
                candidates.append((idx, v1, v2, m1, m2))
        if not candidates:
            break
        candidates.sort(key=lambda c: (pref.get(c[0], len(pref)), c[0]))
        idx, gone, kept, mu_gone, mu_kept = candidates[0]
        o_gone, o_kept = orders[gone], orders[kept]
        # h_gone = (h_kept^mu_kept)^c with c = mu_gone^-1 mod o_gone
        c = pow(mu_gone, -1, o_gone) if o_gone > 1 else 0
        factor = (mu_kept * c) % o_kept if o_kept > 1 else 1
        del edges[idx]
        del orders[gone]
        for jdx, (w1, w2, oe, m1, m2, tree) in list(edges.items()):
            nm1, nm2 = m1, m2
            if w1 == gone:
                w1 = kept
                nm1 = (m1 * factor) % o_kept if o_kept > 1 else 1
                nm1 = nm1 or o_kept
            if w2 == gone:
                w2 = kept
                nm2 = (m2 * factor) % o_kept if o_kept > 1 else 1
                nm2 = nm2 or o_kept
            edges[jdx] = (w1, w2, oe, nm1, nm2, tree)

    if any(oe > 1 for (_v1, _v2, oe, _m1, _m2, _t) in edges.values()):
        return Unsimplified(fundamental_group(graph))
    free_rank = len(edges) - len(orders) + 1
    cyclic = tuple(sorted(o for o in orders.values() if o > 1))
    return IsoType(free_rank, cyclic)


# -- abelianization ---------------------------------------------------------

def _invariant_factors(free_rank: int, orders):
    factors = sorted(o for o in orders if o > 1)
    return free_rank, tuple(factors)


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
