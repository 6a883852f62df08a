import random
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import gcd
from types import SimpleNamespace

import pytest

from a2cent.bassserre import (GroupPresentation, IsoType, Unsimplified,
                              abelianization, fundamental_group, render_word, simplify,
                              smith_diagonal)
from a2cent.errors import InvariantError
from a2cent.presentation import load, load_named
from a2cent.quotient import build_quotient
from a2cent.walls import minimal_period, wall_necklaces
from presentations import OTHER_Q2, SINGER_Q4, relabelled_c1

C1 = load_named("c1")

WALL_WORDS_3 = [w for n in (1, 2, 3) for w in wall_necklaces(C1, n)]
WALL_WORDS_6 = [w for n in range(1, 7) for w in wall_necklaces(C1, n)]


def renumbered(graph, first):
    """The graph with its edges renumbered and listed by their new index:
    the edges indexed in ``first`` take indices 0, 1, ... in that order,
    and the others follow in index order.  simplify reads the edges in list
    order, so this steers it."""
    rest = sorted(e.index for e in graph.edges if e.index not in set(first))
    new_index = {old: new for new, old in enumerate(list(first) + rest)}
    edges = [SimpleNamespace(index=new_index[e.index], endpoints=e.endpoints,
                             group_order=e.group_order, multipliers=e.multipliers,
                             in_spanning_tree=e.in_spanning_tree)
             for e in graph.edges]
    edges.sort(key=lambda e: e.index)
    return SimpleNamespace(vertices=graph.vertices, edges=edges)


def reference_simplify(graph):
    """The collapse loop that rescans every edge after each collapse and
    takes the collapsible edge of least index, and absorbs an endpoint
    across a non-tree edge only when no other nontrivial edge group
    includes into it: the reference for the one pass in ``simplify``."""
    orders = {v.index: v.group_order for v in graph.vertices}
    edges = {e.index: (e.endpoints[0], e.endpoints[1], e.group_order,
                       e.multipliers[0], e.multipliers[1], e.in_spanning_tree)
             for e in graph.edges}

    def other_edges_trivial(vertex, skip):
        return all(oe == 1 for jdx, (w1, w2, oe, _m1, _m2, _t) in edges.items()
                   if jdx != skip and vertex in (w1, w2))

    while True:
        candidates = []
        for idx, (v1, v2, oe, m1, m2, tree) in edges.items():
            if v1 == v2:
                continue
            if oe == orders[v2] and gcd(m2, orders[v2]) == 1 and \
                    (tree or other_edges_trivial(v2, idx)):
                candidates.append((idx, v2, v1, m2, m1))
            elif oe == orders[v1] and gcd(m1, orders[v1]) == 1 and \
                    (tree or other_edges_trivial(v1, idx)):
                candidates.append((idx, v1, v2, m1, m2))
        if not candidates:
            break
        idx, gone, kept, mu_gone, mu_kept = min(candidates)
        o_gone, o_kept = orders[gone], orders[kept]
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


def test_isotype_render():
    assert IsoType(0, ()).render() == "1"
    assert IsoType(1, ()).render() == "Z"
    assert IsoType(2, ()).render() == "Z^{*2}"
    assert IsoType(0, (3,)).render() == "(Z/3)"
    assert IsoType(1, (2, 2, 4)).render() == "Z * (Z/2)^{*2} * (Z/4)"
    assert IsoType(2, (2, 2, 2, 2, 2)).render() == "Z^{*2} * (Z/2)^{*5}"


def test_isotype_validation():
    with pytest.raises(ValueError):
        IsoType(0, (1,))
    with pytest.raises(ValueError):
        IsoType(0, (4, 2))


def test_render_word():
    assert render_word(()) == "1"
    assert render_word((("h", 2), ("c", -1))) == "h^2*c^-1"


def test_presentation_rejects_undeclared():
    with pytest.raises(InvariantError):
        GroupPresentation(("a",), ((("b", 1),),))


def test_fundamental_group_05():
    g = build_quotient(C1, (0, 5))
    p = fundamental_group(g)
    assert set(p.generators) == {"h_(2)", "h_(6)", "h_(3)", "h_(1)",
                                 "h_[0]", "h_(4)", "c_6"}
    rels = set(p.relations)
    assert (("h_[0]", 4),) in rels
    assert (("h_(2)", 2),) in rels
    # tree-edge identifications through the inclusion multipliers
    assert (("h_(2)", 1), ("h_(1)", -1)) in rels
    assert (("h_(6)", 1), ("h_[0]", -2)) in rels


def test_simplify_05_and_014():
    g = build_quotient(C1, (0, 5))
    assert simplify(g) == IsoType(1, (2, 2, 4))
    g = build_quotient(C1, (0, 1, 4))
    assert simplify(g) == IsoType(2, (2, 2, 2, 2, 2))


def test_simplify_cyclic_quotients():
    assert simplify(build_quotient(C1, (5, 5))) == IsoType(0, (2,))
    assert simplify(build_quotient(C1, (5,))) == IsoType(0, ())


def test_simplify_reports_genuine_amalgams():
    # g = (x0 x5)^2: every edge at the base is a proper Z/2 amalgam, e.g.
    # Z/4 *_{Z/2} Z/4 factors, which is not a free product of cyclics
    result = simplify(build_quotient(C1, (0, 5, 0, 5)))
    assert isinstance(result, Unsimplified)
    assert (("h_[0]", 8),) in result.presentation.relations


@pytest.mark.parametrize("word", WALL_WORDS_3, ids=str)
def test_simplify_confluence(word):
    """The isomorphism type must not depend on the collapse order."""
    g = build_quotient(C1, word)
    reference = simplify(g)
    assert isinstance(reference, IsoType)
    rng = random.Random(hash(word) & 0xFFFF)
    indices = [e.index for e in g.edges]
    for _trial in range(6):
        rng.shuffle(indices)
        assert simplify(renumbered(g, indices)) == reference


def check_simplify_equals_reference(words):
    for word in words:
        g = build_quotient(C1, word)
        assert simplify(g) == reference_simplify(g), word
        rng = random.Random(hash(word) & 0xFFFF)
        indices = [e.index for e in g.edges]
        for _trial in range(3):
            rng.shuffle(indices)
            first = indices[:rng.randint(0, len(indices))]
            steered = renumbered(g, first)
            assert simplify(steered) == reference_simplify(steered), (word, first)


def test_simplify_equals_reference_through_length_6():
    check_simplify_equals_reference(WALL_WORDS_6)


@pytest.mark.slow
def test_simplify_equals_reference_at_length_7():
    check_simplify_equals_reference(wall_necklaces(C1, 7))


RANDOM_ORDERS = (1, 2, 3, 4, 6, 12)


def random_graph_of_groups(rng, pool=RANDOM_ORDERS, max_vertices=7, max_non_tree=6,
                           common_bias=0.0):
    """A connected graph of cyclic groups on up to ``max_vertices`` vertices
    with a marked spanning tree, up to ``max_non_tree`` loops, parallel and
    other non-tree edges, and consistent inclusions: more nontrivial
    non-tree edges, and more primes, than the quotients of c1 have.  Orders
    come from the divisor-closed ``pool``; with probability
    ``common_bias`` an edge takes the greatest common divisor of its
    endpoints' orders, else any common divisor.  Each end has multiplier
    k*u with k = o_v/o_e and u a unit mod o_e, so each inclusion is
    injective."""
    orders = [rng.choice(pool) for _v in range(rng.randint(1, max_vertices))]
    ends = [(rng.randrange(k), k, True) for k in range(1, len(orders))]
    ends += [(rng.randrange(len(orders)), rng.randrange(len(orders)), False)
             for _e in range(rng.randint(0, max_non_tree))]
    rng.shuffle(ends)
    edges = []
    for idx, (v1, v2, tree) in enumerate(ends):
        common = gcd(orders[v1], orders[v2])
        if common_bias and rng.random() < common_bias:
            oe = common
        else:
            oe = rng.choice([d for d in pool if common % d == 0])
        units = [u for u in range(1, oe + 1) if gcd(u, oe) == 1]
        multipliers = tuple(orders[v] // oe * rng.choice(units) for v in (v1, v2))
        edges.append(SimpleNamespace(index=idx, endpoints=(v1, v2), group_order=oe,
                                     multipliers=multipliers, in_spanning_tree=tree))
    vertices = [SimpleNamespace(index=v, group_order=o, display_label=str(v))
                for v, o in enumerate(orders)]
    return SimpleNamespace(vertices=vertices, edges=edges)


def random_graphs():
    """2000 seeded random graphs of groups, each followed by a copy with
    some of its edges renumbered first."""
    rng = random.Random(20110112)
    for _trial in range(2000):
        g = random_graph_of_groups(rng)
        yield g
        indices = [e.index for e in g.edges]
        yield renumbered(g, rng.sample(indices, rng.randint(0, len(indices))))


def test_simplify_equals_reference_on_random_graphs():
    results = Counter()
    for graph in random_graphs():
        result = simplify(graph)
        assert result == reference_simplify(graph), graph
        results[type(result).__name__] += 1
    # pinned, so that a weaker collapse rule fails here even when it never
    # returns a wrong type: it leaves more graphs Unsimplified
    assert results == {"IsoType": 1394, "Unsimplified": 2606}


DIVISOR_POOLS = ((1, 2, 4, 8), (1, 2, 3, 6), (1, 2, 3, 5, 6, 10, 15, 30))


@pytest.mark.slow
def test_simplify_equals_reference_on_adversarial_graphs():
    """20 000 seeded graphs on up to 10 vertices with up to 12 non-tree
    edges, orders from one divisor-closed pool per graph and edge groups
    biased to the greatest common divisor of their endpoints' orders: many
    edges that fill an endpoint group at a vertex with other nontrivial
    edges, which the reference blocks and the one pass contracts."""
    rng = random.Random(20111219)
    results = Counter()
    for _trial in range(20000):
        graph = random_graph_of_groups(rng, rng.choice(DIVISOR_POOLS), 10, 12, 0.5)
        result = simplify(graph)
        assert result == reference_simplify(graph), graph
        results[type(result).__name__] += 1
    assert results == {"IsoType": 4669, "Unsimplified": 15331}


def hand_built(vertices, edges):
    """A graph of groups from (label, order) vertices and (endpoints,
    order, multipliers, tree flag) edges, each indexed by its position."""
    return SimpleNamespace(
        vertices=[SimpleNamespace(index=v, group_order=o, display_label=label)
                  for v, (label, o) in enumerate(vertices)],
        edges=[SimpleNamespace(index=idx, endpoints=ends, group_order=oe,
                               multipliers=mus, in_spanning_tree=tree)
               for idx, (ends, oe, mus, tree) in enumerate(edges)])


def test_simplify_contracts_a_non_tree_edge_at_a_vertex_with_two_nontrivial_edges():
    """Edge 0 (K-X, non-tree, Z/2) fills K, which has a second nontrivial
    edge (K-Y).  The one pass absorbs K into X at once; the reference
    first collapses edge 1 (K-Y, tree), after which K has one nontrivial
    edge.  Both give Z * (Z/4)."""
    graph = hand_built((("K", 2), ("Y", 2), ("X", 4)),
                       (((0, 2), 2, (1, 2), False),
                        ((0, 1), 2, (1, 1), True),
                        ((1, 2), 1, (2, 4), True)))
    assert simplify(graph) == reference_simplify(graph) == IsoType(1, (4,))
    assert simplify(graph).render() == "Z * (Z/4)"


def test_simplify_contracts_an_edge_the_reference_blocks_at_that_step():
    """A path W1-X-Y-W2 of Z/2 vertices with trivial tree edges and
    non-tree Z/2 edges X-Y (listed first), W1-X and Y-W2.  The one pass
    contracts X-Y first, where the reference, which needs X or Y to have
    no other nontrivial edge, blocks it until W1-X is collapsed.  Both
    end in one Z/2 vertex and three trivial loops."""
    graph = hand_built((("W1", 2), ("X", 2), ("Y", 2), ("W2", 2)),
                       (((1, 2), 2, (1, 1), False),
                        ((0, 1), 2, (1, 1), False),
                        ((2, 3), 2, (1, 1), False),
                        ((0, 1), 1, (2, 2), True),
                        ((1, 2), 1, (2, 2), True),
                        ((2, 3), 1, (2, 2), True)))
    assert simplify(graph) == reference_simplify(graph) == IsoType(3, (2,))
    assert simplify(graph).render() == "Z^{*3} * (Z/2)"


def test_simplify_leaves_an_amalgam_the_contractions_create():
    """A 4-cycle V(2)-L1(6)-Z(3)-L2(6) of non-tree edges of orders 2, 3, 3
    and 2, with trivial tree edges.  The reference collapses nothing: each
    vertex has two nontrivial edges.  The one pass absorbs V and Z into
    L1, which leaves L1 and L2 joined by a Z/2 and a Z/3 edge, neither
    filling Z/6: no free product of cyclics."""
    graph = hand_built((("V", 2), ("L1", 6), ("Z", 3), ("L2", 6)),
                       (((0, 1), 2, (1, 3), False),
                        ((1, 2), 3, (2, 1), False),
                        ((2, 3), 3, (1, 2), False),
                        ((3, 0), 2, (3, 1), False),
                        ((0, 1), 1, (2, 6), True),
                        ((1, 2), 1, (6, 3), True),
                        ((2, 3), 1, (3, 6), True)))
    assert simplify(graph) == reference_simplify(graph) == Unsimplified(fundamental_group(graph))


def test_simplify_the_flat_quotient_of_an_18_letter_word():
    """The 19 760-vertex quotient of an 18-letter word has only trivial
    groups: one pass contracts a spanning tree and leaves Z."""
    g = build_quotient(C1, (6, 5, 3, 1, 6, 6, 4, 2, 2, 0, 1, 4, 2, 0, 1, 0, 4, 3))
    assert {v.group_order for v in g.vertices} == {e.group_order for e in g.edges} == {1}
    assert len(g.edges) == 19760
    assert simplify(g) == IsoType(1, ())


def euler_characteristic(graph):
    """chi = sum 1/|G_v| - sum 1/|G_e| of a finite graph of finite groups
    (Brown, Cohomology of Groups, IX.7); a collapse leaves it unchanged."""
    return (sum(Fraction(1, v.group_order) for v in graph.vertices)
            - sum(Fraction(1, e.group_order) for e in graph.edges))


def test_euler_characteristic_of_every_isotype():
    """chi(Z^{*r} * Z/o_1 * ... * Z/o_k) = 1 - r - sum (1 - 1/o_i) must
    equal chi of the graph simplify classified.  The check reads no
    multiplier."""
    graphs = chain((build_quotient(C1, word) for word in WALL_WORDS_6),
                   (build_quotient(OTHER_Q2, word)
                    for n in range(1, 6) for word in wall_necklaces(OTHER_Q2, n)),
                   random_graphs())
    checked = 0
    for graph in graphs:
        result = simplify(graph)
        if isinstance(result, IsoType):
            expected = 1 - result.free_rank - sum(1 - Fraction(1, o)
                                                  for o in result.cyclic_orders)
            assert euler_characteristic(graph) == expected, result
            checked += 1
    assert checked == 1010 + 303 + 1394  # c1, OTHER_Q2, random graphs


@pytest.mark.parametrize("word", WALL_WORDS_3, ids=str)
def test_abelianization_matches_isotype(word):
    g = build_quotient(C1, word)
    iso = simplify(g)
    assert abelianization(fundamental_group(g)) == iso.abelianization()


def check_cross_checks(pres, lengths):
    """For every wall necklace of the given lengths, the SNF abelianization of
    the fundamental group equals that of the simplified isomorphism type.
    Returns, per length, the numbers of Unsimplified results from proper
    powers and from primitive words."""
    unsimplified = {}
    for n in lengths:
        powers = primitives = 0
        for word in wall_necklaces(pres, n):
            g = build_quotient(pres, word)
            result = simplify(g)
            if isinstance(result, IsoType):
                assert abelianization(fundamental_group(g)) == result.abelianization(), word
            else:
                assert isinstance(result, Unsimplified)
                if minimal_period(word) < n:
                    powers += 1
                else:
                    primitives += 1
        unsimplified[n] = (powers, primitives)
    return unsimplified


def test_cross_checks_through_length_5():
    assert check_cross_checks(C1, range(1, 6)) == \
        {1: (0, 0), 2: (0, 0), 3: (0, 0), 4: (6, 0), 5: (0, 0)}


def test_cross_checks_on_relabelled_c1_through_length_5():
    pres = relabelled_c1(20111)
    assert pres.rotation_classes != C1.rotation_classes
    assert check_cross_checks(pres, range(1, 6)) == \
        {1: (0, 0), 2: (0, 0), 3: (0, 0), 4: (6, 0), 5: (0, 0)}


def test_cross_checks_on_other_q2_through_length_5():
    # (0,4), (0,5) and (0,6) are primitive and their quotients do not simplify
    assert check_cross_checks(OTHER_Q2, range(1, 6)) == \
        {1: (0, 0), 2: (6, 3), 3: (6, 0), 4: (9, 0), 5: (6, 0)}
    for word in ((0, 4), (0, 5), (0, 6)):
        assert isinstance(simplify(build_quotient(OTHER_Q2, word)), Unsimplified), word


def test_cross_checks_on_singer_q4_through_length_3():
    # at q=4 the powers (x,x) and (x,x,x) and 21 primitive words of length
    # 3 do not simplify
    assert check_cross_checks(SINGER_Q4, range(1, 4)) == \
        {1: (0, 0), 2: (21, 0), 3: (21, 21)}


@pytest.mark.slow
def test_cross_checks_at_lengths_6_and_7():
    assert check_cross_checks(C1, (6, 7)) == {6: (13, 0), 7: (0, 0)}


@pytest.mark.slow
def test_cross_checks_on_relabelled_c1_at_lengths_6_and_7():
    assert check_cross_checks(relabelled_c1(20111), (6, 7)) == {6: (13, 0), 7: (0, 0)}


def test_abelianization_examples():
    g = build_quotient(C1, (0, 5))
    assert abelianization(fundamental_group(g)) == (1, (2, 2, 4))
    g = build_quotient(C1, (0, 1, 4))
    assert abelianization(fundamental_group(g)) == (2, (2, 2, 2, 2, 2))


def test_isotype_abelianization_merges_coprime_orders():
    # a q=2 presentation other than c1 whose quotient at 5,5,5 simplifies to
    # (Z/2) * (Z/3): its abelianization is Z/6, not Z/2 + Z/3
    pres = load({"generators": 7, "relators": [[0, 0, 1], [0, 2, 3], [1, 4, 5], [1, 5, 6],
                                               [2, 2, 4], [3, 3, 6], [4, 6, 5]]})
    g = build_quotient(pres, (5, 5, 5))
    iso = simplify(g)
    assert iso.render() == "(Z/2) * (Z/3)"
    assert iso.abelianization() == abelianization(fundamental_group(g)) == (0, (6,))
    assert IsoType(2, (2, 4, 6, 9)).abelianization() == (2, (2, 6, 36))
    assert IsoType(1, ()).abelianization() == (1, ())


def test_smith_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    rng = random.Random(20110112)
    for _trial in range(1000):
        rows = [[rng.randint(-9, 9) if rng.random() < 0.6 else 0
                 for _c in range(rng.randint(1, 6))]]
        rows += [[rng.randint(-9, 9) if rng.random() < 0.6 else 0
                  for _c in range(len(rows[0]))] for _r in range(rng.randint(0, 5))]
        snf = smith_normal_form(sympy.Matrix(rows))
        expected = [abs(int(snf[i, i])) for i in range(min(snf.shape))]
        assert smith_diagonal(rows) == expected, rows


def test_smith_diagonal_examples():
    assert smith_diagonal([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]
    assert smith_diagonal([[0, 0], [0, 0]]) == [0, 0]
    assert smith_diagonal([[4], [6]]) == [2]
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]


def test_render():
    p = GroupPresentation(("a", "b"), ((("a", 2),), (("a", 1), ("b", -1))))
    assert p.render() == "< a, b | a^2, a*b^-1 >"
    assert GroupPresentation(("a",), ()).render() == "< a | - >"
