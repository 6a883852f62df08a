import pytest

from a2cent.errors import NotAWallWord
from a2cent.presentation import load_named
from a2cent.quotient import build_quotient, vertex_witnesses
from a2cent.walls import wall_necklaces

C1 = load_named("c1")

WALL_WORDS_3 = [w for n in (1, 2, 3) for w in wall_necklaces(C1, n)]

SINGLE_AXIS = [(5,), (0, 1), (0, 4), (5, 5), (5, 6),
               (0, 3, 2), (0, 5, 5), (1, 4, 2), (1, 4, 3), (2, 5, 6), (3, 6, 5)]


def edge_view(graph):
    out = []
    for e in graph.edges:
        l1 = graph.vertices[e.endpoints[0]].display_label
        l2 = graph.vertices[e.endpoints[1]].display_label
        out.append((frozenset((l1, l2)), e.group_order))
    return out


def test_quotient_05_structure():
    g = build_quotient(C1, (0, 5))
    assert g.classification == "graph_of_groups"
    assert g.n == 2
    labels = {v.display_label for v in g.vertices}
    assert labels == {"(0,5)", "(2)", "(3)", "(1)", "(4)", "(6)", "[0]"}
    orders = sorted(v.group_order for v in g.vertices)
    assert orders == [1, 2, 2, 2, 2, 2, 4]
    assert len(g.edges) == 7
    assert g.betti_number == 1
    nontrivial = {pair for pair, o in edge_view(g) if o > 1}
    assert nontrivial == {frozenset({"(2)", "(1)"}),
                          frozenset({"(3)", "(4)"}),
                          frozenset({"(6)", "[0]"})}
    assert all(o == 2 for _p, o in edge_view(g) if o > 1)


def test_quotient_05_witnesses():
    g = build_quotient(C1, (0, 5))
    w = vertex_witnesses(g)
    assert str(w["(2)"]) == "x6^-1 x2 x6"
    assert str(w["[0]"]) in ("x3^-1 x0^-1 x3", "x3^-1 x0 x3")


def test_quotient_014_structure():
    g = build_quotient(C1, (0, 1, 4))
    assert len(g.vertices) == 12
    walls = g.wall_vertices()
    medians = g.median_vertices()
    assert len(walls) == 7 and all(v.group_order == 1 for v in walls)
    assert len(medians) == 5 and all(v.group_order == 2 for v in medians)
    assert len(g.edges) == 13
    assert all(e.group_order == 1 for e in g.edges)
    assert g.betti_number == 2


@pytest.mark.parametrize("word", SINGLE_AXIS, ids=str)
def test_single_axis_words(word):
    g = build_quotient(C1, word)
    assert g.classification == "single_axis"
    assert len(g.vertices) == 1 and not g.edges


def test_single_axis_quotient_group():
    # g = x5 x5 is a proper power: the lone wall vertex carries Z/2 = <h5>/<g>
    g = build_quotient(C1, (5, 5))
    v = g.vertices[0]
    assert v.group_order == 2
    assert str(v.generator_witness) == "x5"


def test_not_a_wall_word():
    with pytest.raises(NotAWallWord):
        build_quotient(C1, (0, 2))


@pytest.mark.parametrize("word", [(0, 5), (2, 2), (0, 1, 4), (5, 5, 6)], ids=str)
def test_rotation_invariance(word):
    base = build_quotient(C1, word).to_json()
    for r in range(1, len(word)):
        assert build_quotient(C1, word[r:] + word[:r]).to_json() == base


@pytest.mark.parametrize("word", WALL_WORDS_3, ids=str)
def test_graph_invariants(word):
    g = build_quotient(C1, word)
    n = g.n
    for v in g.vertices:
        if v.kind == "wall":
            assert n % v.group_order == 0
        else:
            assert (2 * n) % v.group_order == 0
    for e in g.edges:
        for end in e.endpoints:
            assert g.vertices[end].group_order % e.group_order == 0
        assert e.endpoints[0] != e.endpoints[1]  # no loops at length <= 3
    # simple graph at this scale: no parallel geometric edges
    pairs = [frozenset(e.endpoints) for e in g.edges]
    assert len(pairs) == len(set(pairs))
    # spanning tree
    tree = [e for e in g.edges if e.in_spanning_tree]
    assert len(tree) == len(g.vertices) - 1


@pytest.mark.parametrize("word", WALL_WORDS_3, ids=str)
def test_tree_edges_have_trivial_conjugators(word):
    g = build_quotient(C1, word)
    for e in g.edges:
        if e.in_spanning_tree:
            assert not e.conjugator_witness.letters
        else:
            assert e.conjugator_witness.letters


def test_to_dot_shape():
    dot = build_quotient(C1, (0, 5)).to_dot()
    assert dot.startswith("graph quotient {")
    assert "shape=box" in dot      # the median vertex
    assert "style=dashed" in dot   # the non-tree edge
    assert dot.count("--") == 7


def test_to_json_round_trips_labels():
    g = build_quotient(C1, (0, 5))
    doc = g.to_json()
    assert doc["base_vertex"] == "(0,5)"
    assert doc["betti_number"] == 1
    assert len(doc["vertices"]) == 7 and len(doc["edges"]) == 7
