import gc
import hashlib
import json
import tracemalloc
from math import gcd

import pytest

from a2cent import quotient
from a2cent.bassserre import IsoType, fundamental_group, simplify
from a2cent.cli import structured_report
from a2cent.errors import AmbiguousStrip, NotAWallWord
from a2cent.presentation import BUILTIN_PRESENTATIONS, load_named
from a2cent.quotient import build_quotient, vertex_witnesses
from a2cent.strips import enumerate_periodic_strips
from a2cent.walls import minimal_period, wall_necklaces
from a2cent.words import FormalWord, inverse_letters
from presentations import (NON_BUILDING, OTHER_Q2, SINGER_Q4, deep_walls, relabelled_c1,
                           unchecked)
from strip_oracle import (full_scan_flip_shifts, full_scan_median_display_label,
                          full_scan_minimal_period)

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
    walls = [v for v in g.vertices if v.kind == "wall"]
    medians = [v for v in g.vertices if v.kind == "median"]
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


def check_graph_invariants(pres, word):
    """The group data that build_quotient sets from the periods p | p_e | n:
    a wall of period p has order n/p and a median vertex an order dividing
    2n; an edge group includes injectively into both endpoint groups, by
    positive multipliers; one tree edge per vertex but the base; at most
    q+1 strips at every wall visited; each median label, minimized over
    one strip period, equals the label minimized over all n phases; every
    wall period equals its full scan; and an edge has order n/p_e and
    multiplier p_e/p at a wall of period p, with p_e its strip's full-scan
    period."""
    g = build_quotient(pres, word)
    n = g.n
    for v in g.vertices:
        if v.kind == "wall":
            assert v.period == full_scan_minimal_period(v.sequence), (word, v.display_label)
            assert v.group_order * v.period == n, (word, v.display_label)
            assert len(enumerate_periodic_strips(pres, v.sequence)) <= pres.thickness_q + 1
        else:
            assert (2 * n) % v.group_order == 0, (word, v.display_label)
    for e in g.edges:
        pe = full_scan_minimal_period(e.strip)
        assert e.group_order * pe == n, (word, e.index)
        for end, mu in zip(e.endpoints, e.multipliers):
            o = g.vertices[end].group_order
            assert o % e.group_order == 0, (word, e.index)
            p = g.vertices[end].period
            assert mu == (pe // p if p else 2), (word, e.index)
            # Z/o_e -> Z/o, gen -> gen^mu, is injective
            assert o // gcd(mu, o) == e.group_order, (word, e.index)
        median = g.vertices[e.endpoints[1]]
        if median.kind == "median":
            d = full_scan_flip_shifts(e.strip)[0]
            assert median.display_label == full_scan_median_display_label(e.strip, d), word
    assert sum(e.in_spanning_tree for e in g.edges) == len(g.vertices) - 1, word
    return g


@pytest.mark.parametrize("word", WALL_WORDS_3, ids=str)
def test_graph_invariants(word):
    g = check_graph_invariants(C1, word)
    # a simple graph at this scale: no loops and no parallel geometric edges
    assert all(e.endpoints[0] != e.endpoints[1] for e in g.edges)
    pairs = [frozenset(e.endpoints) for e in g.edges]
    assert len(pairs) == len(set(pairs))


@pytest.mark.parametrize("pres", [C1, relabelled_c1(20111), OTHER_Q2],
                         ids=["c1", "relabelled_c1", "other_q2"])
def test_graph_invariants_through_length_6(pres):
    for n in range(1, 7):
        for word in wall_necklaces(pres, n):
            check_graph_invariants(pres, word)


def test_quotient_outcomes_where_strips_branch():
    """On a fresh copy of a non-building presentation, whose partial strips
    branch, build_quotient at every wall necklace of length 1-6 either
    raises, with these arguments, or returns a graph; the number of graphs
    and the sha256 of their structured reports are pinned, as produced
    before the BFS stopped validating the strips it drops."""
    pres = unchecked(NON_BUILDING.to_document())
    failures, digest, built = {}, hashlib.sha256(), 0
    for n in range(1, 7):
        for word in wall_necklaces(pres, n):
            try:
                g = build_quotient(pres, word)
            except AmbiguousStrip as exc:
                failures[word] = exc.args
                continue
            digest.update((json.dumps(g.to_json(), indent=2, sort_keys=True) + "\n").encode())
            built += 1
    assert failures == {
        (x,) * n: (f"two periodic strips share the initial triangle {triangle}",)
        for n in range(3, 7)
        for x, triangle in enumerate([(0, 1, 3), (1, 0, 2), (2, 0, 3), (3, 0, 1)])}
    assert (built, digest.hexdigest()) == \
        (8, "1fcce9fa64c70d28df900362aad3f68fdaf84f263467275885c95dd4a1eff035")


def test_translation_keeps_the_signature_on_singer_q4():
    """x -> x+1 is an automorphism of SINGER_Q4, so a wall word and its
    translate have quotients of the same signature: vertex and edge counts,
    the multiset of group orders and the isomorphism type.  Every graph
    also passes check_graph_invariants.  All 1533 wall necklaces of length
    1-3."""
    def signature(word):
        g = check_graph_invariants(SINGER_Q4, word)
        result = simplify(g)
        return (len(g.vertices), len(g.edges),
                sorted((v.kind, v.group_order) for v in g.vertices),
                sorted(e.group_order for e in g.edges),
                result.render() if isinstance(result, IsoType) else None)

    m = SINGER_Q4.generator_count
    words = [w for n in (1, 2, 3) for w in wall_necklaces(SINGER_Q4, n)]
    assert len(words) == 1533
    for word in words:
        assert signature(tuple((x + 1) % m for x in word)) == signature(word), word


def test_graph_invariants_on_powers_of_the_fixtures():
    powers = [h * k for h in ((0, 5), (0, 1, 4)) for k in range(1, 41)]
    graphs = [check_graph_invariants(C1, word) for word in powers]
    assert sum(v.kind == "median" for g in graphs for v in g.vertices) == 240
    # 512 of the 520 wall vertices and 783 of the 800 strips have p < n
    assert sum(v.kind == "wall" and v.period < g.n for g in graphs for v in g.vertices) == 512
    assert sum(minimal_period(e.strip) < g.n for g in graphs for e in g.edges) == 783


def test_primitive_walls_take_their_strip_periods_without_a_scan(monkeypatch):
    """p | p_e | n, so every strip at a primitive wall has p_e == n: on a
    big-graphs catalog word whose walls are all primitive, the quotient is
    the same with minimal_period patched to raise."""
    word = (4, 3, 6, 2, 2, 0, 4, 4, 3, 2, 1, 0, 3, 2, 2, 0)
    cold = build_quotient(C1, word)
    assert len(cold.vertices) == 100
    assert all(v.period == cold.n for v in cold.vertices)

    def unexpected_scan(*_args):
        raise AssertionError("minimal_period called at a primitive wall")

    monkeypatch.setattr("a2cent.quotient.minimal_period", unexpected_scan)
    assert build_quotient(C1, word).to_json() == cold.to_json()


def test_wall_labels_with_multi_digit_generators():
    """SINGER_Q4 has 21 generators: every wall vertex label through L=3 is
    one period of its sequence, in decimal, in round brackets; 3197 of the
    walls have a two-digit letter.  Through L=2 each quotient is its base
    wall alone; at L=3 the BFS adds 2142 more walls."""
    walls = []
    for n in (1, 2, 3):
        for word in wall_necklaces(SINGER_Q4, n):
            walls += [v for v in build_quotient(SINGER_Q4, word).vertices if v.kind == "wall"]
    for v in walls:
        assert v.display_label == "(" + ",".join(map(str, v.sequence[:v.period])) + ")"
    assert len(walls) == 168 + 1365 + 2142
    assert sum(max(v.sequence) > 9 for v in walls) == 3197


EIGHTEEN = (6, 5, 3, 1, 6, 6, 4, 2, 2, 0, 1, 4, 2, 0, 1, 0, 4, 3)


@pytest.fixture(scope="module")
def eighteen():
    return build_quotient(C1, EIGHTEEN)


def test_quotient_of_a_word_over_ten_thousand_vertices():
    """Every wall word has a finite quotient: V <= (q+2) x (wall necklaces
    of length n).  This 18-letter word has a flat quotient, a cycle with a
    pendant leaf at each vertex and all groups trivial, so Z(g)/<g> is Z."""
    g = check_graph_invariants(C1, EIGHTEEN)
    assert (len(g.vertices), len(g.edges), g.betti_number) == (19760, 19760, 1)
    assert simplify(g).render() == "Z"


def distinct_witness_letters(graph):
    """The number of letters in the graph's vertex generator and edge
    conjugator witnesses, and of distinct objects among them."""
    letters = ([x for v in graph.vertices for x in v.generator_witness.letters]
               + [x for e in graph.edges for x in e.conjugator_witness.letters])
    return len(letters), len({id(x) for x in letters})


@pytest.mark.parametrize("pres, word", [(C1, (0, 5)), (C1, (0, 1, 4)), (C1, (0, 5) * 3),
                                        (OTHER_Q2, (0, 4))],
                         ids=["c1-0,5", "c1-0,1,4", "c1-(0,5)^3", "other_q2-0,4"])
def test_witnesses_share_one_object_per_letter(pres, word):
    """Both paper fixtures (with their median vertices), a proper power and
    an OTHER_Q2 word whose 9 vertices all have groups of order 2: every
    letter of every witness is one of at most 2m objects."""
    g = build_quotient(pres, word)
    total, distinct = distinct_witness_letters(g)
    assert total > 2 * pres.generator_count
    assert distinct <= 2 * pres.generator_count


def test_witnesses_of_a_flat_quotient_share_one_object_per_letter(eighteen):
    """The 18-letter word's quotient has trivial groups and one non-tree
    edge, whose conjugator has 93 606 letters."""
    assert distinct_witness_letters(eighteen)[0] == 93606
    assert distinct_witness_letters(eighteen)[1] <= 2 * C1.generator_count


WITNESS_WALLS = [
    (C1, lambda: [w for n in range(1, 7) for w in wall_necklaces(C1, n)]),
    (OTHER_Q2, lambda: [w for n in range(1, 7) for w in wall_necklaces(OTHER_Q2, n)]),
    (SINGER_Q4, lambda: [w for n in range(1, 4) for w in wall_necklaces(SINGER_Q4, n)]),
    (C1, lambda: deep_walls(C1)),
]


@pytest.mark.parametrize("pres, words", WITNESS_WALLS,
                         ids=["c1-through-6", "other_q2-through-6", "singer_q4-through-3",
                              "c1-deep-walls"])
def test_witnesses_pass_the_public_constructor(pres, words):
    """The BFS spells its output words from letter tuples, whose inverses
    ``inverse_letters`` gives without validating them, so every vertex
    generator witness and edge conjugator, and its inverse, must pass back
    through ``FormalWord(letters)`` unchanged; inverting twice gives the
    word."""
    nontrivial = 0
    for word in words():
        g = build_quotient(pres, word)
        for w in ([v.generator_witness for v in g.vertices]
                  + [e.conjugator_witness for e in g.edges]):
            inverse = inverse_letters(w.letters)
            assert FormalWord(w.letters) == w
            assert FormalWord(inverse).letters == inverse
            assert inverse_letters(inverse) == w.letters and len(inverse) == len(w.letters)
            nontrivial += bool(w.letters)
    assert nontrivial > 0


def cyclically_reduced(letters):
    """The letters freely reduced with a stack, then with every inverse
    pair at the two ends cancelled: the cyclic reduction of the word, which
    conjugation changes only by a rotation."""
    stack = []
    for g, e in letters:
        if stack and stack[-1] == (g, -e):
            stack.pop()
        else:
            stack.append((g, e))
    lo, hi = 0, len(stack)
    while hi - lo > 1 and stack[lo] == (stack[hi - 1][0], -stack[hi - 1][1]):
        lo, hi = lo + 1, hi - 1
    return tuple(stack[lo:hi])


def is_rotation(word, core):
    return len(word) == len(core) and any(word == core[r:] + core[:r] for r in range(len(core)))


@pytest.mark.parametrize("pres, words", WITNESS_WALLS[:3],
                         ids=["c1-through-6", "other_q2-through-6", "singer_q4-through-3"])
def test_generator_witnesses_conjugate_their_cores(pres, words):
    """Every generator witness of a vertex group of order > 1, cyclically
    reduced, is a rotation of the vertex's core: for a wall, the positive
    word of one period of its sequence; for a median, the cyclically
    reduced glide core a_0..a_{d-1} x_{t_d}^-1 of its strip, d its least
    flip shift."""
    checked = {"wall": 0, "median": 0}
    for word in words():
        g = build_quotient(pres, word)
        median_strip = {e.endpoints[1]: e.strip for e in g.edges
                        if g.vertices[e.endpoints[1]].kind == "median"}
        for v in g.vertices:
            if v.group_order == 1:
                continue
            if v.kind == "wall":
                core = tuple((x, 1) for x in v.sequence[:v.period])
            else:
                rows = median_strip[v.index]
                d = full_scan_flip_shifts(rows)[0]
                core = cyclically_reduced([(row[0], 1) for row in rows[:d]] + [(rows[d][2], -1)])
            assert is_rotation(cyclically_reduced(v.generator_witness.letters), core), \
                (word, v.display_label)
            checked[v.kind] += 1
    assert checked["wall"] > 0 and checked["median"] > 0


def test_structured_document_of_a_flat_quotient(eighteen):
    """The sha256 of the 18-letter word's document, as sorted compact JSON,
    pinned from the program before the graph wrote its vertex and edge
    dicts itself and before its witnesses shared their letters."""
    text = json.dumps(eighteen.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "fc233d477a82d7c52722d4eed9f707b95913185894b4fb86cfc6a9ab9035e9c5"


def cyclic_garbage(run):
    """The number of objects that ``run()`` leaves unreachable but alive,
    found by one collection after a run with the collector off; reference
    counting frees everything else, its result included."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("pres, word", [(C1, (0, 5)), (C1, (0, 1, 4)), (C1, (0, 5) * 3),
                                        (OTHER_Q2, (0, 4)), (SINGER_Q4, (0, 0, 0, 1)),
                                        (C1, EIGHTEEN)],
                         ids=["c1-0,5", "c1-0,1,4", "c1-(0,5)^3", "other_q2-0,4",
                              "singer_q4-0,0,0,1", "c1-eighteen"])
def test_pipeline_makes_no_cyclic_garbage(pres, word):
    """The whole ``--format structured`` pipeline frees all it allocates by
    reference counting, so pausing the collector in ``build_quotient`` and
    ``to_json`` leaves nothing for it to find."""
    def run():
        graph = build_quotient(pres, word)
        presentation = fundamental_group(graph)
        result = simplify(graph)
        return (vertex_witnesses(graph), graph.to_json(),
                structured_report(graph, presentation, result))
    assert cyclic_garbage(run) == 0


def test_wall_necklaces_make_no_cyclic_garbage():
    """A recursive closure that refers to itself kept the 720 objects of
    this list alive after it was dropped, until a collection."""
    assert cyclic_garbage(lambda: wall_necklaces(C1, 6)) == 0


def test_builders_pause_the_collector(monkeypatch):
    """The collector is off inside ``build_quotient`` and ``to_json``, on
    again after each, even after a raise, and a collector that the caller
    turned off stays off."""
    states = []

    def recording(inner):
        def record(*args):
            states.append(gc.isenabled())
            return inner(*args)
        return record

    monkeypatch.setattr(quotient, "enumerate_periodic_strips",
                        recording(quotient.enumerate_periodic_strips))
    monkeypatch.setattr(quotient, "strip_json", recording(quotient.strip_json))
    assert gc.isenabled()
    graph = build_quotient(C1, (0, 1, 4))
    assert gc.isenabled() and states and not any(states)
    states.clear()
    graph.to_json()
    assert gc.isenabled() and states and not any(states)
    with pytest.raises(NotAWallWord):
        build_quotient(C1, (0, 2))
    assert gc.isenabled()
    gc.disable()
    try:
        build_quotient(C1, (0, 1, 4)).to_json()
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.slow
def test_building_a_flat_quotient_peaks_under_30_mb():
    """Under tracemalloc, building the 18-letter word's 19 760-vertex
    quotient peaks at about 23 MB (Python 3.11), and at about 36 MB when
    every witness letter was a fresh tuple."""
    tracemalloc.start()
    try:
        build_quotient(C1, EIGHTEEN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


@pytest.mark.slow
@pytest.mark.parametrize("pres, largest", [(C1, 47764), (OTHER_Q2, 141312)],
                         ids=["c1", "other_q2"])
def test_random_long_wall_words_get_their_quotient(pres, largest):
    """16 seeded primitive wall words of length 17-20 each build and
    simplify; the vertex count of the largest quotient is pinned."""
    sizes = []
    for word in deep_walls(pres, count=16, seed=1, lengths=(17, 18, 19, 20)):
        g = build_quotient(pres, word)
        simplify(g)
        sizes.append(len(g.vertices))
    assert max(sizes) == largest


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


def containers(document):
    """Every list and dict of a JSON document, once per place it holds."""
    stack, found = [document], []
    while stack:
        obj = stack.pop()
        if isinstance(obj, (dict, list)):
            found.append(obj)
            stack.extend(obj.values() if isinstance(obj, dict) else obj)
    return found


# the paper figures, a proper power, and the 120-vertex word of the
# benchmark's big-graphs catalog, with its one non-tree conjugator
@pytest.mark.parametrize("word", [(0, 5), (0, 1, 4), (0, 5) * 3,
                                  (5, 0, 4, 4, 0, 5, 3, 2, 2, 5, 5, 5, 5, 6, 5, 0)],
                         ids=["0,5", "0,1,4", "(0,5)^3", "big_graphs_120"])
def test_to_json_documents_share_no_lists_or_dicts(word):
    """No list or dict appears twice in a document, the empty witnesses of
    the identity included, and a second call gives an equal document that
    shares none of them with the first, so a caller may change either."""
    graph = build_quotient(C1, word)
    first, second = graph.to_json(), graph.to_json()
    assert first == second
    ids = [id(obj) for obj in containers(first)]
    assert len(set(ids)) == len(ids)
    assert set(ids).isdisjoint(id(obj) for obj in containers(second))


def test_quotient_in_the_last_of_disjoint_copies_of_c1():
    """The sparse tables at high generator indices: in the last of 50
    disjoint copies of c1, the quotient of the copy of (0, 5) is the c1
    quotient with every label shifted."""
    relators = BUILTIN_PRESENTATIONS["c1"]["relators"]
    pres = unchecked({"generators": 350, "relators": [[7 * c + x for x in t] for c in range(50)
                                                      for t in relators]})
    off = 7 * 49

    def shifted(word):
        return [(g + off, e) for g, e in word.letters]

    got, ref = build_quotient(pres, (off, off + 5)), build_quotient(C1, (0, 5))
    assert [(v.kind, v.group_order, shifted(v.generator_witness)) for v in ref.vertices] == \
        [(v.kind, v.group_order, list(v.generator_witness.letters)) for v in got.vertices]
    assert [(e.endpoints, e.group_order, e.multipliers, shifted(e.conjugator_witness),
             [tuple(x + off for x in row) for row in e.strip]) for e in ref.edges] == \
        [(e.endpoints, e.group_order, e.multipliers, list(e.conjugator_witness.letters),
          list(e.strip)) for e in got.edges]
