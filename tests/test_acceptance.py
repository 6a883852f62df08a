"""Acceptance gate: one test per release criterion.

Each test prints a single "criterion N ... PASS/FAIL" line (visible under
``pytest -s``) in addition to the usual assertion outcome.
"""

import time

from a2cent import (IsoType, abelianization, build_quotient,
                    enumerate_periodic_strips, flip_shifts, fundamental_group,
                    load_named, oracle_enumerate, simplify, vertex_witnesses)
from a2cent.strips import Strip
from a2cent.walls import wall_necklaces

C1 = load_named("c1")
WALL_WORDS_3 = [w for n in (1, 2, 3) for w in wall_necklaces(C1, n)]


def _report(number, title, ok):
    print(f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({title}) failed"


def test_criterion_1_figure_5_reproduction():
    start = time.perf_counter()
    graph = build_quotient(C1, (0, 5))
    iso = simplify(graph)
    elapsed = time.perf_counter() - start

    labels = {v.display_label for v in graph.vertices}
    orders = sorted(v.group_order for v in graph.vertices)
    nontrivial_edges = {
        (frozenset({graph.vertices[e.endpoints[0]].display_label,
                    graph.vertices[e.endpoints[1]].display_label}),
         e.group_order)
        for e in graph.edges if e.group_order > 1}
    ok = (
        len(graph.vertices) == 7
        and labels == {"(0,5)", "(2)", "(3)", "(1)", "(4)", "(6)", "[0]"}
        and orders == [1, 2, 2, 2, 2, 2, 4]
        and len(graph.edges) == 7
        and nontrivial_edges == {(frozenset({"(2)", "(1)"}), 2),
                                 (frozenset({"(3)", "(4)"}), 2),
                                 (frozenset({"(6)", "[0]"}), 2)}
        and graph.betti_number == 1
        and isinstance(iso, IsoType)
        and iso.render() == "Z * (Z/2)^{*2} * (Z/4)"
        and elapsed < 1.0
    )
    _report(1, "figure 5 reproduction", ok)


def test_criterion_2_figure_6_reproduction():
    start = time.perf_counter()
    graph = build_quotient(C1, (0, 1, 4))
    iso = simplify(graph)
    elapsed = time.perf_counter() - start

    walls = graph.wall_vertices()
    medians = graph.median_vertices()
    ok = (
        len(graph.vertices) == 12
        and len(walls) == 7 and all(v.group_order == 1 for v in walls)
        and len(medians) == 5 and all(v.group_order == 2 for v in medians)
        and len(graph.edges) == 13
        and all(e.group_order == 1 for e in graph.edges)
        and graph.betti_number == 2
        and isinstance(iso, IsoType)
        and iso.render() == "Z^{*2} * (Z/2)^{*5}"
        and elapsed < 1.0
    )
    _report(2, "figure 6 reproduction", ok)


def test_criterion_3_witness_words():
    graph = build_quotient(C1, (0, 5))
    witnesses = {label: str(w) for label, w in vertex_witnesses(graph).items()}
    ok = (
        witnesses.get("(2)") == "x6^-1 x2 x6"
        and witnesses.get("[0]") in ("x3^-1 x0^-1 x3", "x3^-1 x0 x3")
    )
    _report(3, "witness words", ok)


def test_criterion_4_strip_fixture():
    expected = [
        Strip(a=(0, 5), s=(0, 1), t=(6, 3), b=(2, 2), u=(3, 6)),
        Strip(a=(0, 5), s=(2, 4), t=(3, 1), b=(6, 6), u=(1, 3)),
        Strip(a=(0, 5), s=(6, 2), t=(0, 4), b=(3, 3), u=(4, 0)),
    ]
    got = enumerate_periodic_strips(C1, (0, 5))
    _report(4, "strip fixture, all 30 labels", got == expected)


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for wall in WALL_WORDS_3:
        dfs = sorted(enumerate_periodic_strips(C1, wall), key=lambda s: s.rows())
        brute = sorted(oracle_enumerate(C1, wall), key=lambda s: s.rows())
        if dfs != brute or len(dfs) > 3:
            ok = False
            break
    elapsed = time.perf_counter() - start
    _report(5, "oracle equivalence over all wall words of length <= 3",
            ok and elapsed < 30.0)


def test_criterion_6_invariant_suite():
    ok = True
    for word in WALL_WORDS_3:
        graph = build_quotient(C1, word)
        n = graph.n
        for v in graph.vertices:
            bound = n if v.kind == "wall" else 2 * n
            if bound % v.group_order != 0:
                ok = False
        for e in graph.edges:
            for end in e.endpoints:
                if graph.vertices[end].group_order % e.group_order != 0:
                    ok = False
        for e in graph.edges:
            for d in flip_shifts(e.strip):
                if (2 * n) % (2 * d + 1) != 0:
                    ok = False
                break  # the minimal flip shift is the one that matters
        base = graph.to_json()
        for r in range(1, len(word)):
            rotated = build_quotient(C1, word[r:] + word[:r]).to_json()
            if rotated != base:
                ok = False
    _report(6, "invariant suite over all wall words of length <= 3", ok)


def test_criterion_7_validation_and_fano_link():
    nodes, degrees, girth, diameter = C1.link_stats()
    ok = (
        C1.generator_count == 7
        and C1.thickness_q == 2
        and len(C1.rotation_classes) == 7
        and nodes == 14 and degrees == {3} and girth == 6 and diameter == 3
    )
    _report(7, "presentation validation and Fano link", ok)


def test_criterion_8_abelianization_cross_check():
    ab5 = abelianization(fundamental_group(build_quotient(C1, (0, 5))))
    ab6 = abelianization(fundamental_group(build_quotient(C1, (0, 1, 4))))
    ok = ab5 == (1, (2, 2, 4)) and ab6 == (2, (2, 2, 2, 2, 2))
    _report(8, "Smith-normal-form abelianization cross-check", ok)
