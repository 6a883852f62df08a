import random

import pytest

from a2cent.bassserre import (GroupPresentation, IsoType, Unsimplified,
                              abelianization, full_centralizer_presentation,
                              fundamental_group, render_word, simplify,
                              smith_diagonal)
from a2cent.errors import InvariantError
from a2cent.presentation import load_named
from a2cent.quotient import build_quotient
from a2cent.walls import wall_necklaces

C1 = load_named("c1")

WALL_WORDS_3 = [w for n in (1, 2, 3) for w in wall_necklaces(C1, n)]


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
        assert simplify(g, order_hint=list(indices)) == reference


@pytest.mark.parametrize("word", WALL_WORDS_3, ids=str)
def test_abelianization_matches_isotype(word):
    g = build_quotient(C1, word)
    iso = simplify(g)
    assert abelianization(fundamental_group(g)) == iso.abelianization()


def test_abelianization_examples():
    g = build_quotient(C1, (0, 5))
    assert abelianization(fundamental_group(g)) == (1, (2, 2, 4))
    g = build_quotient(C1, (0, 1, 4))
    assert abelianization(fundamental_group(g)) == (2, (2, 2, 2, 2, 2))


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


def test_full_centralizer_presentation():
    g = build_quotient(C1, (0, 5))
    p = full_centralizer_presentation(g)
    assert p.central == "g"
    assert "g" in p.generators
    rels = set(p.relations)
    assert (("h_[0]", 4), ("g", -1)) in rels        # glide^4 = g
    assert (("h_(2)", 2), ("g", -1)) in rels        # translation^2 = g
    for sym in p.generators[:-1]:
        assert ((sym, 1), ("g", 1), (sym, -1), ("g", -1)) in rels
    # killing g recovers the quotient: same abelianization plus one Z consumed
    free_rank, torsion = abelianization(p)
    assert (free_rank, torsion) == (2, (2, 2))


def test_render():
    p = GroupPresentation(("a", "b"), ((("a", 2),), (("a", 1), ("b", -1))))
    assert p.render() == "< a, b | a^2, a*b^-1 >"
    assert GroupPresentation(("a",), ()).render() == "< a | - >"
