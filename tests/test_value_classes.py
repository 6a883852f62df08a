"""What the value classes and graph records provide: construction with their
defaults, value equality and hashing, and read-only fields."""

import pytest

from a2cent import (FormalWord, GroupPresentation, IsoType, QuotientGraphOfGroups,
                    QuotientVertex, TrianglePresentation, Unsimplified, load, load_named)
from a2cent.presentation import BUILTIN_PRESENTATIONS

C1 = load_named("c1")
SWAP_0_1 = (1, 0, 2, 3, 4, 5, 6)


def relabelled_c1():
    relators = [[SWAP_0_1[x] for x in t] for t in BUILTIN_PRESENTATIONS["c1"]["relators"]]
    return load({"generators": 7, "relators": relators})


def c1_fields(**changes):
    """The constructor arguments of c1, by name, with some replaced."""
    fields = dict(
        generator_count=C1.generator_count, rotation_classes=C1.rotation_classes,
        thickness_q=C1.thickness_q, starting=C1.starting, bent_pairs=C1.bent_pairs)
    fields.update(changes)
    return fields


GP = GroupPresentation(("a", "b"), ((("a", 2),), (("a", 1), ("b", -1))))

# (value, an equal value built another way, a different value)
EQUAL_AND_DIFFERENT = [
    (FormalWord(((0, 1), (5, -1))), FormalWord(letters=((0, 1), (5, -1))),
     FormalWord(((0, 1), (5, 1)))),
    (FormalWord(), FormalWord.identity(), FormalWord(((0, 1),))),
    (GP, GroupPresentation(generators=("a", "b"), relations=GP.relations),
     GroupPresentation(GP.generators, GP.relations[:1])),
    (IsoType(1, (2, 2)), IsoType(free_rank=1, cyclic_orders=(2, 2)), IsoType(2, (2, 2))),
    (Unsimplified(GP), Unsimplified(presentation=GroupPresentation(GP.generators, GP.relations)),
     Unsimplified(GroupPresentation(("a",), ()))),
    (C1, load_named("builtin:c1"), relabelled_c1()),
    (C1, TrianglePresentation(*c1_fields().values()),
     TrianglePresentation(**c1_fields(generator_count=8))),
]


@pytest.mark.parametrize("value, same, other", EQUAL_AND_DIFFERENT,
                         ids=[type(v).__name__ for v, _s, _o in EQUAL_AND_DIFFERENT])
def test_equal_values_compare_and_hash_equal(value, same, other):
    assert value is not same
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != other and not value == other
    assert value != object()


# (value, field name, a value to assign)
READ_ONLY = [
    (FormalWord(), "letters", ((0, 1),)),
    (C1, "starting", ()),
    (GP, "relations", ()),
    (IsoType(0, (2,)), "free_rank", 1),
    (Unsimplified(GP), "presentation", GP),
]


@pytest.mark.parametrize("value, name, new", READ_ONLY,
                         ids=[f"{type(v).__name__}.{name}" for v, name, _n in READ_ONLY])
def test_fields_are_read_only(value, name, new):
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, new)
    assert getattr(value, name) is before


def test_defaults():
    assert FormalWord().letters == ()
    assert GroupPresentation(("a",), ((("a", 2),),)).to_json()["central"] is None
    median = QuotientVertex(0, "median", 2, FormalWord(), "[0]")
    assert (median.sequence, median.period) == ((), 0)
    wall = QuotientVertex(index=0, kind="wall", group_order=1, generator_witness=FormalWord(),
                          display_label="(0,5)", sequence=(0, 5), period=2)
    assert (wall.sequence, wall.period) == ((0, 5), 2)
    graph = QuotientGraphOfGroups((0, 5), 2, "single_axis", [wall], [])
    assert graph.to_json()["base_vertex"] == "(0,5)"
    assert graph.betti_number == 0


def test_presentation_compares_only_its_defining_fields():
    stripped = TrianglePresentation(**c1_fields(starting=(), bent_pairs=frozenset()))
    assert stripped == C1 and hash(stripped) == hash(C1)
    assert TrianglePresentation(**c1_fields(thickness_q=3)) != C1

