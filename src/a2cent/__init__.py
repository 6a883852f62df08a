"""Centralizers in A~2 triangle-presentation groups.

Pipeline: a triangle presentation plus a positive cyclic wall word g yields
the quotient of the axial-wall tree under the centralizer of g modulo <g>,
as a finite graph of finite cyclic groups, together with the Bass-Serre
fundamental group and, when it simplifies, a free-product-of-cyclics
isomorphism type.
"""

from .bassserre import (GroupPresentation, IsoType, Unsimplified,
                        abelianization, fundamental_group, simplify)
from .errors import (A2CentError, AmbiguousStrip, InvariantError,
                     NotAWallWord, PresentationError)
from .presentation import (BUILTIN_PRESENTATIONS, TrianglePresentation, load,
                           load_named, loads)
from .quotient import (QuotientEdge, QuotientGraphOfGroups, QuotientVertex,
                       build_quotient, vertex_witnesses)
from .strips import enumerate_periodic_strips, flip_shifts
from .walls import canonical_rotation, minimal_period, wall_word
from .words import FormalWord

__all__ = [
    "A2CentError", "AmbiguousStrip", "BUILTIN_PRESENTATIONS", "FormalWord",
    "GroupPresentation", "InvariantError", "IsoType", "NotAWallWord",
    "PresentationError", "QuotientEdge", "QuotientGraphOfGroups",
    "QuotientVertex", "TrianglePresentation",
    "Unsimplified", "abelianization", "build_quotient", "canonical_rotation",
    "enumerate_periodic_strips", "flip_shifts",
    "fundamental_group", "load", "load_named",
    "loads", "minimal_period", "simplify", "vertex_witnesses", "wall_word",
]

__version__ = "0.1.0"
