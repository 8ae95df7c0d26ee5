"""torickit: exact computations with toric GIT quotients.

Anticones and chambers, torus-fixed points with their isotropy data,
equivariant Euler characteristics by fixed-point localization, graded
expansions against the index-theorem prediction, crepant wall crossings,
and grade-restriction windows checked at the level of K-theory classes.
"""

__version__ = "0.1.0"

from .exactalg import (
    Cyc,
    GradedSeries,
    IntMatrix,
    LaurentPoly,
    RationalCharacter,
    expand_rational,
    rat_equal,
    rational_solve,
    smith_normal_form,
    weights_convex,
)
from .gitdata import Anticone, Chamber, GITData, SemistableLocus
from .localization import EquivClass, FixedPointData

__all__ = [
    "Anticone",
    "Chamber",
    "Cyc",
    "EquivClass",
    "FixedPointData",
    "GITData",
    "GradedSeries",
    "IntMatrix",
    "LaurentPoly",
    "RationalCharacter",
    "SemistableLocus",
    "expand_rational",
    "rat_equal",
    "rational_solve",
    "smith_normal_form",
    "weights_convex",
]
