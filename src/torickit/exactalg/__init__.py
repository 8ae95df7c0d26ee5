"""Exact arithmetic substrate: lattices, cyclotomics, Laurent algebra, series."""

from .cyclotomic import Cyc, format_fraction, parse_fraction
from .intlinalg import (
    IntMatrix,
    kernel_basis,
    oriented_primitive_vector,
    primitive_integer_vector,
    rational_inverse,
    rational_rank,
    rational_solve,
    smith_normal_form,
)
from .laurent import LaurentPoly, exp_add, exp_apply, exp_zero
from .lp import weights_convex
from .ratchar import DenominatorCollapseError, Factor, RationalCharacter, rat_equal, specialize
from .series import GradedSeries, RatFun, bernoulli, expand_rational

__all__ = [
    "Cyc",
    "DenominatorCollapseError",
    "Factor",
    "GradedSeries",
    "IntMatrix",
    "LaurentPoly",
    "RatFun",
    "RationalCharacter",
    "bernoulli",
    "expand_rational",
    "exp_add",
    "exp_apply",
    "exp_zero",
    "format_fraction",
    "kernel_basis",
    "oriented_primitive_vector",
    "parse_fraction",
    "primitive_integer_vector",
    "rat_equal",
    "rational_inverse",
    "rational_rank",
    "rational_solve",
    "smith_normal_form",
    "specialize",
    "weights_convex",
]
