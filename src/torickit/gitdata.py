"""Toric GIT data: anticones, semistable loci, chambers, fixed points.

The input is a torus rank r, an integer weight matrix whose columns are
the characters D_1..D_m, and a rational stability condition.  Everything
downstream (fixed points, localization, wall crossings) is driven by the
combinatorics computed here.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, OnWallError
from .exactalg import (
    cone_contains,
    format_fraction,
    parse_fraction,
    primitive_integer_vector,
    rational_inverse,
    rational_rank,
    rational_solve,
)
from .exactalg.lp import weights_convex  # noqa: F401  (re-exported API)

Anticone = frozenset  # subsets of {1..m}, 1-based


@dataclass(frozen=True)
class GITData:
    """Torus rank, characters (one tuple per coordinate), stability condition."""

    r: int
    m: int
    weights: tuple[tuple[int, ...], ...]
    omega: tuple[Fraction, ...]

    def __post_init__(self):
        if self.r < 0 or self.m < self.r:
            raise InputError("need m >= r >= 0, got r=%d m=%d" % (self.r, self.m))
        if len(self.weights) != self.m or any(len(w) != self.r for w in self.weights):
            raise InputError("weight matrix must list m characters of length r")
        if len(self.omega) != self.r:
            raise InputError("stability condition must have length r")

    @staticmethod
    def make(r: int, weights, omega) -> "GITData":
        weights = tuple(tuple(int(x) for x in w) for w in weights)
        omega = tuple(parse_fraction(x) for x in omega)
        return GITData(r, len(weights), weights, omega)

    def character(self, i: int) -> tuple[int, ...]:
        """The character D_i (1-based index)."""
        return self.weights[i - 1]

    def submatrix_columns(self, indices) -> list[tuple[int, ...]]:
        return [self.weights[i - 1] for i in sorted(indices)]

    def with_omega(self, omega) -> "GITData":
        return GITData(self.r, self.m, self.weights, tuple(parse_fraction(x) for x in omega))

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "m": self.m,
            "weights": [list(w) for w in self.weights],
            "omega": [format_fraction(x) for x in self.omega],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "GITData":
        if not isinstance(obj, dict):
            raise InputError("GIT data must be a JSON object")
        unknown = set(obj) - {"r", "m", "weights", "omega"}
        if unknown:
            raise InputError("unknown fields in GIT data: %s" % ", ".join(sorted(unknown)))
        for field in ("r", "m", "weights", "omega"):
            if field not in obj:
                raise InputError("GIT data is missing field '%s'" % field)
        try:
            data = GITData.make(int(obj["r"]), obj["weights"], obj["omega"])
        except (TypeError, ValueError) as exc:
            raise InputError("bad GIT data: %s" % exc) from exc
        if data.m != int(obj["m"]):
            raise InputError("field 'm' does not match the number of characters")
        return data

    @staticmethod
    def from_json(text: str) -> "GITData":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError("invalid JSON: %s" % exc) from exc
        return GITData.from_json_dict(obj)


@dataclass(frozen=True)
class SemistableLocus:
    """A union of coordinate strata, recorded by its minimal anticones."""

    m: int
    minimal: tuple[Anticone, ...]

    def member(self, support) -> bool:
        """Is the stratum with the given nonzero-coordinate set kept?"""
        support = frozenset(support)
        return any(i <= support for i in self.minimal)

    def family(self):
        """Every anticone of the locus, reconstructed by enlargement."""
        return [s for s in _subsets(self.m) if self.member(s)]

    def to_json_list(self):
        return [sorted(i) for i in sorted(self.minimal, key=_anticone_key)]

    def __str__(self):
        return "{" + ", ".join("{%s}" % ",".join(map(str, sorted(i))) for i in sorted(self.minimal, key=_anticone_key)) + "}"


@dataclass(frozen=True)
class Chamber:
    """Strict inequalities cutting out a chamber, plus an interior sample."""

    normals: tuple[tuple[int, ...], ...]
    sample: tuple[Fraction, ...]

    def contains(self, point) -> bool:
        point = [parse_fraction(x) for x in point]
        return all(sum(Fraction(n) * x for n, x in zip(normal, point)) > 0 for normal in self.normals)

    def to_json_dict(self) -> dict:
        return {
            "inequalities": [list(n) for n in self.normals],
            "sample": [format_fraction(x) for x in self.sample],
        }


def _anticone_key(s):
    return (len(s), tuple(sorted(s)))


def _subsets(m: int):
    """Every subset of {1..m}, by size and then lexicographically."""
    for size in range(m + 1):
        for combo in itertools.combinations(range(1, m + 1), size):
            yield frozenset(combo)


def _solutions(data: GITData, size: int):
    """(tau, x) with D_tau x = omega, for the solvable subsets tau of a size.

    The solve leaves non-pivot coordinates at 0, so on a dependent tau x is
    the unique solution on an independent subset, and a singular r-subset
    never gets x > 0.
    """
    for combo in itertools.combinations(range(1, data.m + 1), size):
        x = rational_solve(data.submatrix_columns(combo), data.omega)
        if x is not None:
            yield frozenset(combo), x


def _cells(data: GITData) -> list[Anticone]:
    """The r-subsets sigma with D_sigma invertible and D_sigma^{-1} omega > 0."""
    return [sigma for sigma, x in _solutions(data, data.r) if all(v > 0 for v in x)]


def anticones(data: GITData) -> list[Anticone]:
    """All subsets I with omega a strictly positive combination of {D_i : i in I}.

    Off every wall, I is an anticone iff it contains a cell: an r-subset
    sigma with D_sigma invertible and D_sigma^{-1} omega > 0.  If I
    contains a cell, omega = D_sigma x with x > 0; with D_sigma y the sum
    of the other D_j in I, omega = eps * (that sum) + D_sigma (x - eps*y)
    has positive coefficients for small eps > 0.  Conversely, by
    Caratheodory omega = sum a_i D_i over a linearly independent tau
    inside I with a > 0 (drop zero coefficients); off the walls tau cannot
    have fewer than r elements, so tau is a cell.  The family is thus the
    upward closure of the C(m, r) cells, found by exact linear solves.

    On a wall the rule fails (omega = 0 is a positive combination of all
    four conifold characters but of no single one), and every subset is
    decided by the simplex.
    """
    if is_on_wall(data):
        return [
            s for s in _subsets(data.m) if cone_contains(data.submatrix_columns(s), data.omega, strict=True)
        ]
    cells = _cells(data)
    return [s for s in _subsets(data.m) if any(cell <= s for cell in cells)]


@dataclass(frozen=True)
class ValidationReport:
    nonempty_ok: bool
    spanning_ok: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.nonempty_ok and self.spanning_ok

    def to_json_dict(self) -> dict:
        return {
            "nonempty": self.nonempty_ok,
            "spanning": self.spanning_ok,
            "passed": self.passed,
            "failures": list(self.failures),
        }


def validate(data: GITData) -> ValidationReport:
    """Check the two admissibility conditions on the GIT data.

    (a) the full index set is an anticone (the quotient is nonempty);
    (b) the characters of every anticone span the ambient rational space
        (the quotient has finite stabilizers).
    """
    failures = []
    if not is_on_wall(data):
        # the anticones are the upward closure of the cells: the full index
        # set is one iff a cell exists, and the minimal ones are cells, whose
        # characters form a basis
        if not _cells(data):
            failures.append("the full index set is not an anticone")
        return ValidationReport(not failures, True, tuple(failures))
    full = cone_contains(data.weights, data.omega, strict=True)
    if not full:
        failures.append("the full index set is not an anticone")
    spanning = True
    for delta in _minimal_of(anticones(data)):
        if rational_rank(data.submatrix_columns(delta)) != data.r:
            spanning = False
            failures.append("anticone {%s} does not span" % ",".join(map(str, sorted(delta))))
    return ValidationReport(full, spanning, tuple(failures))


def _minimal_of(family) -> list[Anticone]:
    fam = set(family)
    out = []
    for s in fam:
        if not any(frozenset(s - {i}) in fam for i in s):
            out.append(s)
    return sorted(out, key=_anticone_key)


def minimal_anticones(data: GITData) -> SemistableLocus:
    """Minimal anticones; they cut out the semistable locus.  Off the walls
    they are the cells."""
    minimal = _minimal_of(anticones(data)) if is_on_wall(data) else _cells(data)
    return SemistableLocus(data.m, tuple(minimal))


def fixed_points(data: GITData) -> list[Anticone]:
    """Anticones of size r; these index the torus-fixed points.  Off the
    walls they are the cells."""
    if is_on_wall(data):
        return [a for a in anticones(data) if len(a) == data.r]
    return _cells(data)


def is_on_wall(data: GITData) -> bool:
    """Exact test: omega lies in the nonnegative span of < r characters.

    By Caratheodory that span is the union of the cones over the linearly
    independent subsets, where the solve is unique; with r = 0 omega is off
    every wall.
    """
    return any(all(v >= 0 for v in x) for size in range(data.r) for _, x in _solutions(data, size))


def chamber_of(data: GITData) -> Chamber:
    """The chamber containing omega, as the strict inequalities of the
    simplicial cones attached to the minimal anticones."""
    if is_on_wall(data):
        raise OnWallError("stability condition lies on a wall")
    normals = set()
    for delta in _cells(data):
        cols = data.submatrix_columns(delta)
        matrix = [[Fraction(cols[j][i]) for j in range(data.r)] for i in range(data.r)]
        inv = rational_inverse(matrix)
        for row in inv:
            normals.add(primitive_integer_vector(row))
    return Chamber(tuple(sorted(normals)), data.omega)


def same_chamber(data: GITData, other_omega) -> bool:
    """Two stability conditions are in one chamber iff their anticone
    families agree; off the walls, iff their cells agree."""
    other = data.with_omega(other_omega)
    if is_on_wall(data) or is_on_wall(other):
        return False
    return _cells(data) == _cells(other)
