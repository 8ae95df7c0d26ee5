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
    format_fraction,
    parse_fraction,
    primitive_integer_vector,
    rational_inverse,
    rational_solve,
)
from .exactalg.cyclotomic import parse_int
from .exactalg.lp import positive_circuits

Anticone = frozenset  # subsets of {1..m}, 1-based


def as_integer(x) -> int:
    """x as an int; a non-integral value raises InputError, never truncates."""
    if type(x) is int:
        return x
    try:
        return parse_int(x)
    except (TypeError, ValueError):
        raise InputError("not an integer: %r" % (x,)) from None


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
        object.__setattr__(self, "weights", tuple(tuple(map(as_integer, w)) for w in self.weights))

    @staticmethod
    def make(r: int, weights, omega) -> "GITData":
        weights = tuple(tuple(parse_int(x) for x in w) for w in weights)
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
        # a JSON string would be read one character at a time
        if not isinstance(obj["weights"], list) or not all(isinstance(w, list) for w in obj["weights"]):
            raise InputError("field 'weights' must be a JSON list of lists")
        if not isinstance(obj["omega"], list):
            raise InputError("field 'omega' must be a JSON list")
        try:
            data = GITData.make(parse_int(obj["r"]), obj["weights"], obj["omega"])
            m = parse_int(obj["m"])
        except (TypeError, ValueError) as exc:
            raise InputError("bad GIT data: %s" % exc) from exc
        if data.m != m:
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

    @staticmethod
    def generated_by(m: int, generators) -> "SemistableLocus":
        """The upward closure of a family of supports, by its minimal members."""
        gens = set(generators)
        minimal = [s for s in gens if not any(t < s for t in gens)]
        return SemistableLocus(m, tuple(sorted(minimal, key=_anticone_key)))

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


def _wall_cells(data: GITData) -> list[Anticone]:
    """The tau with |tau| <= r and D_tau^{-1} omega > 0.

    ``_solutions`` leaves a zero coordinate on a dependent tau, so each wall
    cell is linearly independent; tau is empty exactly when omega = 0.  The
    list comes by size and then lexicographically.
    """
    return [tau for size in range(data.r + 1) for tau, x in _solutions(data, size) if all(v > 0 for v in x)]


def anticones(data: GITData) -> list[Anticone]:
    """All subsets I with omega a strictly positive combination of {D_i : i in I}.

    The inclusion-minimal anticones are the wall cells (``_wall_cells``), on
    a wall or off it.  A minimal I has no kernel vector: moving along one
    would zero a coefficient and give a smaller anticone.  A proper
    sub-solution of a wall cell would break the uniqueness of its solve.

    Off every wall the wall cells are r-subsets, and the family is their
    upward closure: if I contains a cell sigma, omega = D_sigma x with
    x > 0, and adding eps times the other D_j of I, with D_sigma y their
    sum, gives omega = eps * (that sum) + D_sigma (x - eps*y), positive for
    small eps > 0.

    On a wall the family is not upward closed (omega = 0 is a positive
    combination of all four conifold characters but of no single one); there
    I is an anticone iff it contains a wall cell and is the union of the wall
    cells and positive circuits (``lp.positive_circuits``) it contains.  The
    polyhedron {x >= 0 supported on I : D x = omega} is pointed; its vertices
    are the wall cells inside I (a vertex has independent support and a
    positive solution there), and its extreme rays are the positive circuits
    inside I.  So it is nonempty iff I contains a cell, and some point is
    positive on all of I iff every index of I lies in a vertex or a ray.
    """
    cells = _wall_cells(data)
    if all(len(tau) == data.r for tau in cells):
        return SemistableLocus(data.m, tuple(cells)).family()
    circuits = _positive_circuits(data)
    return [s for s in _subsets(data.m) if _is_wall_anticone(s, cells, circuits)]


def _positive_circuits(data: GITData) -> list[Anticone]:
    """The positive circuits of the characters (at most r + 1 of them each)."""
    return [frozenset(i + 1 for i in c) for c in positive_circuits(data.weights, data.r + 1)]


def _is_wall_anticone(s, cells, circuits) -> bool:
    """The anticone rule of ``anticones``: s holds a cell, and its cells and
    positive circuits cover it."""
    inner = [c for c in cells if c <= s]
    return bool(inner) and frozenset().union(*inner, *(c for c in circuits if c <= s)) == s


@dataclass(frozen=True)
class ValidationReport:
    nonempty_ok: bool
    spanning_ok: bool
    failures: tuple[str, ...]
    cells: tuple[Anticone, ...]  # the minimal anticones the report was read from

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

    The minimal anticones are the wall cells, which are linearly
    independent, so (b) fails exactly at the wall cells of size < r, that
    is on a wall.  Off the walls (a) holds iff some cell exists; on a wall
    it is the anticone rule of ``anticones`` for the full set: the cells
    and positive circuits cover {1..m}.
    """
    cells = _wall_cells(data)
    thin = [tau for tau in cells if len(tau) < data.r]
    full = bool(cells)
    if thin:
        full = _is_wall_anticone(frozenset(range(1, data.m + 1)), cells, _positive_circuits(data))
    failures = [] if full else ["the full index set is not an anticone"]
    failures += ["anticone {%s} does not span" % ",".join(map(str, sorted(tau))) for tau in thin]
    return ValidationReport(full, not thin, tuple(failures), tuple(cells))


def minimal_anticones(data: GITData) -> SemistableLocus:
    """Minimal anticones, which cut out the semistable locus: the wall cells
    (see ``anticones``), on a wall or off it."""
    return SemistableLocus(data.m, tuple(_wall_cells(data)))


def fixed_points(data: GITData) -> list[Anticone]:
    """Anticones of size r, which index the torus-fixed points: off the
    walls, the wall cells.  On a wall there is no orbifold quotient to
    localize on, and the call raises ``OnWallError``."""
    cells = _wall_cells(data)
    if any(len(tau) < data.r for tau in cells):
        raise OnWallError("stability condition lies on a wall")
    return cells


def is_on_wall(data: GITData) -> bool:
    """Exact test: omega lies in the nonnegative span of < r characters,
    that is some wall cell has fewer than r elements (drop the zero
    coefficients and, by Caratheodory, the dependent characters).  With
    r = 0 omega is off every wall."""
    return any(len(tau) < data.r for tau in _wall_cells(data))


def chamber_of(data: GITData) -> Chamber:
    """The chamber containing omega, as the strict inequalities of the
    simplicial cones attached to the minimal anticones."""
    return chamber_of_fixed_points(data, fixed_points(data))


def chamber_of_fixed_points(data: GITData, deltas) -> Chamber:
    """``chamber_of`` from the fixed points of the data: its wall cells off
    the walls, for a caller that holds them (``ValidationReport.cells``)."""
    normals = {
        primitive_integer_vector(row)
        for delta in deltas
        for row in rational_inverse(list(zip(*data.submatrix_columns(delta))))
    }
    return Chamber(tuple(sorted(normals)), data.omega)
