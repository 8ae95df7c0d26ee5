from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplex_reference import cone_contains, solve_lp
from simplex_reference import weights_convex as reference_weights_convex
from torickit.exactalg.lp import weights_convex


def test_simple_ray():
    assert cone_contains([(1,), (2,)], (1,), strict=True)
    assert not cone_contains([(1,), (2,)], (-1,), strict=False)


def test_mixed_generators_strict():
    # positive point is a strictly positive combination of {1,1,-1,-1}
    assert cone_contains([(1,), (1,), (-1,), (-1,)], (Fraction(3, 7),), strict=True)


def test_empty_generators():
    assert cone_contains([], (0,), strict=True)
    assert cone_contains([], (0,), strict=False)
    assert not cone_contains([], (1,), strict=True)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        cone_contains([(1, 0)], (1,), strict=False)


def test_strict_vs_nonstrict_boundary():
    gens = [(1, 0), (0, 1)]
    assert cone_contains(gens, (1, 0), strict=False)
    assert not cone_contains(gens, (1, 0), strict=True)
    assert cone_contains(gens, (1, 1), strict=True)


def test_strict_needs_every_generator_positive():
    # (1,1) strictly positive combination of the three generators exists
    gens = [(1, 0), (0, 1), (1, 1)]
    assert cone_contains(gens, (1, 1), strict=True)
    # but not of these: the third generator would have to cancel exactly
    gens = [(1, 0), (-1, 0)]
    assert not cone_contains(gens, (1, 1), strict=False)
    assert cone_contains(gens, (0, 0), strict=True)


def test_weights_convex_examples():
    assert weights_convex([(1,), (1,)])
    assert not weights_convex([(-1,), (1,)])
    assert weights_convex([])
    assert not weights_convex([(0, 0)])
    assert weights_convex([(1, 0), (0, 1), (1, 1)])
    assert not weights_convex([(1, 0), (0, 1), (-1, -1)])


vectors = st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2).map(tuple)


@settings(max_examples=50, deadline=None)
@given(st.lists(vectors, min_size=1, max_size=5), st.permutations(range(5)), st.integers(1, 4))
def test_cone_contains_invariances(gens, perm, scale):
    point = tuple(sum(g[i] for g in gens) for i in range(2))
    inside = cone_contains(gens, point, strict=False)
    assert inside  # the sum of generators is always a nonnegative combination
    shuffled = [gens[p] for p in perm if p < len(gens)]
    if len(shuffled) == len(gens):
        assert cone_contains(shuffled, point, strict=False) == inside
    scaled_gens = [tuple(scale * x for x in g) for g in gens]
    scaled_point = tuple(scale * x for x in point)
    assert cone_contains(scaled_gens, scaled_point, strict=False) == inside


def test_solve_lp_basic():
    # min x + y with x + 2y == 4, x,y >= 0 -> x=0, y=2
    value, x = solve_lp([[1, 2]], [4], [1, 1])
    assert value == 2
    assert x == [0, 2]
    assert solve_lp([[1], [1]], [1, 2], [0]) is None


weight_sets = st.integers(0, 3).flatmap(
    lambda dim: st.lists(st.tuples(*[st.integers(-2, 2)] * dim), max_size=6)
)


@settings(max_examples=300, deadline=None)
@given(weight_sets)
@example([])
@example([()])
@example([(), ()])
@example([(0, 0), (1, 0)])
@example([(1, 0), (2, 0)])  # dependent but convex
@example([(1, 0), (0, 1), (-1, -1)])  # a positive circuit of size rank + 1
@example([(1, 1, 0), (-1, -1, 0), (0, 0, 1)])
def test_weights_convex_matches_simplex(weights):
    assert weights_convex(weights) == reference_weights_convex(weights)


def test_weights_convex_rejects_ragged_weights():
    with pytest.raises(ValueError):
        weights_convex([(1, 0), (1,)])
