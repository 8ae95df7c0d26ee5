import itertools
import json
import random
from fractions import Fraction

import pytest

from simplex_reference import cone_contains
from torickit.errors import InputError, OnWallError
from torickit.examples import get_example
from torickit.gitdata import (
    GITData,
    anticones,
    chamber_of,
    fixed_points,
    is_on_wall,
    minimal_anticones,
    validate,
)
from torickit.exactalg.lp import weights_convex
from torickit.wallcrossing import make_wall_crossing

CONIFOLD = GITData.make(1, [(1,), (1,), (-1,), (-1,)], ["1"])
P12 = GITData.make(1, [(1,), (2,)], ["1"])
C2 = GITData.make(0, [(), ()], [])


def test_validate_conifold_passes():
    assert validate(CONIFOLD).passed


def test_validate_rank_zero_passes():
    assert validate(C2).passed


def test_validate_negative_omega_fails_nonempty():
    bad = GITData.make(1, [(1,), (1,)], ["-1"])
    report = validate(bad)
    assert not report.nonempty_ok
    assert not report.passed


def test_validate_spanning_failure():
    # {2} is an anticone but its character is the zero vector
    data = GITData.make(1, [(1,), (0,)], ["0"])
    report = validate(data)
    assert not report.spanning_ok


def test_conifold_anticones_condition():
    fam = anticones(CONIFOLD)
    expected = [
        frozenset(c)
        for size in range(5)
        for c in itertools.combinations((1, 2, 3, 4), size)
        if set(c) & {1, 2}
    ]
    assert sorted(fam, key=lambda s: (len(s), tuple(sorted(s)))) == sorted(
        expected, key=lambda s: (len(s), tuple(sorted(s)))
    )


def test_rank_zero_anticones_are_all_subsets():
    assert len(anticones(C2)) == 4
    assert frozenset() in anticones(C2)


def test_p12_anticones():
    assert sorted(map(sorted, anticones(P12))) == [[1], [1, 2], [2]]


def test_minimal_anticones():
    assert minimal_anticones(CONIFOLD).minimal == (frozenset({1}), frozenset({2}))
    assert minimal_anticones(C2).minimal == (frozenset(),)


def test_minimal_anticones_on_walls_are_minimal():
    # {1} lies inside the anticone {1,2,3}, which is therefore not minimal
    data = GITData.make(2, [(1, 0), (0, 1), (0, -1)], ["1", "0"])
    assert minimal_anticones(data).minimal == (frozenset({1}),)
    assert minimal_anticones(CONIFOLD.with_omega(["0"])).minimal == (frozenset(),)


def test_fixed_points_on_a_wall_rejected():
    for data in (CONIFOLD.with_omega(["0"]), GITData.make(2, [(1, 0), (0, 1), (0, -1)], ["1", "0"])):
        with pytest.raises(OnWallError):
            fixed_points(data)


def test_fixed_points():
    assert sorted(map(sorted, fixed_points(CONIFOLD))) == [[1], [2]]
    assert sorted(map(sorted, fixed_points(P12))) == [[1], [2]]
    assert fixed_points(C2) == [frozenset()]


def test_fixed_point_submatrices_invertible():
    for data in (CONIFOLD, P12):
        for delta in fixed_points(data):
            cols = data.submatrix_columns(delta)
            matrix = [[Fraction(cols[j][i]) for j in range(data.r)] for i in range(data.r)]
            det = Fraction(1)
            if matrix:
                det = matrix[0][0]
            assert det != 0


def test_chamber_of_conifold():
    ch = chamber_of(CONIFOLD)
    assert ch.normals == ((1,),)
    assert ch.contains(["5"]) and not ch.contains(["-1"])
    # the anticone family is constant on a chamber and changes across its wall
    assert anticones(CONIFOLD) == anticones(CONIFOLD.with_omega(["7/3"]))
    assert anticones(CONIFOLD) != anticones(CONIFOLD.with_omega(["-2"]))


def test_chamber_on_wall_rejected():
    with pytest.raises(OnWallError):
        chamber_of(CONIFOLD.with_omega(["0"]))
    assert is_on_wall(CONIFOLD.with_omega(["0"]))
    assert not is_on_wall(CONIFOLD)


def test_weights_convex_examples():
    assert weights_convex([(1,), (1,)])
    assert not weights_convex([(-1,), (1,)])
    assert weights_convex([])


def _random_valid_data(rng):
    while True:
        m = rng.randint(2, 6)
        weights = [(rng.randint(-2, 2),) for _ in range(m)]
        data = GITData.make(1, weights, ["1"])
        if validate(data).passed and not is_on_wall(data):
            return data


def test_enlargement_closure_exhaustive():
    rng = random.Random(11)
    datasets = [CONIFOLD, P12, C2] + [_random_valid_data(rng) for _ in range(6)]
    for data in datasets:
        fam = set(anticones(data))
        for a in fam:
            for extra in range(1, data.m + 1):
                assert a | {extra} in fam


def test_minimal_plus_enlargement_reconstructs():
    for data in (CONIFOLD, P12, C2):
        locus = minimal_anticones(data)
        fam = set(anticones(data))
        assert set(locus.family()) == fam


def test_json_round_trip():
    for data in (CONIFOLD, P12, C2):
        text = json.dumps(data.to_json_dict())
        again = GITData.from_json(text)
        assert again == data


def test_json_rejects_unknown_and_missing():
    with pytest.raises(InputError):
        GITData.from_json('{"r": 1, "m": 1, "weights": [[1]], "omega": ["1"], "x": 0}')
    with pytest.raises(InputError):
        GITData.from_json('{"r": 1, "m": 1, "weights": [[1]]}')
    with pytest.raises(InputError):
        GITData.from_json('{"r": 1, "m": 2, "weights": [[1]], "omega": ["1"]}')


def test_shape_validation():
    with pytest.raises(InputError):
        GITData.make(2, [(1,)], ["1", "0"])
    with pytest.raises(InputError):
        GITData.make(1, [(1,), (1,)], ["1", "2"])


# -- differential tests against the simplex on every subset ---------------------


def _subsets(m, sizes):
    return [frozenset(c) for size in sizes for c in itertools.combinations(range(1, m + 1), size)]


def _lp_anticones(data):
    return [
        s for s in _subsets(data.m, range(data.m + 1))
        if cone_contains(data.submatrix_columns(s), data.omega, strict=True)
    ]


def _lp_on_wall(data):
    return any(
        cone_contains(data.submatrix_columns(s), data.omega, strict=False)
        for s in _subsets(data.m, range(data.r))
    )


def _random_data(rng):
    r = rng.randint(0, 3)
    m = rng.randint(max(r, 1), 7)
    weights = [tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(m)]
    omega = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]
    return GITData.make(r, weights, omega)


def test_anticones_match_simplex_on_random_data():
    rng = random.Random(2024)
    off_wall = nonempty = on_wall = 0
    while off_wall < 150:
        data = _random_data(rng)
        wall = _lp_on_wall(data)
        assert is_on_wall(data) == wall, data
        if wall:
            fam = _lp_anticones(data)
            minimal = [s for s in fam if not any(t < s for t in fam)]
            assert list(minimal_anticones(data).minimal) == minimal, data
            on_wall += 1
            continue
        fam = _lp_anticones(data)
        assert anticones(data) == fam, data
        assert fixed_points(data) == [s for s in fam if len(s) == data.r], data
        minimal = [s for s in fam if not any(t < s for t in fam)]
        assert list(minimal_anticones(data).minimal) == minimal, data
        full = cone_contains(data.weights, data.omega, strict=True)
        assert validate(data).passed == full, data
        off_wall += 1
        nonempty += bool(fam)
    # the draw must exercise both sides of the rule and both wall answers
    assert nonempty >= 50 and off_wall - nonempty >= 20 and on_wall >= 10


KP2 = get_example("kp2").data
RANK2 = GITData.make(2, [(1, -1), (1, -1), (-1, 0), (-1, 0), (0, 1)], ["1", "1"])


def _named_walls():
    return [
        CONIFOLD.with_omega(["0"]),
        GITData.make(2, [(1, 0), (0, 1), (1, 1)], ["0", "0"]),
        CONIFOLD.with_omega(make_wall_crossing(CONIFOLD, ["1"], ["-1"]).omega_zero),
        KP2.with_omega(make_wall_crossing(KP2, ["1"], ["-1"]).omega_zero),
        RANK2.with_omega(make_wall_crossing(RANK2, ["1", "1"], ["-1", "1"]).omega_zero),
        # on the ray of one character, a wall of dimension r - 1 = 1
        GITData.make(2, [(1, 2), (1, 0), (0, 1), (-1, 1)], ["2", "4"]),
        # in the cone of two characters, a wall of dimension r - 1 = 2
        GITData.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], ["1", "1/2", "0"]),
    ]


def test_is_on_wall_matches_simplex_on_walls():
    for data in _named_walls():
        assert _lp_on_wall(data) and is_on_wall(data), data
        assert anticones(data) == _lp_anticones(data), data
    for data in (CONIFOLD, KP2, RANK2, P12, C2):
        assert not _lp_on_wall(data) and not is_on_wall(data), data


def _random_wall_data(rng):
    """Random characters with omega a nonnegative combination of fewer than
    r of them, which puts omega on a wall."""
    r = rng.randint(1, 3)
    m = rng.randint(r, 7)
    weights = [tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(m)]
    coeffs = {i: Fraction(rng.randint(0, 3), rng.randint(1, 2)) for i in rng.sample(range(m), rng.randint(0, r - 1))}
    omega = [sum((c * weights[i][k] for i, c in coeffs.items()), Fraction(0)) for k in range(r)]
    return GITData.make(r, weights, omega)


def test_anticone_rule_matches_simplex_on_walls():
    rng = random.Random(77)
    on_wall = anticone = full = 0
    for _ in range(320):
        data = _random_wall_data(rng)
        if not _lp_on_wall(data):
            continue
        family = set(anticones(data))
        every = frozenset(range(1, data.m + 1))
        subsets = _subsets(data.m, range(data.m + 1))
        if data.m > 4:  # the simplex on all 32 to 128 subsets is slow; sample them
            subsets = rng.sample(subsets, 12) + [every]
        for s in subsets:
            expected = cone_contains(data.submatrix_columns(s), data.omega, strict=True)
            assert (s in family) == expected, (data, s)
            anticone += expected
        assert validate(data).nonempty_ok == (every in family), data
        on_wall += 1
        full += every in family
    # the draws must land on walls and reach both answers, also for the full set
    assert on_wall >= 300 and anticone >= 800 and 30 <= full <= on_wall - 30, (on_wall, anticone, full)


def _sympy_strictly_inside(gens, point):
    """Is point a strictly positive combination of gens?  By sympy's exact
    simplex: the largest t <= 1 with x >= t and sum x_i g_i == point."""
    sympy = pytest.importorskip("sympy")
    simplex = pytest.importorskip("sympy.solvers.simplex")
    xs = sympy.symbols("x0:%d" % len(gens))
    t = sympy.Symbol("t")
    constraints = [t <= 1] + [x >= t for x in xs] + [x >= 0 for x in xs]
    for k, target in enumerate(point):
        expr = sum(g[k] * x for g, x in zip(gens, xs))
        if expr == 0:
            if target:
                return False
            continue
        constraints.append(sympy.Eq(expr, target))
    try:
        value, _ = simplex.lpmax(t, constraints)
    except simplex.InfeasibleLPError:
        return False
    return value > 0


def test_reference_simplex_matches_sympy_on_named_walls():
    answers = []
    for data in _named_walls():
        every = frozenset(range(1, data.m + 1))
        for s in (every, every - {1}):
            expected = cone_contains(data.submatrix_columns(s), data.omega, strict=True)
            assert _sympy_strictly_inside(data.submatrix_columns(s), data.omega) == expected, (data, s)
            answers.append(expected)
    assert True in answers and False in answers


def test_rank_zero_every_subset_is_an_anticone():
    for m in range(4):
        data = GITData.make(0, [()] * m, [])
        assert not is_on_wall(data)
        assert anticones(data) == _lp_anticones(data) == _subsets(m, range(m + 1))
        assert fixed_points(data) == [frozenset()]
        assert validate(data).passed


def test_direct_construction_rejects_fractional_weights():
    with pytest.raises(InputError):
        GITData(1, 2, ((1.5,), (2,)), (1,))
    data = GITData(1, 2, ((Fraction(1),), (2.0,)), (1,))
    assert data.weights == ((1,), (2,)) and {type(x) for w in data.weights for x in w} == {int}
