import random
from collections import Counter
from fractions import Fraction

import pytest

from torickit.errors import NotAdjacentError, OnWallError, OneSidedWallError
from torickit.exactalg import rat_equal
from torickit.gitdata import GITData, anticones, is_on_wall, minimal_anticones, validate
from torickit.localization import EquivClass, euler_characteristic
from torickit.wallcrossing import (
    _candidate_normals,
    eta_invariants,
    extend,
    make_wall_crossing,
    partition_M,
    pullback_class,
)
from torickit.windows import fm_euler_check, seven_loci

CONIFOLD = GITData.make(1, [(1,), (1,), (-1,), (-1,)], ["1"])
KP2 = GITData.make(1, [(1,), (1,), (1,), (-3,)], ["1"])


def crossing(data, plus="1", minus="-1"):
    return make_wall_crossing(data, [plus], [minus])


def test_conifold_wall():
    wc = crossing(CONIFOLD)
    assert wc.e == (1,)
    assert wc.omega_zero == (Fraction(0),)
    assert wc.crepant
    assert sum(Fraction(a) * b for a, b in zip(wc.e, wc.omega_zero)) == 0


def test_kp2_wall_crepant():
    wc = crossing(KP2)
    assert wc.e == (1,) and wc.crepant


def test_non_crepant_example():
    data = GITData.make(1, [(1,), (1,), (-1,)], ["1"])
    wc = crossing(data)
    assert not wc.crepant


def test_degenerate_omega_rejected():
    with pytest.raises(OnWallError):
        make_wall_crossing(CONIFOLD, ["0"], ["-1"])


def test_rank_two_wall():
    # the extended conifold data: crossing between its plus and minus chambers
    ext_weights = [(1, -1), (1, -1), (-1, 0), (-1, 0), (0, 1)]
    data = GITData.make(2, ext_weights, ["1", "1"])
    wc = make_wall_crossing(data, ["1", "1"], ["-1", "1"])
    assert wc.e == (1, 0)
    assert wc.omega_zero == (Fraction(0), Fraction(1))
    assert sum(Fraction(a) * b for a, b in zip(wc.e, wc.omega_zero)) == 0
    assert wc.crepant  # the total character (0,-1) pairs to zero with (1,0)
    from math import gcd

    assert gcd(*map(abs, wc.e)) == 1


def test_wall_point_orthogonality_kp2():
    wc = crossing(KP2)
    assert sum(Fraction(a) * b for a, b in zip(wc.e, wc.omega_zero)) == 0


def test_same_chamber_rejected():
    with pytest.raises(NotAdjacentError):
        make_wall_crossing(CONIFOLD, ["1"], ["2"])


def test_partition_examples():
    wc = crossing(CONIFOLD)
    mp, mz, mm = partition_M(wc)
    assert (sorted(mp), sorted(mz), sorted(mm)) == ([1, 2], [], [3, 4])
    wc = crossing(KP2)
    mp, mz, mm = partition_M(wc)
    assert (sorted(mp), sorted(mz), sorted(mm)) == ([1, 2, 3], [], [4])
    data = GITData.make(1, [(1,), (0,), (-1,)], ["1"])
    mp, mz, mm = partition_M(crossing(data))
    assert sorted(mz) == [2]


def test_one_sided_wall():
    # a wall with single-signed pairings never bounds two admissible
    # chambers, so the guard is only reachable on a hand-built crossing
    from torickit.wallcrossing import WallCrossing

    data = GITData.make(1, [(1,), (2,)], ["1"])
    cells = minimal_anticones(data).minimal
    wc = WallCrossing(data, (Fraction(1),), (Fraction(-1),), (Fraction(0),), (1,), False, cells, cells)
    with pytest.raises(OneSidedWallError):
        partition_M(wc)


def test_eta_examples():
    assert eta_invariants(crossing(CONIFOLD)) == (2, 2)
    assert eta_invariants(crossing(KP2)) == (3, 3)
    data = GITData.make(1, [(2,), (-1,)], ["1"])
    assert eta_invariants(crossing(data)) == (2, 1)


def test_crepant_iff_equal_eta_on_random_family():
    rng = random.Random(2024)
    crepant_seen = noncrepant_seen = 0
    while crepant_seen < 20 or noncrepant_seen < 50:
        m = rng.randint(2, 6)
        weights = [(rng.randint(-3, 3),) for _ in range(m)]
        if not any(w[0] > 0 for w in weights) or not any(w[0] < 0 for w in weights):
            continue
        data = GITData.make(1, weights, ["1"])
        if not validate(data).passed or not validate(data.with_omega(["-1"])).passed:
            continue
        wc = crossing(data)
        eta_p, eta_m = eta_invariants(wc)
        assert wc.crepant == (eta_p == eta_m)
        if wc.crepant:
            crepant_seen += 1
        else:
            noncrepant_seen += 1


def test_real_wall_rule_agrees_with_midpoint_comparison():
    # make_wall_crossing keeps a candidate crossing when its point is on a
    # wall; the reference keeps it when the minimal anticones differ at the
    # midpoints towards the neighbouring crossings (or the segment's ends)
    rng = random.Random(2026)
    valid = walls = non_walls = crossed = multi = 0
    for _ in range(400):
        r = rng.choice((2, 3))
        m = rng.randint(r + 1, r + 3)
        base = GITData.make(r, [tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(m)], ["0"] * r)
        plus, minus = ([Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(2))
        if not (validate(base.with_omega(plus)).passed and validate(base.with_omega(minus)).passed):
            continue
        valid += 1

        def point(t):
            return tuple(a + t * (b - a) for a, b in zip(plus, minus))

        times = set()
        for n in _candidate_normals(base):
            vp = sum(a * b for a, b in zip(n, plus))
            vm = sum(a * b for a, b in zip(n, minus))
            if (vp > 0 > vm) or (vm > 0 > vp):
                times.add(vp / (vp - vm))
        gaps = [Fraction(0)] + sorted(times) + [Fraction(1)]
        real = []
        for k in range(1, len(gaps) - 1):
            left = minimal_anticones(base.with_omega(point((gaps[k - 1] + gaps[k]) / 2)))
            right = minimal_anticones(base.with_omega(point((gaps[k] + gaps[k + 1]) / 2)))
            on_wall = is_on_wall(base.with_omega(point(gaps[k])))
            assert on_wall == (left != right), (base, plus, minus, gaps[k])
            walls += on_wall
            non_walls += not on_wall
            real += [gaps[k]] * on_wall
        try:
            outcome = make_wall_crossing(base, plus, minus).omega_zero
        except NotAdjacentError as exc:
            outcome = str(exc)
        if minimal_anticones(base.with_omega(plus)) == minimal_anticones(base.with_omega(minus)):
            assert outcome == "the two stability conditions lie in the same chamber"
        elif len(real) != 1:
            assert outcome == "segment crosses %d walls; compose single crossings" % len(real)
            multi += 1
        else:
            assert outcome in (point(real[0]), "crossing point lies on several hyperplanes")
            crossed += outcome == point(real[0])
    # at this seed: 94 valid draws, 82 walls, 102 crossings of no wall, 41
    # accepted crossings and 17 segments rejected for crossing several walls
    assert valid >= 80 and walls >= 60 and non_walls >= 80
    assert crossed >= 30 and multi >= 10


def test_extend_conifold_matrix_and_chambers():
    wc = crossing(CONIFOLD)
    ext = extend(wc)
    rows = list(zip(*ext.data.weights))
    assert rows == [(1, 1, -1, -1, 0), (-1, -1, 0, 0, 1)]
    assert ext.chamber_plus.normals == ((1, 0), (1, 1))
    assert ext.chamber_minus.normals == ((-1, 0), (0, 1))
    assert ext.chamber_tilde.normals == ((-1, -1), (0, -1))
    assert validate(ext.data_tilde).passed
    assert not is_on_wall(ext.data_tilde)
    assert minimal_anticones(ext.data_tilde).to_json_list() == [[1, 3], [1, 4], [2, 3], [2, 4]]


def test_extend_epsilon_halving():
    # the offset below the wall is exact: halving it further never changes
    # the resolution chamber, also on a wall whose offset is below the cap
    wide = GITData.make(2, [(1, 0), (100, 1), (100, -1), (-1, 0)], ["1/20", "1/10000"])
    for wc in (crossing(CONIFOLD), make_wall_crossing(wide, ["1/20", "1/10000"], ["1/20", "-1/10000"])):
        ext = extend(wc)
        assert validate(ext.data_tilde).passed
        assert not is_on_wall(ext.data_tilde)
        epsilon = -ext.omega_tilde[-1]
        assert 0 < epsilon <= Fraction(1, 1000)
        expected = minimal_anticones(ext.data_tilde).to_json_list()
        for k in range(1, 6):
            halved = ext.data_tilde.with_omega(wc.omega_zero + (-epsilon / 2**k,))
            assert not is_on_wall(halved)
            assert minimal_anticones(halved).to_json_list() == expected
    ext = extend(crossing(CONIFOLD))
    assert minimal_anticones(ext.data_tilde).to_json_list() == [[1, 3], [1, 4], [2, 3], [2, 4]]


def test_extend_side_anticones_contain_extra_index():
    for data in (CONIFOLD, KP2):
        ext = extend(crossing(data))
        m1 = data.m + 1
        for side in (ext.data_plus, ext.data_minus):
            assert all(m1 in a for a in anticones(side))


def test_extend_reduces_to_base_quotients():
    for data in (CONIFOLD, KP2):
        ext = extend(crossing(data))
        m1 = data.m + 1
        for side, base_omega in ((ext.data_plus, ["1"]), (ext.data_minus, ["-1"])):
            reduced = sorted(
                {frozenset(a - {m1}) for a in minimal_anticones(side).minimal},
                key=lambda s: tuple(sorted(s)),
            )
            base = sorted(
                minimal_anticones(data.with_omega(base_omega)).minimal,
                key=lambda s: tuple(sorted(s)),
            )
            assert reduced == base


def test_one_wall_cell_pass_per_stability_condition(monkeypatch):
    # make_wall_crossing: the two sides, then the one crossing point; extend:
    # the three extended conditions (the reduction check reads the base
    # sides' cells from the crossing); reading the chambers (the CLI's
    # wallcross): none; seven_loci: the base at omega_zero, since its check
    # reads the three extended conditions' cells from extend.  Within each
    # call no condition is passed over twice.
    from torickit import gitdata

    calls = []
    wall_cells = gitdata._wall_cells

    def counted(data):
        calls.append(data)
        return wall_cells(data)

    monkeypatch.setattr(gitdata, "_wall_cells", counted)
    wc = crossing(KP2)
    assert len(calls) == len(set(calls)) == 3
    calls.clear()
    ext = extend(wc)
    assert len(calls) == len(set(calls)) == 3
    assert set(calls) == {ext.data_plus, ext.data_minus, ext.data_tilde}
    calls.clear()
    ext.to_json_dict()
    assert calls == []
    seven_loci(ext)
    assert calls == [wc.base.with_omega(wc.omega_zero)]


def test_crossing_builds_each_chambers_fixed_points_once(monkeypatch):
    # make_wall_crossing and extend build no fixed point; a sweep of (L, M)
    # pairs on one (wc, ext) passes over no wall cells and builds the fixed
    # point of each cell of the plus, minus and resolution chambers once;
    # the CLI fm-check passes over each of its six stability conditions
    # once: the two sides and the crossing point, then the three extended
    # conditions
    from torickit import cli, gitdata, localization

    passes, built = [], []
    wall_cells, fixed_point_data = gitdata._wall_cells, localization.fixed_point_data
    monkeypatch.setattr(gitdata, "_wall_cells", lambda data: passes.append(data) or wall_cells(data))

    def counted(data, delta):
        built.append((data, frozenset(delta)))
        return fixed_point_data(data, delta)

    monkeypatch.setattr(localization, "fixed_point_data", counted)
    wc = crossing(CONIFOLD)
    ext = extend(wc)
    assert built == []
    passes.clear()
    for a in (0, 1):
        for b in (-1, 0, 1):
            assert fm_euler_check(wc, EquivClass.line(1, 4, (a,)), EquivClass.line(1, 4, (b,)), ext=ext).equal
    assert passes == []
    chambers = ((wc.data_plus, wc.cells_plus), (wc.data_minus, wc.cells_minus), (ext.data_tilde, ext.cells_tilde))
    assert Counter(built) == Counter((data, cell) for data, cells in chambers for cell in cells)
    assert len(built) == 8
    passes.clear()
    assert cli.main(["fm-check", "--example", "conifold", "--L", "O(1)", "--M", "O(0)"]) == 0
    assert len(passes) == len(set(passes)) == 6


def test_extended_conifold_has_four_fixed_points():
    ext = extend(crossing(CONIFOLD))
    assert len([a for a in anticones(ext.data_tilde) if len(a) == 2]) == 4


def test_pullback_classes():
    wc = crossing(CONIFOLD)
    ext = extend(wc)
    O = EquivClass.line(1, 4, (0,))
    assert pullback_class(ext, "-", O) == EquivClass.line(2, 5, (0, 0))
    O1 = EquivClass.line(1, 4, (1,))
    pb = pullback_class(ext, "-", O1)
    assert pb == EquivClass.line(2, 5, (1, 0))
    pbp = pullback_class(ext, "+", O1)
    assert pbp == EquivClass.line(2, 5, (1, -1))
    # sums map linearly
    assert pullback_class(ext, "-", O + O1) == pullback_class(ext, "-", O) + pullback_class(ext, "-", O1)


def test_pullback_torus_twist():
    wc = crossing(CONIFOLD)
    ext = extend(wc)
    cls = EquivClass.line(1, 4, (0,), (1, 0, 0, 0))
    assert pullback_class(ext, "-", cls) == EquivClass.line(2, 5, (0, 0), (1, 0, 0, 0, 1))
    assert pullback_class(ext, "+", cls) == EquivClass.line(2, 5, (0, 0), (1, 0, 0, 0, 0))


def flop_chis(data, ext):
    O_base = EquivClass.line(1, data.m, (0,))
    O_ext = EquivClass.line(2, data.m + 1, (0, 0))
    chi_p = euler_characteristic(data.with_omega(ext.wc.omega_plus), O_base)
    chi_m = euler_characteristic(data.with_omega(ext.wc.omega_minus), O_base)
    chi_t = euler_characteristic(ext.data_tilde, O_ext)
    return chi_p, chi_m, chi_t


@pytest.mark.parametrize("data", [CONIFOLD, KP2], ids=["conifold", "kp2"])
def test_flop_invariance(data):
    ext = extend(crossing(data))
    chi_p, chi_m, chi_t = flop_chis(data, ext)
    assert rat_equal(chi_p.specialize(ext.substitution("+")), chi_t)
    assert rat_equal(chi_m.specialize(ext.substitution("-")), chi_t)
    assert rat_equal(chi_p, chi_m)
