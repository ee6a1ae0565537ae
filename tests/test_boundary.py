"""Facet matching conditions, origin reductions, eigenvalue residuals,
and the strong-weak duality between the two models."""

import dataclasses
import math

import numpy as np
import pytest

from halfline_bethe import (
    BoundarySweep,
    GeometryError,
    InputError,
    ModelSpec,
    Momenta,
    ScalarSector,
    SignedPermutation,
    boundary_sweep,
    check_eigen,
    check_halfline_reduction,
    check_pair_boundary,
    check_wall_boundary,
    compute_coefficients,
    duality_compare,
    evaluate_psi,
    pair_probe,
    regular_rep,
    wall_probe,
    weyl_group,
)

DELTA = ModelSpec("delta", 1.0, 2.0)
PDP = ModelSpec("pdp", 1.0, 0.5)
K3 = Momenta((0.7, 1.9, 3.2))
K2 = Momenta((1.1, 2.3))


def probes_for(group, n, rng, count=8):
    for _ in range(count):
        wedge = group.elements[int(rng.integers(0, group.order))]
        for contact in range(1, n):
            yield pair_probe(wedge, contact, rng)
        yield wall_probe(wedge, rng)


def test_pair_probe_geometry():
    rng = np.random.default_rng(0)
    group = weyl_group(3)
    for wedge in group.elements[:8]:
        probe = pair_probe(wedge, 2, rng)
        frame = wedge.apply(np.array(probe.point))
        assert frame[2] == pytest.approx(frame[1], abs=1e-15)
        assert frame[0] > 0.05
        assert frame[1] - frame[0] > 0.05


def test_wall_probe_geometry():
    rng = np.random.default_rng(0)
    wedge = weyl_group(3).elements[17]
    probe = wall_probe(wedge, rng)
    frame = wedge.apply(np.array(probe.point))
    assert frame[0] == pytest.approx(0.0, abs=1e-15)
    assert np.all(np.diff(frame) > 0.05)


def test_pair_probe_contact_out_of_range():
    rng = np.random.default_rng(0)
    wedge = SignedPermutation.identity(3)
    with pytest.raises(GeometryError):
        pair_probe(wedge, 0, rng)
    with pytest.raises(GeometryError):
        pair_probe(wedge, 3, rng)


def test_probe_values_are_not_vacuous():
    # the matching conditions must balance two genuinely nonzero sides
    coeffs = compute_coefficients(K3, DELTA, ScalarSector(3, 1, 1))
    rng = np.random.default_rng(5)
    wedge = weyl_group(3).elements[11]
    probe = pair_probe(wedge, 1, rng)
    sample = evaluate_psi(coeffs, probe.point, wedge=wedge)
    assert abs(sample.value) > 1e-8
    assert np.max(np.abs(sample.gradient)) > 1e-8


@pytest.mark.parametrize("rep_kind", ["regular", "++", "+-", "-+", "--"])
def test_delta_boundary_conditions(rep_kind):
    if rep_kind == "regular":
        rep = regular_rep(3)
    else:
        eps = {"+": 1, "-": -1}
        rep = ScalarSector(3, eps[rep_kind[0]], eps[rep_kind[1]])
    coeffs = compute_coefficients(K3, DELTA, rep)
    rng = np.random.default_rng(9)
    group = weyl_group(3)
    for probe in probes_for(group, 3, rng):
        if probe.kind == "pair":
            r_match, r_jump = check_pair_boundary(coeffs, probe)
        else:
            r_match, r_jump = check_wall_boundary(coeffs, probe)
        assert r_match < 1e-10, probe
        assert r_jump < 1e-10, probe


@pytest.mark.parametrize("sector", ["++", "+-", "-+", "--"])
def test_pdp_boundary_conditions(sector):
    eps = {"+": 1, "-": -1}
    rep = ScalarSector(3, eps[sector[0]], eps[sector[1]])
    coeffs = compute_coefficients(K3, PDP, rep)
    rng = np.random.default_rng(13)
    group = weyl_group(3)
    for probe in probes_for(group, 3, rng):
        if probe.kind == "pair":
            r_match, r_jump = check_pair_boundary(coeffs, probe)
        else:
            r_match, r_jump = check_wall_boundary(coeffs, probe)
        assert r_match < 1e-10, probe
        assert r_jump < 1e-10, probe


def test_wrong_coupling_is_detected():
    # same table, different claimed coupling: the jump condition must fail
    coeffs = compute_coefficients(K2, DELTA, ScalarSector(2, 1, 1))
    lying = dataclasses.replace(coeffs, model=ModelSpec("delta", 3.0, 2.0))
    rng = np.random.default_rng(2)
    probe = pair_probe(SignedPermutation.identity(2), 1, rng)
    _, honest_jump = check_pair_boundary(coeffs, probe)
    _, lying_jump = check_pair_boundary(lying, probe)
    assert honest_jump < 1e-12
    assert lying_jump > 1e-3


def test_probe_kind_mismatch_rejected():
    coeffs = compute_coefficients(K2, DELTA, ScalarSector(2, 1, 1))
    rng = np.random.default_rng(1)
    pair = pair_probe(SignedPermutation.identity(2), 1, rng)
    wall = wall_probe(SignedPermutation.identity(2), rng)
    with pytest.raises(ValueError):
        check_wall_boundary(coeffs, pair)
    with pytest.raises(ValueError):
        check_pair_boundary(coeffs, wall)


@pytest.mark.parametrize("model", [DELTA, PDP])
@pytest.mark.parametrize("eps_t,eps_r", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_halfline_reduction(model, eps_t, eps_r):
    coeffs = compute_coefficients(K2, model, ScalarSector(2, eps_t, eps_r))
    residuals = check_halfline_reduction(coeffs, [0.9, 2.4])
    assert max(residuals) < 1e-12


def test_halfline_reduction_odd_sectors_vanish_exactly():
    # for the delta model the odd-reflection wavefunction is exactly zero
    # at the wall; the cancellation is pairwise exact in floating point
    coeffs = compute_coefficients(K2, DELTA, ScalarSector(2, 1, -1))
    residuals = check_halfline_reduction(coeffs, [0.9, 2.4])
    assert residuals == (0.0, 0.0)


def test_halfline_reduction_input_validation():
    coeffs = compute_coefficients(K2, DELTA, regular_rep(2))
    with pytest.raises(ValueError):
        check_halfline_reduction(coeffs, [1.0, 2.0])
    sector = compute_coefficients(K2, DELTA, ScalarSector(2, 1, 1))
    with pytest.raises(GeometryError):
        check_halfline_reduction(sector, [-1.0, 2.0])


def test_eigen_residual_small_at_moderate_step():
    coeffs = compute_coefficients(K2, DELTA, ScalarSector(2, 1, 1))
    result = check_eigen(coeffs, [0.8, 2.1], 1e-4)
    assert result.relative < 1e-6
    assert result.energy == pytest.approx(K2.energy)


def test_eigen_residual_scales_quadratically():
    coeffs = compute_coefficients(K2, DELTA, ScalarSector(2, 1, 1))
    coarse = check_eigen(coeffs, [0.8, 2.1], 2e-3)
    fine = check_eigen(coeffs, [0.8, 2.1], 1e-3)
    ratio = coarse.residual / fine.residual
    assert 3.5 < ratio < 4.5


def test_eigen_stencil_must_stay_inside_wedge():
    coeffs = compute_coefficients(K2, DELTA, ScalarSector(2, 1, 1))
    with pytest.raises(GeometryError):
        check_eigen(coeffs, [0.05, 2.1], 0.1)  # stencil crosses the wall
    # 1e-300 and 1e-160 square to zero or a subnormal, 1e200 to inf
    for h in (0.0, float("nan"), float("inf"), 1e-300, 1e-160, 1e200):
        with pytest.raises(ValueError):
            check_eigen(coeffs, [0.8, 2.1], h)


@pytest.mark.parametrize("c1,c2", [(1.0, 2.0), (0.3, 1.7)])
def test_duality_tables_and_points(c1, c2):
    rng = np.random.default_rng(21)
    points = [np.cumsum(0.2 + rng.uniform(0.0, 1.0, size=2)) for _ in range(10)]
    report = duality_compare(K2, c1, c2, points)
    assert report.within(1e-12)
    assert report.n_points == 10


def test_duality_three_particles():
    rng = np.random.default_rng(22)
    points = [np.cumsum(0.2 + rng.uniform(0.0, 1.0, size=3)) for _ in range(5)]
    report = duality_compare(K3, 1.0, 2.0, points)
    assert report.within(1e-12)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_duality_nan_point_difference_is_not_dropped():
    # the phase k * x overflows at a finite coordinate near the float
    # maximum, so psi there is NaN; the NaN must reach the verdict
    # whichever position the point takes
    good, bad = [0.5, 1.0], [0.3, 1e308]
    for points in ([good, bad], [bad, good]):
        report = duality_compare(K2, 1.0, 2.0, points)
        assert math.isnan(report.max_point_diff)
        assert not report.within()


def test_duality_rejects_non_finite_points():
    for bad in ([0.3, float("inf")], [float("nan"), 1.0], [0.3, float("-inf")]):
        for points in ([[0.5, 1.0], bad], [bad]):
            with pytest.raises(InputError):
                duality_compare(K2, 1.0, 2.0, points)


def test_duality_rejects_unordered_points():
    with pytest.raises(GeometryError):
        duality_compare(K2, 1.0, 2.0, [[2.0, 1.0]])
    with pytest.raises(GeometryError):
        duality_compare(K2, 1.0, 2.0, [[-0.5, 1.0]])


@pytest.mark.parametrize(
    "model_kind,eps",
    [("delta", (-1, -1)), ("pdp", (1, 1))],
)
def test_trivial_sectors_ignore_couplings(model_kind, eps):
    # the free fermion (delta) and free boson (pdp) tables are coupling
    # independent, bit for bit
    one = compute_coefficients(
        K2, ModelSpec(model_kind, 1.0, 2.0), ScalarSector(2, *eps)
    )
    two = compute_coefficients(
        K2, ModelSpec(model_kind, 3.7, 0.9), ScalarSector(2, *eps)
    )
    assert np.array_equal(one.table, two.table)


def test_boundary_sweep_rows_follow_the_draw_order():
    coeffs = compute_coefficients(K3, DELTA, ScalarSector(3, 1, -1))
    sweep = boundary_sweep(coeffs, 4, np.random.default_rng(5))
    # the same draws made by hand: pair probes per slot, wall probes, origin
    rng = np.random.default_rng(5)
    expected = []
    for contact in (1, 2, None):
        for _ in range(4):
            index = int(rng.integers(0, coeffs.group.order))
            wedge = coeffs.group.elements[index]
            if contact is None:
                residuals = check_wall_boundary(coeffs, wall_probe(wedge, rng))
            else:
                residuals = check_pair_boundary(coeffs, pair_probe(wedge, contact, rng))
            expected.append(("wall" if contact is None else "pair", contact, index, residuals))
    origin = check_halfline_reduction(coeffs, np.cumsum(0.3 + rng.uniform(0.2, 1.0, size=3)))
    got = [(r["kind"], r["contact"], r["wedge_index"], (r["residual_match"], r["residual_jump"]))
           for r in sweep.rows]
    assert got[:-1] == expected
    assert got[-1] == ("origin", None, None, (max(origin), 0.0))
    assert sweep.geometry_errors == 0
    assert sweep.max_residual == max(max(row[3]) for row in got)
    assert sweep.within()


def test_boundary_sweep_regular_rep_has_no_origin_row():
    coeffs = compute_coefficients(K2, DELTA, regular_rep(2))
    sweep = boundary_sweep(coeffs, 3, np.random.default_rng(0))
    assert [row["kind"] for row in sweep.rows] == ["pair"] * 3 + ["wall"] * 3
    assert sweep.within(1e-10)


def test_boundary_sweep_rejects_zero_probes():
    coeffs = compute_coefficients(K2, DELTA, ScalarSector(2, 1, 1))
    for probes in (0, -2):
        with pytest.raises(ValueError):
            boundary_sweep(coeffs, probes, np.random.default_rng(0))


def test_boundary_sweep_verdict():
    assert BoundarySweep((), 1e-11, 0).within(1e-10)
    assert not BoundarySweep((), 1e-9, 0).within(1e-10)
    assert not BoundarySweep((), 0.0, 1).within(1e-10)
    assert not BoundarySweep((), float("nan"), 0).within(1e-10)


def test_eigen_verdict():
    coeffs = compute_coefficients(K2, DELTA, ScalarSector(2, 1, 1))
    result = check_eigen(coeffs, [0.8, 2.1], 1e-4)
    assert result.within()
    assert not result.within(result.relative / 2)
    assert not dataclasses.replace(result, relative=float("inf")).within()


def test_duality_rejects_an_empty_point_list():
    with pytest.raises(ValueError):
        duality_compare(K2, 1.0, 2.0, [])
