"""Facet matching conditions, origin reductions, eigenvalue residuals,
and the strong-weak duality between the two models."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from halfline_bethe import boundary
from halfline_bethe import (
    BoundaryPointError,
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
    classify_wedge,
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
        assert frame[2] == frame[1]
        assert frame[0] > 0.05
        assert frame[1] - frame[0] > 0.05


def test_wall_probe_geometry():
    rng = np.random.default_rng(0)
    wedge = weyl_group(3).elements[17]
    probe = wall_probe(wedge, rng)
    frame = wedge.apply(np.array(probe.point))
    assert frame[0] == 0.0
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
    for bad in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="shape"):
            check_halfline_reduction(sector, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([float("nan"), 1.0], [1.0, float("inf")], [-float("inf"), 2.0]):
            with pytest.raises(InputError, match="finite"):
                check_halfline_reduction(sector, bad)
    for bad in ([-1.0, 2.0], [0.0, 2.0]):
        with pytest.raises(GeometryError, match="positive"):
            check_halfline_reduction(sector, bad)
    with pytest.raises(GeometryError, match="distinct"):
        check_halfline_reduction(sector, [1.5, 1.5])
    three = compute_coefficients(K3, DELTA, ScalarSector(3, 1, 1))
    with pytest.raises(GeometryError, match="distinct"):
        check_halfline_reduction(three, [1.0, 1.0, 2.0])


# N = 1..5, with a negative momentum at N = 4 and 5
ORIGIN_MOMENTA = {1: (0.8,), 2: (1.1, 2.3), 3: (0.7, 1.9, 3.2), 4: (0.6, -1.45, 2.2, 3.7),
                  5: (0.45, 1.3, -2.05, 2.9, 3.7)}


def origin_reference(coeffs, x):
    """psi and d psi/dx_j at x with x_j set to 0, one evaluate_psi per
    coordinate in the wedge of the sorted point, without that wedge's
    sector value (the half-line check before it was batched)."""
    values, slopes = [], []
    for j in range(len(x)):
        y = np.array(x, dtype=float)
        y[j] = 0.0
        order = np.argsort(np.abs(y), kind="stable")
        wedge = SignedPermutation((1,) * y.size, tuple(int(q) for q in order))
        sample = evaluate_psi(coeffs, y, wedge=wedge)
        chi = coeffs.rep.value(wedge)
        values.append(chi * sample.value)
        slopes.append(chi * sample.gradient[j])
    return np.array(values), np.array(slopes)


def origin_residuals(model, eps_r, values, slopes):
    if model.kind == "delta":
        forms = 2.0 * slopes - model.wall_coupling * values if eps_r == 1 else values
    else:
        forms = slopes if eps_r == 1 else values - 2.0 * model.wall_coupling * slopes
    return np.abs(forms)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("model", [DELTA, PDP], ids=["delta", "pdp"])
def test_halfline_batch_matches_per_point_evaluation(n, model):
    rng = np.random.default_rng(40 + n)
    for eps_t, eps_r in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        coeffs = compute_coefficients(ORIGIN_MOMENTA[n], model, ScalarSector(n, eps_t, eps_r))
        tol = 1e-12 * float(np.sum(np.abs(coeffs.table)))
        for shuffled in (False, True):
            x = np.cumsum(0.3 + rng.uniform(0.2, 1.0, size=n))
            if shuffled:
                x = rng.permutation(x)
            values, slopes = boundary._origin_values(coeffs, x)
            want_values, want_slopes = origin_reference(coeffs, x)
            assert np.max(np.abs(values - want_values)) <= tol
            assert np.max(np.abs(slopes - want_slopes)) <= tol
            residuals = check_halfline_reduction(coeffs, x)
            want = origin_residuals(model, eps_r, want_values, want_slopes)
            assert np.max(np.abs(np.array(residuals) - want)) <= tol


def all_ranks_origin_values(coeffs, x):
    """_origin_values with one row of partial sums per rank from the start:
    each rank's frame is gathered whole, 2N(N-1) exponentials per point
    (the contraction before the ranks shared their suffix sums)."""
    n = x.size
    k = coeffs.momenta.array
    order = np.argsort(x)
    m = np.arange(n - 1)
    rest = x[order][m + (m >= np.arange(n)[:, None])]  # (rank, slot - 1)
    waves = np.exp(1j * (rest[:, :, None] * np.concatenate([k, -k])))
    heads = coeffs.group.codes[:: 2**n]
    perms = len(heads)
    terms = np.ascontiguousarray(coeffs.table[:, 0].reshape(perms, -1).T)[None]
    for slot in range(n - 1, 0, -1):
        factors = np.take(waves[:, slot - 1], heads[:, slot] + [[0], [n]], axis=1)
        pair = terms.reshape(len(terms), -1, 2, perms)
        terms = pair[:, :, 0] * factors[:, None, 0] + pair[:, :, 1] * factors[:, None, 1]
    plus, minus = terms[:, 0], terms[:, 1]
    values, slopes = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    values[order] = (plus + minus).sum(axis=1)
    slopes[order] = 1j * ((plus - minus) * k[heads[:, 0]]).sum(axis=1)
    return values, slopes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("model", [DELTA, PDP], ids=["delta", "pdp"])
def test_halfline_shared_suffix_sums_are_the_all_ranks_contraction(n, model):
    # each rank gets the same multiply-adds in the same order, so the values
    # agree bit for bit (bytes also tell -0.0 from 0.0)
    rng = np.random.default_rng(70 + n)
    for eps_t, eps_r in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        coeffs = compute_coefficients(ORIGIN_MOMENTA[n], model, ScalarSector(n, eps_t, eps_r))
        for shuffled in (False, True):
            x = np.cumsum(0.3 + rng.uniform(0.2, 1.0, size=n))
            if shuffled:
                x = rng.permutation(x)
            got = boundary._origin_values(coeffs, x)
            want = all_ranks_origin_values(coeffs, x)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
                assert a.tobytes() == b.tobytes()


def traced_peak(fn, *args):
    """Bytes tracemalloc sees allocated at the peak of one call, above its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_n5_sector_job_stays_in_small_temporaries():
    # a temporary above glibc's 128 KiB mmap threshold is mapped and handed
    # back to the kernel on every call; a one-pass cross-check and one row
    # of partial sums per rank peaked at 785 and 625 KiB, the blocked
    # check and the shared rows near 281 and 283 KiB
    momenta, rep = ORIGIN_MOMENTA[5], ScalarSector(5, 1, -1)
    coeffs = compute_coefficients(momenta, DELTA, rep)  # builds the walk plan once
    x = np.array([0.9, 2.1, 0.4, 3.3, 1.7])
    check_halfline_reduction(coeffs, x)
    assert traced_peak(compute_coefficients, momenta, DELTA, rep) <= 384 * 1024
    assert traced_peak(check_halfline_reduction, coeffs, x) <= 384 * 1024


def test_halfline_reduction_sees_a_wrong_wall_coupling():
    # psi and its slope are genuinely nonzero at the origin, so the
    # residual of a claimed coupling other than the table's is large
    coeffs = compute_coefficients(K3, DELTA, ScalarSector(3, 1, 1))
    x = np.array([1.3, 0.4, 2.2])
    values, slopes = boundary._origin_values(coeffs, x)
    assert np.min(np.abs(values)) > 1e-3 and np.min(np.abs(slopes)) > 1e-3
    lying = dataclasses.replace(coeffs, model=ModelSpec("delta", 1.0, 2.5))
    assert max(check_halfline_reduction(coeffs, x)) < 1e-12
    assert min(check_halfline_reduction(lying, x)) > 1e-3


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


def stencil_by_points(coeffs, x, h):
    """check_eigen as one classification and one evaluate_psi per stencil
    point, coordinate by coordinate, +h before -h."""
    x = np.asarray(x, dtype=float)
    wedge = classify_wedge(x)
    centre = evaluate_psi(coeffs, x, wedge=wedge).value
    laplacian = 0j
    for m in range(x.size):
        offset = np.zeros_like(x)
        offset[m] = h
        for shifted in (x + offset, x - offset):
            if classify_wedge(shifted) != wedge:
                raise GeometryError(f"stencil at step {h} leaves the wedge along coordinate {m}")
        up = evaluate_psi(coeffs, x + offset, wedge=wedge).value
        down = evaluate_psi(coeffs, x - offset, wedge=wedge).value
        laplacian += (up - 2.0 * centre + down) / h**2
    energy = coeffs.momenta.energy
    residual = abs(laplacian + energy * centre)
    scale = energy * abs(centre)
    return boundary.EigenCheck(
        float(h), float(residual), float(residual / scale) if scale > 0 else math.inf,
        energy, centre)


def outcome(fn, *args):
    """repr of the result (exact for floats), or the exception's type and message."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def eigen_cases():
    rng = np.random.default_rng(41)
    for n in range(1, 6):
        reps = [ScalarSector(n, *signs) for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
        if n <= 4:
            reps.append(regular_rep(n))
        for model in (DELTA, PDP):
            for rep in reps:
                if model is PDP and not isinstance(rep, ScalarSector) and n > 1:
                    continue  # the pdp regular recursion is inconsistent
                k = tuple(np.sort(rng.uniform(0.5, 0.5 + n, size=n)))
                yield n, rng, compute_coefficients(k, model, rep)


def test_eigen_stencil_is_the_per_point_stencil_bit_for_bit():
    particles = set()
    raised = evaluated = 0
    for n, rng, coeffs in eigen_cases():
        group = weyl_group(n)
        for _ in range(2 if n == 5 else 4):
            wedge = group.elements[int(rng.integers(group.order))]
            frame = np.cumsum(0.05 + rng.uniform(0.0, 1.0, size=n))
            x = np.empty(n)
            x[list(wedge.perm)] = np.array(wedge.signs) * frame
            for h in (1e-4, 1e-3, 0.3, 2.0):
                want = outcome(stencil_by_points, coeffs, x, h)
                assert outcome(check_eigen, coeffs, x, h) == want
                raised += isinstance(want, tuple)
                evaluated += not isinstance(want, tuple)
        particles.add(n)
    assert particles == {1, 2, 3, 4, 5}
    assert raised > 20 and evaluated > 100


def test_eigen_stencil_leaving_the_wedge():
    coeffs = compute_coefficients(K3, DELTA, ScalarSector(3, 1, -1))
    # +h along coordinate 1 crosses the facet |x_1| = |x_2| into the next wedge
    with pytest.raises(GeometryError, match=r"^stencil at step 0\.25 leaves the wedge "
                                            r"along coordinate 1$"):
        check_eigen(coeffs, [0.5, 2.0, 2.2], 0.25)
    # -h along coordinate 0 crosses the wall; in another wedge's frame too
    with pytest.raises(GeometryError, match="along coordinate 0$"):
        check_eigen(coeffs, [0.2, -2.0, 1.1], 0.25)
    # a stencil point exactly on a facet has no wedge at all
    with pytest.raises(BoundaryPointError, match="equal magnitude"):
        check_eigen(coeffs, [0.5, 1.0, 2.5], 0.5)
    with pytest.raises(BoundaryPointError, match="exactly zero"):
        check_eigen(coeffs, [0.25, 1.0, 2.5], 0.25)


def test_eigen_rejects_points_it_cannot_classify():
    coeffs = compute_coefficients(K3, DELTA, ScalarSector(3, 1, 1))
    for bad in ([0.5, 1.0], [0.5, 1.0, 2.0, 3.0], [[0.5, 1.0, 2.0]], 1.0):
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            check_eigen(coeffs, bad, 1e-4)
    for bad in ([0.5, float("nan"), 2.0], [0.5, 1.0, float("inf")], [-float("inf"), 1.0, 2.0]):
        with pytest.raises(InputError, match="finite"):
            check_eigen(coeffs, bad, 1e-4)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_eigen_relative_residual_is_nan_honest():
    coeffs = compute_coefficients(K3, DELTA, ScalarSector(3, 1, 1))
    # finite, but the phases k * x overflow, so psi and the residual are NaN
    result = check_eigen(coeffs, [0.5, 1.0, 1e308], 1e-4)
    assert math.isnan(result.residual) and math.isnan(result.relative)
    assert not result.within()
    # psi exactly 0 with a finite residual is the one infinite ratio
    zero = dataclasses.replace(coeffs, table=np.zeros_like(coeffs.table), _wedge_cache={})
    result = check_eigen(zero, [0.5, 1.0, 2.0], 1e-4)
    assert result.residual == 0.0 and result.relative == math.inf
    assert not result.within()


def test_n5_eigen_stencil_stays_in_small_temporaries():
    # one values-only pass per point; with gradients and samples the
    # parent stencil peaked near 425 KiB, all 11 points as one block near
    # 1,443 KiB (above glibc's 128 KiB mmap threshold per temporary)
    momenta = ORIGIN_MOMENTA[5]
    coeffs = compute_coefficients(momenta, PDP, ScalarSector(5, -1, 1))
    x = np.array([0.9, -2.1, 0.4, 3.3, 1.7])
    check_eigen(coeffs, x, 1e-4)  # warm: the wedge data is cached
    assert traced_peak(check_eigen, coeffs, x, 1e-4) <= 256 * 1024


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


def test_duality_points_are_the_per_point_values_bit_for_bit():
    rng = np.random.default_rng(23)
    for momenta in (K2, K3, Momenta(ORIGIN_MOMENTA[5])):
        n = momenta.n
        points = [np.cumsum(0.1 + rng.uniform(0.0, 1.0, size=n)) for _ in range(6)]
        report = duality_compare(momenta, 0.7, 1.3, points)
        boson = compute_coefficients(momenta, ModelSpec("delta", 0.7, 1.3), ScalarSector(n, 1, 1))
        fermion = compute_coefficients(momenta, ModelSpec("pdp", 1 / 0.7, 1 / 1.3),
                                       ScalarSector(n, -1, -1))
        identity = SignedPermutation.identity(n)
        want = max(abs(evaluate_psi(boson, p, wedge=identity).value
                       - evaluate_psi(fermion, p, wedge=identity).value) for p in points)
        assert repr(report.max_point_diff) == repr(want)


def test_duality_reports_the_first_bad_point():
    good, short, unordered = [0.5, 1.0], [0.5, 1.0, 1.5], [2.0, 1.0]
    with pytest.raises(ValueError, match=r"shape \(2,\)"):
        duality_compare(K2, 1.0, 2.0, [good, short, unordered])
    with pytest.raises(GeometryError):
        duality_compare(K2, 1.0, 2.0, [good, unordered, short])


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
