"""Single-particle wall reflection and the finite-step convergence."""

import dataclasses
import math

import numpy as np
import pytest

from halfline_bethe import (
    ModelSpec,
    Momenta,
    ScalarSector,
    SignedPermutation,
    compute_coefficients,
    convergence_sweep,
    finite_wall_solution,
    reflection_amp,
)
from halfline_bethe.scattering import fitted_slope

GRID = tuple(np.logspace(3, 9, 7))


def test_trivial_parities_are_exact():
    assert reflection_amp("delta", "odd", 1.0, 2.0) == -1.0 + 0.0j
    assert reflection_amp("delta", "odd", 0.3, 5.0) == -1.0 + 0.0j
    assert reflection_amp("pdp", "even", 1.0, 0.5) == 1.0 + 0.0j
    assert reflection_amp("pdp", "even", 2.9, 1.2) == 1.0 + 0.0j


def test_nontrivial_amplitudes_frozen_values():
    assert reflection_amp("delta", "even", 1.0, 2.0) == pytest.approx(-1j, abs=1e-15)
    assert reflection_amp("pdp", "odd", 1.0, 0.5) == pytest.approx(-1j, abs=1e-15)


def test_amplitudes_lie_on_unit_circle():
    for kind, parity in (
        ("delta", "even"), ("delta", "odd"), ("pdp", "even"), ("pdp", "odd"),
    ):
        for k in (0.2, 1.0, 4.7):
            assert abs(reflection_amp(kind, parity, k, 1.3)) == pytest.approx(
                1.0, abs=1e-15
            )


def test_amplitude_matches_many_body_wall_coefficient():
    # the N=1 even sector of the delta model is the even-parity channel;
    # the reflected-over-incoming ratio is identity over flip because the
    # flipped table row carries momentum -k
    k, c2 = 1.3, 2.0
    coeffs = compute_coefficients(
        Momenta((k,)), ModelSpec("delta", 1.0, c2), ScalarSector(1, 1, 1)
    )
    amp = complex(1.0 / coeffs.coefficient(SignedPermutation.wall_flip(1))[0])
    assert amp == pytest.approx(reflection_amp("delta", "even", k, c2), abs=1e-15)
    # and the odd pdp sector is the odd-parity channel
    lam2 = 0.7
    coeffs = compute_coefficients(
        Momenta((k,)), ModelSpec("pdp", 1.0, lam2), ScalarSector(1, -1, -1)
    )
    amp = complex(1.0 / coeffs.coefficient(SignedPermutation.wall_flip(1))[0])
    assert amp == pytest.approx(reflection_amp("pdp", "odd", k, lam2), abs=1e-15)


def _matching_residuals(kind, parity, k, coupling, v0, contact=None):
    # rebuild the piecewise solution and check it solves the matching problem:
    # outside psi = exp(-ikx) + B exp(ikx), inside psi = C exp(omega x)
    sol = finite_wall_solution(kind, parity, k, coupling, v0, contact)
    ik = 1j * k
    b, c, omega = sol.amplitude, sol.interior, sol.decay
    out_val, out_der = 1.0 + b, ik * (b - 1.0)
    in_val, in_der = c, omega * c
    if contact is None:
        if kind == "delta":
            contact = coupling / 2.0 - math.sqrt(v0) if parity == "even" else 0.0
        else:
            contact = math.sqrt(v0) if parity == "even" else 2.0 * coupling
    if kind == "delta":
        return (
            abs(out_val - in_val),
            abs(out_der - in_der - contact * out_val),
        )
    return (
        abs(out_der - in_der),
        abs(out_val - in_val - contact * out_der),
    )


@pytest.mark.parametrize("kind,parity", [
    ("delta", "even"), ("delta", "odd"), ("pdp", "even"), ("pdp", "odd"),
])
def test_finite_wall_solves_the_matching_problem(kind, parity):
    for v0 in (50.0, 1e4, 1e7):
        r1, r2 = _matching_residuals(kind, parity, 1.0, 2.0, v0)
        assert r1 < 1e-12
        assert r2 < 1e-9 * math.sqrt(v0)


def test_finite_wall_with_explicit_contact():
    r1, r2 = _matching_residuals("delta", "even", 1.0, 2.0, 1e4, contact=0.3)
    assert r1 < 1e-12
    assert r2 < 1e-12


def test_decay_rate():
    sol = finite_wall_solution("delta", "even", 2.0, 1.0, 100.0)
    assert sol.decay == pytest.approx(math.sqrt(96.0))


def test_wall_height_must_dominate_energy():
    with pytest.raises(ValueError):
        finite_wall_solution("delta", "even", 3.0, 1.0, 4.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            finite_wall_solution("delta", "even", 3.0, 1.0, bad)


def test_input_validation():
    with pytest.raises(ValueError):
        reflection_amp("box", "even", 1.0, 1.0)
    with pytest.raises(ValueError):
        reflection_amp("delta", "sideways", 1.0, 1.0)
    with pytest.raises(ValueError):
        reflection_amp("delta", "even", -1.0, 1.0)
    with pytest.raises(ValueError):
        reflection_amp("delta", "even", 1.0, 0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            reflection_amp("delta", "even", 1.0, bad)
        with pytest.raises(ValueError):
            reflection_amp("pdp", "odd", bad, 1.0)


def test_sweep_verdict_judges_the_slope():
    sweep = convergence_sweep("delta", "even", 1.0, 2.0, GRID)
    assert sweep.within()
    assert not dataclasses.replace(sweep, slope=-0.56).within()
    assert not dataclasses.replace(sweep, slope=float("nan")).within()


@pytest.mark.parametrize("kind,parity", [
    ("delta", "even"), ("delta", "odd"), ("pdp", "even"), ("pdp", "odd"),
])
def test_convergence_slope_is_inverse_square_root(kind, parity):
    coupling = 2.0 if kind == "delta" else 0.5
    sweep = convergence_sweep(kind, parity, 1.0, coupling, GRID)
    assert sweep.slope == pytest.approx(-0.5, abs=0.05)
    assert sweep.limit == reflection_amp(kind, parity, 1.0, coupling)
    assert len(sweep.amplitudes) == len(GRID)
    # deviations must actually shrink
    assert sweep.deviations[-1] < sweep.deviations[0] / 100


def test_fitted_slope_on_synthetic_power_law():
    grid = np.logspace(2, 8, 7)
    devs = 3.0 * grid**-0.5
    assert fitted_slope(grid, devs) == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(ValueError):
        fitted_slope([10.0], [0.1])
