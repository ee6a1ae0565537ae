"""One-particle reflection off the half-line wall, exact and finite-height.

With an idealized wall the stationary state at momentum k > 0 is
psi(x) = exp(-ikx) + B exp(ikx) on x > 0, and the exact amplitudes split by
the parity sector eps_r:

    delta:  B = (ik + c/2) / (ik - c/2)   (even),    B = -1         (odd),
    pdp:    B = 1                         (even),    B = (ik + 1/(2 lam)) /
                                                         (ik - 1/(2 lam)) (odd).

`finite_wall_solution` replaces the idealized wall by a finite step
V0 on x < 0 plus a zero-range contact term at the origin, matching
exp(-ikx) + B exp(ikx) to C exp(omega x), omega = sqrt(V0 - k^2):

    delta wall (contact g, value continuous, slope jumps by g psi):
        B = (ik + omega + g) / (ik - omega - g),          C = 1 + B,
        with g defaulting to c/2 - sqrt(V0) (even) or 0 (odd);
    pdp wall (contact gt, slope continuous, value jumps by gt psi'):
        w = omega / (1 + omega gt),
        B = (ik + w) / (ik - w),   C = ik (B - 1) / omega,
        with gt defaulting to sqrt(V0) (even) or 2 lam (odd).

As V0 grows, B approaches the exact amplitude at the rate V0^(-1/2);
`convergence_sweep` measures the deviation over a V0 grid and fits the
log-log slope on the upper half of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .operators import MODEL_DELTA, MODEL_PDP

PARITY_EVEN = "even"
PARITY_ODD = "odd"

EXPECTED_SLOPE = -0.5
SLOPE_TOL = 0.05


def _validate(kind: str, parity: str, k: float, coupling: float):
    if kind not in (MODEL_DELTA, MODEL_PDP):
        raise InputError(f"unknown model kind {kind!r}")
    if parity not in (PARITY_EVEN, PARITY_ODD):
        raise InputError(f"parity must be 'even' or 'odd', got {parity!r}")
    if not all(math.isfinite(value) and value > 0 for value in (k, coupling)):
        raise InputError(f"k={k} and coupling={coupling} must be finite and positive")


def reflection_amp(kind: str, parity: str, k: float, coupling: float) -> complex:
    """Exact wall reflection amplitude for the given model and parity sector."""
    _validate(kind, parity, k, coupling)
    ik = 1j * k
    if kind == MODEL_DELTA:
        if parity == PARITY_ODD:
            return complex(-1.0)
        half = coupling / 2.0
        return (ik + half) / (ik - half)
    if parity == PARITY_EVEN:
        return complex(1.0)
    half = 1.0 / (2.0 * coupling)
    return (ik + half) / (ik - half)


@dataclass(frozen=True)
class WallSolution:
    """Finite-wall scattering data: reflected amplitude B, interior
    amplitude C of the evanescent branch, and its decay rate omega."""

    amplitude: complex
    interior: complex
    decay: float


def finite_wall_solution(
    kind: str,
    parity: str,
    k: float,
    coupling: float,
    v0: float,
    wall_contact: float | None = None,
) -> WallSolution:
    """Match the scattering state across a finite step of height v0.

    `wall_contact` overrides the zero-range strength at the origin; the
    defaults are the unique (delta) or a convenient (pdp even) choice that
    reproduces the exact amplitudes as v0 grows.
    """
    _validate(kind, parity, k, coupling)
    if not (math.isfinite(v0) and v0 > k * k):
        raise InputError(f"wall height v0={v0} must be finite and exceed k^2={k * k}")
    ik = 1j * k
    omega = math.sqrt(v0 - k * k)
    if kind == MODEL_DELTA:
        if wall_contact is None:
            wall_contact = coupling / 2.0 - math.sqrt(v0) if parity == PARITY_EVEN else 0.0
        w = omega + wall_contact
        amp = (ik + w) / (ik - w)
        return WallSolution(amp, 1.0 + amp, omega)
    if wall_contact is None:
        wall_contact = math.sqrt(v0) if parity == PARITY_EVEN else 2.0 * coupling
    w = omega / (1.0 + omega * wall_contact)
    amp = (ik + w) / (ik - w)
    return WallSolution(amp, ik * (amp - 1.0) / omega, omega)


def fitted_slope(v0_grid, deviations) -> float:
    """Least-squares log-log slope over the upper half of the grid."""
    v0_grid = np.asarray(v0_grid, dtype=float)
    deviations = np.asarray(deviations, dtype=float)
    if v0_grid.size < 2:
        raise InputError("need at least two grid points")
    tail = slice(v0_grid.size // 2, None)
    coeffs = np.polyfit(np.log10(v0_grid[tail]), np.log10(deviations[tail]), 1)
    return float(coeffs[0])


@dataclass(frozen=True)
class SweepResult:
    kind: str
    parity: str
    k: float
    coupling: float
    v0: tuple[float, ...]
    amplitudes: tuple[complex, ...]
    deviations: tuple[float, ...]
    limit: complex
    slope: float

    def within(self) -> bool:
        """Whether the fitted slope lies within SLOPE_TOL of EXPECTED_SLOPE."""
        return bool(abs(self.slope - EXPECTED_SLOPE) <= SLOPE_TOL)


def convergence_sweep(
    kind: str,
    parity: str,
    k: float,
    coupling: float,
    v0_grid,
    wall_contact: float | None = None,
) -> SweepResult:
    """Finite-wall amplitudes over a v0 grid with deviation from the exact
    amplitude and the fitted decay slope (expected near -1/2)."""
    limit = reflection_amp(kind, parity, k, coupling)
    v0_grid = tuple(float(v) for v in v0_grid)
    amps = tuple(
        finite_wall_solution(kind, parity, k, coupling, v0, wall_contact).amplitude
        for v0 in v0_grid
    )
    devs = tuple(abs(a - limit) for a in amps)
    return SweepResult(
        kind, parity, float(k), float(coupling), v0_grid, amps, devs,
        limit, fitted_slope(v0_grid, devs),
    )
