"""Boundary condition checks, half-line reductions, duality, eigenvalue test.

A wavefunction built from a path-independent coefficient table must satisfy
explicit matching conditions across every wedge facet.  Writing y = Q.apply(x)
for the wedge frame, the facet y[i-1] = y[i] carries the transverse derivative
D = d/dy[i-1] - d/dy[i], and with psi_- the expansion of wedge Q (where
y[i-1] < y[i]) and psi_+ the expansion of the neighbour Q * T_i:

    delta:  psi_+ = psi_-          and  D psi_+ - D psi_- = 2 c1 psi_-,
    pdp:    D psi_+ = D psi_-      and  psi_+ - psi_- = 2 lam1 D psi_-.

At the wall facet y[0] = 0 the conditions couple the wedge Q (positive side
of the signed coordinate) with Q * R_1, using the one-sided derivative
Dw = signs[0] * d/dx[perm[0]]:

    delta:  psi_+ = psi_-          and  Dw psi_+ - Dw psi_- = c2 psi_+,
    pdp:    Dw psi_+ = Dw psi_-    and  psi_+ - psi_- = 4 lam2 Dw psi_+.

In a scalar sector the whole problem reduces to the positive region
0 < x_1 < x_2 < ..., where each coordinate hitting the origin obeys a single
one-sided condition selected by eps_r:

    delta:  2 dpsi/dx_j = c2 psi   (eps_r = +1),    psi = 0        (eps_r = -1),
    pdp:    dpsi/dx_j = 0          (eps_r = +1),    psi = 2 lam2 dpsi/dx_j  (-1).

`boundary_sweep` checks these conditions at random facet points of random
wedges and judges the worst residual.  Finally, the boson delta table at
couplings (c1, c2) equals the fermion pdp table at (1/c1, 1/c2), and the two
wavefunctions agree pointwise on the fundamental wedge; `duality_compare`
measures both statements.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, InputError
from .operators import MODEL_DELTA, ModelSpec
from .representations import ScalarSector
from .wavefunction import (
    BetheCoefficients,
    Momenta,
    compute_coefficients,
    evaluate_psi,
)
from .weyl_group import SignedPermutation, classify_wedge

DEFAULT_MARGIN = 0.1
TOL_BOUNDARY = 1e-10
TOL_DUALITY = 1e-12
TOL_EIGEN = 1e-6


@dataclass(frozen=True)
class BoundaryProbe:
    """A point on one facet of one wedge.

    kind "pair" sits on y[contact-1] = y[contact] of the wedge frame
    (contact is the 1-based slot); kind "wall" sits on y[0] = 0.
    """

    kind: str
    wedge: SignedPermutation
    contact: int | None
    point: tuple[float, ...]


def _wedge_frame_point(wedge: SignedPermutation, frame: np.ndarray) -> np.ndarray:
    x = np.empty(wedge.n)
    for slot in range(wedge.n):
        x[wedge.perm[slot]] = wedge.signs[slot] * frame[slot]
    return x


def pair_probe(wedge: SignedPermutation, contact: int, rng) -> BoundaryProbe:
    """Random point on the pair-contact facet at `contact` (1-based),
    keeping all other frame gaps and the wall distance at least
    DEFAULT_MARGIN."""
    n = wedge.n
    if not 1 <= contact <= n - 1:
        raise GeometryError(f"contact slot {contact} out of range 1..{n - 1}")
    frame = np.cumsum(DEFAULT_MARGIN + rng.uniform(DEFAULT_MARGIN, 1.0, size=n))
    frame[contact] = frame[contact - 1]
    return BoundaryProbe(
        "pair", wedge, contact, tuple(_wedge_frame_point(wedge, frame))
    )


def wall_probe(wedge: SignedPermutation, rng) -> BoundaryProbe:
    """Random point on the wall facet of the wedge (first frame coordinate 0)."""
    frame = np.cumsum(DEFAULT_MARGIN + rng.uniform(DEFAULT_MARGIN, 1.0, size=wedge.n))
    frame -= frame[0]
    return BoundaryProbe("wall", wedge, None, tuple(_wedge_frame_point(wedge, frame)))


def check_pair_boundary(coeffs: BetheCoefficients, probe: BoundaryProbe) -> tuple[float, float]:
    """(continuity residual, jump residual) for a pair-contact probe."""
    if probe.kind != "pair":
        raise ValueError("probe is not a pair-contact probe")
    wedge = probe.wedge
    i = probe.contact
    neighbour = wedge * SignedPermutation.transposition(wedge.n, i)
    minus = evaluate_psi(coeffs, probe.point, wedge=wedge)
    plus = evaluate_psi(coeffs, probe.point, wedge=neighbour)

    s, p = wedge.signs, wedge.perm

    def transverse(sample):
        return s[i - 1] * sample.gradient[p[i - 1]] - s[i] * sample.gradient[p[i]]

    if coeffs.model.kind == MODEL_DELTA:
        r_match = abs(plus.value - minus.value)
        r_jump = abs(
            transverse(plus) - transverse(minus)
            - 2.0 * coeffs.model.pair_coupling * minus.value
        )
    else:
        r_match = abs(transverse(plus) - transverse(minus))
        r_jump = abs(
            plus.value - minus.value
            - 2.0 * coeffs.model.pair_coupling * transverse(minus)
        )
    return r_match, r_jump


def check_wall_boundary(coeffs: BetheCoefficients, probe: BoundaryProbe) -> tuple[float, float]:
    """(continuity residual, jump residual) for a wall-contact probe."""
    if probe.kind != "wall":
        raise ValueError("probe is not a wall probe")
    wedge = probe.wedge
    mirror = wedge * SignedPermutation.wall_flip(wedge.n)
    plus = evaluate_psi(coeffs, probe.point, wedge=wedge)
    minus = evaluate_psi(coeffs, probe.point, wedge=mirror)

    def one_sided(sample):
        return wedge.signs[0] * sample.gradient[wedge.perm[0]]

    if coeffs.model.kind == MODEL_DELTA:
        r_match = abs(plus.value - minus.value)
        r_jump = abs(
            one_sided(plus) - one_sided(minus)
            - coeffs.model.wall_coupling * plus.value
        )
    else:
        r_match = abs(one_sided(plus) - one_sided(minus))
        r_jump = abs(
            plus.value - minus.value
            - 4.0 * coeffs.model.wall_coupling * one_sided(plus)
        )
    return r_match, r_jump


def check_halfline_reduction(coeffs: BetheCoefficients, x) -> tuple[float, ...]:
    """One-sided origin conditions of a scalar-sector wavefunction.

    `x` must be interior to the positive region (all coordinates strictly
    positive and distinct).  For each coordinate the check slides that
    coordinate to 0, evaluates psi and its gradient one-sidedly, and returns
    the residual of the sector's origin condition.
    """
    if not isinstance(coeffs.rep, ScalarSector):
        raise ValueError("half-line reduction applies to scalar sectors only")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise GeometryError("point must have strictly positive coordinates")
    model = coeffs.model
    eps_r = coeffs.rep.eps_r
    out = []
    for j in range(coeffs.momenta.n):
        y = x.copy()
        y[j] = 0.0
        order = np.argsort(np.abs(y), kind="stable")
        wedge = SignedPermutation((1,) * coeffs.momenta.n, tuple(int(q) for q in order))
        sample = evaluate_psi(coeffs, y, wedge=wedge)
        slope = sample.gradient[j]
        if model.kind == MODEL_DELTA:
            if eps_r == 1:
                res = abs(2.0 * slope - model.wall_coupling * sample.value)
            else:
                res = abs(sample.value)
        else:
            if eps_r == 1:
                res = abs(slope)
            else:
                res = abs(sample.value - 2.0 * model.wall_coupling * slope)
        out.append(float(res))
    return tuple(out)


@dataclass(frozen=True)
class BoundarySweep:
    """Rows of a facet-probe sweep and their worst residual.  A row holds
    kind ("pair", "wall" or "origin"), contact, wedge_index and either
    residual_match and residual_jump or, for a rejected probe, error."""

    rows: tuple[dict, ...]
    max_residual: float
    geometry_errors: int

    def within(self, tol: float = TOL_BOUNDARY) -> bool:
        return bool(self.max_residual <= tol and self.geometry_errors == 0)


def _probe_row(coeffs: BetheCoefficients, contact: int | None, rng) -> dict:
    """Check a random point on the pair facet at `contact` (the wall facet
    when contact is None) of a random wedge."""
    index = int(rng.integers(0, coeffs.group.order))
    wedge = coeffs.group.elements[index]
    row = {"kind": "wall" if contact is None else "pair", "contact": contact,
           "wedge_index": index}
    try:
        if contact is None:
            residuals = check_wall_boundary(coeffs, wall_probe(wedge, rng))
        else:
            residuals = check_pair_boundary(coeffs, pair_probe(wedge, contact, rng))
    except GeometryError as exc:
        row["error"] = str(exc)
    else:
        row["residual_match"], row["residual_jump"] = residuals
    return row


def boundary_sweep(coeffs: BetheCoefficients, probes: int, rng) -> BoundarySweep:
    """`probes` pair probes per contact slot, then `probes` wall probes,
    then in a scalar sector one probe of the half-line reduction, all drawn
    from `rng` in that order.  A NaN residual makes max_residual NaN."""
    if probes < 1:
        raise InputError("probes must be at least 1")
    n = coeffs.momenta.n
    rows = [_probe_row(coeffs, contact, rng)
            for contact in [*range(1, n), None] for _ in range(probes)]
    if isinstance(coeffs.rep, ScalarSector):
        base = np.cumsum(0.3 + rng.uniform(0.2, 1.0, size=n))
        residuals = check_halfline_reduction(coeffs, base)
        rows.append({"kind": "origin", "contact": None, "wedge_index": None,
                     "residual_match": float(np.max(residuals)), "residual_jump": 0.0})
    residuals = [row[key] for row in rows
                 for key in ("residual_match", "residual_jump") if key in row]
    errors = sum("error" in row for row in rows)
    return BoundarySweep(tuple(rows), float(np.max(residuals, initial=0.0)), errors)


@dataclass(frozen=True)
class EigenCheck:
    h: float
    residual: float
    relative: float
    energy: float
    value: complex

    def within(self, tol: float = TOL_EIGEN) -> bool:
        return bool(self.relative <= tol)


def check_eigen(coeffs: BetheCoefficients, x, h: float) -> EigenCheck:
    """Central-difference Laplacian residual |sum_m d2psi/dx_m^2 + E psi|.

    The full stencil must stay inside one wedge; crossing a facet (where
    the expansion changes) raises GeometryError.  A step whose square is
    not a positive normal float (the stencil divides by it) raises InputError.
    """
    x = np.asarray(x, dtype=float)
    if not (math.isfinite(h) and h > 0 and sys.float_info.min <= h * h < math.inf):
        raise InputError("step h must be finite and positive, with h*h a normal float")
    wedge = classify_wedge(x)
    centre = evaluate_psi(coeffs, x, wedge=wedge)
    laplacian = 0j
    for m in range(x.size):
        offset = np.zeros_like(x)
        offset[m] = h
        for shifted in (x + offset, x - offset):
            if classify_wedge(shifted) != wedge:
                raise GeometryError(
                    f"stencil at step {h} leaves the wedge along coordinate {m}"
                )
        up = evaluate_psi(coeffs, x + offset, wedge=wedge)
        down = evaluate_psi(coeffs, x - offset, wedge=wedge)
        laplacian += (up.value - 2.0 * centre.value + down.value) / h**2
    total_energy = coeffs.momenta.energy
    residual = abs(laplacian + total_energy * centre.value)
    scale = total_energy * abs(centre.value)
    return EigenCheck(
        float(h),
        float(residual),
        float(residual / scale) if scale > 0 else float("inf"),
        total_energy,
        centre.value,
    )


@dataclass(frozen=True)
class DualityReport:
    max_table_diff: float
    max_point_diff: float
    n_points: int

    def within(self, tol: float = TOL_DUALITY) -> bool:
        return self.max_table_diff <= tol and self.max_point_diff <= tol


def duality_compare(momenta, c1: float, c2: float, points) -> DualityReport:
    """Boson delta at (c1, c2) against fermion pdp at (1/c1, 1/c2).

    Compares the coefficient tables entrywise and the wavefunctions at the
    given fundamental-wedge points (coordinates strictly increasing and
    positive; anything else raises GeometryError).  An empty point list or
    a coordinate that is not finite raises InputError.
    """
    points = [np.asarray(point, dtype=float) for point in points]
    if not points:
        raise InputError("duality needs at least one point")
    if not all(np.all(np.isfinite(point)) for point in points):
        raise InputError("duality points must have finite coordinates")
    momenta = momenta if isinstance(momenta, Momenta) else Momenta(tuple(momenta))
    n = momenta.n
    boson = compute_coefficients(
        momenta,
        ModelSpec(MODEL_DELTA, c1, c2),
        ScalarSector(n, 1, 1),
    )
    fermion = compute_coefficients(
        momenta,
        ModelSpec("pdp", 1.0 / c1, 1.0 / c2),
        ScalarSector(n, -1, -1),
    )
    table_diff = float(np.max(np.abs(boson.table - fermion.table)))
    identity = SignedPermutation.identity(n)
    point_diffs = []
    for point in points:
        if np.any(point <= 0) or np.any(np.diff(point) <= 0):
            raise GeometryError(
                "duality points must have strictly increasing positive coordinates"
            )
        a = evaluate_psi(boson, point, wedge=identity)
        b = evaluate_psi(fermion, point, wedge=identity)
        point_diffs.append(abs(a.value - b.value))
    return DualityReport(table_diff, float(np.max(point_diffs)), len(points))
