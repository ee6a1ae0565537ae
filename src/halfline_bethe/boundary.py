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

`check_halfline_reduction` evaluates the N origin points of one table (x_j
slid to 0, for each j) in one batch without wedge data: the phase of A_P
factors over the slots of the sorted frame, exp(i <k_P, z>) = prod_m
exp(i ks[codes[P, m]] z_m) with ks = (k, -k).  Every frame slot holds one
of the N sorted coordinates, so all N points together cost 2N^2 complex
exponentials, and the points share the partial sums of the slots on which
their frames agree; evaluate_psi takes one exponential per group element
and point.

`boundary_sweep` checks these conditions at random facet points of random
wedges and judges the worst residual.  The boson delta table at couplings
(c1, c2) equals the fermion pdp table at (1/c1, 1/c2), and the two
wavefunctions agree pointwise on the fundamental wedge; `duality_compare`
measures both statements.  Finally, inside every wedge psi solves the free
eigen equation -Laplacian psi = E psi with E = sum_j k_j^2; `check_eigen`
tests it with a central-difference stencil.  The facet probes need
gradients and take them from evaluate_psi; duality and the stencil need
values only, and evaluate all their points in one wedge with one lookup of
its wedge data, bit for bit as evaluate_psi would.
"""

from __future__ import annotations

import functools
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
    _psi_values,
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


def pair_probe(wedge: SignedPermutation, contact: int, rng) -> BoundaryProbe:
    """Random point on the pair-contact facet at `contact` (1-based),
    keeping all other frame gaps and the wall distance at least
    DEFAULT_MARGIN."""
    n = wedge.n
    if not 1 <= contact <= n - 1:
        raise GeometryError(f"contact slot {contact} out of range 1..{n - 1}")
    frame = np.cumsum(DEFAULT_MARGIN + rng.uniform(DEFAULT_MARGIN, 1.0, size=n))
    frame[contact] = frame[contact - 1]
    return BoundaryProbe("pair", wedge, contact, tuple(wedge.inverse().apply(frame)))


def wall_probe(wedge: SignedPermutation, rng) -> BoundaryProbe:
    """Random point on the wall facet of the wedge (first frame coordinate 0)."""
    frame = np.cumsum(DEFAULT_MARGIN + rng.uniform(DEFAULT_MARGIN, 1.0, size=wedge.n))
    frame -= frame[0]
    return BoundaryProbe("wall", wedge, None, tuple(wedge.inverse().apply(frame)))


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


def _origin_values(coeffs: BetheCoefficients, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi and d psi/dx_j at x with x_j set to 0, for every j at once, up
    to the sector value of the wedge (+-1, which no residual sees).

    Sorted, the point with x_j = 0 is the frame of a wedge with every sign
    +1 and the 0 in slot 0, so d/dx_j is the slot-0 derivative there.  A
    plane wave factors over the slots, exp(i <k_P, z>) = prod_m
    exp(i ks[codes[P, m]] z_m) with ks = (k, -k), and its slot-0 factor is
    1.  enumerate_group lists the 2^n sign patterns of each permutation
    together, slot 0 slowest, so the sum over P runs per permutation as
    nested sums over the sign of each slot, the last slot first.

    With xs = sorted x, slot s of the frame of rank r (the rank of the
    zeroed coordinate) holds xs[s - 1] for s <= r and xs[s] for s > r.
    Summed from the last slot down to slot s, every rank below s has met
    the same factors, so those ranks share one row of partial sums; at
    slot s rank s leaves the shared row and takes xs[s - 1] like the
    ranks above it.  Each rank gets the multiply-adds it would get alone.
    """
    n = x.size
    k = coeffs.momenta.array
    order = np.argsort(x)
    waves = np.exp(1j * (x[order][:, None] * np.concatenate([k, -k])))  # (rank, code)
    heads = coeffs.group.codes[:: 2**n]  # codes of each permutation with signs all +1
    perms = len(heads)
    codes = heads.T[:, None] + np.array([[0], [n]])  # (slot, sign of the slot, perm)
    # (row, signs, perm): the row shared by the ranks below the slot, then
    # one row per higher rank in rank order
    terms = np.ascontiguousarray(coeffs.table[:, 0].reshape(perms, -1).T)[None]
    for slot in range(n - 1, 0, -1):
        # the shared row takes xs[slot], a copy of it as rank `slot` and
        # every higher rank take xs[slot - 1]
        pair = terms.reshape(len(terms), -1, 2, perms)
        products = np.empty((len(pair) + 1, *pair.shape[1:]), dtype=complex)
        np.multiply(pair[0], waves[slot][codes[slot]], out=products[0])
        np.multiply(pair, waves[slot - 1][codes[slot]], out=products[1:])
        terms = products.sum(axis=2)
    # rank by rank, slot-0 sign +1 and -1, (rank, perm); adding them first
    # makes the sum of an odd wall sector cancel exactly
    plus, minus = terms[:, 0], terms[:, 1]
    values, slopes = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    values[order] = (plus + minus).sum(axis=1)
    slopes[order] = 1j * ((plus - minus) * k[heads[:, 0]]).sum(axis=1)
    return values, slopes


def check_halfline_reduction(coeffs: BetheCoefficients, x) -> tuple[float, ...]:
    """One-sided origin conditions of a scalar-sector wavefunction.

    `x` must be interior to the positive region: finite, strictly positive
    and pairwise-distinct coordinates (else InputError or GeometryError;
    a point of the wrong shape raises ValueError).  For each coordinate
    the check slides that coordinate to 0, evaluates psi and its slope
    one-sidedly, and returns the residual of the sector's origin condition.
    """
    if not isinstance(coeffs.rep, ScalarSector):
        raise ValueError("half-line reduction applies to scalar sectors only")
    x = np.asarray(x, dtype=float)
    if x.shape != (coeffs.momenta.n,):
        raise ValueError(f"point must have shape ({coeffs.momenta.n},)")
    if not np.all(np.isfinite(x)):
        raise InputError("point must have finite coordinates")
    if np.any(x <= 0):
        raise GeometryError("point must have strictly positive coordinates")
    if np.any(np.diff(np.sort(x)) == 0):
        raise GeometryError("point must have pairwise-distinct coordinates")
    values, slopes = _origin_values(coeffs, x)
    model = coeffs.model
    if model.kind == MODEL_DELTA:
        if coeffs.rep.eps_r == 1:
            residuals = np.abs(2.0 * slopes - model.wall_coupling * values)
        else:
            residuals = np.abs(values)
    else:
        if coeffs.rep.eps_r == 1:
            residuals = np.abs(slopes)
        else:
            residuals = np.abs(values - 2.0 * model.wall_coupling * slopes)
    return tuple(residuals.tolist())


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


@functools.cache
def _stencil_steps(n: int) -> np.ndarray:
    """Row 0 zero, rows 2m+1 and 2m+2 the unit vector e_m and -e_m."""
    steps = np.zeros((2 * n + 1, n))
    steps[1::2] = np.eye(n)
    steps[2::2] = -np.eye(n)
    steps.flags.writeable = False
    return steps


def check_eigen(coeffs: BetheCoefficients, x, h: float) -> EigenCheck:
    """Central-difference Laplacian residual |sum_m d2psi/dx_m^2 + E psi|.

    The stencil is the centre and the centre moved by +h and -h along each
    coordinate, 2N+1 points, all evaluated in the centre's wedge by one
    values-only pass (no gradients) that gives evaluate_psi's values bit
    for bit.  A point in the open wedge Q is one whose frame
    Q.signs * x[Q.perm] is strictly increasing and positive, so all 2N
    moved points are tested against the centre's wedge at once.  The full
    stencil must stay inside it: a moved point on a facet raises
    BoundaryPointError, one in another wedge GeometryError (the first such
    point, coordinate by coordinate, +h before -h).  A step whose square is
    not a positive normal float (the stencil divides by it) or a point that
    is not finite raises InputError, a point of the wrong shape ValueError.
    `relative` is the residual over E |psi|: NaN when the residual is NaN,
    inf when psi is exactly 0 and the residual is not NaN.
    """
    x = np.asarray(x, dtype=float)
    if not (math.isfinite(h) and h > 0 and sys.float_info.min <= h * h < math.inf):
        raise InputError("step h must be finite and positive, with h*h a normal float")
    n = coeffs.momenta.n
    if x.shape != (n,):
        raise ValueError(f"point must have shape ({n},)")
    if not np.all(np.isfinite(x)):
        raise InputError("point must have finite coordinates")
    wedge = classify_wedge(x)
    # x + h * 0 is x and x + h * -1 is x - h, exactly
    stencil = x + h * _stencil_steps(n)
    frames = stencil[1:, list(wedge.perm)] * wedge.signs
    inside = (frames[:, 0] > 0) & (frames[:, 1:] > frames[:, :-1]).all(axis=1)
    if not inside.all():
        first = int(np.argmin(inside))
        classify_wedge(stencil[1 + first])  # raises if the point is on a facet
        raise GeometryError(
            f"stencil at step {h} leaves the wedge along coordinate {first // 2}"
        )
    centre, *moved = _psi_values(coeffs, wedge, stencil)
    laplacian = 0j
    for up, down in zip(moved[::2], moved[1::2]):
        laplacian += (up - 2.0 * centre + down) / h**2
    total_energy = coeffs.momenta.energy
    residual = abs(laplacian + total_energy * centre)
    scale = total_energy * abs(centre)
    if math.isnan(residual):
        relative = math.nan
    else:
        relative = residual / scale if scale > 0 else math.inf
    return EigenCheck(float(h), float(residual), float(relative), total_energy, centre)


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
    positive; anything else raises GeometryError, and a point of the wrong
    shape ValueError, the first bad point first).  An empty point list or
    a coordinate that is not finite raises InputError.  Every point is
    checked before any is evaluated.
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
    for point in points:
        if np.any(point <= 0) or np.any(np.diff(point) <= 0):
            raise GeometryError(
                "duality points must have strictly increasing positive coordinates"
            )
        if point.shape != (n,):
            raise ValueError(f"point must have shape ({n},)")
    identity = SignedPermutation.identity(n)
    point_diffs = [abs(a - b) for a, b in zip(_psi_values(boson, identity, points),
                                              _psi_values(fermion, identity, points))]
    return DualityReport(table_diff, float(np.max(point_diffs)), len(points))
