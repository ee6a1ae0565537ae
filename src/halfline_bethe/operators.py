"""Exchange and wall-reflection operator families for the two contact models.

Each model assigns to every momentum transfer u a pair-exchange operator

    Y_i(u) = a(u) * I + b(u) * That_i

and a wall operator

    Z(u) = at(u) * I + bt(u) * Rhat_1,

where That_i and Rhat_1 act on coefficient vectors through the regular
action (or collapse to the signs eps_t, eps_r in a one-dimensional sector).
The coefficient pairs are

    delta:  a(u) = c1 / (iu - c1),         b(u) = iu / (iu - c1),
    pdp:    a(u) = iu / (iu - 1/lam1),     b(u) = -(1/lam1) / (iu - 1/lam1),

with the same forms in the wall coupling (c2 or lam2) for (at, bt).  The
pdp denominator iu - 1/lam1 is forced by the operator form
Y_i(u) = (iu I - (1/lam1) That_i) / (iu - 1/lam1); a and b must share it.

Operators are kept as the affine data (diag, off, index table) and applied
lazily, so nothing here ever materializes a dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .representations import RegularRep, ScalarSector

MODEL_DELTA = "delta"
MODEL_PDP = "pdp"


@dataclass(frozen=True)
class ModelSpec:
    """Which interaction ("delta" or "pdp") with its two couplings.

    pair_coupling is c1 (delta) or lam1 (pdp); wall_coupling is c2 or lam2.
    Both must be finite and strictly positive.
    """

    kind: str
    pair_coupling: float
    wall_coupling: float

    def __post_init__(self):
        if self.kind not in (MODEL_DELTA, MODEL_PDP):
            raise InputError(f"unknown model kind {self.kind!r}")
        for coupling in (self.pair_coupling, self.wall_coupling):
            if not (math.isfinite(coupling) and coupling > 0):
                raise InputError("couplings must be finite and strictly positive")


@dataclass(frozen=True)
class CoefficientPair:
    a: complex
    b: complex


def _coeffs(kind: str, u: float, coupling: float) -> CoefficientPair:
    iu = 1j * u
    if kind == MODEL_DELTA:
        den = iu - coupling
        return CoefficientPair(coupling / den, iu / den)
    inv = 1.0 / coupling
    den = iu - inv
    return CoefficientPair(iu / den, -inv / den)


def pair_coeffs(model: ModelSpec, u: float) -> CoefficientPair:
    """(a, b) of the pair-exchange operator at momentum transfer u."""
    return _coeffs(model.kind, u, model.pair_coupling)


def wall_coeffs(model: ModelSpec, u: float) -> CoefficientPair:
    """(at, bt) of the wall operator at momentum transfer u."""
    return _coeffs(model.kind, u, model.wall_coupling)


def _sector_value(kind: str, u: float, coupling: float, eps: int) -> complex:
    # Fused form of a(u) + eps*b(u).  In the coupling-independent sectors
    # the quotient is a number divided by itself or its exact negative, so
    # return the constant outright; complex division (Smith's algorithm)
    # would leave a one-ulp imaginary residue in some branches.
    iu = 1j * u
    if kind == MODEL_DELTA:
        if eps == -1:
            return complex(-1.0)
        return (iu + coupling) / (iu - coupling)
    if eps == 1:
        return complex(1.0)
    inv = 1.0 / coupling
    return (iu + inv) / (iu - inv)


def sector_pair_value(model: ModelSpec, u: float, eps_t: int) -> complex:
    """Scalar value of Y_i(u) in a sector with transposition sign eps_t."""
    return _sector_value(model.kind, u, model.pair_coupling, eps_t)


def sector_wall_value(model: ModelSpec, u: float, eps_r: int) -> complex:
    """Scalar value of Z(u) in a sector with reflection sign eps_r."""
    return _sector_value(model.kind, u, model.wall_coupling, eps_r)


class RepOperator:
    """diag * I + off * Ghat, with Ghat one generator's representation action.

    In a one-dimensional sector the operator is folded into the single
    complex number `diag` (off = 0, table = None).
    """

    __slots__ = ("diag", "off", "table")

    def __init__(self, diag: complex, off: complex = 0j, table=None):
        self.diag = complex(diag)
        self.off = complex(off)
        self.table = table

    def apply(self, v) -> np.ndarray:
        """Apply to a vector (dim,) or stack of columns (dim, m)."""
        v = np.asarray(v, dtype=complex)
        if self.table is None:
            return self.diag * v
        if v.shape[0] != len(self.table):
            raise ValueError(
                f"vector has leading dimension {v.shape[0]}, expected {len(self.table)}"
            )
        return self.diag * v + self.off * v[self.table]


def pair_exchange_op(model: ModelSpec, i: int, u: float, rep) -> RepOperator:
    """Y_i(u) in the given representation (1-based slot index i)."""
    if isinstance(rep, ScalarSector):
        if not 1 <= i <= rep.n_particles - 1:
            raise IndexError(
                f"exchange index {i} out of range 1..{rep.n_particles - 1}"
            )
        return RepOperator(sector_pair_value(model, u, rep.eps_t))
    if isinstance(rep, RegularRep):
        pair = pair_coeffs(model, u)
        return RepOperator(pair.a, pair.b, rep.table(f"T{i}"))
    raise TypeError(f"unsupported representation {rep!r}")


def wall_reflection_op(model: ModelSpec, u: float, rep) -> RepOperator:
    """Z(u) in the given representation."""
    if isinstance(rep, ScalarSector):
        return RepOperator(sector_wall_value(model, u, rep.eps_r))
    if isinstance(rep, RegularRep):
        pair = wall_coeffs(model, u)
        return RepOperator(pair.a, pair.b, rep.table("R1"))
    raise TypeError(f"unsupported representation {rep!r}")


def apply_chain(ops, v) -> np.ndarray:
    """Apply the operator product ops[0] ops[1] ... ops[-1] to v
    (rightmost factor first)."""
    v = np.asarray(v, dtype=complex)
    for op in reversed(ops):
        v = op.apply(v)
    return v
