"""Algebraic consistency checks for the exchange and wall operators.

The plane-wave coefficient recursion is path independent exactly when the
operator families satisfy, for all real u, v:

  unitarity    Y_i(-u) Y_i(u) = I  and  Z(-u) Z(u) = I,
  commuting    Y_i(u) Y_j(v) = Y_j(v) Y_i(u)  for |i-j| > 1,
               Z(u) Y_i(v) = Y_i(v) Z(u)      for i > 1,
  braid        Y_i(v) Y_{i+1}(u+v) Y_i(u) = Y_{i+1}(u) Y_i(u+v) Y_{i+1}(v),
  reflection   Z(2v) Y_1(u+v) Z(2u) Y_1(u-v)
                   = Y_1(u-v) Z(2u) Y_1(u+v) Z(2v).

Every residual is the max-abs entry of (left side - right side) applied to
the identity basis vector e_I.  That one column decides the whole matrix:
right-regular operators commute with left multiplication, so an element x of
the group algebra is fixed by R(x) e_I, and every other column of R(x) is a
permutation of that one.  The max-abs over e_I is therefore the max-abs over
the full matrix (in a one-dimensional sector e_I is the whole space).  A NaN
residual is never dropped: it makes its relation fail.

Each relation is also local: its sides use at most two generator letters,
so (lhs - rhs) e_I lies in the group algebra of the rank <= 2 parabolic
subgroup they generate, Z2 (unitarity), Z2 x Z2 (commuting), S_3 (braid)
or B_2 (reflection), with the same entries at every slot and every N.  So
each relation is read once, on the fewest particles its letters need:
unitarity (Y_1 and Z) on min(N, 2), commuting ((Z, Y_2) and (Y_1, Y_3)) on
min(N, 4), braid (i = 1) on 3 and reflection on 2; N only decides which
relations apply.

In the regular representation the braid identity reduces to
a three-term relation on the coefficients,

    b(v) a(u+v) a(u) + a(v) a(u+v) b(u) = a(u) b(u+v) a(v),

and the reflection identity to a four-term relation mixing (a, b) with the
wall pair (at, bt); both are checked directly as complex arithmetic here as
well.  The delta model satisfies all of them.  The pdp model satisfies
unitarity and the commuting relations but violates the three-term relation
(hence the braid identity in any faithful representation); its recursion is
consistent only in the one-dimensional sectors, where the operators are
scalars and the order of factors is immaterial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .operators import (
    ModelSpec,
    RepOperator,
    apply_chain,
    pair_coeffs,
    pair_exchange_op,
    wall_coeffs,
    wall_reflection_op,
)
from .representations import RegularRep, ScalarSector, regular_rep

TOL_REGULAR = 1e-12
TOL_SECTOR = 1e-14

EXPECT_PASS = "pass"
EXPECT_FAIL = "fail"
REPORT_ONLY = "report-only"

OPERATOR_RELATIONS = ("unitarity", "commuting", "braid", "reflection")
COEFFICIENT_RELATIONS = (
    "pair_unitarity_sum",
    "pair_unitarity_cross",
    "pair_braid",
    "wall_unitarity_sum",
    "wall_unitarity_cross",
    "wall_reflection",
)


@dataclass(frozen=True)
class ResidualReport:
    relation: str
    params: dict
    residual: float | None
    tolerance: float
    applicable: bool = True

    @property
    def passed(self) -> bool | None:
        if not self.applicable:
            return None
        return self.residual <= self.tolerance


def default_tolerance(rep) -> float:
    return TOL_SECTOR if isinstance(rep, ScalarSector) else TOL_REGULAR


def _residual(lhs: list[RepOperator], rhs: list[RepOperator], dim: int) -> float:
    """Max-abs entry of (lhs - rhs) e_I; an empty rhs is the identity.
    e_I is index 0, the first element enumerate_group yields."""
    e_identity = np.zeros(dim, dtype=complex)
    e_identity[0] = 1.0
    return float(np.max(np.abs(apply_chain(lhs, e_identity) - apply_chain(rhs, e_identity))))


def _evaluate(name, params, needs, most, model, rep, tol, chains) -> ResidualReport:
    """Worst residual of the (lhs, rhs) pairs chains(y, z, n) yields, in the
    representation of rep's kind on n = min(N, most) particles, where y(i, x)
    is Y_i(x) and z(x) is Z(x).  Not applicable below `needs` particles."""
    tol = default_tolerance(rep) if tol is None else tol
    if rep.n_particles < needs:
        return ResidualReport(name, params, None, tol, applicable=False)
    n = min(rep.n_particles, most)
    if isinstance(rep, ScalarSector):
        rep = ScalarSector(n, rep.eps_t, rep.eps_r)
    elif isinstance(rep, RegularRep):
        rep = regular_rep(n)

    def y(i, x):
        return pair_exchange_op(model, i, x, rep)

    def z(x):
        return wall_reflection_op(model, x, rep)

    worst = float(np.max([_residual(lhs, rhs, rep.dim) for lhs, rhs in chains(y, z, n)]))
    return ResidualReport(name, params, worst, tol)


def check_unitarity(model: ModelSpec, rep, u: float, tol: float | None = None) -> ResidualReport:
    """Y_i(-u) Y_i(u) = I (read at i = 1) and Z(-u) Z(u) = I."""

    def chains(y, z, n):
        if n >= 2:
            yield [y(1, -u), y(1, u)], []
        yield [z(-u), z(u)], []

    return _evaluate("unitarity", {"u": float(u)}, 1, 2, model, rep, tol, chains)


def check_commuting(model: ModelSpec, rep, u: float, v: float, tol: float | None = None) -> ResidualReport:
    """Disjoint-slot exchanges commute (read at Y_1, Y_3); the wall commutes
    past slots > 1 (read at Y_2)."""

    def chains(y, z, n):
        if n >= 4:
            yield [y(1, u), y(3, v)], [y(3, v), y(1, u)]
        yield [z(u), y(2, v)], [y(2, v), z(u)]

    return _evaluate("commuting", {"u": float(u), "v": float(v)}, 3, 4, model, rep, tol, chains)


def check_braid(model: ModelSpec, rep, u: float, v: float, tol: float | None = None) -> ResidualReport:
    """Y_i(v) Y_{i+1}(u+v) Y_i(u) = Y_{i+1}(u) Y_i(u+v) Y_{i+1}(v), read at i = 1."""

    def chains(y, z, n):
        yield [y(1, v), y(2, u + v), y(1, u)], [y(2, u), y(1, u + v), y(2, v)]

    return _evaluate("braid", {"u": float(u), "v": float(v)}, 3, 3, model, rep, tol, chains)


def check_reflection(model: ModelSpec, rep, u: float, v: float, tol: float | None = None) -> ResidualReport:
    """Z(2v) Y_1(u+v) Z(2u) Y_1(u-v) = Y_1(u-v) Z(2u) Y_1(u+v) Z(2v)."""

    def chains(y, z, n):
        yield ([z(2 * v), y(1, u + v), z(2 * u), y(1, u - v)],
               [y(1, u - v), z(2 * u), y(1, u + v), z(2 * v)])

    return _evaluate("reflection", {"u": float(u), "v": float(v)}, 2, 2, model, rep, tol, chains)


def coefficient_relations(model: ModelSpec, u: float, v: float, tol: float = TOL_REGULAR) -> list[ResidualReport]:
    """Residuals of the scalar identities underlying the operator relations."""

    def unitarity_pair(name_prefix, coeff_fn):
        plus = coeff_fn(model, u)
        minus = coeff_fn(model, -u)
        return [
            ResidualReport(
                f"{name_prefix}_sum", {"u": float(u)},
                abs(minus.a * plus.a + minus.b * plus.b - 1.0), tol,
            ),
            ResidualReport(
                f"{name_prefix}_cross", {"u": float(u)},
                abs(minus.a * plus.b + minus.b * plus.a), tol,
            ),
        ]

    out = unitarity_pair("pair_unitarity", pair_coeffs)

    pu = pair_coeffs(model, u)
    pv = pair_coeffs(model, v)
    puv = pair_coeffs(model, u + v)
    braid_lhs = pv.b * puv.a * pu.a + pv.a * puv.a * pu.b
    braid_rhs = pu.a * puv.b * pv.a
    out.append(
        ResidualReport(
            "pair_braid",
            {
                "u": float(u), "v": float(v),
                "lhs": [braid_lhs.real, braid_lhs.imag],
                "rhs": [braid_rhs.real, braid_rhs.imag],
            },
            abs(braid_lhs - braid_rhs), tol,
        )
    )

    out.extend(unitarity_pair("wall_unitarity", wall_coeffs))

    w2u = wall_coeffs(model, 2 * u)
    w2v = wall_coeffs(model, 2 * v)
    psum = pair_coeffs(model, u + v)
    pdiff = pair_coeffs(model, u - v)
    refl_lhs = (
        w2v.b * psum.b * w2u.a * pdiff.a
        + w2v.b * psum.a * w2u.a * pdiff.b
        + w2v.a * psum.a * w2u.b * pdiff.b
    )
    refl_rhs = pdiff.a * w2u.b * psum.b * w2v.a
    out.append(
        ResidualReport(
            "wall_reflection",
            {
                "u": float(u), "v": float(v),
                "lhs": [refl_lhs.real, refl_lhs.imag],
                "rhs": [refl_rhs.real, refl_rhs.imag],
            },
            abs(refl_lhs - refl_rhs), tol,
        )
    )
    return out


def expected_outcome(model: ModelSpec, rep, relation: str) -> str:
    """What a correct implementation should observe for each relation.

    The pdp model genuinely violates the braid identity in the regular
    representation (the three-term coefficient relation fails), so there the
    correct observation is a failure.  Its reflection identity also involves
    the failing coefficients; it is reported without a verdict.
    """
    faithful = isinstance(rep, RegularRep)
    if model.kind == "pdp":
        if relation == "braid" and faithful:
            return EXPECT_FAIL
        if relation == "reflection" and faithful:
            return REPORT_ONLY
        if relation == "pair_braid":
            return EXPECT_FAIL
        if relation == "wall_reflection":
            return REPORT_ONLY
    return EXPECT_PASS


@dataclass
class RelationSummary:
    relation: str
    expected: str
    tolerance: float
    applicable: bool = True
    max_residual: float | None = None
    worst_params: dict = field(default_factory=dict)

    def absorb(self, report: ResidualReport):
        """Keep the worst residual so far; a NaN counts as worse than any
        number and, once absorbed, stays (so the outcome is "fail")."""
        if not report.applicable:
            self.applicable = False
            return
        worst = self.max_residual
        if worst is None or not (math.isnan(worst) or report.residual <= worst):
            self.max_residual = report.residual
            self.worst_params = dict(report.params)

    @property
    def outcome(self) -> str:
        if not self.applicable or self.max_residual is None:
            return "not-applicable"
        return "pass" if self.max_residual <= self.tolerance else "fail"

    @property
    def ok(self) -> bool:
        if self.expected == REPORT_ONLY or self.outcome == "not-applicable":
            return True
        return self.outcome == self.expected

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "expected": self.expected,
            "outcome": self.outcome,
            "ok": self.ok,
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "worst_params": self.worst_params,
        }


@dataclass
class ConsistencyReport:
    model: ModelSpec
    rep_label: str
    n_particles: int
    samples: int
    seed: int
    operator_relations: list[RelationSummary]
    coefficient_relations: list[RelationSummary]

    @property
    def overall_ok(self) -> bool:
        return all(s.ok for s in self.operator_relations) and all(
            s.ok for s in self.coefficient_relations
        )

    def to_dict(self) -> dict:
        return {
            "model": {
                "kind": self.model.kind,
                "pair_coupling": self.model.pair_coupling,
                "wall_coupling": self.model.wall_coupling,
            },
            "representation": self.rep_label,
            "n_particles": self.n_particles,
            "samples": self.samples,
            "seed": self.seed,
            "overall_ok": self.overall_ok,
            "operator_relations": [s.to_dict() for s in self.operator_relations],
            "coefficient_relations": [s.to_dict() for s in self.coefficient_relations],
        }


def consistency_report(
    model: ModelSpec,
    rep,
    samples: int = 200,
    seed: int = 0,
    tol: float | None = None,
) -> ConsistencyReport:
    """Residuals of every applicable relation over seeded (u, v) samples,
    judged against the model's expected outcomes; no samples is an InputError."""
    if samples < 1:
        raise InputError("samples must be at least 1")
    tol = default_tolerance(rep) if tol is None else tol
    rng = np.random.default_rng(seed)
    op_summaries = {
        name: RelationSummary(name, expected_outcome(model, rep, name), tol)
        for name in OPERATOR_RELATIONS
    }
    coeff_summaries = {
        name: RelationSummary(name, expected_outcome(model, rep, name), TOL_REGULAR)
        for name in COEFFICIENT_RELATIONS
    }
    for _ in range(samples):
        u, v = rng.uniform(-5.0, 5.0, size=2)
        op_summaries["unitarity"].absorb(check_unitarity(model, rep, u, tol))
        op_summaries["commuting"].absorb(check_commuting(model, rep, u, v, tol))
        op_summaries["braid"].absorb(check_braid(model, rep, u, v, tol))
        op_summaries["reflection"].absorb(check_reflection(model, rep, u, v, tol))
        for report in coefficient_relations(model, u, v):
            coeff_summaries[report.relation].absorb(report)
    return ConsistencyReport(
        model,
        rep.label,
        rep.n_particles,
        samples,
        seed,
        list(op_summaries.values()),
        list(coeff_summaries.values()),
    )
