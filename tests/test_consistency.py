"""Operator relation checks and their coefficient-level reductions.

The delta model satisfies every relation in every representation.  The pdp
model satisfies them in the scalar sectors, where the failing three-term
combination is never exercised, but genuinely violates the braid relation
in the regular representation; its wall reflection relation involves the
same broken combination and is reported without a verdict.
"""

import math

import numpy as np
import pytest

from halfline_bethe import (
    ModelSpec,
    ScalarSector,
    check_braid,
    check_commuting,
    check_reflection,
    check_unitarity,
    coefficient_relations,
    consistency_report,
    regular_rep,
)
from halfline_bethe.consistency import (
    EXPECT_FAIL,
    EXPECT_PASS,
    REPORT_ONLY,
    RelationSummary,
    ResidualReport,
    expected_outcome,
)
from halfline_bethe.operators import apply_chain, pair_exchange_op, wall_reflection_op

DELTA = ModelSpec("delta", 1.0, 2.0)
PDP = ModelSpec("pdp", 1.0, 0.5)

SAMPLES = [(-3.1, 0.7), (0.42, 2.6), (1.9, -4.4), (-0.8, -1.6), (4.3, 3.2)]


def all_reps(n):
    yield regular_rep(n)
    for eps_t in (1, -1):
        for eps_r in (1, -1):
            yield ScalarSector(n, eps_t, eps_r)


@pytest.mark.parametrize("u,v", SAMPLES)
def test_delta_satisfies_everything(u, v):
    for rep in all_reps(3):
        assert check_unitarity(DELTA, rep, u).passed
        assert check_commuting(DELTA, rep, u, v).passed
        assert check_braid(DELTA, rep, u, v).passed
        assert check_reflection(DELTA, rep, u, v).passed


@pytest.mark.parametrize("u,v", SAMPLES)
def test_pdp_scalar_sectors_satisfy_everything(u, v):
    for eps_t in (1, -1):
        for eps_r in (1, -1):
            rep = ScalarSector(3, eps_t, eps_r)
            assert check_unitarity(PDP, rep, u).passed
            assert check_commuting(PDP, rep, u, v).passed
            assert check_braid(PDP, rep, u, v).passed
            assert check_reflection(PDP, rep, u, v).passed


def test_pdp_unitarity_and_commuting_hold_in_regular_rep():
    rep = regular_rep(3)
    for u, v in SAMPLES:
        assert check_unitarity(PDP, rep, u).passed
        assert check_commuting(PDP, rep, u, v).passed


def test_pdp_braid_violation_witness():
    # at u = v = 1 with unit coupling the three-term combination gives
    # (4 - 2i)/5 on one side and (2 - i)/10 on the other
    model = ModelSpec("pdp", 1.0, 0.5)
    reports = {r.relation: r for r in coefficient_relations(model, 1.0, 1.0)}
    braid = reports["pair_braid"]
    assert braid.params["lhs"] == pytest.approx([0.8, -0.4], abs=1e-14)
    assert braid.params["rhs"] == pytest.approx([0.2, -0.1], abs=1e-14)
    assert braid.residual == pytest.approx(3.0 * math.sqrt(5.0) / 10.0, abs=1e-13)
    assert not braid.passed


def test_pdp_operator_braid_matches_coefficient_witness():
    rep = regular_rep(3)
    report = check_braid(ModelSpec("pdp", 1.0, 0.5), rep, 1.0, 1.0)
    assert report.residual == pytest.approx(0.6708203932499369, abs=1e-12)
    assert not report.passed


def test_pdp_reflection_violation_magnitude():
    model = ModelSpec("pdp", 1.0, 1.0)
    reports = {r.relation: r for r in coefficient_relations(model, 1.0, 0.5)}
    refl = reports["wall_reflection"]
    assert refl.residual == pytest.approx(0.7844645405527363, abs=1e-12)
    op = check_reflection(model, regular_rep(2), 1.0, 0.5)
    assert op.residual > 0.1


def test_delta_coefficient_relations_all_pass():
    for u, v in SAMPLES:
        for report in coefficient_relations(DELTA, u, v):
            assert report.passed, report.relation


def test_pdp_coefficient_unitarity_passes():
    for u, v in SAMPLES:
        reports = {r.relation: r for r in coefficient_relations(PDP, u, v)}
        for name in (
            "pair_unitarity_sum",
            "pair_unitarity_cross",
            "wall_unitarity_sum",
            "wall_unitarity_cross",
        ):
            assert reports[name].passed, name


def test_residuals_are_conjugation_symmetric():
    # negating both arguments conjugates every coefficient, so magnitudes agree
    for u, v in SAMPLES:
        direct = coefficient_relations(PDP, u, v)
        mirrored = coefficient_relations(PDP, -u, -v)
        for one, two in zip(direct, mirrored):
            assert one.residual == pytest.approx(two.residual, abs=1e-14)


def test_small_particle_counts_mark_checks_not_applicable():
    rep = ScalarSector(2, 1, 1)
    report = check_commuting(DELTA, rep, 1.0, 2.0)
    assert not report.applicable
    assert report.passed is None
    report = check_braid(DELTA, rep, 1.0, 2.0)
    assert not report.applicable
    rep1 = ScalarSector(1, 1, 1)
    assert not check_reflection(DELTA, rep1, 1.0, 2.0).applicable
    # unitarity is meaningful even for one particle (wall only)
    assert check_unitarity(DELTA, rep1, 1.0).passed


def test_expected_outcome_table():
    reg = regular_rep(3)
    sec = ScalarSector(3, -1, -1)
    assert expected_outcome(PDP, reg, "braid") == EXPECT_FAIL
    assert expected_outcome(PDP, reg, "reflection") == REPORT_ONLY
    assert expected_outcome(PDP, reg, "unitarity") == EXPECT_PASS
    assert expected_outcome(PDP, sec, "braid") == EXPECT_PASS
    assert expected_outcome(PDP, sec, "pair_braid") == EXPECT_FAIL
    assert expected_outcome(PDP, sec, "wall_reflection") == REPORT_ONLY
    for relation in ("unitarity", "commuting", "braid", "reflection", "pair_braid"):
        assert expected_outcome(DELTA, reg, relation) == EXPECT_PASS


def test_consistency_report_delta_regular():
    report = consistency_report(DELTA, regular_rep(3), samples=25, seed=7)
    assert report.overall_ok
    for summary in report.operator_relations + report.coefficient_relations:
        assert summary.outcome == "pass"
    doc = report.to_dict()
    assert doc["overall_ok"] is True
    assert doc["samples"] == 25
    assert doc["seed"] == 7


def test_consistency_report_pdp_regular_fails_as_expected():
    report = consistency_report(PDP, regular_rep(3), samples=25, seed=7)
    assert report.overall_ok  # failure was the expected outcome
    by_name = {s.relation: s for s in report.operator_relations}
    assert by_name["braid"].outcome == "fail"
    assert by_name["braid"].ok
    assert by_name["unitarity"].outcome == "pass"
    coeff = {s.relation: s for s in report.coefficient_relations}
    assert coeff["pair_braid"].outcome == "fail"
    assert coeff["pair_braid"].ok


def test_consistency_report_seed_reproducibility():
    one = consistency_report(DELTA, ScalarSector(3, 1, 1), samples=10, seed=3)
    two = consistency_report(DELTA, ScalarSector(3, 1, 1), samples=10, seed=3)
    assert one.to_dict() == two.to_dict()


def test_tolerance_respected():
    # an absurdly tight tolerance flips a genuine pass into a failure
    report = consistency_report(DELTA, ScalarSector(2, 1, 1), samples=5, seed=0, tol=1e-20)
    assert not report.overall_ok


def test_residual_scale_delta_regular_is_tiny():
    rep = regular_rep(3)
    worst = 0.0
    rng = np.random.default_rng(11)
    for _ in range(10):
        u, v = rng.uniform(-5, 5, size=2)
        for rpt in (
            check_unitarity(DELTA, rep, u),
            check_commuting(DELTA, rep, u, v),
            check_braid(DELTA, rep, u, v),
            check_reflection(DELTA, rep, u, v),
        ):
            worst = max(worst, rpt.residual)
    assert worst < 1e-13


@pytest.mark.parametrize("samples", [0, -3])
def test_consistency_report_rejects_empty_sampling(samples):
    with pytest.raises(ValueError):
        consistency_report(ModelSpec("delta", 1.0, 2.0), ScalarSector(2, 1, 1), samples=samples)


def dense_chains(relation, model, rep, u, v):
    """(lhs, rhs) operator chains of each relation instance, as the module
    docstring states them; an empty rhs is the identity."""
    n = rep.n_particles

    def y(i, x):
        return pair_exchange_op(model, i, x, rep)

    def z(x):
        return wall_reflection_op(model, x, rep)

    if relation == "unitarity":
        return [([y(i, -u), y(i, u)], []) for i in range(1, n)] + [([z(-u), z(u)], [])]
    if relation == "commuting":
        pairs = [(y(i, u), y(j, v)) for i in range(1, n) for j in range(i + 2, n)]
        pairs += [(z(u), y(i, v)) for i in range(2, n)]
        return [([a, b], [b, a]) for a, b in pairs]
    if relation == "braid":
        return [
            ([y(i, v), y(i + 1, u + v), y(i, u)], [y(i + 1, u), y(i, u + v), y(i + 1, v)])
            for i in range(1, n - 1)
        ]
    return [(
        [z(2 * v), y(1, u + v), z(2 * u), y(1, u - v)],
        [y(1, u - v), z(2 * u), y(1, u + v), z(2 * v)],
    )]


def dense_residual(relation, model, rep, u, v):
    """Max-abs entry of the full matrix lhs - rhs, applied to every basis vector."""
    basis = np.eye(rep.dim, dtype=complex)
    return max(
        float(np.max(np.abs(apply_chain(lhs, basis) - apply_chain(rhs, basis))))
        for lhs, rhs in dense_chains(relation, model, rep, u, v)
    )


CHECKS = {
    "unitarity": lambda model, rep, u, v: check_unitarity(model, rep, u),
    "commuting": check_commuting,
    "braid": check_braid,
    "reflection": check_reflection,
}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("model", [DELTA, PDP], ids=["delta", "pdp"])
def test_one_column_residual_equals_dense_residual(model, n):
    # the e_I column decides the whole matrix of a right-regular operator
    rep = regular_rep(n)
    rng = np.random.default_rng(100 + n)
    for u, v in rng.uniform(-5.0, 5.0, size=(3, 2)):
        for relation, check in CHECKS.items():
            report = check(model, rep, u, v)
            if not report.applicable:
                assert n == 2 and relation in ("commuting", "braid")
                continue
            dense = dense_residual(relation, model, rep, u, v)
            assert report.residual == pytest.approx(dense, rel=1e-12, abs=1e-15), relation


def every_slot_residual(relation, model, rep, u, v):
    """The residual walked the long way: every slot of every relation
    instance, on the e_I column of the full-N representation."""
    e_identity = np.zeros(rep.dim, dtype=complex)
    e_identity[0] = 1.0
    return float(np.max([
        np.max(np.abs(apply_chain(lhs, e_identity) - apply_chain(rhs, e_identity)))
        for lhs, rhs in dense_chains(relation, model, rep, u, v)
    ]))


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("model", [DELTA, PDP], ids=["delta", "pdp"])
def test_local_residual_equals_every_slot_residual(model, n):
    # each relation lives in a rank <= 2 parabolic subgroup, so reading it
    # once on the fewest particles its letters need gives the same bits
    rng = np.random.default_rng(200 + n)
    samples = rng.uniform(-5.0, 5.0, size=(4, 2))
    for rep in all_reps(n):
        for u, v in samples:
            for relation, check in CHECKS.items():
                want = every_slot_residual(relation, model, rep, u, v)
                assert check(model, rep, u, v).residual == want, (rep.label, relation)


def test_pdp_braid_residual_is_unchanged_by_the_one_column_check():
    report = check_braid(PDP, regular_rep(3), 1.0, 1.0)
    assert report.residual == pytest.approx(0.670820393249937, abs=1e-15)


def summary_of(residuals):
    summary = RelationSummary("braid", EXPECT_PASS, 1e-12)
    for k, residual in enumerate(residuals):
        summary.absorb(ResidualReport("braid", {"k": k}, residual, 1e-12))
    return summary


@pytest.mark.parametrize(
    "residuals",
    [[1e-16, math.nan, 1e-16], [math.nan, 1e-16], [1e-16, math.nan], [1e-16, math.inf, 1e-16]],
)
def test_non_finite_residual_makes_the_relation_fail(residuals):
    summary = summary_of(residuals)
    assert summary.outcome == "fail"
    assert not summary.ok
    assert not math.isfinite(summary.max_residual)
    bad = next(k for k, r in enumerate(residuals) if not math.isfinite(r))
    assert summary.worst_params == {"k": bad}


def test_finite_residuals_keep_the_first_worst():
    summary = summary_of([1e-16, 3e-16, 3e-16, 2e-16])
    assert summary.outcome == "pass"
    assert summary.max_residual == 3e-16
    assert summary.worst_params == {"k": 1}


@pytest.mark.parametrize("rep", [regular_rep(3), ScalarSector(3, 1, 1)], ids=["regular", "sector"])
@pytest.mark.parametrize("relation", list(CHECKS))
def test_nan_momentum_transfer_fails_every_check(relation, rep):
    report = CHECKS[relation](DELTA, rep, math.nan, 1.0)
    assert math.isnan(report.residual)
    assert report.passed is False
