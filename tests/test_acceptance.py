"""End-to-end acceptance checks, one per guaranteed behavior.

Each test prints a single PASS/FAIL line (run with -s to see them on
success) and enforces its own runtime budget.
"""

import functools
import math
import time

import numpy as np

from closed_form import closed_form_table
from halfline_bethe import (
    ModelSpec,
    Momenta,
    ScalarSector,
    SignedPermutation,
    boundary_sweep,
    check_braid,
    check_commuting,
    check_eigen,
    check_reflection,
    check_unitarity,
    coefficient_relations,
    compute_coefficients,
    consistency_report,
    convergence_sweep,
    dimension_sum_check,
    duality_compare,
    enumerate_group,
    reflection_amp,
    regular_rep,
    word_independence_test,
)
from halfline_bethe.weyl_group import letter_element

DELTA = ModelSpec("delta", 1.0, 2.0)
PDP = ModelSpec("pdp", 1.0, 0.5)
K2 = Momenta((1.1, 2.3))
K3 = Momenta((0.7, 1.9, 3.2))


def criterion(tag, budget_s, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
                elapsed = time.perf_counter() - start
                assert elapsed < budget_s, (
                    f"{tag} exceeded its {budget_s}s budget ({elapsed:.2f}s)"
                )
            except BaseException:
                print(f"FAIL [{tag}] {description}")
                raise
            print(f"PASS [{tag}] {description} ({elapsed:.2f}s)")

        return run

    return wrap


@criterion("A01", 1.0, "group core: defining relations and orders for 2..4 particles")
def test_a01_group_core():
    for n, order in ((2, 8), (3, 48), (4, 384)):
        elements = enumerate_group(n)
        assert len(elements) == order
        assert len(set(elements)) == order
        e = SignedPermutation.identity(n)
        t = [letter_element(f"T{i}", n) for i in range(1, n)]
        r = letter_element("R1", n)
        for ti in t:
            assert ti * ti == e
        assert r * r == e
        for i in range(len(t) - 1):
            assert t[i] * t[i + 1] * t[i] == t[i + 1] * t[i] * t[i + 1]
        for i in range(len(t)):
            for j in range(i + 2, len(t)):
                assert t[i] * t[j] == t[j] * t[i]
        for ti in t[1:]:
            assert r * ti == ti * r
        assert r * t[0] * r * t[0] == t[0] * r * t[0] * r


@criterion("A02", 10.0, "delta model satisfies all operator relations in the regular representation")
def test_a02_delta_regular_relations():
    report = consistency_report(DELTA, regular_rep(3), samples=200, seed=0)
    assert report.overall_ok
    for summary in report.operator_relations + report.coefficient_relations:
        assert summary.outcome == "pass", summary.relation
        assert summary.max_residual <= 1e-12, summary.relation


@criterion("A03", 1.0, "pdp braid violation reproduces the exact witness values")
def test_a03_pdp_braid_witness():
    model = ModelSpec("pdp", 1.0, 0.5)
    reports = {r.relation: r for r in coefficient_relations(model, 1.0, 1.0)}
    braid = reports["pair_braid"]
    lhs = complex(*braid.params["lhs"])
    rhs = complex(*braid.params["rhs"])
    assert abs(lhs - (0.8 - 0.4j)) < 1e-12
    assert abs(rhs - (0.2 - 0.1j)) < 1e-12
    assert abs(braid.residual - 3.0 * math.sqrt(5.0) / 10.0) < 1e-12
    operator = check_braid(model, regular_rep(3), 1.0, 1.0)
    assert operator.residual > 0.1


@criterion("A04", 1.0, "both models satisfy all relations in every scalar sector")
def test_a04_scalar_sectors():
    rng = np.random.default_rng(0)
    for model in (DELTA, PDP):
        for eps_t in (1, -1):
            for eps_r in (1, -1):
                rep = ScalarSector(4, eps_t, eps_r)
                for _ in range(200):
                    u, v = rng.uniform(-5, 5, size=2)
                    for rpt in (
                        check_unitarity(model, rep, u),
                        check_commuting(model, rep, u, v),
                        check_braid(model, rep, u, v),
                        check_reflection(model, rep, u, v),
                    ):
                        assert rpt.applicable
                        assert rpt.residual <= 1e-14, (model.kind, rep.label, rpt.relation)


@criterion("A05", 5.0, "coefficient tables are path independent for the delta model")
def test_a05_path_independence():
    coeffs = compute_coefficients(K3, DELTA, regular_rep(3))
    assert coeffs.max_crosscheck <= 1e-12
    worst = word_independence_test(K3, DELTA, regular_rep(3), trials=50, seed=0)
    assert worst <= 1e-12


@criterion("A06", 30.0, "wavefunctions satisfy the facet matching conditions")
def test_a06_boundary_conditions():
    cases = []
    for momenta in (K2, K3):
        n = momenta.n
        cases.append((momenta, DELTA, regular_rep(n)))
        for eps_t in (1, -1):
            for eps_r in (1, -1):
                cases.append((momenta, DELTA, ScalarSector(n, eps_t, eps_r)))
                cases.append((momenta, PDP, ScalarSector(n, eps_t, eps_r)))
    for momenta, model, rep in cases:
        coeffs = compute_coefficients(momenta, model, rep)
        sweep = boundary_sweep(coeffs, 20, np.random.default_rng(42))
        assert sweep.within(1e-10), (model.kind, rep.label, momenta.n, sweep.max_residual)


@criterion("A07", 1.0, "numerical Laplacian reproduces the eigenvalue")
def test_a07_eigenvalue():
    coeffs = compute_coefficients(K2, DELTA, ScalarSector(2, 1, 1))
    point = [0.8, 2.1]
    fine = check_eigen(coeffs, point, 1e-4)
    assert fine.relative <= 1e-6
    coarse = check_eigen(coeffs, point, 2e-3)
    mid = check_eigen(coeffs, point, 1e-3)
    ratio = coarse.residual / mid.residual
    assert abs(ratio - 4.0) <= 0.5


@criterion("A08", 5.0, "boson delta and fermion pdp wavefunctions coincide at inverse couplings")
def test_a08_duality():
    rng = np.random.default_rng(7)
    for momenta in (K2, K3):
        points = [
            np.cumsum(0.2 + rng.uniform(0.0, 1.0, size=momenta.n)) for _ in range(20)
        ]
        report = duality_compare(momenta, 1.0, 2.0, points)
        assert report.max_table_diff <= 1e-12
        assert report.max_point_diff <= 1e-12


@criterion("A09", 1.0, "free-sector tables are coupling independent, bit for bit")
def test_a09_trivial_sectors():
    for kind, eps in (("delta", (-1, -1)), ("pdp", (1, 1))):
        one = compute_coefficients(K2, ModelSpec(kind, 1.0, 2.0), ScalarSector(2, *eps))
        two = compute_coefficients(K2, ModelSpec(kind, 3.7, 0.9), ScalarSector(2, *eps))
        assert np.array_equal(one.table, two.table)


@criterion("A10", 1.0, "finite walls converge to the exact reflection amplitudes at rate -1/2")
def test_a10_scattering():
    grid = np.logspace(3, 9, 7)
    for kind, parity in (
        ("delta", "even"), ("delta", "odd"), ("pdp", "even"), ("pdp", "odd"),
    ):
        coupling = 2.0 if kind == "delta" else 0.5
        sweep = convergence_sweep(kind, parity, 1.0, coupling, grid)
        assert abs(sweep.slope + 0.5) <= 0.05, (kind, parity, sweep.slope)
    assert reflection_amp("delta", "odd", 1.7, 2.0) == -1.0 + 0.0j
    assert reflection_amp("pdp", "even", 1.7, 0.5) == 1.0 + 0.0j


@criterion("A11", 1.0, "irreducible dimensions square-sum to the group order for 1..4 particles")
def test_a11_dimension_sum():
    for n, order in ((1, 2), (2, 8), (3, 48), (4, 384)):
        report = dimension_sum_check(n)
        assert report.ok
        assert report.group_order == order
        assert report.sum_of_squares == order


@criterion("A12", 10.0, "A02 at five particles: every relation in the N=5 regular representation")
def test_a12_regular_relations_at_five_particles():
    rep = regular_rep(5)
    report = consistency_report(DELTA, rep, samples=200, seed=0)
    assert report.overall_ok
    for summary in report.operator_relations + report.coefficient_relations:
        assert summary.outcome == "pass", summary.relation
        assert summary.max_residual <= 1e-12, summary.relation
    report = consistency_report(PDP, rep, samples=200, seed=0)
    assert report.overall_ok
    braid = next(s for s in report.operator_relations if s.relation == "braid")
    assert braid.expected == braid.outcome == "fail"


@criterion("A13", 1.0, "N=5 sector tables equal the closed-form product over the C_5 roots")
def test_a13_closed_form_at_five_particles():
    momenta = Momenta((0.45, 1.3, -2.05, 2.9, 3.7))
    for model in (DELTA, PDP):
        for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            table = compute_coefficients(momenta, model, ScalarSector(5, *signs)).table
            oracle = closed_form_table(momenta, model, *signs)
            assert np.max(np.abs(table[:, 0] - oracle)) <= 1e-14, (model.kind, signs)
