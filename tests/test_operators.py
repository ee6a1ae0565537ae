"""Scattering coefficient formulas and representation operators."""

import numpy as np
import pytest

from halfline_bethe import (
    ModelSpec,
    RegularRep,
    ScalarSector,
    pair_coeffs,
    pair_exchange_op,
    regular_rep,
    wall_coeffs,
    wall_reflection_op,
)
from halfline_bethe.operators import (
    apply_chain,
    sector_pair_value,
    sector_wall_value,
)

DELTA = ModelSpec("delta", 1.0, 2.0)
PDP = ModelSpec("pdp", 1.0, 0.5)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("cubic", 1.0, 1.0)
    with pytest.raises(ValueError):
        ModelSpec("delta", 0.0, 1.0)
    with pytest.raises(ValueError):
        ModelSpec("pdp", 1.0, -0.5)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            ModelSpec("delta", bad, 1.0)
        with pytest.raises(ValueError):
            ModelSpec("pdp", 1.0, bad)


UNIT_DELTA = ModelSpec("delta", 1.0, 1.0)
UNIT_PDP = ModelSpec("pdp", 1.0, 1.0)


def test_delta_coefficients_at_unit_arguments():
    pair = pair_coeffs(UNIT_DELTA, 1.0)
    assert pair.a == pytest.approx(-0.5 - 0.5j, abs=1e-15)
    assert pair.b == pytest.approx(0.5 - 0.5j, abs=1e-15)


def test_pdp_coefficients_at_unit_arguments():
    pair = pair_coeffs(UNIT_PDP, 1.0)
    assert pair.a == pytest.approx(0.5 - 0.5j, abs=1e-15)
    assert pair.b == pytest.approx(0.5 + 0.5j, abs=1e-15)


def test_model_dispatch_uses_the_right_coupling():
    # the wall pair is the pair formula at the wall coupling
    for model in (DELTA, PDP):
        swapped = ModelSpec(model.kind, model.wall_coupling, model.pair_coupling)
        assert wall_coeffs(model, 1.7) == pair_coeffs(swapped, 1.7)
        assert pair_coeffs(model, 1.7) == wall_coeffs(swapped, 1.7)
    assert pair_coeffs(DELTA, 1.7) != wall_coeffs(DELTA, 1.7)
    assert pair_coeffs(PDP, 1.7) != wall_coeffs(PDP, 1.7)


def test_coefficients_sum_to_one_at_zero_limit():
    # a + b is the sector value for eps=+1; for delta it tends to -1 as u->0
    pair = pair_coeffs(UNIT_DELTA, 1e-9)
    assert pair.a + pair.b == pytest.approx(-1.0, abs=1e-8)
    pair = pair_coeffs(UNIT_PDP, 1e-9)
    assert pair.a - pair.b == pytest.approx(-1.0, abs=1e-8)


def test_sector_values_match_coefficient_combinations():
    for u in (0.3, 1.1, -2.6):
        pair = pair_coeffs(DELTA, u)
        for eps in (1, -1):
            assert sector_pair_value(DELTA, u, eps) == pytest.approx(
                pair.a + eps * pair.b, abs=1e-15
            )
        pair = wall_coeffs(PDP, u)
        for eps in (1, -1):
            assert sector_wall_value(PDP, u, eps) == pytest.approx(
                pair.a + eps * pair.b, abs=1e-15
            )


def test_sector_values_frozen_example():
    value = sector_pair_value(ModelSpec("delta", 1.3, 2.0), 2.7, 1)
    assert value == pytest.approx(
        0.6236080178173721 - 0.7817371937639198j, abs=1e-15
    )


def test_trivial_sectors_are_exact_signs():
    # fused quotients make these exactly +-1 in floating point, not approximately
    for u in (0.1, 1.0, 3.7, -5.2):
        assert sector_pair_value(DELTA, u, -1) == -1.0 + 0.0j
        assert sector_wall_value(DELTA, u, -1) == -1.0 + 0.0j
        assert sector_pair_value(PDP, u, 1) == 1.0 + 0.0j
        assert sector_wall_value(PDP, u, 1) == 1.0 + 0.0j


def test_sector_operator_is_scalar():
    sector = ScalarSector(2, 1, 1)
    op = pair_exchange_op(DELTA, 1, 0.9, sector)
    v = np.array([2.0 + 0j])
    np.testing.assert_allclose(op.apply(v), sector_pair_value(DELTA, 0.9, 1) * v)


def test_regular_operator_matches_dense_matrix():
    rep = regular_rep(2)
    op = pair_exchange_op(DELTA, 1, 1.3, rep)
    pair = pair_coeffs(DELTA, 1.3)
    table = rep.table("T1")
    dense = np.zeros((rep.dim, rep.dim), dtype=complex)
    for r in range(rep.dim):
        dense[r, r] += pair.a
        dense[r, table[r]] += pair.b
    rng = np.random.default_rng(1)
    v = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    np.testing.assert_allclose(op.apply(v), dense @ v, atol=1e-14)
    basis = np.eye(rep.dim, dtype=complex)
    np.testing.assert_allclose(apply_chain([op], basis), dense, atol=1e-14)


def test_operator_applies_to_stacked_columns():
    rep = regular_rep(2)
    op = wall_reflection_op(PDP, 0.7, rep)
    rng = np.random.default_rng(2)
    block = rng.normal(size=(rep.dim, 3)) + 0j
    stacked = op.apply(block)
    for col in range(3):
        np.testing.assert_allclose(stacked[:, col], op.apply(block[:, col]))


def test_apply_chain_is_rightmost_first():
    rep = regular_rep(2)
    y = pair_exchange_op(DELTA, 1, 0.4, rep)
    z = wall_reflection_op(DELTA, 1.1, rep)
    v = np.zeros(rep.dim, dtype=complex)
    v[0] = 1.0
    np.testing.assert_allclose(apply_chain([y, z], v), y.apply(z.apply(v)))
    basis = np.eye(rep.dim, dtype=complex)
    my = apply_chain([y], basis)
    mz = apply_chain([z], basis)
    np.testing.assert_allclose(apply_chain([y, z], basis), my @ mz, atol=1e-14)


def test_slot_bounds():
    rep = ScalarSector(3, 1, 1)
    with pytest.raises(IndexError):
        pair_exchange_op(DELTA, 0, 1.0, rep)
    with pytest.raises(IndexError):
        pair_exchange_op(DELTA, 3, 1.0, rep)


def test_unknown_representation_type():
    with pytest.raises(TypeError):
        pair_exchange_op(DELTA, 1, 1.0, rep="not a rep")


def test_operator_rejects_wrong_length_vector():
    rep = regular_rep(2)
    op = pair_exchange_op(DELTA, 1, 1.0, rep)
    with pytest.raises(ValueError):
        op.apply(np.zeros(5, dtype=complex))
