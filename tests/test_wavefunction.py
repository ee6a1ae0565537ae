"""Coefficient recursion, path independence, and pointwise evaluation."""

import numpy as np
import pytest

from closed_form import closed_form_table
from halfline_bethe import (
    DegenerateMomentaError,
    InconsistencyError,
    InputError,
    ModelSpec,
    Momenta,
    ScalarSector,
    SignedPermutation,
    classify_wedge,
    compute_coefficients,
    evaluate_psi,
    regular_rep,
    weyl_group,
    word_independence_test,
)
from halfline_bethe.wavefunction import coefficient_along_word

DELTA = ModelSpec("delta", 1.0, 2.0)
PDP = ModelSpec("pdp", 1.0, 0.5)
K3 = Momenta((0.7, 1.9, 3.2))
K2 = Momenta((1.1, 2.3))
K4 = Momenta((0.6, -1.45, 2.2, 3.05))
K5 = Momenta((0.45, 1.3, -2.05, 2.9, 3.7))
MOMENTA = {2: K2, 3: K3, 4: K4, 5: K5}
SECTORS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def test_momenta_validation():
    with pytest.raises(DegenerateMomentaError):
        Momenta((0.0, 1.0))
    with pytest.raises(DegenerateMomentaError):
        Momenta((1.0, -1.0))  # magnitudes collide
    with pytest.raises(DegenerateMomentaError):
        Momenta((2.0, 2.0 + 1e-14))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            Momenta((1.0, bad))
    assert Momenta((1.0, 2.0)).energy == pytest.approx(5.0)


def test_identity_row_is_the_initial_vector():
    coeffs = compute_coefficients(K2, DELTA, ScalarSector(2, 1, 1))
    e = SignedPermutation.identity(2)
    np.testing.assert_array_equal(coeffs.coefficient(e), [1.0 + 0j])
    assert coeffs.words[coeffs.group.index_of(e)] == ()


def test_table_matches_word_evaluation_exhaustively():
    # each row is the product along its construction word, bit for bit:
    # the walk multiplies the same factors in the same order
    cases = [(model, ScalarSector(n, *signs))
             for model in (DELTA, PDP) for n in (2, 3, 4) for signs in SECTORS]
    cases.append((DELTA, regular_rep(3)))  # the pdp regular build is inconsistent
    for model, rep in cases:
        momenta = MOMENTA[rep.n_particles]
        coeffs = compute_coefficients(momenta, model, rep)
        for idx in range(coeffs.group.order):
            direct = coefficient_along_word(momenta, model, rep, coeffs.words[idx])
            np.testing.assert_array_equal(coeffs.table[idx], direct)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sector_tables_equal_the_closed_form_product(n):
    for model in (DELTA, PDP, ModelSpec("delta", 0.3, 1.7), ModelSpec("pdp", 2.5, 0.4)):
        for signs in SECTORS:
            table = compute_coefficients(MOMENTA[n], model, ScalarSector(n, *signs)).table
            oracle = closed_form_table(MOMENTA[n], model, *signs)
            np.testing.assert_allclose(table[:, 0], oracle, rtol=0, atol=1e-14)


def test_non_finite_initial_vector_is_rejected():
    initial = np.zeros(8, dtype=complex)
    initial[0] = 1.0
    initial[3] = np.nan
    with pytest.raises(InputError):
        compute_coefficients(K2, DELTA, regular_rep(2), initial=initial)
    for bad in (np.nan, np.inf, complex(1.0, -np.inf)):
        with pytest.raises(InputError):
            compute_coefficients(K2, DELTA, ScalarSector(2, 1, 1), initial=[bad])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_crosscheck_residual_fails_the_build():
    # k_b + k_a overflows to inf, its factor is NaN and so is every
    # cross-check through it; at 1e-12 a NaN residual is not a pass
    huge = Momenta((1e308, 1.5e308))
    for rep in (ScalarSector(2, 1, 1), regular_rep(2)):
        with pytest.raises(InconsistencyError) as info:
            compute_coefficients(huge, DELTA, rep)
        assert np.isnan(info.value.residual)


def test_delta_regular_crosschecks_are_tiny():
    coeffs = compute_coefficients(K3, DELTA, regular_rep(3))
    assert coeffs.max_crosscheck < 1e-13
    assert coeffs.table.shape == (48, 48)


def test_pdp_regular_raises_with_braid_witness():
    with pytest.raises(InconsistencyError) as info:
        compute_coefficients(K3, PDP, regular_rep(3))
    err = info.value
    assert err.element == SignedPermutation((1, 1, 1), (2, 1, 0))
    assert set([tuple(err.existing_word), tuple(err.new_word)]) == {
        ("T1", "T2", "T1"),
        ("T2", "T1", "T2"),
    }
    assert err.residual > 0.1


def test_pdp_scalar_sectors_build_cleanly():
    for eps_t in (1, -1):
        for eps_r in (1, -1):
            coeffs = compute_coefficients(K3, PDP, ScalarSector(3, eps_t, eps_r))
            assert coeffs.max_crosscheck < 1e-13


def test_word_independence_delta_regular():
    worst = word_independence_test(K3, DELTA, regular_rep(3), trials=30, seed=1)
    assert worst < 1e-12


def test_word_independence_pdp_sector():
    worst = word_independence_test(K3, PDP, ScalarSector(3, -1, -1), trials=30, seed=1)
    assert worst < 1e-12


def test_single_particle_amplitude_closed_form():
    # one particle: the only nontrivial coefficient is the wall amplitude;
    # the outgoing-over-incoming ratio is identity over flip because the
    # flipped row carries momentum -k
    k, c2 = 1.3, 2.0
    coeffs = compute_coefficients(Momenta((k,)), ModelSpec("delta", 1.0, c2),
                                  ScalarSector(1, 1, 1))
    flip = SignedPermutation.wall_flip(1)
    ratio = complex(coeffs.coefficient(SignedPermutation.identity(1))[0]
                    / coeffs.coefficient(flip)[0])
    assert ratio == pytest.approx(0.25650557620817854 - 0.9665427509293681j, abs=1e-15)

    lam2 = 0.7
    coeffs = compute_coefficients(Momenta((k,)), ModelSpec("pdp", 1.0, lam2),
                                  ScalarSector(1, -1, -1))
    ratio = complex(1.0 / coeffs.coefficient(flip)[0])
    assert ratio == pytest.approx(0.5362211297653279 - 0.8440775438271034j, abs=1e-15)


def test_single_particle_pointwise_values():
    k, c2 = 1.3, 2.0
    coeffs = compute_coefficients(Momenta((k,)), ModelSpec("delta", 1.0, c2),
                                  ScalarSector(1, 1, 1))
    amp = 0.25650557620817854 + 0.9665427509293681j  # flip-row coefficient
    for x in (0.4, 1.0, 2.9):
        sample = evaluate_psi(coeffs, [x])
        expected = np.exp(1j * k * x) + amp * np.exp(-1j * k * x)
        assert sample.value == pytest.approx(expected, abs=1e-14)
        expected_grad = 1j * k * (np.exp(1j * k * x) - amp * np.exp(-1j * k * x))
        assert sample.gradient[0] == pytest.approx(expected_grad, abs=1e-14)


def test_gradient_matches_finite_differences():
    coeffs = compute_coefficients(K3, DELTA, ScalarSector(3, 1, 1))
    x = np.array([0.9, 2.1, 3.8])
    sample = evaluate_psi(coeffs, x)
    h = 1e-6
    for m in range(3):
        step = np.zeros(3)
        step[m] = h
        up = evaluate_psi(coeffs, x + step).value
        down = evaluate_psi(coeffs, x - step).value
        fd = (up - down) / (2 * h)
        assert sample.gradient[m] == pytest.approx(fd, rel=1e-6)


def test_explicit_wedge_matches_classification():
    coeffs = compute_coefficients(K3, DELTA, regular_rep(3))
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.uniform(0.2, 4.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        wedge = classify_wedge(x)
        auto = evaluate_psi(coeffs, x)
        forced = evaluate_psi(coeffs, x, wedge=wedge)
        assert auto.value == forced.value
        assert auto.wedge == wedge


def test_scalar_sector_symmetry_under_swap_and_flip():
    for eps_t, eps_r in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        coeffs = compute_coefficients(K3, DELTA, ScalarSector(3, eps_t, eps_r))
        x = np.array([0.8, 1.7, 3.1])
        base = evaluate_psi(coeffs, x).value
        swapped = evaluate_psi(coeffs, x[[1, 0, 2]]).value
        assert swapped == pytest.approx(eps_t * base, abs=1e-13)
        flipped = evaluate_psi(coeffs, x * np.array([-1.0, 1.0, 1.0])).value
        assert flipped == pytest.approx(eps_r * base, abs=1e-13)


def test_energy_is_eigenvalue_scale():
    assert K3.energy == pytest.approx(0.7**2 + 1.9**2 + 3.2**2)


def test_regular_initial_vector_shape_is_checked():
    with pytest.raises(ValueError):
        compute_coefficients(K2, DELTA, regular_rep(2), initial=np.ones(3))


def test_rep_and_momenta_sizes_must_agree():
    with pytest.raises(ValueError):
        compute_coefficients(K2, DELTA, ScalarSector(3, 1, 1))


def test_custom_initial_vector_scales_sector_table():
    base = compute_coefficients(K2, DELTA, ScalarSector(2, 1, 1))
    scaled = compute_coefficients(K2, DELTA, ScalarSector(2, 1, 1),
                                  initial=np.array([2.0 - 1.0j]))
    np.testing.assert_allclose(scaled.table, (2.0 - 1.0j) * base.table, atol=1e-14)


def test_evaluate_rejects_wrong_dimension():
    coeffs = compute_coefficients(K2, DELTA, ScalarSector(2, 1, 1))
    with pytest.raises(ValueError):
        evaluate_psi(coeffs, [1.0, 2.0, 3.0])


def test_wedge_data_regular_uses_group_column():
    coeffs = compute_coefficients(K2, DELTA, regular_rep(2))
    group = weyl_group(2)
    wedge = group.elements[3]
    carried, column = coeffs.wedge_data(wedge)
    assert carried.shape == (8, 2)
    assert column.shape == (8,)
    # carried momenta are the group orbit of k: every row is a signed permutation of k
    mags = np.sort(np.abs(carried), axis=1)
    np.testing.assert_allclose(mags, np.tile(np.sort(np.abs(K2.array)), (8, 1)))


def test_wedge_data_is_the_composed_orbit_bit_for_bit():
    coeffs = compute_coefficients(K4, PDP, ScalarSector(4, -1, 1))
    k = K4.array
    for wedge in coeffs.group.elements[::37]:
        carried, column = coeffs.wedge_data(wedge)
        winv = wedge.inverse()
        expected = np.array([(p * winv).apply(k) for p in coeffs.group.elements])
        np.testing.assert_array_equal(carried, expected)
        assert carried.flags.c_contiguous
        np.testing.assert_array_equal(column, coeffs.table[:, 0] * coeffs.rep.value(wedge))
