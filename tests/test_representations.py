import math
from itertools import permutations

import numpy as np
import pytest

from halfline_bethe import (
    Character,
    ScalarSector,
    SignedPermutation,
    dimension_sum_check,
    enumerate_group,
    induced_dimension,
    one_dim_rep,
    orbit_representatives,
    regular_rep,
    stabilizer_order,
    weyl_group,
)
from halfline_bethe.representations import (
    irrep_inventory,
    partitions,
    perm_parity,
    standard_tableau_count,
)
from halfline_bethe.weyl_group import letter_element


def test_perm_parity_matches_inversion_count():
    for perm in permutations(range(4)):
        inversions = sum(
            1 for a in range(4) for b in range(a + 1, 4) if perm[a] > perm[b]
        )
        assert perm_parity(perm) == inversions % 2


@pytest.mark.parametrize("eps_t,eps_r", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_one_dim_rep_is_multiplicative(eps_t, eps_r):
    # well-definedness: the sign character must respect every product
    elements = enumerate_group(3)
    for g in elements:
        for h in elements:
            assert one_dim_rep(eps_t, eps_r, g * h) == one_dim_rep(
                eps_t, eps_r, g
            ) * one_dim_rep(eps_t, eps_r, h)


def test_one_dim_rep_on_generators():
    t1 = SignedPermutation.transposition(2, 1)
    r1 = SignedPermutation.wall_flip(2)
    assert one_dim_rep(-1, 1, t1) == -1
    assert one_dim_rep(-1, 1, r1) == 1
    assert one_dim_rep(1, -1, t1) == 1
    assert one_dim_rep(1, -1, r1) == -1


def test_scalar_sector_basics():
    sector = ScalarSector(3, -1, -1)
    assert sector.dim == 1
    assert sector.label == "--"
    g = SignedPermutation((-1, 1, -1), (1, 0, 2))
    assert sector.value(g) == one_dim_rep(-1, -1, g)


def test_regular_rep_dimensions():
    rep = regular_rep(3)
    assert rep.dim == 48
    assert rep.n_particles == 3
    assert rep.label == "regular"


def test_regular_rep_table_is_permutation():
    rep = regular_rep(2)
    for letter in ("T1", "R1"):
        table = rep.table(letter)
        assert sorted(table) == list(range(rep.dim))


def test_regular_rep_tables_are_resolved_once_per_group():
    # a fresh RegularRep over the process-wide group reuses its letter tables
    group = weyl_group(3)
    for letter in ("T1", "T2", "R1"):
        table = regular_rep(3).table(letter)
        assert table is regular_rep(3).table(letter)
        np.testing.assert_array_equal(table, group.right_table(letter_element(letter, 3)))


def test_regular_action_on_basis_vectors():
    # acting by g sends the basis vector at h to the one at h * g^{-1}
    group = weyl_group(2)
    for g in group.elements:
        for h in group.elements:
            v = np.zeros(group.order)
            v[group.index_of(h)] = 1.0
            out = v[group.right_table(g)]
            expected = np.zeros(group.order)
            expected[group.index_of(h * g.inverse())] = 1.0
            np.testing.assert_array_equal(out, expected)


def test_regular_action_composition():
    group = weyl_group(2)
    rng = np.random.default_rng(0)
    v = rng.normal(size=group.order)
    for g in group.elements:
        for h in group.elements:
            lhs = v[group.right_table(g)][group.right_table(h)]
            rhs = v[group.right_table(h * g)]
            np.testing.assert_array_equal(lhs, rhs)


def test_character_values():
    chi = Character(4, 2)
    assert chi.values == (-1, -1, 1, 1)


def test_orbit_representatives_cover_all_flip_counts():
    reps = orbit_representatives(3)
    assert [c.flips for c in reps] == [0, 1, 2, 3]
    # orbit size times stabilizer order recovers the permutation count
    for c in reps:
        orbit = math.comb(3, c.flips)
        assert orbit * stabilizer_order(3, c.flips) == math.factorial(3)


def test_partitions_of_four():
    got = sorted(tuple(p) for p in partitions(4))
    assert got == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]


def _brute_force_tableaux(shape):
    # count standard fillings directly by placing 1..n in row/column order
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]
    n = len(cells)

    def count(filled):
        if len(filled) == n:
            return 1
        total = 0
        for r, c in cells:
            if (r, c) in filled:
                continue
            if (r > 0 and (r - 1, c) not in filled) or (c > 0 and (r, c - 1) not in filled):
                continue
            total += count(filled | {(r, c)})
        return total

    return count(frozenset())


@pytest.mark.parametrize(
    "shape",
    [(1,), (3,), (1, 1, 1), (2, 1), (3, 2), (2, 2, 1), (3, 1, 1), (4, 2)],
)
def test_standard_tableau_count_against_brute_force(shape):
    assert standard_tableau_count(shape) == _brute_force_tableaux(shape)


def test_standard_tableau_classics():
    assert standard_tableau_count((2, 1)) == 2
    assert standard_tableau_count((3, 2)) == 5
    assert standard_tableau_count((2, 2, 1)) == 5
    assert standard_tableau_count((5,)) == 1
    assert standard_tableau_count((1, 1, 1, 1, 1)) == 1


def test_induced_dimension_three_particles():
    assert induced_dimension(3, 0, (), (3,)) == 1
    assert induced_dimension(3, 0, (), (2, 1)) == 2
    assert induced_dimension(3, 1, (1,), (2,)) == 3
    assert induced_dimension(3, 2, (1, 1), (1,)) == 3
    assert induced_dimension(3, 3, (2, 1), ()) == 2


def test_induced_dimension_rejects_bad_shapes():
    with pytest.raises(ValueError):
        induced_dimension(3, 1, (2,), (2,))  # sizes do not match the split
    with pytest.raises(ValueError):
        induced_dimension(3, 1, (1,), (1, 2))  # not weakly decreasing


def test_irrep_inventory_two_particles():
    dims = sorted(d.dimension for d in irrep_inventory(2))
    assert dims == [1, 1, 1, 1, 2]
    assert sum(d * d for d in dims) == 8


@pytest.mark.parametrize("n,order", [(1, 2), (2, 8), (3, 48), (4, 384)])
def test_dimension_sum_rule(n, order):
    report = dimension_sum_check(n)
    assert report.ok
    assert report.group_order == order
    assert report.sum_of_squares == order
