"""Group structure, word handling, and wedge classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfline_bethe import (
    BoundaryPointError,
    CapacityError,
    SignedPermutation,
    WeylGroup,
    classify_wedge,
    enumerate_group,
    evaluate_word,
    weyl_group,
)
from halfline_bethe.weyl_group import _rank, generator_letters, letter_element


def test_identity():
    e = SignedPermutation.identity(3)
    assert e.signs == (1, 1, 1)
    assert e.perm == (0, 1, 2)
    assert e.is_identity()
    np.testing.assert_array_equal(e.apply([4.0, 5.0, 6.0]), [4.0, 5.0, 6.0])


def test_generators_act_as_documented():
    t1 = SignedPermutation.transposition(3, 1)
    r1 = SignedPermutation.wall_flip(3)
    x = np.array([2.0, 3.0, 5.0])
    np.testing.assert_array_equal(t1.apply(x), [3.0, 2.0, 5.0])
    np.testing.assert_array_equal(r1.apply(x), [-2.0, 3.0, 5.0])


def test_apply_matches_componentwise_definition():
    g = SignedPermutation((1, -1, 1), (2, 0, 1))
    x = np.array([1.5, -2.5, 4.0])
    out = g.apply(x)
    for j in range(3):
        assert out[j] == g.signs[j] * x[g.perm[j]]


def test_composition_is_apply_after_apply():
    # apply(g*h, x) must equal apply(h, apply(g, x)) for every pair
    x = np.array([1.0, 2.0, -3.0])
    elements = enumerate_group(2)
    y = np.array([1.0, 2.0])
    for g in elements:
        for h in elements:
            np.testing.assert_array_equal((g * h).apply(y), h.apply(g.apply(y)))
    rng = np.random.default_rng(5)
    big = enumerate_group(3)
    for _ in range(100):
        g = big[rng.integers(len(big))]
        h = big[rng.integers(len(big))]
        np.testing.assert_array_equal((g * h).apply(x), h.apply(g.apply(x)))


def test_inverse():
    for g in enumerate_group(2):
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_group_order(n):
    assert len(enumerate_group(n)) == 2**n * math.factorial(n)


def test_defining_relations():
    n = 3
    e = SignedPermutation.identity(n)
    t = [letter_element(f"T{i}", n) for i in (1, 2)]
    r = letter_element("R1", n)
    assert t[0] * t[0] == e
    assert r * r == e
    assert t[0] * t[1] * t[0] == t[1] * t[0] * t[1]
    assert r * t[1] == t[1] * r
    assert r * t[0] * r * t[0] == t[0] * r * t[0] * r


def test_enumeration_identity_first_and_distinct():
    for n in (1, 2, 3):
        elements = enumerate_group(n)
        assert elements[0].is_identity()
        assert len(set(elements)) == len(elements)


def test_index_roundtrip():
    group = weyl_group(3)
    for i, g in enumerate(group.elements):
        assert group.index_of(g) == i


def product_table(group, g):
    """Reference right table from object products: index of q * g per q."""
    return np.array([group.index_of(q * g) for q in group.elements])


def test_right_table_matches_products():
    # every g up to N=3 and 20 seeded g beyond; the letters are checked in
    # test_walk_plan_neighbours_are_the_letter_right_tables
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 4, 5):
        group = weyl_group(n)
        picks = range(group.order) if n <= 3 else rng.integers(0, group.order, 20)
        for i in picks:
            g = group.elements[i]
            np.testing.assert_array_equal(group.right_table(g), product_table(group, g))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_walk_plan_words_are_shortest_words(n):
    # each word spells its element and is as long as the element's
    # breadth-first distance from the identity in the Cayley graph
    group = weyl_group(n)
    letters = [letter_element(letter, n) for letter in generator_letters(n)]
    identity = group.elements[0]
    depth, frontier, d = {identity: 0}, [identity], 0
    while frontier:
        d += 1
        reached = dict.fromkeys(g * t for g in frontier for t in letters)
        frontier = [g for g in reached if g not in depth]
        depth.update(dict.fromkeys(frontier, d))
    words = group.walk_plan.words
    for q, g in enumerate(group.elements):
        assert set(words[q]) <= set(generator_letters(n))
        assert evaluate_word(words[q], n) == g
        assert len(words[q]) == depth[g]


def test_letter_element_rejects_bad_letters():
    with pytest.raises(IndexError):
        letter_element("T0", 3)
    with pytest.raises(IndexError):
        letter_element("T3", 3)
    with pytest.raises(IndexError):
        letter_element("R2", 3)


def test_capacity_limit():
    with pytest.raises(CapacityError):
        enumerate_group(6)
    with pytest.raises(CapacityError):
        weyl_group(7)


def test_classify_wedge_normalizes_point():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.uniform(-4, 4, size=3)
        if np.min(np.abs(x)) < 1e-3:
            continue
        q = classify_wedge(x)
        frame = q.apply(x)
        assert np.all(frame > 0)
        assert np.all(np.diff(frame) > 0)


def test_classify_wedge_identity_region():
    q = classify_wedge([0.5, 1.0, 2.0])
    assert q.is_identity()


def test_classify_wedge_rejects_boundary_points():
    with pytest.raises(BoundaryPointError):
        classify_wedge([0.0, 1.0])
    with pytest.raises(BoundaryPointError):
        classify_wedge([1.0, -1.0])


def test_validation_rejects_malformed_elements():
    with pytest.raises(ValueError):
        SignedPermutation((1, 1), (0, 0))
    with pytest.raises(ValueError):
        SignedPermutation((1, 2), (0, 1))
    with pytest.raises(ValueError):
        SignedPermutation((1,), (0, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_walk_plan_neighbours_are_the_letter_right_tables(n):
    group = weyl_group(n)
    plan = group.walk_plan
    assert list(plan.tables) == list(generator_letters(n))
    for letter, column in plan.tables.items():
        np.testing.assert_array_equal(column, product_table(group, letter_element(letter, n)))
        assert group.letter_table(letter) is column
    np.testing.assert_array_equal(group.codes % n, [g.perm for g in group.elements])
    np.testing.assert_array_equal(group.codes >= n, [np.less(g.signs, 0) for g in group.elements])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_codes_rank_to_their_own_indices(n):
    group = weyl_group(n)
    np.testing.assert_array_equal(_rank(group.codes), np.arange(group.order))


@pytest.mark.parametrize("n", [4, 5])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_right_tables_compose_as_the_group(n, data):
    # v[rt(g)][rt(h)] == v[rt(h * g)]: the right action is a homomorphism
    group = weyl_group(n)
    g, h = (group.elements[data.draw(st.integers(0, group.order - 1))] for _ in range(2))
    v = np.arange(group.order)
    np.testing.assert_array_equal(v[group.right_table(g)][group.right_table(h)],
                                  v[group.right_table(h * g)])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_walk_plan_follows_the_breadth_first_walk(n):
    # reference: visit the frontier by index, letters in generator order,
    # and keep the first word that reaches each element
    group = weyl_group(n)
    letters = generator_letters(n)
    words = {0: ()}
    frontier, tree, checks = [0], [], []
    while frontier:
        level_tree, level_checks, next_frontier = [], [], []
        for src in sorted(frontier):
            for j, letter in enumerate(letters):
                dst = group.index_of(group.elements[src] * letter_element(letter, n))
                if dst in words:
                    level_checks.append((src, dst, j))
                else:
                    words[dst] = words[src] + (letter,)
                    level_tree.append((src, dst, j))
                    next_frontier.append(dst)
        tree.append(level_tree)
        checks.append(level_checks)
        frontier = next_frontier
    plan = group.walk_plan
    assert plan.words == tuple(words[i] for i in range(group.order))
    assert len(plan.levels) == len(tree)
    for (got_tree, got_checks), want_tree, want_checks in zip(plan.levels, tree, checks):
        for got, want in ((got_tree, want_tree), (got_checks, want_checks)):
            assert list(zip(got.src.tolist(), got.dst.tolist(), got.letter.tolist())) == want
    # the cross-checks of every level, in walk order, as one array each
    every = plan.checks
    assert list(zip(every.src.tolist(), every.dst.tolist(), every.letter.tolist())) == [
        edge for level in checks for edge in level]
    np.testing.assert_array_equal(every.root, np.concatenate([c.root for _, c in plan.levels]))


def test_walk_plan_is_built_on_first_use():
    group = WeylGroup(3)
    assert "walk_plan" not in vars(group)
    group.letter_table("T1")
    assert "walk_plan" in vars(group)
    with pytest.raises(IndexError):
        group.letter_table("T3")
