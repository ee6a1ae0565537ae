"""Representations of the signed-permutation group.

Two kinds are used by the coefficient recursion: the right regular
representation (dimension 2^N N!, applied through index tables, never as a
dense matrix) and the four one-dimensional sectors labelled by a sign
eps_t on transpositions and a sign eps_r on coordinate reflections.

The module also carries the finite bookkeeping that classifies all
irreducible representations: characters of the abelian reflection subgroup,
their stabilizers under the permutation action, and the dimensions of the
representations induced from each (character, Young-diagram pair), which
must sum in squares to the group order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .weyl_group import SignedPermutation, WeylGroup, weyl_group

# the inventory only counts partitions, so it runs past the group's limit
MAX_INVENTORY_PARTICLES = 6


def perm_parity(perm) -> int:
    """Inversion-count parity: 0 for even permutations, 1 for odd."""
    perm = tuple(perm)
    inv = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return inv % 2


def one_dim_rep(eps_t: int, eps_r: int, g: SignedPermutation) -> int:
    """Value of the one-dimensional sector (eps_t, eps_r) on g.

    Any word for g uses a number of transposition letters with the parity of
    g.perm and a number of "R1" letters with the parity of g's negative
    signs, so the value depends only on g, not on the word.
    """
    if eps_t not in (-1, 1) or eps_r not in (-1, 1):
        raise ValueError("sector signs must be +1 or -1")
    value = eps_t if perm_parity(g.perm) else 1
    if sum(1 for s in g.signs if s < 0) % 2:
        value *= eps_r
    return value


@dataclass(frozen=True)
class ScalarSector:
    """One-dimensional representation handle."""

    n_particles: int
    eps_t: int
    eps_r: int

    def __post_init__(self):
        if self.eps_t not in (-1, 1) or self.eps_r not in (-1, 1):
            raise ValueError("sector signs must be +1 or -1")
        if self.n_particles < 1:
            raise ValueError("need at least one particle")

    @property
    def dim(self) -> int:
        return 1

    def value(self, g: SignedPermutation) -> int:
        return one_dim_rep(self.eps_t, self.eps_r, g)

    @property
    def label(self) -> str:
        return ("+" if self.eps_t == 1 else "-") + ("+" if self.eps_r == 1 else "-")


class RegularRep:
    """Right regular representation handle over an enumerated group."""

    def __init__(self, group: WeylGroup):
        self.group = group

    @property
    def n_particles(self) -> int:
        return self.group.n

    @property
    def dim(self) -> int:
        return self.group.order

    def table(self, letter: str) -> np.ndarray:
        return self.group.letter_table(letter)

    @property
    def label(self) -> str:
        return "regular"


def regular_rep(n: int) -> RegularRep:
    return RegularRep(weyl_group(n))


# ---------------------------------------------------------------------------
# Irreducible-representation bookkeeping.

@dataclass(frozen=True)
class Character:
    """Character of the reflection subgroup sending the first `flips`
    coordinate reflections to -1 and the rest to +1."""

    n: int
    flips: int

    def __post_init__(self):
        if not 0 <= self.flips <= self.n:
            raise ValueError("flips must lie in 0..n")

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(-1 if j < self.flips else 1 for j in range(self.n))


def orbit_representatives(n: int) -> tuple[Character, ...]:
    """One character per orbit of the permutation action on reflection
    characters.  Permutations reshuffle which coordinates map to -1, so the
    count of -1 values is a complete orbit invariant."""
    reps = tuple(Character(n, k) for k in range(n + 1))
    counts = [sum(1 for v in c.values if v < 0) for c in reps]
    assert len(set(counts)) == n + 1
    return reps


def stabilizer_order(n: int, i: int) -> int:
    """Order of the permutations fixing a character with i sign flips."""
    if not 0 <= i <= n:
        raise ValueError("i must lie in 0..n")
    return math.factorial(i) * math.factorial(n - i)


def partitions(n: int):
    """Partitions of n as nonincreasing tuples (the empty tuple for n=0)."""

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    if n < 0:
        raise ValueError("n must be nonnegative")
    yield from gen(n, n)


def _is_partition(shape, total) -> bool:
    shape = tuple(shape)
    if any(part < 1 for part in shape):
        return False
    if list(shape) != sorted(shape, reverse=True):
        return False
    return sum(shape) == total


def standard_tableau_count(shape) -> int:
    """Number of standard Young tableaux of the given shape (hook lengths)."""
    shape = tuple(shape)
    if not shape:
        return 1
    cols = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hook_product = 1
    for r, row in enumerate(shape):
        for c in range(row):
            hook_product *= (row - c) + (cols[c] - r) - 1
    return math.factorial(sum(shape)) // hook_product


@dataclass(frozen=True)
class IrrepDescriptor:
    flips: int
    upper: tuple[int, ...]
    lower: tuple[int, ...]
    dimension: int


def induced_dimension(n: int, i: int, upper, lower) -> int:
    """Dimension of the representation induced from the character with i
    flips paired with Young diagrams `upper` (of i) and `lower` (of n-i)."""
    if not 0 <= i <= n:
        raise ValueError("i must lie in 0..n")
    if not _is_partition(upper, i):
        raise ValueError(f"{tuple(upper)} is not a partition of {i}")
    if not _is_partition(lower, n - i):
        raise ValueError(f"{tuple(lower)} is not a partition of {n - i}")
    return (
        math.comb(n, i)
        * standard_tableau_count(upper)
        * standard_tableau_count(lower)
    )


def irrep_inventory(n: int) -> list[IrrepDescriptor]:
    out = []
    for i in range(n + 1):
        for upper in partitions(i):
            for lower in partitions(n - i):
                out.append(
                    IrrepDescriptor(i, upper, lower, induced_dimension(n, i, upper, lower))
                )
    return out


@dataclass(frozen=True)
class DimensionSumReport:
    n: int
    group_order: int
    sum_of_squares: int
    irreps: tuple[IrrepDescriptor, ...]

    @property
    def ok(self) -> bool:
        return self.sum_of_squares == self.group_order


def dimension_sum_check(n: int) -> DimensionSumReport:
    """Verify that the squared induced dimensions sum to 2^n n!."""
    if not 1 <= n <= MAX_INVENTORY_PARTICLES:
        raise InputError(f"n={n} must lie in 1..{MAX_INVENTORY_PARTICLES}")
    inventory = irrep_inventory(n)
    total = sum(d.dimension**2 for d in inventory)
    return DimensionSumReport(
        n, 2**n * math.factorial(n), total, tuple(inventory)
    )
