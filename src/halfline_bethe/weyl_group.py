"""Signed permutations of N coordinates (the hyperoctahedral group).

An element g is stored as a pair of length-N tuples ``(signs, perm)`` with
``signs[j]`` in {+1, -1} and ``perm`` a permutation of 0..N-1.  Thought of as
a map on signed indices, g sends j to ``signs[j] * perm[j]``.  Every
convention below follows from that reading:

* ``g.apply(x)[j] = signs[j] * x[perm[j]]``,
* ``compose(g, h)`` is the map ``j -> g(h(j))``, so
  ``(g * h).apply(x) == h.apply(g.apply(x))``,
* right multiplication by ``transposition(n, i)`` swaps slots i-1 and i
  (0-based) of ``(signs, perm)``; right multiplication by ``wall_flip(n)``
  negates ``signs[0]``.

The open region where ``0 < y[0] < y[1] < ... < y[N-1]`` for
``y = g.apply(x)`` is the wedge labelled by g.  The wedges tile the set of
points with nonzero, pairwise-distinct coordinate magnitudes, and the two
wedges meeting along the facet ``y[i-1] = y[i]`` carry labels g and
``g * transposition(n, i)``; across the facet ``y[0] = 0`` the neighbour is
``g * wall_flip(n)``.  Generator words are spelled with the letters
"T1".."T{N-1}" (adjacent transpositions) and "R1" (sign flip of the first
slot), all of which are involutions.  WeylGroup.walk_plan holds the
breadth-first walk of the Cayley graph that the coefficient recursion
follows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BoundaryPointError, CapacityError

MAX_PARTICLES = 5

WORD_LETTER_WALL = "R1"


@dataclass(frozen=True)
class SignedPermutation:
    signs: tuple[int, ...]
    perm: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if len(self.signs) != n:
            raise ValueError("signs and perm must have equal length")
        if sorted(self.perm) != list(range(n)):
            raise ValueError(f"perm {self.perm} is not a permutation of 0..{n - 1}")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError(f"signs {self.signs} must be +1 or -1")

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> SignedPermutation:
        return cls((1,) * n, tuple(range(n)))

    @classmethod
    def transposition(cls, n: int, i: int) -> SignedPermutation:
        """Adjacent transposition T_i swapping slots i and i+1 (1-based i)."""
        if not 1 <= i <= n - 1:
            raise IndexError(f"transposition index {i} out of range 1..{n - 1}")
        perm = list(range(n))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        return cls((1,) * n, tuple(perm))

    @classmethod
    def wall_flip(cls, n: int) -> SignedPermutation:
        """The reflection R_1 negating the first slot."""
        if n < 1:
            raise ValueError("need at least one coordinate")
        return cls((-1,) + (1,) * (n - 1), tuple(range(n)))

    def __mul__(self, other: SignedPermutation) -> SignedPermutation:
        """Composition as maps on signed indices: (g * h)(j) = g(h(j))."""
        if self.n != other.n:
            raise ValueError("cannot compose elements of different sizes")
        sg, pg = self.signs, self.perm
        sh, ph = other.signs, other.perm
        return SignedPermutation(
            tuple(sh[j] * sg[ph[j]] for j in range(self.n)),
            tuple(pg[ph[j]] for j in range(self.n)),
        )

    def inverse(self) -> SignedPermutation:
        n = self.n
        signs = [0] * n
        perm = [0] * n
        for j in range(n):
            perm[self.perm[j]] = j
            signs[self.perm[j]] = self.signs[j]
        return SignedPermutation(tuple(signs), tuple(perm))

    def apply(self, x) -> np.ndarray:
        """Map a coordinate vector into this element's wedge frame."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point must have shape ({self.n},)")
        return np.asarray(self.signs, dtype=float) * x[np.asarray(self.perm)]

    def is_identity(self) -> bool:
        return all(s == 1 for s in self.signs) and all(
            p == j for j, p in enumerate(self.perm)
        )


def generator_letters(n: int) -> tuple[str, ...]:
    return tuple(f"T{i}" for i in range(1, n)) + (WORD_LETTER_WALL,)


def letter_element(letter: str, n: int) -> SignedPermutation:
    """Resolve a word letter to its group element; raises IndexError if invalid."""
    if letter == WORD_LETTER_WALL:
        return SignedPermutation.wall_flip(n)
    if letter.startswith("T"):
        try:
            i = int(letter[1:])
        except ValueError:
            raise IndexError(f"unknown generator letter {letter!r}") from None
        return SignedPermutation.transposition(n, i)
    raise IndexError(f"unknown generator letter {letter!r}")


def evaluate_word(word, n: int) -> SignedPermutation:
    """Product of the letters of `word`, left to right."""
    out = SignedPermutation.identity(n)
    for letter in word:
        out = out * letter_element(letter, n)
    return out


def enumerate_group(n: int) -> tuple[SignedPermutation, ...]:
    """All 2^n * n! signed permutations, ordered by (perm, sign pattern).

    The sign pattern orders +1 before -1, so the identity comes first.
    """
    if n < 1:
        raise ValueError("need at least one coordinate")
    if n > MAX_PARTICLES:
        raise CapacityError(f"n={n} exceeds the configured maximum {MAX_PARTICLES}")
    return tuple(
        SignedPermutation(signs, perm)
        for perm in sorted(itertools.permutations(range(n)))
        for signs in itertools.product((1, -1), repeat=n)
    )


class Edges(NamedTuple):
    """Cayley edges src -> dst = elements[src] * letter, in walk order, with
    the root code of the momentum transfer each one carries (WalkPlan)."""

    src: np.ndarray
    dst: np.ndarray
    letter: np.ndarray
    root: np.ndarray


@dataclass(frozen=True)
class WalkPlan:
    """The breadth-first walk over the Cayley graph, which depends only on
    the group.  The walk visits the levels in order, each level's elements
    by index and their letters in generator_letters order; an element's
    tree edge is the first edge that reaches it.

    With c = codes[dst] (WeylGroup.codes) and ks = (k, -k), the edge of
    letter T_i carries u = ks[c[i]] - ks[c[i-1]] and has root code
    c[i] * 2n + c[i-1]; an R1 edge carries u = 2 ks[c[0]] and has root code
    4n^2 + c[0].
    """

    tables: dict[str, np.ndarray]  # right table of each generator letter
    levels: tuple[tuple[Edges, Edges], ...]  # per level: tree edges to the
    # next level, then every other edge leaving the level (the cross-checks)
    checks: Edges  # every level's cross-checks, concatenated in walk order
    words: tuple[tuple[str, ...], ...]  # the tree path to each element


def _rank(codes: np.ndarray) -> np.ndarray:
    """enumerate_group index of each row of slot codes: the Lehmer rank of
    the permutation, then the sign bits with the first slot highest."""
    n = codes.shape[1]
    perms = codes % n
    rank = np.zeros(len(codes), dtype=np.intp)
    for j in range(n):
        for m in range(j + 1, n):
            rank += (perms[:, m] < perms[:, j]) * math.factorial(n - 1 - j)
    for j in range(n):
        rank = 2 * rank + (codes[:, j] >= n)
    return rank


def _walk_plan(group: WeylGroup) -> WalkPlan:
    # Whole-array steps keep the one-time cost near 25 ms at N=5; no numpy
    # sort or unique runs, since the first call of each raises peak memory.
    n, order, codes = group.n, group.order, group.codes
    letters = generator_letters(n)
    neighbours = np.array([group.right_table(letter_element(letter, n)) for letter in letters])
    # one column gather per letter; codes[neighbours] would cost an
    # (n, order, n) temporary
    roots = np.empty_like(neighbours)
    for t in range(n - 1):
        roots[t] = codes[neighbours[t], t + 1] * 2 * n + codes[neighbours[t], t]
    roots[n - 1] = 4 * n * n + codes[neighbours[n - 1], 0]

    depth = np.full(order, -1)
    parent = np.full(order, -1)
    via = np.full(order, -1)
    words: list = [()] * order
    levels = []
    frontier, d = np.zeros(1, dtype=np.intp), 0
    depth[0] = 0
    while frontier.size:
        reached = np.zeros(order, dtype=bool)
        reached[neighbours[:, frontier]] = True
        kids = np.flatnonzero(reached & (depth < 0))
        depth[kids] = d + 1
        # a kid's tree edge is the first in walk order that reaches it: the
        # least frontier index, then the least letter (generators are
        # involutions, so kid * letter is the edge's source)
        back = neighbours[:, kids]
        key = np.where(depth[back] == d, back * n + np.arange(n)[:, None], n * order)
        via[kids] = key.argmin(axis=0)
        parent[kids] = back[via[kids], np.arange(kids.size)]
        for kid, up, letter in zip(kids.tolist(), parent[kids].tolist(), via[kids].tolist()):
            words[kid] = words[up] + (letters[letter],)
        src = np.repeat(frontier, n)
        letter = np.tile(np.arange(n), frontier.size)
        dst = neighbours[letter, src]
        tree = (parent[dst] == src) & (via[dst] == letter)
        edges = (src, dst, letter, roots[letter, src])
        levels.append(tuple(Edges(*(a[m].astype(np.int32) for a in edges))
                            for m in (tree, ~tree)))
        frontier, d = kids, d + 1
    checks = Edges(*(np.concatenate(parts) for parts in zip(*(c for _, c in levels))))
    return WalkPlan(dict(zip(letters, neighbours)), tuple(levels), checks, tuple(words))


class WeylGroup:
    """Enumerated signed-permutation group with index lookup and, built on
    first use, its slot codes (the array form every right-multiplication
    table is computed from) and the walk plan of the coefficient
    recursion."""

    def __init__(self, n: int):
        self.n = n
        self.elements = enumerate_group(n)
        self.order = len(self.elements)
        self._index = {g: i for i, g in enumerate(self.elements)}

    def index_of(self, g: SignedPermutation) -> int:
        return self._index[g]

    @cached_property
    def codes(self) -> np.ndarray:
        """Slot codes, shape (order, n): codes[q, j] is perm[j] of
        elements[q], plus n where its sign is -1, so that with ks = (k, -k)
        elements[q].apply(k) == ks[codes[q]]."""
        signs = np.array([g.signs for g in self.elements])
        perms = np.array([g.perm for g in self.elements], dtype=np.intp)
        return np.where(signs < 0, perms + self.n, perms)

    def right_table(self, g: SignedPermutation) -> np.ndarray:
        """Index table t with t[i] = index of elements[i] * g.

        Composing a coefficient vector with this table applies the regular
        action of g without building a dense matrix.  Slot j of
        elements[i] * g is slot g.perm[j] of elements[i], negated where
        g.signs[j] is -1, and negating a signed momentum moves its code by n.
        """
        moved = self.codes[:, list(g.perm)]
        return _rank(np.where(np.less(g.signs, 0), (moved + self.n) % (2 * self.n), moved))

    @cached_property
    def walk_plan(self) -> WalkPlan:
        return _walk_plan(self)

    def letter_table(self, letter: str) -> np.ndarray:
        """right_table of a generator letter, read from the walk plan, so the
        process-wide weyl_group(n) serves every representation built on it."""
        try:
            return self.walk_plan.tables[letter]
        except KeyError:
            raise IndexError(f"unknown generator letter {letter!r}") from None


@lru_cache(maxsize=None)
def weyl_group(n: int) -> WeylGroup:
    return WeylGroup(n)


def classify_wedge(x) -> SignedPermutation:
    """Label of the open wedge containing x.

    Requires all coordinates nonzero with pairwise-distinct magnitudes;
    points on a facet have no unique label and raise BoundaryPointError.
    """
    x = np.asarray(x, dtype=float)
    mags = np.abs(x)
    if np.any(x == 0.0):
        raise BoundaryPointError("a coordinate is exactly zero")
    order = np.argsort(mags, kind="stable")
    sorted_mags = mags[order]
    if np.any(np.diff(sorted_mags) == 0.0):
        raise BoundaryPointError("two coordinates have equal magnitude")
    perm = tuple(int(j) for j in order)
    signs = tuple(1 if x[j] > 0 else -1 for j in perm)
    return SignedPermutation(signs, perm)
