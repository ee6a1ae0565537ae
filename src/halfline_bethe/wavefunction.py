"""Plane-wave superpositions indexed by the signed-permutation group.

Given generic momenta k and a coefficient A_P per group element P, the
eigenfunction candidate restricted to the wedge labelled Q is

    psi(x) = sum_P  A_P(Q) * exp(i <k_P, x_Q>),

where k_P = P.apply(k), x_Q = Q.apply(x), and in a one-dimensional sector
A_P(Q) means sector_value(Q) * A_P.  The coefficients are fixed (up to the
choice of A_I) by one recursion per generator,

    A_{P T_i} = Y_i(u) A_P   with  u = k at slot i+1 minus slot i of P T_i,
    A_{P R_1} = Z(2 * first slot of k under P R_1) A_P,

walked breadth-first over the group's Cayley graph.  Whenever the walk
revisits an element, the new value is compared with the stored one; any
disagreement beyond tolerance means the operator family is inconsistent
and raises InconsistencyError with the two generator words as witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMomentaError, InconsistencyError, InputError
from .operators import ModelSpec, pair_exchange_op, wall_reflection_op
from .representations import RegularRep, ScalarSector
from .weyl_group import (
    SignedPermutation,
    WeylGroup,
    classify_wedge,
    evaluate_word,
    letter_element,
    weyl_group,
    word_for,
)

MOMENTUM_SEPARATION = 1e-12
CROSSCHECK_TOL = 1e-12


@dataclass(frozen=True)
class Momenta:
    """Strictly generic momenta: nonzero with pairwise-distinct magnitudes."""

    values: tuple[float, ...]

    def __post_init__(self):
        k = np.asarray(self.values, dtype=float)
        if k.ndim != 1 or k.size < 1 or not np.all(np.isfinite(k)):
            raise InputError(f"momenta must be finite, nonempty and 1-d: {self.values}")
        mags = np.sort(np.abs(k))
        if mags[0] <= MOMENTUM_SEPARATION:
            raise DegenerateMomentaError(f"momentum too close to zero: {self.values}")
        if mags.size > 1 and np.min(np.diff(mags)) <= MOMENTUM_SEPARATION:
            raise DegenerateMomentaError(
                f"momentum magnitudes not separated: {self.values}"
            )
        object.__setattr__(self, "values", tuple(float(v) for v in k))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @property
    def energy(self) -> float:
        return float(np.sum(self.array**2))


def _step_operator(model, rep, k, new_element, letter):
    """Operator carrying A over the Cayley edge ending at new_element."""
    kp = new_element.apply(k)
    if letter == "R1":
        return wall_reflection_op(model, 2.0 * kp[0], rep)
    i = int(letter[1:])
    return pair_exchange_op(model, i, kp[i] - kp[i - 1], rep)


@dataclass
class BetheCoefficients:
    """Coefficient table A_P for all P, plus the construction metadata."""

    momenta: Momenta
    model: ModelSpec
    rep: ScalarSector | RegularRep
    group: WeylGroup
    table: np.ndarray  # shape (group order, rep dim)
    words: tuple[tuple[str, ...], ...]  # construction word per element
    max_crosscheck: float
    _wedge_cache: dict = field(default_factory=dict, repr=False)

    def coefficient(self, element: SignedPermutation) -> np.ndarray:
        return self.table[self.group.index_of(element)].copy()

    def wedge_data(self, wedge: SignedPermutation):
        """Per-wedge evaluation data: the effective momentum row for each P
        (row P is (P * wedge^-1).apply(k)) and the coefficient column A_P(Q)."""
        key = self.group.index_of(wedge)
        if key not in self._wedge_cache:
            k = self.momenta.array
            winv = wedge.inverse()
            carried = np.array([(p * winv).apply(k) for p in self.group.elements])
            if isinstance(self.rep, ScalarSector):
                coeffs = self.table[:, 0] * self.rep.value(wedge)
            else:
                coeffs = self.table[:, key]
            self._wedge_cache[key] = (carried, coeffs)
        return self._wedge_cache[key]


def _initial_vector(rep, group, initial) -> np.ndarray:
    if initial is None:
        if isinstance(rep, ScalarSector):
            return np.array([1.0 + 0j])
        vec = np.zeros(rep.dim, dtype=complex)
        vec[group.index_of(SignedPermutation.identity(group.n))] = 1.0
        return vec
    vec = np.atleast_1d(np.asarray(initial, dtype=complex))
    if vec.shape != (rep.dim,):
        raise ValueError(f"initial vector must have shape ({rep.dim},)")
    return vec.copy()


def compute_coefficients(
    momenta,
    model: ModelSpec,
    rep: ScalarSector | RegularRep,
    initial=None,
    crosscheck_tol: float = CROSSCHECK_TOL,
) -> BetheCoefficients:
    """Build the full coefficient table by breadth-first recursion.

    Revisited Cayley edges cross-check the stored values, so a returned
    table is certified path independent at `crosscheck_tol`.  For the pdp
    model this succeeds only in scalar sectors; in the regular
    representation the recursion is contradictory and raises
    InconsistencyError for any initial vector in general position.
    """
    momenta = momenta if isinstance(momenta, Momenta) else Momenta(tuple(momenta))
    if rep.n_particles != momenta.n:
        raise ValueError(
            f"representation is for {rep.n_particles} particles, momenta for {momenta.n}"
        )
    group = weyl_group(momenta.n)
    if isinstance(rep, RegularRep) and rep.group is not group:
        rep = RegularRep(group)
    k = momenta.array
    n_el = group.order

    table = np.zeros((n_el, rep.dim), dtype=complex)
    words: list[tuple[str, ...] | None] = [None] * n_el
    seen = np.zeros(n_el, dtype=bool)

    start = group.index_of(SignedPermutation.identity(momenta.n))
    table[start] = _initial_vector(rep, group, initial)
    words[start] = ()
    seen[start] = True
    max_crosscheck = 0.0

    gens = [(letter, letter_element(letter, momenta.n)) for letter in
            [f"T{i}" for i in range(1, momenta.n)] + ["R1"]]
    frontier = [start]
    while frontier:
        next_frontier = []
        for idx in sorted(frontier):
            element = group.elements[idx]
            current = table[idx]
            for letter, gen in gens:
                neighbour = element * gen
                nidx = group.index_of(neighbour)
                op = _step_operator(model, rep, k, neighbour, letter)
                candidate = op.apply(current)
                if seen[nidx]:
                    diff = float(np.max(np.abs(candidate - table[nidx])))
                    if diff > crosscheck_tol:
                        raise InconsistencyError(
                            neighbour, words[nidx], words[idx] + (letter,), diff
                        )
                    max_crosscheck = max(max_crosscheck, diff)
                else:
                    table[nidx] = candidate
                    words[nidx] = words[idx] + (letter,)
                    seen[nidx] = True
                    next_frontier.append(nidx)
        frontier = next_frontier

    return BetheCoefficients(
        momenta, model, rep, group, table, tuple(words), max_crosscheck
    )


def coefficient_along_word(
    momenta,
    model: ModelSpec,
    rep: ScalarSector | RegularRep,
    word,
    initial=None,
) -> np.ndarray:
    """Carry the initial coefficient along one explicit generator word."""
    momenta = momenta if isinstance(momenta, Momenta) else Momenta(tuple(momenta))
    group = weyl_group(momenta.n)
    if isinstance(rep, RegularRep) and rep.group is not group:
        rep = RegularRep(group)
    k = momenta.array
    vec = _initial_vector(rep, group, initial)
    element = SignedPermutation.identity(momenta.n)
    for letter in word:
        element = element * letter_element(letter, momenta.n)
        vec = _step_operator(model, rep, k, element, letter).apply(vec)
    return vec


def _rewritten_word(word, n: int, rng) -> tuple[str, ...]:
    """A different word for the same element, produced by one random
    application of a defining relation (insertion of an involution pair,
    braid rewrite, commutation swap, or wall-braid reversal)."""
    word = list(word)
    letters = [f"T{i}" for i in range(1, n)] + ["R1"]
    moves = []

    pos = int(rng.integers(0, len(word) + 1))
    gen = letters[int(rng.integers(0, len(letters)))]
    moves.append(("insert", pos, gen))

    for s in range(len(word) - 2):
        a, b, c = word[s : s + 3]
        if a == c and a.startswith("T") and b.startswith("T"):
            i, j = int(a[1:]), int(b[1:])
            if abs(i - j) == 1:
                moves.append(("braid", s))
    for s in range(len(word) - 1):
        a, b = word[s : s + 2]
        if a.startswith("T") and b.startswith("T"):
            if abs(int(a[1:]) - int(b[1:])) > 1:
                moves.append(("swap", s))
        elif "R1" in (a, b):
            other = b if a == "R1" else a
            if other.startswith("T") and int(other[1:]) > 1:
                moves.append(("swap", s))
    for s in range(len(word) - 3):
        if word[s : s + 4] in (["R1", "T1", "R1", "T1"], ["T1", "R1", "T1", "R1"]):
            moves.append(("wall-braid", s))

    kind, *args = moves[int(rng.integers(0, len(moves)))]
    if kind == "insert":
        pos, gen = args
        word[pos:pos] = [gen, gen]
    elif kind == "braid":
        (s,) = args
        word[s], word[s + 1], word[s + 2] = word[s + 1], word[s], word[s + 1]
    elif kind == "swap":
        (s,) = args
        word[s], word[s + 1] = word[s + 1], word[s]
    else:
        (s,) = args
        word[s : s + 4] = reversed(word[s : s + 4])
    return tuple(word)


def word_independence_test(
    momenta,
    model: ModelSpec,
    rep: ScalarSector | RegularRep,
    trials: int = 50,
    seed: int = 0,
    initial=None,
) -> float:
    """Max coefficient difference between two words for the same element.

    Each trial picks a random element, takes its canonical word and a
    relation-rewritten variant, carries the initial coefficient along both,
    and compares.  Small residuals certify path independence directly.
    """
    momenta = momenta if isinstance(momenta, Momenta) else Momenta(tuple(momenta))
    n = momenta.n
    group = weyl_group(n)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        element = group.elements[int(rng.integers(0, group.order))]
        base = word_for(element)
        variant = base
        for _ in range(int(rng.integers(1, 4))):
            variant = _rewritten_word(variant, n, rng)
        assert evaluate_word(variant, n) == element
        first = coefficient_along_word(momenta, model, rep, base, initial)
        second = coefficient_along_word(momenta, model, rep, variant, initial)
        worst = max(worst, float(np.max(np.abs(first - second))))
    return worst


@dataclass(frozen=True)
class WavefunctionSample:
    point: tuple[float, ...]
    wedge: SignedPermutation
    value: complex
    gradient: np.ndarray


def evaluate_psi(
    coeffs: BetheCoefficients, x, wedge: SignedPermutation | None = None
) -> WavefunctionSample:
    """Value and analytic gradient of psi at x.

    Without an explicit wedge the point is classified first (and must be
    interior).  Passing `wedge` forces that wedge's plane-wave expansion,
    which is how one-sided boundary values on a facet are produced.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (coeffs.momenta.n,):
        raise ValueError(f"point must have shape ({coeffs.momenta.n},)")
    if wedge is None:
        wedge = classify_wedge(x)
    carried, avec = coeffs.wedge_data(wedge)
    phases = np.exp(1j * (carried @ x))
    weighted = avec * phases
    value = complex(np.sum(weighted))
    gradient = 1j * (carried.T @ weighted)
    return WavefunctionSample(tuple(float(c) for c in x), wedge, value, gradient)
