"""Plane-wave superpositions indexed by the signed-permutation group.

Given generic momenta k and a coefficient A_P per group element P, the
eigenfunction candidate restricted to the wedge labelled Q is

    psi(x) = sum_P  A_P(Q) * exp(i <k_P, x_Q>),

where k_P = P.apply(k), x_Q = Q.apply(x), and in a one-dimensional sector
A_P(Q) means sector_value(Q) * A_P.  The coefficients are fixed (up to the
choice of A_I) by one recursion per generator,

    A_{P T_i} = Y_i(u) A_P   with  u = k at slot i+1 minus slot i of P T_i,
    A_{P R_1} = Z(2 * first slot of k under P R_1) A_P.

Every u is one of the 4N(N-1) + 2N transfers +-k_a +- k_b and +-2 k_a, so a
build evaluates one operator factor per transfer and then follows the
group's fixed breadth-first walk (WeylGroup.walk_plan): level by level, each
element is its tree parent's coefficient times the factor of the tree edge.
Every other Cayley edge (WalkPlan.checks) is a cross-check of the stored
values, in a sector all of them once the table is filled, in blocks of
CHECK_BLOCK edges that keep every temporary small; a disagreement beyond
tolerance, or one that is not finite, means the operator family is
inconsistent and raises InconsistencyError with the two generator words of
the first such edge in walk order as witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateMomentaError, InconsistencyError, InputError
from .operators import (
    ModelSpec,
    pair_coeffs,
    pair_exchange_op,
    sector_pair_value,
    sector_wall_value,
    wall_coeffs,
    wall_reflection_op,
)
from .representations import RegularRep, ScalarSector
from .weyl_group import (
    SignedPermutation,
    WeylGroup,
    classify_wedge,
    evaluate_word,
    generator_letters,
    letter_element,
    weyl_group,
)

MOMENTUM_SEPARATION = 1e-12
CROSSCHECK_TOL = 1e-12
# Edges per block of a sector cross-check.  Its complex temporaries are then
# 32 KiB, below glibc's default 128 KiB mmap threshold, so they come from
# heap the process already holds; all 15,361 edges at N=5 at once would make
# 245 KiB arrays that are mapped and handed back to the kernel on every build.
CHECK_BLOCK = 2048


@dataclass(frozen=True)
class Momenta:
    """Strictly generic momenta: nonzero with pairwise-distinct magnitudes."""

    values: tuple[float, ...]

    def __post_init__(self):
        k = np.asarray(self.values, dtype=float)
        if k.ndim != 1 or k.size < 1 or not np.all(np.isfinite(k)):
            raise InputError(f"momenta must be finite, nonempty and 1-d: {self.values}")
        # a finite energy also keeps every transfer +-k_a +- k_b finite
        with np.errstate(over="ignore"):
            if not np.isfinite(np.sum(k**2)):
                raise InputError(f"the energy sum of k^2 overflows: {self.values}")
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

    @cached_property
    def _frames(self) -> np.ndarray:
        """Row q is elements[q].apply(k)."""
        return _signed(self.momenta.array)[self.group.codes]

    def wedge_data(self, wedge: SignedPermutation):
        """Per-wedge evaluation data: the effective momentum row for each P
        (row P is (P * wedge^-1).apply(k)) and the coefficient column A_P(Q)."""
        key = self.group.index_of(wedge)
        if key not in self._wedge_cache:
            winv = wedge.inverse()
            # (P * winv).apply(k) == winv.apply(P.apply(k)); C order keeps
            # the rounding of carried @ x as it is for a stacked array
            carried = np.ascontiguousarray(self._frames[:, list(winv.perm)] * winv.signs)
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
    if not np.all(np.isfinite(vec)):
        raise InputError("initial vector must be finite")
    return vec.copy()


def _signed(k: np.ndarray) -> np.ndarray:
    """(k, -k), indexed by the group's slot codes."""
    return np.concatenate([k, -k])


def _root_factors(model: ModelSpec, rep, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(diag, off) of the step operator per root code of the walk plan.
    Each u comes from the same float subtraction a walk along a word makes,
    and each factor from the same scalar function, so every step matches
    coefficient_along_word bit for bit."""
    n = len(k)
    ks = _signed(k)
    diag = np.zeros(4 * n * n + 2 * n, dtype=complex)
    off = np.zeros_like(diag)

    def put(code, u, wall):
        if isinstance(rep, ScalarSector):
            diag[code] = (sector_wall_value(model, u, rep.eps_r) if wall
                          else sector_pair_value(model, u, rep.eps_t))
        else:
            pair = wall_coeffs(model, u) if wall else pair_coeffs(model, u)
            diag[code], off[code] = pair.a, pair.b

    for hi in range(2 * n):
        put(4 * n * n + hi, 2.0 * ks[hi], True)
        for lo in range(2 * n):
            if hi % n != lo % n:
                put(hi * 2 * n + lo, ks[hi] - ks[lo], False)
    return diag, off


def _walk_sector(plan, column, diag):
    """Fill a one-dimensional table level by level; return the residual of
    every cross-check edge (plan.checks), CHECK_BLOCK edges at a time."""
    for tree, _ in plan.levels:
        column[tree.dst] = diag[tree.root] * column[tree.src]
    checks = plan.checks
    residuals = np.empty(checks.src.size)
    for start in range(0, residuals.size, CHECK_BLOCK):
        block = slice(start, start + CHECK_BLOCK)
        np.abs(diag[checks.root[block]] * column[checks.src[block]]
               - column[checks.dst[block]], out=residuals[block])
    return residuals


def _walk_regular(plan, table, diag, off, tol):
    """As _walk_sector, one row at a time, each step applied as
    RepOperator.apply applies it.  The walk stops after the first level
    with a residual above tol, so the residuals may end there."""
    diag, off = diag.tolist(), off.tolist()
    tables = list(plan.tables.values())

    def carry(src, letter, root):
        v = table[src]
        return diag[root] * v + off[root] * v[tables[letter]]

    residuals = []
    for tree, checks in plan.levels:
        for src, dst, letter, root in zip(*(a.tolist() for a in tree)):
            table[dst] = carry(src, letter, root)
        level = [np.max(np.abs(carry(src, letter, root) - table[dst]))
                 for src, dst, letter, root in zip(*(a.tolist() for a in checks))]
        residuals += level
        if not all(r <= tol for r in level):
            break
    return np.array(residuals)


def compute_coefficients(
    momenta,
    model: ModelSpec,
    rep: ScalarSector | RegularRep,
    initial=None,
    crosscheck_tol: float = CROSSCHECK_TOL,
) -> BetheCoefficients:
    """Build the full coefficient table by breadth-first recursion.

    Every Cayley edge off the walk's tree cross-checks the stored values,
    so a returned table is certified path independent at `crosscheck_tol`;
    a residual above it or not finite raises InconsistencyError at the
    first such edge in walk order.  For the pdp model this succeeds only in
    scalar sectors; in the regular representation the recursion is
    contradictory and raises for any initial vector in general position.
    A `crosscheck_tol` that is not finite and >= 0 raises InputError.
    """
    if not (math.isfinite(crosscheck_tol) and crosscheck_tol >= 0):
        raise InputError(f"crosscheck_tol must be finite and >= 0: {crosscheck_tol}")
    momenta = momenta if isinstance(momenta, Momenta) else Momenta(tuple(momenta))
    if rep.n_particles != momenta.n:
        raise ValueError(
            f"representation is for {rep.n_particles} particles, momenta for {momenta.n}"
        )
    if not isinstance(rep, (ScalarSector, RegularRep)):
        raise TypeError(f"unsupported representation {rep!r}")
    group = weyl_group(momenta.n)
    if isinstance(rep, RegularRep) and rep.group is not group:
        rep = RegularRep(group)
    plan = group.walk_plan
    table = np.zeros((group.order, rep.dim), dtype=complex)
    table[0] = _initial_vector(rep, group, initial)
    diag, off = _root_factors(model, rep, momenta.array)
    if isinstance(rep, ScalarSector):
        diffs = _walk_sector(plan, table[:, 0], diag)
    else:
        diffs = _walk_regular(plan, table, diag, off, crosscheck_tol)

    failed = np.flatnonzero(~(diffs <= crosscheck_tol))
    if failed.size:
        e = failed[0]
        checks = plan.checks
        src, dst = checks.src[e], checks.dst[e]
        letter = generator_letters(momenta.n)[checks.letter[e]]
        raise InconsistencyError(
            group.elements[dst], plan.words[dst], plan.words[src] + (letter,), diffs[e]
        )
    max_crosscheck = float(diffs.max(initial=0.0))

    return BetheCoefficients(
        momenta, model, rep, group, table, plan.words, max_crosscheck
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
    letters = generator_letters(n)
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

    Each trial picks a random element, takes its shortest word from the
    walk plan and a relation-rewritten variant, carries the initial
    coefficient along both, and compares.  Small residuals certify path
    independence directly.
    """
    momenta = momenta if isinstance(momenta, Momenta) else Momenta(tuple(momenta))
    n = momenta.n
    group = weyl_group(n)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        index = int(rng.integers(0, group.order))
        element = group.elements[index]
        base = group.walk_plan.words[index]
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


def _psi_values(
    coeffs: BetheCoefficients, wedge: SignedPermutation, points
) -> list[complex]:
    """psi at each point (float arrays of shape (n,), unchecked) in the
    expansion of `wedge`: evaluate_psi's value bit for bit, without its
    gradient, sample or classification.  Each point is its own
    matrix-vector product: a stacked product rounds differently, and its
    temporaries would outgrow the 128 KiB mmap threshold at N=5."""
    carried, avec = coeffs.wedge_data(wedge)
    return [complex(np.sum(avec * np.exp(1j * (carried @ p)))) for p in points]
