"""Closed-form oracle for scalar-sector coefficient tables.

Half-line form of Gaudin's product (Phys. Rev. A 4, 386 (1971)): with the
positive roots of C_N, Phi+ = {e_j - e_i, e_j + e_i (i < j), 2 e_i}, and
c = (1, ..., N),

    A_P = prod over alpha in Phi+ with <alpha, P.apply(c)> < 0
          of f_alpha(<alpha, P.apply(k)>),

where f_alpha = a + eps_t * b of the pair operator for a pair root and
a + eps_r * b of the wall operator for 2 e_i.  The factors are written
out from the a(u), b(u) of the operators module docstring, vectorised over
the group, independently of the recursion they test.
"""

import numpy as np

from halfline_bethe import weyl_group


def sector_factor(kind: str, u: np.ndarray, coupling: float, eps: int) -> np.ndarray:
    iu = 1j * u
    if kind == "delta":
        a, b = coupling / (iu - coupling), iu / (iu - coupling)
    else:
        inv = 1.0 / coupling
        a, b = iu / (iu - inv), -inv / (iu - inv)
    return a + eps * b


def closed_form_table(momenta, model, eps_t: int, eps_r: int) -> np.ndarray:
    """A_P for every P, in enumerate_group order, with A_I = 1."""
    k = np.asarray(momenta.values)
    n = k.size
    group = weyl_group(n)
    signs = np.array([g.signs for g in group.elements], dtype=float)
    perms = np.array([g.perm for g in group.elements])
    pc = signs * (perms + 1.0)
    pk = signs * k[perms]
    table = np.ones(group.order, dtype=complex)
    for i in range(n):
        neg = pc[:, i] < 0
        table[neg] *= sector_factor(model.kind, 2.0 * pk[neg, i], model.wall_coupling, eps_r)
        for j in range(i + 1, n):
            for s in (1.0, -1.0):
                neg = pc[:, j] + s * pc[:, i] < 0
                table[neg] *= sector_factor(
                    model.kind, pk[neg, j] + s * pk[neg, i], model.pair_coupling, eps_t
                )
    return table
