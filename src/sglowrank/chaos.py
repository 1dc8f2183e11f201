"""Polynomial chaos machinery for uniform random variables on [-sqrt(3), sqrt(3)].

The stochastic basis is the total-degree set of products of orthonormal
univariate polynomials.  The scaling to [-sqrt(3), sqrt(3)] gives the
variables unit variance, so each xi_l enters the expansion with coefficient
sigma*sqrt(lambda_l) and no extra factors.

The univariate polynomials are Legendre polynomials under an affine change
of variable, renormalized to be orthonormal with respect to the uniform
density.  Their three-term recurrence

    xi * pi_n = b_{n+1} pi_{n+1} + b_n pi_{n-1}

has no diagonal term (the density is symmetric), and the matrices
[G_l]_{ij} = <xi_l psi_i psi_j> inherit at most two nonzeros per row from it.

The basis is its (n_xi, M) multi-index array; the recurrence follows from
the largest index.  The solver only needs the G_l, so nothing here
evaluates the polynomials; the sampling checks of the test suite do that
in ``tests/oracles.py``.
"""

from __future__ import annotations

from math import comb, sqrt

import numpy as np
import scipy.sparse as sp

__all__ = [
    "build_spectral_basis",
    "build_stochastic_matrices",
    "recurrence_coefficients",
]

XI_BOUND = sqrt(3.0)
#: largest index set ``build_spectral_basis`` enumerates
MAX_INDEX_SET_SIZE = 2_000_000


def build_spectral_basis(num_vars: int, degree: int) -> np.ndarray:
    """All alpha in N_0^M with |alpha| <= p as an (n_xi, M) integer array.

    Ordering: ascending total degree, then ascending lexicographic within a
    degree, so the zero index always sits first.  Sets larger than
    MAX_INDEX_SET_SIZE are refused.
    """
    if num_vars < 1:
        raise ValueError("num_vars must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    n_xi = comb(num_vars + degree, degree)
    if n_xi > MAX_INDEX_SET_SIZE:
        raise ValueError(f"index set of size {n_xi} exceeds the limit {MAX_INDEX_SET_SIZE}")

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    rows = []
    for d in range(degree + 1):
        rows.extend(sorted(compositions(d, num_vars)))
    return np.array(rows, dtype=np.int64).reshape(n_xi, num_vars)


def recurrence_coefficients(n_max: int) -> np.ndarray:
    """Coefficients b_1..b_n_max of the orthonormal recurrence on [-sqrt3, sqrt3].

    Derived from the monic Legendre recurrence beta_n = n^2/(4n^2 - 1) by
    normalization, then scaled by sqrt(3) for the change of variable
    xi = sqrt(3) t.
    """
    n = np.arange(1, n_max + 1, dtype=float)
    beta = n**2 / (4.0 * n**2 - 1.0)
    return XI_BOUND * np.sqrt(beta)


def build_stochastic_matrices(indices: np.ndarray) -> tuple[sp.csr_matrix, ...]:
    """The coupling matrices G_1..G_M of the index set ``indices``.

    [G_l]_{ij} is nonzero only when alpha(i) and alpha(j) agree except for a
    +-1 shift in coordinate l; the value is the recurrence coefficient of the
    higher of the two degrees.  Entries are exact, no quadrature involved.
    G_0 is the identity and the right-hand side's stochastic factor is e_1,
    both formed where they are paired (``lowrank.build_operator``).
    """
    n_xi, num_vars = indices.shape
    b = recurrence_coefficients(max(indices.max(initial=0), 1))
    lookup = {tuple(row): s for s, row in enumerate(indices.tolist())}

    Gl = []
    for l in range(num_vars):
        rows, cols, vals = [], [], []
        for s, alpha in enumerate(indices):
            a_l = int(alpha[l])
            up = alpha.copy()
            up[l] = a_l + 1
            t = lookup.get(tuple(up.tolist()))
            if t is not None:
                coeff = b[a_l]  # <xi pi_{a_l} pi_{a_l + 1}> = b_{a_l + 1}
                rows.extend((s, t))
                cols.extend((t, s))
                vals.extend((coeff, coeff))
        G = sp.csr_matrix((vals, (rows, cols)), shape=(n_xi, n_xi))
        Gl.append(G)
    return tuple(Gl)
