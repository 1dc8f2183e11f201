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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt

import numpy as np
import scipy.sparse as sp

__all__ = [
    "MultiIndexSet",
    "SpectralBasis",
    "StochasticMatrices",
    "build_index_set",
    "build_spectral_basis",
    "build_stochastic_matrices",
    "eval_basis",
    "recurrence_coefficients",
]

XI_BOUND = sqrt(3.0)
#: largest index set ``build_index_set`` enumerates
MAX_INDEX_SET_SIZE = 2_000_000


@dataclass(frozen=True)
class MultiIndexSet:
    """Total-degree multi-index set in graded lexicographic order."""

    num_vars: int
    degree: int
    indices: np.ndarray  # (n_xi, M) ints

    @property
    def size(self) -> int:
        return self.indices.shape[0]


@dataclass(frozen=True)
class SpectralBasis:
    """Index set plus univariate recurrence coefficients b_1..b_pmax."""

    index_set: MultiIndexSet
    recurrence: np.ndarray

    @property
    def size(self) -> int:
        return self.index_set.size


@dataclass(frozen=True)
class StochasticMatrices:
    """G0 (identity), the coupling matrices G_1..G_M, and g0 = e_1."""

    G0: sp.csr_matrix
    Gl: tuple[sp.csr_matrix, ...]
    g0: np.ndarray


def build_index_set(num_vars: int, degree: int) -> MultiIndexSet:
    """Enumerate all alpha in N_0^M with |alpha| <= p, graded lexicographic.

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
    indices = np.array(rows, dtype=np.int64).reshape(n_xi, num_vars)
    return MultiIndexSet(num_vars, degree, indices)


def recurrence_coefficients(n_max: int) -> np.ndarray:
    """Coefficients b_1..b_n_max of the orthonormal recurrence on [-sqrt3, sqrt3].

    Derived from the monic Legendre recurrence beta_n = n^2/(4n^2 - 1) by
    normalization, then scaled by sqrt(3) for the change of variable
    xi = sqrt(3) t.
    """
    n = np.arange(1, n_max + 1, dtype=float)
    beta = n**2 / (4.0 * n**2 - 1.0)
    return XI_BOUND * np.sqrt(beta)


def build_spectral_basis(num_vars: int, degree: int) -> SpectralBasis:
    index_set = build_index_set(num_vars, degree)
    return SpectralBasis(index_set, recurrence_coefficients(max(degree, 1)))


def univariate_values(basis: SpectralBasis, degree_max: int, xi) -> np.ndarray:
    """Table of pi_0..pi_degree_max at points xi, shape (degree_max+1,) + xi.shape."""
    xi = np.asarray(xi, dtype=float)
    b = basis.recurrence
    out = np.empty((degree_max + 1,) + xi.shape)
    out[0] = 1.0
    if degree_max >= 1:
        out[1] = xi / b[0]
    for n in range(1, degree_max):
        out[n + 1] = (xi * out[n] - b[n - 1] * out[n - 1]) / b[n]
    return out


def eval_basis(basis: SpectralBasis, s: int, xi) -> float | np.ndarray:
    """Value of the s-th basis polynomial psi_s at xi in [-sqrt3, sqrt3]^M."""
    iset = basis.index_set
    if not 0 <= s < iset.size:
        raise IndexError(f"basis ordinal {s} out of range [0, {iset.size})")
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != iset.num_vars:
        raise ValueError(f"xi must have {iset.num_vars} components")
    if np.any(np.abs(xi) > XI_BOUND * (1 + 1e-12)):
        raise ValueError("xi outside the support [-sqrt(3), sqrt(3)]^M")
    alpha = iset.indices[s]
    table = univariate_values(basis, int(alpha.max(initial=0)), np.moveaxis(xi, -1, 0))
    val = np.ones(xi.shape[:-1])
    for i, a in enumerate(alpha):
        val = val * table[a, i]
    return val if val.shape else float(val)


def build_stochastic_matrices(basis: SpectralBasis) -> StochasticMatrices:
    """Assemble G0 = I, the G_l coupling matrices, and g0 = e_1.

    [G_l]_{ij} is nonzero only when alpha(i) and alpha(j) agree except for a
    +-1 shift in coordinate l; the value is the recurrence coefficient of the
    higher of the two degrees.  Entries are exact, no quadrature involved.
    """
    iset = basis.index_set
    n_xi = iset.size
    b = basis.recurrence
    lookup = {tuple(row): s for s, row in enumerate(iset.indices.tolist())}

    Gl = []
    for l in range(iset.num_vars):
        rows, cols, vals = [], [], []
        for s, alpha in enumerate(iset.indices):
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

    g0 = np.zeros(n_xi)
    g0[0] = 1.0
    return StochasticMatrices(sp.identity(n_xi, format="csr"), tuple(Gl), g0)
