"""Factored tensor-vector arithmetic for Kronecker-sum systems.

A vector u in R^{n_x * n_xi} is stored as a factor pair (Y, Z) with
mat(u) = Y Z^T, Y of shape (n_x, rank) and Z of shape (n_xi, rank).  The
Kronecker-sum operator sum_l G_l (x) K_l acts blockwise,

    A u  ~  [K_0 Y | ... | K_M Y] paired with [G_0 Z | ... | G_M Z],

so a matvec multiplies the stored rank by the number of terms and an
addition concatenates factors.  A factor pair wider than the stochastic
dimension stores more numbers than the dense n_x x n_xi block it
represents; ``fold`` rewrites such a vector exactly as that block, Y Z^T,
paired with the identity, which caps the width at n_xi.  Two
rank-reduction operators bring ranks back down: a Frobenius-optimal SVD
truncation computed through thin QR factorizations of the factors, and a
projection onto a fixed orthonormal stochastic basis, which costs two
matrix products and no factorization.

Folded blocks and the outputs of both truncations have orthonormal
stochastic factors by construction, and are flagged so when they are
built.  For those the norm is the Frobenius norm of Y, and the inner
product of two vectors sharing the same factor Z (every folded block,
every projection onto one basis) is the Frobenius dot product of their
spatial factors; no QR or Gram product is formed.  Other norms are
evaluated from the small matrix R_Y R_Z^T of the factor QRs; this is
orthogonally invariant and keeps the absolute error near machine
precision even when the represented vector is a tiny residual of large
cancelling terms (a Gram-matrix evaluation would lose half the digits
there).
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "FactoredVector",
    "StochasticOperator",
    "TruncationOperator",
    "apply_operator",
    "add",
    "scale",
    "inner",
    "norm",
    "truncate_svd",
    "truncate_projection",
    "fold",
    "residual",
    "residual_norm",
    "build_operator",
    "save_factored",
    "load_factored",
]

#: singular values below this multiple of the largest are treated as rank noise
SV_DROP_TOL = 1e-14
#: allowed deviation of a projection basis from column orthonormality
PROJ_ORTHO_TOL = 1e-10


def _frozen_array(a) -> np.ndarray:
    # always copy so freezing never aliases a caller-owned buffer
    out = np.array(a, dtype=float, order="C", copy=True)
    out.flags.writeable = False
    return out


def _check_orthonormal(B: np.ndarray) -> None:
    ortho_err = np.abs(B.T @ B - np.eye(B.shape[1])).max(initial=0.0)
    if ortho_err > PROJ_ORTHO_TOL:
        raise ValueError(f"projection basis deviates from orthonormality by {ortho_err:.2e}")


@functools.lru_cache(maxsize=4)
def _identity(n: int) -> np.ndarray:
    """The read-only identity every folded block of size n shares as its Z."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True)
class FactoredVector:
    """Immutable factor pair representing mat(u) = Y @ Z.T.

    The constructor copies and freezes the arrays it is given.
    ``orthonormal`` records that Z has orthonormal columns by construction;
    only the package's own constructors (the truncations and ``fold``) set
    it, and ``norm`` and ``inner`` then skip the factor QRs and Gram
    products.
    """

    Y: np.ndarray
    Z: np.ndarray
    orthonormal: bool = field(default=False, init=False)

    def __post_init__(self):
        self._set_factors(_frozen_array(self.Y), _frozen_array(self.Z))

    @classmethod
    def _adopt(cls, Y: np.ndarray, Z: np.ndarray, orthonormal: bool = False) -> "FactoredVector":
        """Wrap arrays the package allocated itself, or factors of other
        vectors, freezing them in place instead of copying."""
        u = object.__new__(cls)
        object.__setattr__(u, "orthonormal", orthonormal)
        for a in (Y, Z):
            a.flags.writeable = False
        u._set_factors(Y, Z)
        return u

    def _set_factors(self, Y: np.ndarray, Z: np.ndarray) -> None:
        if Y.ndim != 2 or Z.ndim != 2 or Y.shape[1] != Z.shape[1]:
            raise ValueError(f"inconsistent factor shapes {Y.shape} / {Z.shape}")
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "Z", Z)

    @property
    def rank(self) -> int:
        return self.Y.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.Y.shape[0], self.Z.shape[0])

    @classmethod
    def zero(cls, n_x: int, n_xi: int) -> "FactoredVector":
        return cls(np.zeros((n_x, 0)), np.zeros((n_xi, 0)))

    @classmethod
    def rank_one(cls, y: np.ndarray, z: np.ndarray) -> "FactoredVector":
        return cls(np.asarray(y, float).reshape(-1, 1), np.asarray(z, float).reshape(-1, 1))

    def materialize(self, max_entries: int = 50_000_000) -> np.ndarray:
        """Dense mat(u); guarded against accidental huge allocations."""
        n_x, n_xi = self.shape
        if n_x * n_xi > max_entries:
            raise MemoryError(f"refusing to materialize a {n_x} x {n_xi} matrix")
        return self.Y @ self.Z.T


@dataclass(frozen=True)
class StochasticOperator:
    """Kronecker-sum operator sum_l G_l (x) K_l with a factored right-hand side.

    ``symmetric`` marks every K_l symmetric (diffusion); the mean spatial
    block terms[0][1] already contains any convection and stabilization
    terms.  ``term_index`` records the original mode index l of each kept
    term (vanishing KL terms may be dropped at assembly).  ``bc_values``
    carries nodal Dirichlet data of the originating problem for
    reconstruction; it does not enter the algebra.
    """

    terms: tuple[tuple[sp.csr_matrix, sp.csr_matrix], ...]
    rhs: FactoredVector
    symmetric: bool = True
    term_index: tuple[int, ...] | None = None
    bc_values: np.ndarray | None = None

    def __post_init__(self):
        if self.term_index is None:
            object.__setattr__(self, "term_index", tuple(range(len(self.terms))))
        elif len(self.term_index) != len(self.terms):
            raise ValueError("term_index length must match the term count")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.terms[0][1].shape[0], self.terms[0][0].shape[0])

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    @property
    def mean_spatial(self) -> sp.csr_matrix:
        return self.terms[0][1]


def apply_operator(A: StochasticOperator, u: FactoredVector) -> FactoredVector:
    """A u in factored form; output rank is num_terms * rank(u)."""
    n_x, n_xi = A.shape
    if u.shape != (n_x, n_xi):
        raise ValueError(f"operator shape {(n_x, n_xi)} does not match vector {u.shape}")
    if u.rank == 0:
        return FactoredVector.zero(n_x, n_xi)
    Y = np.hstack([K @ u.Y for _, K in A.terms])
    Z = np.hstack([G @ u.Z for G, _ in A.terms])
    return FactoredVector._adopt(Y, Z)


def add(u: FactoredVector, v: FactoredVector) -> FactoredVector:
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    return FactoredVector._adopt(np.hstack([u.Y, v.Y]), np.hstack([u.Z, v.Z]))


def scale(u: FactoredVector, alpha: float) -> FactoredVector:
    if u.rank == 0:
        return u
    return FactoredVector._adopt(alpha * u.Y, u.Z, u.orthonormal)


def fold(u: FactoredVector) -> FactoredVector:
    """u itself if rank(u) <= n_xi, else exactly the block (Y Z^T, I).

    The identity factor is shared by every folded block of the same size,
    so ``inner`` and ``norm`` reduce to Frobenius products of Y.
    """
    n_xi = u.shape[1]
    if u.rank <= n_xi:
        return u
    return FactoredVector._adopt(u.Y @ u.Z.T, _identity(n_xi), orthonormal=True)


def inner(u: FactoredVector, v: FactoredVector) -> float:
    """<u, v> = trace((Y_u^T Y_v)(Z_v^T Z_u)) via rank x rank Gram matrices.

    Vectors sharing one orthonormal Z give the Frobenius dot of Y_u and Y_v.
    """
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    if u.rank == 0 or v.rank == 0:
        return 0.0
    if u.orthonormal and u.Z is v.Z:
        return float(np.vdot(u.Y, v.Y))
    return float(np.sum((u.Y.T @ v.Y) * (u.Z.T @ v.Z)))


def norm(u: FactoredVector) -> float:
    """Frobenius norm of mat(u), stable under representational cancellation."""
    if u.rank == 0:
        return 0.0
    if u.orthonormal:
        return float(np.linalg.norm(u.Y))
    if u.rank == 1:
        return float(np.linalg.norm(u.Y[:, 0]) * np.linalg.norm(u.Z[:, 0]))
    Ry = np.linalg.qr(u.Y, mode="r")
    Rz = np.linalg.qr(u.Z, mode="r")
    return float(np.linalg.norm(Ry @ Rz.T))


def truncate_svd(
    u: FactoredVector, rank: int | None = None, tol: float | None = None
) -> FactoredVector:
    """Best approximation of mat(u) by SVD through QR of the factors.

    With ``rank``, keeps at most that many terms (Eckart-Young optimal).
    With ``tol``, keeps the fewest terms whose discarded singular values
    satisfy sum sigma_k^2 <= tol^2 * sum_all sigma_k^2.  Singular values
    below SV_DROP_TOL times the largest are dropped in every mode so that
    roundoff never manufactures rank.  Singular values are folded into the
    spatial factor; the stochastic factor keeps orthonormal columns and the
    result is flagged ``orthonormal``.
    """
    if (rank is None) == (tol is None):
        raise ValueError("specify exactly one of rank or tol")
    if u.rank == 0:
        return u
    Qy, Ry = np.linalg.qr(u.Y, mode="reduced")
    Qz, Rz = np.linalg.qr(u.Z, mode="reduced")
    U, s, Vt = np.linalg.svd(Ry @ Rz.T)
    if s[0] == 0.0:
        return FactoredVector.zero(*u.shape)
    keep = int(np.sum(s > SV_DROP_TOL * s[0]))
    if rank is not None:
        keep = min(keep, rank)
    else:
        total = float(np.sum(s**2))
        tail = np.concatenate([np.cumsum((s**2)[::-1])[::-1][1:], [0.0]])
        keep = min(keep, int(np.searchsorted(-tail, -(tol**2) * total)) + 1)
        keep = max(keep, 1)
    Y = Qy @ (U[:, :keep] * s[:keep])
    Z = Qz @ Vt[:keep].T
    return FactoredVector._adopt(Y, Z, orthonormal=True)


def truncate_projection(u: FactoredVector, basis: np.ndarray) -> FactoredVector:
    """Orthogonal projection of the stochastic index onto span(basis).

    ``basis`` must have orthonormal columns; the result is (Y (Z^T B), B),
    of rank exactly the basis size, and the map is idempotent.
    """
    B = _frozen_array(basis)
    _check_orthonormal(B)
    return _project(u, B)


def _project(u: FactoredVector, B: np.ndarray) -> FactoredVector:
    """Projection onto a frozen orthonormal basis B, which the result shares as Z."""
    Y = u.Y @ (u.Z.T @ B) if u.rank else np.zeros((u.shape[0], B.shape[1]))
    return FactoredVector._adopt(Y, B, orthonormal=True)


@dataclass(frozen=True)
class TruncationOperator:
    """Rank reduction strategy: fixed-rank SVD, tolerance SVD, or projection."""

    kind: str  # "svd-rank" | "svd-tol" | "projection"
    rank: int | None = None
    tol: float | None = None
    basis: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "svd-rank":
            if not self.rank or self.rank < 1:
                raise ValueError("svd-rank truncation needs a positive rank")
        elif self.kind == "svd-tol":
            if self.tol is None or self.tol <= 0:
                raise ValueError("svd-tol truncation needs a positive tolerance")
        elif self.kind == "projection":
            if self.basis is None:
                raise ValueError("projection truncation needs a basis")
            object.__setattr__(self, "basis", _frozen_array(self.basis))
            _check_orthonormal(self.basis)
            object.__setattr__(self, "rank", self.basis.shape[1])
        else:
            raise ValueError(f"unknown truncation kind {self.kind!r}")

    def apply(self, u: FactoredVector) -> FactoredVector:
        if self.kind == "svd-rank":
            return truncate_svd(u, rank=self.rank)
        if self.kind == "svd-tol":
            return truncate_svd(u, tol=self.tol)
        return _project(u, self.basis)


def residual(A: StochasticOperator, u: FactoredVector) -> FactoredVector:
    return add(A.rhs, scale(apply_operator(A, u), -1.0))


def residual_norm(A: StochasticOperator, u: FactoredVector) -> float:
    """||f - A u||_2 of the folded residual, at most n_xi columns wide."""
    if u.rank == 0:
        return norm(A.rhs)
    return norm(fold(residual(A, u)))


def build_operator(
    spatial,
    stoch,
    drop_zero_terms: bool = True,
    symmetric: bool | None = None,
) -> StochasticOperator:
    """Assemble the Kronecker-sum operator from spatial and stochastic parts.

    Convection and stabilization matrices are folded into the mean spatial
    block (they pair with the same G_0), which keeps the per-matvec rank
    growth at M+1 terms.  KL terms whose spatial matrix vanishes (for
    example at sigma = 0) are dropped.  The right-hand side is the rank-one
    tensor g_0 (x) f_0; Dirichlet lift contributions are added separately by
    the solver layer.
    """
    mean = spatial.K[0]
    if spatial.N is not None:
        mean = mean + spatial.N
    if spatial.S is not None:
        mean = mean + spatial.S
    has_transport = spatial.N is not None
    if symmetric is None:
        symmetric = not has_transport

    terms = [(stoch.G0, mean.tocsr())]
    term_index = [0]
    for l, K in enumerate(spatial.K[1:], start=1):
        if drop_zero_terms and (K.nnz == 0 or abs(K).max() == 0.0):
            continue
        terms.append((stoch.Gl[l - 1], K))
        term_index.append(l)

    n_xi = stoch.g0.shape[0]
    if np.any(spatial.f0):
        rhs = FactoredVector.rank_one(spatial.f0, stoch.g0)
    else:
        rhs = FactoredVector.zero(spatial.f0.shape[0], n_xi)
    bc_values = spatial.bc_lift.values_full if spatial.bc_lift is not None else None
    return StochasticOperator(
        tuple(terms), rhs, symmetric=symmetric,
        term_index=tuple(term_index), bc_values=bc_values,
    )


_MAGIC = b"SGLRFV01"


def save_factored(path, u: FactoredVector) -> None:
    """Write the factor pair as column-major arrays behind a small header."""
    n_x, n_xi = u.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<3q", n_x, n_xi, u.rank))
        fh.write(np.asfortranarray(u.Y).tobytes(order="F"))
        fh.write(np.asfortranarray(u.Z).tobytes(order="F"))


def load_factored(path) -> FactoredVector:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path} is not a factored-vector file")
        n_x, n_xi, rank = struct.unpack("<3q", fh.read(24))
        Y = np.frombuffer(fh.read(8 * n_x * rank), dtype=float).reshape((n_x, rank), order="F")
        Z = np.frombuffer(fh.read(8 * n_xi * rank), dtype=float).reshape((n_xi, rank), order="F")
    return FactoredVector(Y, Z)
