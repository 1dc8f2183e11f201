"""Factored tensor-vector arithmetic for Kronecker-sum systems.

A vector u in R^{n_x * n_xi} is stored as a factor pair (Y, Z) with
mat(u) = Y Z^T, Y of shape (n_x, rank) and Z of shape (n_xi, rank).  The
Kronecker-sum operator sum_l G_l (x) K_l acts blockwise,

    A u  ~  [K_0 Y | ... | K_M Y] paired with [G_0 Z | ... | G_M Z],

so a matvec multiplies the stored rank by the number of terms and an
addition concatenates factors.  A factor pair wider than the stochastic
dimension stores more numbers than the dense n_x x n_xi block it
represents; ``block`` pairs such a block with the identity frame.  Two
rank-reduction operators bring ranks back down: a Frobenius-optimal SVD
truncation computed from the R factor of Y alone once Z is orthonormal,
and a projection onto a fixed orthonormal stochastic basis B, which costs
two matrix products and no factorization.  ``reduce_operator`` forms the
Galerkin projection of the operator onto R^{n_x} (x) span(B),
sum_l (B^T G_l B) (x) K_l, whose vectors are n_x x kappa blocks.

The stochastic factor Z is a frame that vectors share by identity: every
block of one size shares one identity, every projection onto B shares B.
Two rules make arithmetic in shared frames cost no more than the blocks
themselves.  ``combine`` sums the scaled spatial factors of vectors that
share one Z object, so a combination of blocks of a reduced operator
stays kappa columns wide; a combination across frames is its n_x x n_xi
block, to which the identity frame adds its Y and every other frame one
product Y Z^T.  ``inner`` pairs w with v's frame by one product
Y_w (Z_w^T Z_v), since <v, w> = <Y_v, Y_w Z_w^T Z_v>_F, and two vectors
of one frame take the Frobenius dot of their Y.

Blocks, the outputs of both truncations and the rank-one right-hand side
of ``build_operator`` have orthonormal stochastic factors by
construction, and are flagged so when they are built.  For those the
norm is the Frobenius norm of Y, and the inner product of two
vectors sharing the same factor Z is the Frobenius dot product of their
spatial factors; no QR or Gram product is formed.  Every other norm is
the Frobenius norm of the block Y Z^T, the vector in the identity frame,
so every norm is taken in an orthonormal frame and its error is the
round-off of forming that block (a Gram-matrix evaluation would lose half
the digits of a small residual of large terms).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

__all__ = [
    "FactoredVector",
    "StochasticOperator",
    "TruncationOperator",
    "apply_operator",
    "add",
    "scale",
    "combine",
    "inner",
    "norm",
    "truncate_svd",
    "block",
    "is_block",
    "dense",
    "coordinates",
    "reduce_operator",
    "build_operator",
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
    """The read-only identity every block of size n shares as its Z."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True)
class FactoredVector:
    """Immutable factor pair representing mat(u) = Y @ Z.T.

    The constructor copies and freezes the arrays it is given.
    ``orthonormal`` records that Z has orthonormal columns by construction;
    only the package's own constructors (the truncations, ``block`` and
    ``build_operator``'s right-hand side) set it, and ``norm``,
    ``coordinates`` and ``truncate_svd`` then skip the QR and Gram
    products of Z.
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


@dataclass(frozen=True)
class StochasticOperator:
    """Kronecker-sum operator sum_l G_l (x) K_l with a factored right-hand side.

    The mean spatial block terms[0][1] already contains any convection and
    stabilization terms; term l pairs G_l with K_l for every KL mode l.
    ``symmetric`` states that every K_l is symmetric in exact arithmetic
    (diffusion, no transport term); every constructor must say so, because
    the flag cannot be read off the matrices.  ``fem._mass_1d`` multiplies
    c psi_a psi_b in index order, so on level 6 the assembled K_l for l >= 1
    differ from their transposes in 18-28% of their entries, by at most
    5.6e-17 relative; only K_0 is exactly symmetric.  PGD's banded Cholesky
    reads the lower triangle by design, and a transport operator flagged
    symmetric fails there.  ``mean_factors`` are the 1D factors
    (P_y, Q_y, A_x, M_x) with mean block kron(P_y, M_x) + kron(Q_y, A_x)
    (``fem.SpatialMatrices.mean_factors``), from which
    ``krylov.MeanPreconditioner`` inverts the mean block; like ``symmetric``
    they have no default.
    """

    terms: tuple[tuple[sp.csr_matrix, sp.csr_matrix], ...]
    rhs: FactoredVector
    symmetric: bool
    mean_factors: tuple[sp.csr_matrix, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.terms[0][1].shape[0], self.terms[0][0].shape[0])

    @property
    def mean_spatial(self) -> sp.csr_matrix:
        return self.terms[0][1]


def apply_operator(A: StochasticOperator, u: FactoredVector) -> FactoredVector:
    """A u in factored form; output rank is len(A.terms) * rank(u)."""
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


def combine(vectors, coeffs) -> FactoredVector:
    """sum_i c_i v_i, summing the scaled Y of vectors that share one Z object.

    A combination within one frame keeps that Z and its ``orthonormal``
    flag.  Across frames it is the n_x x n_xi ``block``: the identity frame
    adds its Y as it is and every other frame one product Y Z^T, one frame
    at a time, with no factors concatenated.  Zero coefficients and rank-0
    vectors are skipped.
    """
    shape = vectors[0].shape
    frames: dict[int, list] = {}
    for v, c in zip(vectors, coeffs):
        if v.shape != shape:
            raise ValueError(f"shape mismatch {v.shape} vs {shape}")
        if c != 0.0 and v.rank:
            frames.setdefault(id(v.Z), []).append((c, v))
    if not frames:
        return FactoredVector.zero(*shape)
    if len(frames) == 1:
        (terms,) = frames.values()
        flagged = any(v.orthonormal for _, v in terms)
        return FactoredVector._adopt(_frame_sum(terms), terms[0][1].Z, flagged)
    out = np.zeros(shape)
    eye = _identity(shape[1])
    for terms in frames.values():
        Y, Z = _frame_sum(terms), terms[0][1].Z
        out += Y if Z is eye else Y @ Z.T
    return block(out)


def _frame_sum(terms) -> np.ndarray:
    """sum c Y over the pairs (c, v) of one frame, as a new array."""
    (c, v), *rest = terms
    Y = c * v.Y
    for c, v in rest:
        Y += c * v.Y
    return Y


def block(W: np.ndarray) -> FactoredVector:
    """The dense n_x x n_xi block W as a vector, paired with the identity
    frame that every block of this size shares."""
    return FactoredVector._adopt(W, _identity(W.shape[1]), orthonormal=True)


def is_block(u: FactoredVector) -> bool:
    """Whether u is a block of the shared identity frame, so that its Y is
    mat(u) itself."""
    # a square flagged Z is the only candidate: no other size reaches the cache
    return u.orthonormal and u.rank == u.shape[1] and u.Z is _identity(u.rank)


def dense(u: FactoredVector) -> np.ndarray:
    """mat(u) = Y Z^T as a new C-ordered array.  A block of the shared
    identity frame is that array already, so its Y is copied, not multiplied
    by I (the rule of ``coordinates``)."""
    if is_block(u):
        return np.array(u.Y, order="C")
    return u.Y @ u.Z.T


def coordinates(u: FactoredVector, Z: np.ndarray) -> np.ndarray:
    """Y_u (Z_u^T Z), the spatial factor that pairs u with the frame Z.

    For orthonormal Z, (coordinates(u, Z), Z) is the orthogonal projection
    of u's stochastic index onto span(Z).  A vector flagged orthonormal
    whose Z is that very object is already in the frame: its Y is
    returned as it is.
    """
    if u.Z is Z and u.orthonormal:
        return u.Y
    return u.Y @ (u.Z.T @ Z)


def inner(u: FactoredVector, v: FactoredVector) -> float:
    """<u, v> = <Y_u, Y_v Z_v^T Z_u>_F = <Y_u, coordinates(v, Z_u)>_F.

    For a flagged v whose Z is Z_u that is the Frobenius dot of Y_u and Y_v,
    the shortcut in ``coordinates``.
    """
    return float(np.vdot(u.Y, coordinates(v, u.Z)))


def norm(u: FactoredVector) -> float:
    """Frobenius norm of mat(u), taken in an orthonormal frame: ||Y||_F for
    flagged vectors, else ||Y Z^T||_F."""
    if u.rank == 0:
        return 0.0
    if u.orthonormal:
        return float(np.linalg.norm(u.Y))
    return float(np.linalg.norm(dense(u)))


def truncate_svd(u: FactoredVector, rank: int | None = None) -> FactoredVector:
    """Best approximation of mat(u) by SVD through the R factor of Y alone.

    Keeps at most ``rank`` terms (Eckart-Young optimal), or every term when
    ``rank`` is None.  Singular values below SV_DROP_TOL times the largest
    are dropped in every mode so that roundoff never manufactures rank.
    Z is made orthonormal first: a flagged vector's already is, and any
    other takes Z, R_z = qr(Z) and Y R_z^T (for a vector wider than n_xi,
    that Z is square and Y R_z^T is its n_x x n_xi block).  Then with Y = Q R and R = U s V^T,
    Y V_k = Q U_k s_k, so (Y V_k, Z V_k), flagged ``orthonormal``, is the
    truncation, and no Q factor is formed.
    """
    if u.rank == 0:
        return u
    if not u.orthonormal:
        Z, Rz = np.linalg.qr(u.Z)
        u = FactoredVector._adopt(u.Y @ Rz.T, Z, orthonormal=True)
    # LAPACK's recursive blocked QR: about 3x faster than dgeqrf on tall blocks
    R = lapack.dgeqrt(min(32, *u.Y.shape), np.array(u.Y, order="F"), overwrite_a=1)[0]
    R = np.triu(R[: u.rank])  # releases the n_x-row work array
    _, s, Vt = np.linalg.svd(R, full_matrices=False)
    keep = min(int(np.sum(s > SV_DROP_TOL * s[0])), len(s) if rank is None else rank)
    return FactoredVector._adopt(u.Y @ Vt[:keep].T, u.Z @ Vt[:keep].T, orthonormal=True)


@dataclass(frozen=True)
class TruncationOperator:
    """Rank reduction strategy: fixed-rank SVD or projection onto a basis.

    The projection is the orthogonal projection of the stochastic index
    onto span(basis): ``basis`` must have orthonormal columns, the result
    is (Y (Z^T B), B), of rank exactly the basis size, and the map is
    idempotent.  Projection outputs share the operator's basis as Z, so
    projecting one of them, or a ``combine`` of them, again returns its Y
    unchanged.
    """

    kind: str  # "svd-rank" | "projection"
    rank: int | None = None
    basis: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "svd-rank":
            if not self.rank or self.rank < 1:
                raise ValueError("svd-rank truncation needs a positive rank")
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
        return FactoredVector._adopt(coordinates(u, self.basis), self.basis, orthonormal=True)


def reduce_operator(A: StochasticOperator, B: np.ndarray) -> StochasticOperator:
    """The Galerkin projection (I (x) B)^T A (I (x) B) onto the frame of B.

    For B with orthonormal columns that is sum_l (B^T G_l B) (x) K_l, which
    acts on n_x x kappa blocks.  Term 0 is (I_kappa, K_0), so C_0 = I holds
    by construction; the right-hand side is (Y_f, B^T Z_f).  The spatial
    matrices, ``symmetric`` and ``mean_factors`` are those of A, so the mean
    preconditioner of A serves the reduced operator too.
    """
    terms = [(sp.identity(B.shape[1], format="csr"), A.mean_spatial)]
    terms.extend((sp.csr_matrix(B.T @ (G @ B)), K) for G, K in A.terms[1:])
    rhs = FactoredVector._adopt(A.rhs.Y, B.T @ A.rhs.Z)
    return StochasticOperator(tuple(terms), rhs, A.symmetric, A.mean_factors)


def build_operator(spatial, Gl) -> StochasticOperator:
    """Assemble the Kronecker-sum operator from spatial matrices and G_1..G_M.

    Convection and stabilization matrices are folded into the mean spatial
    block (they pair with the same G_0 = I), which keeps the per-matvec rank
    growth at M+1 terms; the operator is symmetric exactly when there is no
    transport term.  Every KL term is kept, also one whose spatial matrix
    vanishes (sigma = 0).  The right-hand side is the rank-one
    tensor g_0 (x) f_0 with g_0 = e_1, the constant chaos polynomial, so
    its Z is orthonormal and flagged so (its norm is ||f_0||); Dirichlet
    lift contributions and the boundary values are added separately
    (``pgd.handle_nonhomogeneous_bc``).
    """
    mean = spatial.K[0]
    if spatial.N is not None:
        mean = mean + spatial.N
    if spatial.S is not None:
        mean = mean + spatial.S

    n_xi = Gl[0].shape[0]
    terms = [(sp.identity(n_xi, format="csr"), mean.tocsr())]
    terms.extend(zip(Gl, spatial.K[1:], strict=True))

    if np.any(spatial.f0):
        f0 = np.array(spatial.f0, dtype=float).reshape(-1, 1)
        rhs = FactoredVector._adopt(f0, np.eye(n_xi, 1), orthonormal=True)
    else:
        rhs = FactoredVector.zero(spatial.f0.shape[0], n_xi)
    return StochasticOperator(
        tuple(terms), rhs, symmetric=spatial.N is None, mean_factors=spatial.mean_factors
    )
