"""Proper Generalized Decomposition solver for Kronecker-sum systems.

Builds a separated solution sum_i y_i z_i^T one rank-one pair at a time.
Each enrichment alternates between two Galerkin-condensed problems: freezing
the stochastic factor z gives a spatial system

    (sum_l (z^T G_l z) K_l) y = mat(F) z - sum_l K_l Y (Z^T G_l z),

and freezing the spatial factor y gives a stochastic system

    (sum_l (y^T K_l y) G_l) z = mat(F)^T y - sum_l G_l Z (Y^T K_l^T y).

A sweep allocates no sparse matrix.  One workspace per solve stacks the
data of every K_l on their union sparsity pattern, and likewise for the
G_l, so that all condensation weights v^T M_l v come from one product
``data @ (v[rows] * v[cols])`` and every condensed matrix from one product
``weights @ data`` scattered into a preallocated array.  The spatial matrix
is scattered into a Fortran-ordered array in LAPACK's band layout
(lexicographic Q1 numbering gives half-bandwidth 2^level) and solved by
``dpbsv``, banded Cholesky, when every K_l is symmetric, else by ``dgbsv``,
banded LU, whose array carries the LU's fill rows; the operator is checked
for finite data once, when the workspace is built.  The stochastic matrix,
at most a few hundred rows, is solved densely.  The products K_l Y and G_l Z of the current factors are cached as
column blocks KY and GZ that grow by one pair per enrichment, so the
right-hand sides are F z - KY (GZ^T z) and F^T y - GZ (KY^T y); this uses
that every G_l is symmetric, which the workspace checks once.

Once enrichment has converged, one update pass re-solves all stochastic
factors at once through the coupled block system with (i, j) block
sum_l (y_i^T K_l y_j) G_l, solved iteratively with a mean-block
preconditioner, as in Nouy's PGD (CMAME 2007); the small matrices
Y^T K_l Y come from the cached KY columns.  An update whose Krylov solve
stops short of its tolerance warns, and like every update it is kept only
when it does not worsen the measured residual.  Updating at every fifth
rank as well (seed 4, BLAS on one thread) cut kappa from 65 to 50 on the
c = 3, level 4 -> 6, eps = 1e-6 diffusion cell, whose fine solve then
stopped basis-limited at 1.85e-6 after 2 cycles and 16 matvecs instead of
converging at 9.31e-7 after 1 cycle and 8; on the nu = 1/200
convection-diffusion cell kappa stayed 15 and the fine solve still took
1 cycle and 10 matvecs.

The orthonormal stochastic basis extracted from the converged solution by a
factored SVD is the input of the projection truncation operator used by the
fine-grid solver.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .lowrank import (
    FactoredVector,
    StochasticOperator,
    add,
    norm,
    residual_norm,
    truncate_svd,
)

__all__ = [
    "PgdSolution",
    "solve_pgd",
    "handle_nonhomogeneous_bc",
]

#: relative change of the rank-one increment at which alternation stops
ALTERNATION_TOL = 1e-2
#: sweep cap per enrichment; the update pass repairs cheap pairs
MAX_SWEEPS = 10
#: restarts with random initialization before giving up on an enrichment
MAX_RESTARTS = 3
#: enrichments between residual checks of ``solve_pgd``
RESIDUAL_EVERY = 5
#: rank at which ``solve_pgd`` stops enriching
MAX_RANK = 500
#: relative tolerance of the Krylov solve in ``update_stochastic``
UPDATE_RTOL = 1e-10
#: singular values of the normalized stochastic factors below this fraction
#: of the largest one count as dependent in ``extract_stochastic_basis``
BASIS_RANK_TOL = 1e-12


@dataclass(frozen=True)
class PgdSolution:
    """Separated coarse solution with its orthonormal stochastic basis."""

    factors: FactoredVector
    Zc: np.ndarray
    converged: bool
    residual_history: tuple[float, ...]

    @property
    def kappa(self) -> int:
        """Rank of the separated solution."""
        return self.factors.rank

    @property
    def rel_residual(self) -> float:
        """Relative residual of ``factors``, the last checkpoint."""
        return self.residual_history[-1]


class _Condensation:
    """Square sparse matrices M_l stacked on their union sparsity pattern.

    Row l of ``data`` holds the entries of M_l at (``rows``, ``cols``), zero
    where M_l has none.
    """

    def __init__(self, mats):
        n = mats[0].shape[0]
        coos = [M.tocoo() for M in mats]
        keys = [c.row.astype(np.int64) * n + c.col for c in coos]
        union = np.unique(np.concatenate(keys))
        self.rows, self.cols = np.divmod(union, n)
        self.data = np.zeros((len(mats), union.size))
        for row, c, k in zip(self.data, coos, keys):
            np.add.at(row, np.searchsorted(union, k), c.data)

    def weights(self, v: np.ndarray) -> np.ndarray:
        """v^T M_l v for every l."""
        return self.data @ (v[self.rows] * v[self.cols])


class _Workspace:
    """What one PGD solve keeps across enrichments and sweeps.

    ``current`` is the factor set grown so far, one ``extend`` per pair;
    KY = [K_l y_i] and GZ = [G_l z_i] (pair-major column order) hold its
    products.
    """

    def __init__(self, A: StochasticOperator):
        self._K = [K for _, K in A.terms]
        self._G = [G for G, _ in A.terms]
        # the condensed solves check nothing: reject non-finite data once here
        arrays = [M.data for M in self._K + self._G] + [A.rhs.Y, A.rhs.Z]
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError("PGD needs a finite operator and right-hand side")
        if any((G != G.T).nnz for G in self._G):
            raise ValueError("PGD needs symmetric stochastic matrices G_l")
        self._F = A.rhs
        self.spatial = _Condensation(self._K)
        self.stochastic = _Condensation(self._G)
        n_x, n_xi = A.shape
        self.current = FactoredVector.zero(n_x, n_xi)
        self.KY = np.zeros((n_x, 0))
        self.GZ = np.zeros((n_xi, 0))

        rows, cols = self.spatial.rows, self.spatial.cols
        lower = int(np.max(rows - cols, initial=0))
        upper = int(np.max(cols - rows, initial=0))
        self._symmetric = A.symmetric
        self._band_keep = slice(None)
        if A.symmetric:
            # dpbsv reads the lower triangle only
            upper = fill = 0
            self._band_keep = rows >= cols
        else:
            # dgbsv's LU writes its fill into `lower` extra leading rows
            fill = lower
        # LAPACK band storage ab[fill + upper + i - j, j] = a[i, j], Fortran-ordered
        # so that f2py passes it on with a plain copy; entries off the pattern stay 0
        self._l_and_u = (lower, upper)
        self._band = np.zeros((fill + lower + upper + 1, n_x), order="F")
        self._band_at = ((fill + upper + rows - cols)[self._band_keep], cols[self._band_keep])
        self._dense = np.zeros((n_xi, n_xi))

    def extend(self, y: np.ndarray, z: np.ndarray) -> None:
        """Append the pair (y, z) to the current factor set and cache its blocks."""
        pair = FactoredVector.rank_one(y, z)
        self.current = add(self.current, pair)
        self.KY = np.hstack([self.KY] + [K @ pair.Y for K in self._K])
        self.GZ = np.hstack([self.GZ] + [G @ pair.Z for G in self._G])

    def spatial_rhs(self, z: np.ndarray) -> np.ndarray:
        return self._F.Y @ (self._F.Z.T @ z) - self.KY @ (self.GZ.T @ z)

    def stochastic_rhs(self, y: np.ndarray) -> np.ndarray:
        return self._F.Z @ (self._F.Y.T @ y) - self.GZ @ (self.KY.T @ y)

    def solve_spatial(self, z: np.ndarray) -> np.ndarray:
        weights = self.stochastic.weights(z)
        if abs(weights[0]) < 1e-300:
            raise _DegenerateEnrichment("spatial condensation vanished")
        self._band[self._band_at] = (weights @ self.spatial.data)[self._band_keep]
        rhs = self.spatial_rhs(z)
        if self._symmetric:
            _, y, info = lapack.dpbsv(self._band, rhs, lower=1, overwrite_b=1)
        else:
            _, _, y, info = lapack.dgbsv(*self._l_and_u, self._band, rhs, overwrite_b=1)
        if info > 0:
            raise np.linalg.LinAlgError("condensed spatial matrix is singular or indefinite")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of the banded solve")
        return y

    def solve_stochastic(self, y: np.ndarray) -> np.ndarray:
        weights = self.spatial.weights(y)
        if abs(weights[0]) < 1e-300:
            raise _DegenerateEnrichment("stochastic condensation vanished")
        cond = self.stochastic
        self._dense[cond.rows, cond.cols] = weights @ cond.data
        return np.linalg.solve(self._dense, self.stochastic_rhs(y))


def _increment_change(y_new, z_new, y_old, z_old) -> float:
    """Relative Frobenius distance between successive rank-one increments.

    Both z have unit norm, so ||y1 z1^T - y0 z0^T||^2 equals
    ||y1||^2 + ||y0||^2 - 2 (y1.y0)(z1.z0) = ||y1 - y0||^2 + (y1.y0) ||z1 - z0||^2;
    the second form does not cancel near a fixed point.
    """
    dy = y_new - y_old
    dz = z_new - z_old
    change = dy @ dy + (y_new @ y_old) * (dz @ dz)
    denom = np.linalg.norm(y_new)
    return np.sqrt(max(change, 0.0)) / denom if denom > 0 else np.inf


def enrich_rank_one(
    workspace: _Workspace, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Next rank-one pair after ``workspace.current`` by alternating condensed solves.

    The stochastic factor starts at the first coordinate vector (the mean
    mode); restarts draw random vectors from ``rng``.  The returned z has
    unit norm, the magnitude rides in y.
    """
    n_xi = workspace.current.shape[1]
    for attempt in range(MAX_RESTARTS + 1):
        if attempt == 0:
            z = np.zeros(n_xi)
            z[0] = 1.0
        else:
            z = rng.standard_normal(n_xi)
            z /= np.linalg.norm(z)
        y_prev = None
        z_prev = None
        try:
            for _ in range(MAX_SWEEPS):
                y = workspace.solve_spatial(z)
                ynorm = np.linalg.norm(y)
                if not np.isfinite(ynorm) or ynorm == 0.0:
                    raise _DegenerateEnrichment("spatial solve returned a null factor")

                z = workspace.solve_stochastic(y)
                znorm = np.linalg.norm(z)
                if not np.isfinite(znorm) or znorm == 0.0:
                    raise _DegenerateEnrichment("stochastic solve returned a null factor")
                y = y * znorm
                z = z / znorm

                if y_prev is not None and _increment_change(y, z, y_prev, z_prev) < ALTERNATION_TOL:
                    break
                y_prev, z_prev = y, z
            return y, z
        except (_DegenerateEnrichment, np.linalg.LinAlgError):
            # a singular or indefinite condensed matrix counts as degenerate
            continue
    raise RuntimeError(f"enrichment failed after {MAX_RESTARTS} random restarts")


class _DegenerateEnrichment(Exception):
    pass


def update_stochastic(workspace: _Workspace) -> np.ndarray:
    """Re-solve all stochastic factors of ``workspace.current`` for its fixed Y.

    Solves the coupled system with (i, j) block H_l[i, j] G_l, where
    H_l = Y^T K_l Y is read from the cached K_l Y columns, by a
    preconditioned Krylov iteration (conjugate gradients when every K_l is
    symmetric, GMRES otherwise).  The preconditioner inverts the mean block
    Z -> Z H_0^{-T}.  CG gets max(200, 20 kappa) steps, GMRES that budget
    rounded up to whole restart cycles; a solve that stops short of
    ``UPDATE_RTOL`` warns and returns its last iterate.
    """
    Y = workspace.current.Y
    n_xi, kappa = workspace.current.shape[1], Y.shape[1]
    num_terms = len(workspace._K)
    H = [Y.T @ workspace.KY[:, l::num_terms] for l in range(num_terms)]
    F = workspace._F
    rhs = F.Z @ (F.Y.T @ Y)

    def matvec(zflat):
        Z = np.asarray(zflat, dtype=float).reshape(n_xi, kappa, order="F")
        out = np.zeros((n_xi, kappa))
        for Hl, G in zip(H, workspace._G):
            out += (G @ Z) @ Hl.T
        return out.ravel(order="F")

    inv_H0 = np.linalg.pinv(H[0])

    def precond(zflat):
        Z = np.asarray(zflat, dtype=float).reshape(n_xi, kappa, order="F")
        return (Z @ inv_H0.T).ravel(order="F")

    size = n_xi * kappa
    op = spla.LinearOperator((size, size), matvec=matvec, dtype=float)
    M = spla.LinearOperator((size, size), matvec=precond, dtype=float)
    b = rhs.ravel(order="F")
    budget = max(200, 20 * kappa)  # inner steps
    if workspace._symmetric:
        zflat, info = spla.cg(op, b, rtol=UPDATE_RTOL, atol=0.0, maxiter=budget, M=M)
    else:
        # scipy's GMRES counts restart cycles of 50 steps: round the budget up
        zflat, info = spla.gmres(op, b, rtol=UPDATE_RTOL, atol=0.0, restart=50,
                                 maxiter=-(-budget // 50), M=M)
    if info != 0:
        warnings.warn(
            f"stochastic update did not converge (info={info}, budget={budget} steps)",
            stacklevel=2,
        )
    return zflat.reshape(n_xi, kappa, order="F")


def handle_nonhomogeneous_bc(A: StochasticOperator, lift) -> StochasticOperator:
    """Fold Dirichlet lift contributions into the factored right-hand side.

    ``lift`` is a fem.BoundaryLift.  Term l of the operator contributes the
    rank-one piece (G_l e_1) (x) (-A_l[int, bnd] g_D); columns are appended
    to the stored rhs.  Terms and mean factors are kept.
    """
    if lift is None:
        return A
    n_x, n_xi = A.shape
    y_cols, z_cols = [], []
    if A.rhs.rank:
        y_cols.append(A.rhs.Y)
        z_cols.append(A.rhs.Z)
    for (G, _), coup in zip(A.terms, lift.coupling, strict=True):
        if not np.any(coup):
            continue
        e1 = np.zeros(n_xi)
        e1[0] = 1.0
        z = G @ e1
        if not np.any(z):
            continue
        y_cols.append(coup.reshape(-1, 1))
        z_cols.append(np.asarray(z).reshape(-1, 1))
    if not y_cols:
        rhs = FactoredVector.zero(n_x, n_xi)
    else:
        rhs = truncate_svd(FactoredVector(np.hstack(y_cols), np.hstack(z_cols)))
    return replace(A, rhs=rhs)


def extract_stochastic_basis(u: FactoredVector) -> np.ndarray:
    """Orthonormal basis spanning the stochastic factor columns of u.

    Columns are normalized before the SVD so that weakly weighted modes
    survive: a direction the coarse solution carries with a tiny weight can
    still matter on the fine grid, and normalization changes conditioning,
    not span.  Directions below ``BASIS_RANK_TOL`` of the leading singular
    value are genuinely dependent and are dropped.
    """
    if u.rank == 0:
        return np.zeros((u.shape[1], 0))
    norms = np.linalg.norm(u.Z, axis=0)
    keep_cols = norms > 0.0
    Zn = u.Z[:, keep_cols] / norms[keep_cols]
    U, s, _ = np.linalg.svd(Zn, full_matrices=False)
    keep = int(np.sum(s > BASIS_RANK_TOL * s[0]))
    return U[:, :keep]


def solve_pgd(A: StochasticOperator, eps: float, seed: int = 0) -> PgdSolution:
    """Enrich until the relative residual drops below eps, then update once.

    The residual is evaluated in blocks of RESIDUAL_EVERY enrichments (and
    at rank one), so attained ranks land on block boundaries; the block
    granularity buys the stochastic basis a safety margin that the
    fine-grid projection solve relies on.  The coupled stochastic update
    runs once after enrichment stops and is kept only when it does not
    worsen the measured residual.  Enrichment stops at rank MAX_RANK.
    ``seed`` seeds the random restarts of the enrichment.
    """
    n_x, n_xi = A.shape
    rng = np.random.default_rng(seed)
    fnorm = norm(A.rhs)
    if fnorm == 0.0:
        return PgdSolution(FactoredVector.zero(n_x, n_xi), np.zeros((n_xi, 0)), True, (0.0,))

    workspace = _Workspace(A)
    history = []
    converged = False
    # every loop exit is a checkpoint (converged, or rank == MAX_RANK), so
    # rel always measures the final enriched factors
    while workspace.current.rank < MAX_RANK and not converged:
        workspace.extend(*enrich_rank_one(workspace, rng))
        u = workspace.current
        at_checkpoint = u.rank == 1 or u.rank % RESIDUAL_EVERY == 0
        if not (at_checkpoint or u.rank == MAX_RANK):
            continue
        rel = residual_norm(A, u) / fnorm
        history.append(rel)
        converged = rel < eps

    # the update is optimal in the operator-induced norm, which can move the
    # l2 residual slightly; keep whichever factor set measures better
    updated = FactoredVector(u.Y, update_stochastic(workspace))
    updated_rel = residual_norm(A, updated) / fnorm
    if updated_rel <= rel:
        u, rel = updated, updated_rel
    history.append(rel)
    converged = converged or rel < eps

    if not converged:
        warnings.warn(
            f"PGD stopped at rank {u.rank} with relative residual {rel:.3e} > {eps:.1e}",
            stacklevel=2,
        )
    return PgdSolution(u, extract_stochastic_basis(u), converged, tuple(history))
