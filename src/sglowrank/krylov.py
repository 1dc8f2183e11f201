"""Restarted low-rank projection solver and the end-to-end pipeline.

The solver runs GMRES-style cycles on the right-preconditioned operator
L = A M^{-1}.  M is always the mean-based block preconditioner
G_0 (x) K_0 = I (x) K_0 (Powell & Elman, IMA J. Numer. Anal. 2009).  Every
operator carries the 1D factors of K_0 = kron(P_y, M_x) + kron(Q_y, A_x),
so K_0^{-1} is set up once as one eigenbasis of (A_x, M_x) and one LAPACK
``gttrf`` factorization of each tridiagonal system P_y + lambda_j Q_y
(fast diagonalization); a block solve then runs in the y-major layout Y
already has, as two batched GEMMs around a forward and a backward sweep
over y that solve all the systems side by side.  Every basis vector
produced inside a cycle is compressed by a truncation operator or lies
in a fixed frame, so the basis V is not orthogonal.  The cycle
orthonormalizes the matvec outputs W = L V instead, and takes each next
basis vector from the least-squares residual (residual-based simpler
GMRES: Walker & Zhou, Numer. Linear Algebra Appl. 1994; Jiranek,
Rozloznik & Gutknecht, SIAM J. Matrix Anal. Appl. 2008).

With projection truncation onto an orthonormal basis B the cycles run on
the reduced operator sum_l (B^T G_l B) (x) K_l (``lowrank.reduce_operator``;
Powell, Silvester & Simoncini, SISC 2017) without truncation: every basis
vector after a cycle's first, matvec output and W row is an n_x x kappa
block of the kappa-identity frame, so W rows are n_x kappa long and
combinations sum spatial factors (``lowrank.combine``).  Its term 0 is
(I, K_0), so one preconditioner serves A and the reduced operator.  With
SVD truncation the same loop runs on A, and each combination is its
n_x x n_xi block before it is truncated.  A matvec of (Y, Z) solves
X = K_0^{-1} Y once; its output is the mean term Y Z^T (K_0 K_0^{-1} = I,
and G_0 = I, which the preconditioner checks once) plus
sum_l (K_l X)(G_l Z)^T for l = 1..M.  The sum is row-separable: for a
fixed block of grid rows it is one sparse product of those rows of the
row-interleaved stack of K_1..K_M with X and one GEMM with the stacked
(G_l Z)^T.  The preconditioner builds that stack once per solve; a block
of at most ceil(n_x / 2M) grid rows is a range of its rows, and the
partition depends on n_x and M alone.  The blocks run on the calling
thread and one worker thread per further CPU the process may use (a
module-level pool, none on one CPU): each thread takes the next block
when it is free and writes only that block's output rows, so the result
is the same for any number of threads.  Each thread works in its own
workspace, allocated before the blocks run, so no array is allocated or
freed while they run.  Each cycle allocates its own m rows for the
output blocks of its matvecs.

A cycle's first basis vector is its residual r, truncated on the SVD path
and normalized.  The zero iterate's residual is f, taken without a matvec:
its norm is ||f||, and its cycle starts from f's own factors, (Y_f, B^T Z_f)
with projection, no wider than f.  Matvec j's block is copied into row j,
and two classical Gram-Schmidt passes against the earlier rows
orthonormalize it in place into q_j and fill column j of the triangular R of
W = Q R.  With c_j = <q_j, r> the least-squares residual of the cycle is
r - sum_{i<=j} c_i q_i, formed from the rows, and its merge (truncated on
the SVD path), normalized, is the next basis vector.  A cycle ends at the
first j whose least-squares residual is below its target, or at j = m - 1,
and its update is u_hat + V beta with R beta = c.  A matvec whose R
diagonal is at most BASIS_DROP_TOL max(||w_j||, 1) adds no direction to W:
it is dropped with a warning, and the cycle ends on the earlier matvecs.

Convergence is judged on the true residual only, once per cycle: the
iterate, lifted by B with projection, gives R = f - A M^{-1} u_hat,
formed in the matvec's own output block, and the solve stops on
||R|| / ||f|| < eps.  With projection R splits into its frame part R B,
which seeds the next cycle, and its complement r_perp with
||r_perp||^2 = ||R||^2 - ||R B||^2.  r_perp moves with the iterate,
but the cycles only drive R B to zero: once a cycle has met its target
the iterate is near the reduced Galerkin solution that the restarts
converge to, whose residual is its complement alone, so
||r_perp|| >= eps ||f|| after such a cycle stops the solve as
basis-limited.  Otherwise the next cycle's target is
sqrt(eps^2 ||f||^2 - ||r_perp||^2), or eps ||f|| in the first cycle
(whose zero iterate leaves f's own complement) and after a cycle cut by
the cap m whose iterate's complement exceeds eps.  The solve also stops
after a cycle that removes less than a fraction STAGNATION_TOL of the
residual (basis-limited), on a vanished truncated residual, or after
MAX_CYCLES; ``SolveReport.status`` says which.  With right preconditioning the
accumulated iterate lives in the preconditioned variable, so M^{-1} is
applied once on return.

The pipeline builds the KL expansion and the chaos matrices once
(``build_stochastic``), assembles the coarse problem and runs the PGD
solver on it to learn the stochastic basis (``run_pgd``, through
``build_problem``), builds the multilevel truncation operator from it, and
solves the fine problem; coarse and fine levels share the stochastic
discretization, so the basis transfers without interpolation.
``prepare`` runs every stage before the fine solve once and returns the
fine solve as a function of the truncation, which ``pipeline`` calls
once and ``compare`` once per truncation.
``PipelineSpec`` is the one configuration, shared with the command line;
``solve`` takes the truncation and its three settings as plain arguments.
"""

from __future__ import annotations

import contextlib
import numbers
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs

from . import fem
from .chaos import build_spectral_basis, build_stochastic_matrices
# add and apply_operator are not called here, apply_operator nowhere in the
# package; they stay because perfbench/spans.py traces both krylov names
from .lowrank import (  # noqa: F401
    FactoredVector,
    StochasticOperator,
    TruncationOperator,
    add,
    apply_operator,
    block,
    build_operator,
    combine,
    coordinates,
    dense,
    inner,
    is_block,
    norm,
    reduce_operator,
    scale,
)
from .pgd import PgdSolution, handle_nonhomogeneous_bc, solve_pgd
from .randfield import ExponentialCovariance, KLExpansion, build_kl

__all__ = [
    "ConfigError",
    "MeanPreconditioner",
    "SolveReport",
    "apply_preconditioned",
    "solve",
    "PipelineSpec",
    "PipelineResult",
    "build_stochastic",
    "build_problem",
    "run_pgd",
    "prepare",
    "pipeline",
]

#: a matvec whose R diagonal, its norm after orthogonalization against the
#: earlier W rows, is at most this multiple of max(||w_j||, 1) adds no
#: direction: it is dropped and its cycle ends on the earlier matvecs
BASIS_DROP_TOL = 1e-13
#: a cycle that keeps more than 1 - STAGNATION_TOL of the residual ends the
#: solve as basis-limited.  Measured reduction factors: cycles of projection
#: runs whose basis cannot represent the solution keep 0.999975-1.0 of it,
#: converging cycles of the test and benchmark cells at most 0.044.
STAGNATION_TOL = 1e-2
#: cycle cap of ``solve``
MAX_CYCLES = 50

#: threads that run matvec row blocks besides the calling one: one per
#: further CPU this process may use, none on one CPU
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
) - 1


def _start_pool() -> None:
    global _POOL
    _POOL = ThreadPoolExecutor(_WORKERS) if _WORKERS else None


_start_pool()
if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's worker threads, and the
    # parent's pool would queue its tasks for ever
    os.register_at_fork(after_in_child=_start_pool)


def _threads(n: int) -> int:
    """How many threads ``_parallel_for`` runs n tasks on."""
    return 1 + min(_WORKERS, max(n - 1, 0))


def _parallel_for(task, n: int) -> None:
    """task(k, i) for k = 0..n - 1 on the calling thread (i = 0) and the
    pool's workers (i = 1 .. _threads(n) - 1), each taking the next k when
    it is free.  Each task writes its own slice of an output, so the result
    does not depend on which thread ran it; i selects the thread's own
    workspace."""
    ks = iter(range(n))  # shared: under the GIL each k is taken once

    def run(i):
        for k in ks:
            task(k, i)

    futures = [_POOL.submit(run, i) for i in range(1, _threads(n))]
    run(0)
    for future in futures:
        # a worker that has not started yet would find no task left
        if not future.cancel():
            future.result()


class MeanPreconditioner:
    """Exact inverse of the mean spatial block, applied columnwise.

    M = G_0 (x) K_0 with G_0 = I, checked exactly once here, so that
    M^{-1} = I (x) K_0^{-1} and the mean term of A M^{-1} is the identity.
    K_0 = kron(P_y, M_x) + kron(Q_y, A_x) is inverted by fast
    diagonalization from the operator's ``mean_factors``: with
    A_x V = M_x V diag(lambda) and V^T M_x V = I (Lynch, Rice & Thomas,
    Numer. Math. 1964), K_0 u = f on the (y, x) grid becomes one tridiagonal
    system (P_y + lambda_j Q_y) t_j = (F V)_j per x-mode j.  Each is
    factored once with partial pivoting by LAPACK ``gttrf`` into columns of
    (n_y, n_x) arrays of multipliers, row exchanges, reciprocal pivots and
    the two superdiagonals of U over their pivots, so that a solve sweeps
    all n_x systems side by side.  Exchanges occur in the nonsymmetric P_y
    of convection where mean_a0 < 1 and the Peclet number exceeds 1; a
    singular K_0 raises ``ValueError``.

    It also keeps the spatial matrices K_1..K_M of the operator as one
    row-interleaved CSR stack (12 MB on level 7 with M = 7), whose row
    i M + l is row i of K_{l+1} in stored order, so that (stack X)[i M + l]
    is (K_{l+1} X)[i] to the last bit, and the bounds of the row blocks of
    ``apply_preconditioned``.  A and the operators reduced from it share
    these matrices, so one preconditioner serves them all.  Besides K_0,
    V, these arrays and the stack it keeps only its last solve; the matvec
    allocates its own workspace.
    """

    def __init__(self, A: StochasticOperator):
        G0 = A.terms[0][0]
        n_xi = A.shape[1]
        identity = sp.identity(n_xi, format="csr")
        if G0.shape != (n_xi, n_xi) or (sp.csr_matrix(G0) != identity).nnz:
            raise ValueError("the mean preconditioner needs G_0 = I exactly")
        self._mean = A.mean_spatial
        P_y, Q_y, A_x, M_x = A.mean_factors
        lam, V = scipy.linalg.eigh(A_x.toarray(), M_x.toarray())
        self._V, self._Vt = V, np.ascontiguousarray(V.T)
        # entry (i, j) belongs to row i of the system of x-mode j: gttrf
        # turns the subdiagonal into the multipliers of steps 1..n_y - 1, d,
        # du and du2 into the diagonal and superdiagonals of U, and its
        # 1-based ipiv marks the steps that exchange rows.  Its wrapper takes
        # 3 rows or more; the one row of level 1 is its own factor.
        d = P_y.diagonal()[:, None] + Q_y.diagonal()[:, None] * lam
        du = P_y.diagonal(1)[:, None] + Q_y.diagonal(1)[:, None] * lam
        mult = np.zeros_like(d)
        mult[1:] = P_y.diagonal(-1)[:, None] + Q_y.diagonal(-1)[:, None] * lam
        du2 = np.zeros_like(du)
        swap = np.zeros(d.shape, dtype=bool)  # rows i - 1 and i exchanged at step i
        steps = np.arange(1, len(d))
        for j in range(len(lam) if len(d) > 1 else 0):
            mult[1:, j], d[:, j], du[:, j], du2[:-1, j], ipiv, _ = scipy.linalg.lapack.dgttrf(
                mult[1:, j], d[:, j], du[:, j]
            )
            swap[1:, j] = ipiv[:-1] != steps
        if not np.all(d):
            raise ValueError("the mean spatial block is singular")
        self._mult = mult[:, :, None]
        self._swap = swap[:, :, None]
        self._swapped = swap.any(axis=1).tolist()
        self._filled = du2.any(axis=1).tolist()
        self._inv_pivot = (1.0 / d)[:, :, None]
        self._ratio = (du / d[:-1])[:, :, None]
        self._ratio2 = (du2[:-1] / d[:-2])[:, :, None]
        self._last: tuple[FactoredVector | None, FactoredVector | None] = (None, None)
        self._spatial = tuple(K for _, K in A.terms[1:])
        n_x, M = A.shape[0], len(self._spatial)
        order = np.arange(M * n_x).reshape(M, n_x).T.ravel()  # order[i M + l] = l n_x + i
        stacked = sp.vstack(self._spatial, format="csr") if M else sp.csr_matrix((0, n_x))
        self._stack = stacked[order]
        self._bounds = list(range(0, n_x, -(-n_x // (2 * max(M, 1))))) + [n_x]

    def apply(self, u: FactoredVector) -> FactoredVector:
        """M u, moving an initial guess into the preconditioned variable."""
        return FactoredVector._adopt(self._mean @ u.Y, u.Z, u.orthonormal)

    def solve(self, u: FactoredVector) -> FactoredVector:
        """M^{-1} u = (I (x) K_0^{-1}) u; rank is unchanged.

        Y's rows are the (y, x) grid, y-major, so Y is read in place as
        n_y slices of n_x x r.  One batched GEMM takes every slice into the
        x-eigenbasis, a forward and a backward sweep over y solve all
        tridiagonal systems at once (one multiply and one subtraction per
        step on an n_x x r slice, and a masked row swap at a step where
        some system exchanges rows), and a batched GEMM takes the modes back
        into a new C-ordered n_y n_x x r array, the result: two such arrays
        are live.  The solve runs on the calling thread alone.  The last
        result is kept: the solver's final M^{-1} u_hat repeats the solve
        of its last residual check.
        """
        if self._last[0] is not u:
            n_y, n_x = self._inv_pivot.shape[:2]
            t = np.matmul(self._Vt, u.Y.reshape(n_y, n_x, u.rank))
            for i in range(1, n_y):
                if self._swapped[i]:
                    swap, above = self._swap[i], t[i - 1].copy()
                    t[i - 1] = np.where(swap, t[i], above)
                    t[i] = np.where(swap, above, t[i])
                t[i] -= self._mult[i] * t[i - 1]
            t *= self._inv_pivot
            for i in range(n_y - 2, -1, -1):
                t[i] -= self._ratio[i] * t[i + 1]
                if self._filled[i]:
                    t[i] -= self._ratio2[i] * t[i + 2]
            X = np.matmul(self._V, t).reshape(n_y * n_x, u.rank)
            self._last = (u, FactoredVector._adopt(X, u.Z, u.orthonormal))
        return self._last[1]


def _gemm_into(out: np.ndarray, a: np.ndarray, b: np.ndarray, beta: float) -> None:
    """out <- a b^T + beta out in place, for a C-ordered out.

    dgemm writes b a^T + beta out^T into out's Fortran-ordered transpose;
    the transposes of C-ordered a and b reach BLAS uncopied.
    """
    acc = scipy.linalg.blas.dgemm(1.0, b.T, a.T, beta=beta, c=out.T, trans_a=1, overwrite_c=1)
    # f2py copies c unless it is Fortran-ordered float64; a copy would
    # leave out unchanged
    if not np.may_share_memory(acc, out):
        raise RuntimeError("dgemm did not accumulate into its output")


def apply_preconditioned(A: StochasticOperator, P, u: FactoredVector) -> FactoredVector:
    """(A M^{-1}) u as its dense block, paired with the identity of its size
    (n_x x n_xi, or n_x x kappa for a reduced operator).

    With X = K_0^{-1} Y the mean term is Y Z^T, because K_0 K_0^{-1} = I
    and G_0 = I, and the other terms are sum_l (K_l X)(G_l Z)^T = S C with
    S = [K_1 X | ... | K_M X] and C = [G_1 Z | ... | G_M Z]^T.  C (M r x
    n_out) is formed once; rows a..b of the output are one sparse product
    of rows a M..b M of P's stack with X, read through a slice of its
    ``indptr`` and written as rows a..b of S, one GEMM with C written into
    the output rows and the mean term added.  The row blocks run on the
    calling thread and the pool, each writing its own rows.  Besides the
    output and X the call holds C and one workspace per thread, for one
    block of S and then the block's mean term Y Z^T (at most
    n_x max(M r, n_out) / 2M numbers each).  The workspaces are allocated
    before the blocks run and the sparse product writes into them
    (``csr_matvecs``, the kernel of scipy's CSR times dense), so no array
    is allocated or freed while the threads run: a free there can hand
    pages back to the kernel, which then interrupts the CPU of every other
    running thread to flush its TLB.  ``P`` must be built from an
    operator with A's spatial matrices K_1..K_M (A itself, or A reduced
    onto a basis); other matrices raise ``ValueError``.
    """
    n_x, n_xi = A.shape
    if u.shape != (n_x, n_xi):
        raise ValueError(f"operator shape {(n_x, n_xi)} does not match vector {u.shape}")
    spatial, stack, bounds = P._spatial, P._stack, P._bounds
    if len(spatial) != len(A.terms) - 1 or any(
        K is not S for (_, K), S in zip(A.terms[1:], spatial)
    ):
        raise ValueError("the preconditioner was built from other spatial matrices")
    if u.rank == 0:
        return FactoredVector.zero(n_x, n_xi)
    X = P.solve(u).Y
    Y, Z, r, M = u.Y, u.Z, u.rank, len(spatial)
    C = np.empty((M * r, n_xi))
    for l, (G, _) in enumerate(A.terms[1:]):
        C[l * r : (l + 1) * r] = (G @ Z).T
    in_frame = is_block(u)
    out = np.empty((n_x, n_xi))
    width = len(C) if in_frame else max(len(C), n_xi)
    work = np.empty((_threads(len(bounds) - 1), bounds[1] * width))
    x = X.ravel()  # X is C-ordered: the row-major n_x x r input csr_matvecs reads

    def rows(k, i):
        a, b = bounds[k], bounds[k + 1]
        S = work[i, : (b - a) * len(C)]
        S[:] = 0.0  # csr_matvecs adds the product into S
        csr_matvecs((b - a) * M, n_x, r, stack.indptr[a * M : b * M + 1], stack.indices,
                    stack.data, x, S)
        np.matmul(S.reshape(b - a, len(C)), C, out=out[a:b])
        if in_frame:
            out[a:b] += Y[a:b]
        else:
            T = work[i, : (b - a) * n_xi].reshape(b - a, n_xi)
            out[a:b] += np.matmul(Y[a:b], Z.T, out=T)

    _parallel_for(rows, len(bounds) - 1)
    return block(out)


@dataclass
class SolveReport:
    """Counts and residual history of one solve.

    ``status`` says why it stopped: ``converged``, ``basis-limited`` (after
    a cycle that met its target, the residual's part outside the
    projection basis alone is at least eps, or a cycle kept more than
    1 - STAGNATION_TOL of the residual), ``max-cycles`` or
    ``basis-vanished`` (the truncated residual was zero).
    ``complement_history`` holds ||r_perp|| / ||f|| at the top of each
    cycle, next to ``residual_history`` (0.0 without projection).
    """

    cycles: int
    matvecs: int
    residual_history: list[float]
    complement_history: list[float]
    final_rank: int
    status: str
    wall_times: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _residual(A: StochasticOperator, P, u_hat: FactoredVector) -> FactoredVector:
    """f - A M^{-1} u_hat as its dense block, for a nonzero iterate.

    The matvec's own output block W, released with its vector, is
    overwritten by Y_f Z_f^T - W in one dgemm, so the check holds one
    n_x x n_xi block.
    """
    R = apply_preconditioned(A, P, u_hat).Y
    R.flags.writeable = True  # the matvec's vector is dropped here
    _gemm_into(R, A.rhs.Y, A.rhs.Z, -1.0)
    return block(R)


def _cycle(A, P, merge, m: int, r: FactoredVector, v0, u_hat, target: float):
    """One restart cycle from the unit basis vector v0 and the residual block r.

    The recurrence and its stopping rules are in the module docstring; the
    cycle's own m rows W hold the orthonormalized matvec outputs q_j, and
    ``merge(vectors, coeffs)`` forms the basis vectors and the update
    merge([u_hat] + V, [1, beta]).  Returns the update, the number of
    matvecs (a dropped one included) and whether the last least-squares
    residual fell below ``target`` (False for a cycle cut by the cap m or
    by a dropped matvec).  Every vector of the cycle is released on return.
    """
    V = [v0]
    W = np.empty((m, r.Y.size))
    R = np.zeros((m, m))
    c = np.zeros(m)
    r_flat = r.Y.ravel()
    for j in range(m):
        W[j] = apply_preconditioned(A, P, V[j]).Y.ravel()
        w_norm = np.linalg.norm(W[j])
        for _ in range(2):
            h = W[:j] @ W[j]
            W[j] -= h @ W[:j]
            R[:j, j] += h
        R[j, j] = np.linalg.norm(W[j])
        # v_j has unit norm and L's mean term is the identity: 1 is the scale
        # of w_j also where L nearly annihilates v_j
        if R[j, j] <= BASIS_DROP_TOL * max(w_norm, 1.0):
            warnings.warn(
                f"projection Gram system is numerically rank deficient ({j}/{j + 1}); "
                "shrinking the step",
                stacklevel=3,
            )
            kept, reached = j, False
            break
        W[j] /= R[j, j]
        c[j] = inner(block(W[j].reshape(r.shape)), r)
        # r - sum_i c_i q_i, written over the product: one array per matvec
        v = c[: j + 1] @ W[: j + 1]
        v = block(np.subtract(r_flat, v, out=v).reshape(r.shape))
        kept, reached = j + 1, bool(norm(v) < target)
        if reached or kept == m:
            del v  # the update does not read the last least-squares residual
            break
        # rebinding v frees each intermediate block before the next matvec
        v = merge([v], [1.0])
        v = scale(v, 1.0 / norm(v))
        V.append(v)

    beta = scipy.linalg.solve_triangular(R[:kept, :kept], c[:kept])
    u_hat = merge([u_hat] + V[:kept], np.concatenate([[1.0], beta]))
    return u_hat, j + 1, reached


def solve(
    A: StochasticOperator,
    trunc: TruncationOperator,
    eps: float,
    m: int = 8,
    u0: FactoredVector | None = None,
) -> tuple[FactoredVector, SolveReport]:
    """Run restarted low-rank projection cycles until a stopping test passes.

    ``trunc`` is an SVD truncation, which compresses every basis vector and
    iterate, or a projection onto B, whose reduced operator the cycles
    solve without truncation (the stopping rule with its complement part
    is in the module docstring).  ``eps`` is the relative residual to
    reach, ``m`` the longest restart (a cycle ends at the first matvec
    whose least-squares residual passes its target) and ``u0`` an optional
    initial guess; at most MAX_CYCLES cycles run.  Returns the solution in
    the original variable together with a report.  The residual history
    holds the true relative residual at the top of each cycle, including
    the final accepted value.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if m < 1:
        raise ValueError("restart length m must be >= 1")
    t0 = time.perf_counter()
    P = MeanPreconditioner(A)
    t_setup = time.perf_counter() - t0

    fnorm = norm(A.rhs)
    if fnorm == 0.0:
        report = SolveReport(0, 0, [0.0], [0.0], 0, "converged", {"setup": t_setup, "solve": 0.0})
        return FactoredVector.zero(*A.shape), report

    t1 = time.perf_counter()
    B = trunc.basis if trunc.kind == "projection" else None
    if B is None:
        A_cycle, merge = A, lambda vectors, coeffs: trunc.apply(combine(vectors, coeffs))
    else:
        # no truncation: every vector of the cycles is a block of the
        # kappa-identity frame, and combines within it
        A_cycle, merge = reduce_operator(A, B), combine

    # the iterate in the preconditioned variable M u, in the frame of A_cycle
    if u0 is None or u0.rank == 0:
        x_hat = FactoredVector.zero(*A_cycle.shape)
        u_given = None
    else:
        x_hat = P.apply(u0)
        u_given = u0
        if B is not None:
            # only the guess's part in span(B) is checked and returned
            x_hat, u_given = block(coordinates(x_hat, B)), None

    history: list[float] = []
    complement: list[float] = []
    cycles = 0
    matvecs = 0
    reached = False  # whether the last cycle met its target
    status = "max-cycles"

    for outer in range(MAX_CYCLES + 1):
        u_hat = x_hat  # the iterate of A: x_hat itself, or x_hat lifted by B
        if B is not None:
            u_hat = FactoredVector._adopt(x_hat.Y, B @ x_hat.Z, x_hat.orthonormal)
        if x_hat.rank == 0:
            # the zero iterate's residual is f: its frame part with projection
            # is (Y_f, B^T Z_f), whose factors, no wider than f, start its cycle
            r_norm, r, v_tilde = fnorm, block(dense(A_cycle.rhs)), A_cycle.rhs
        else:
            r = _residual(A, P, u_hat)
            r_norm = norm(r)
            if B is not None:
                # the frame part (R B, B) is the reduced residual: pair it
                # with the kappa-identity frame of the cycles
                r = block(trunc.apply(r).Y)
            v_tilde = r
        rel = r_norm / fnorm
        perp = 0.0
        if B is not None:
            v_norm = norm(r)  # the frame part's, and the cycle's first vector's
            perp = float(np.sqrt(max(r_norm**2 - v_norm**2, 0.0))) / fnorm
        if history and rel > history[-1]:
            warnings.warn(
                f"cycle {outer} increased the relative residual "
                f"({history[-1]:.3e} -> {rel:.3e}); the truncation rank may be "
                "too small for this problem",
                stacklevel=2,
            )
        history.append(rel)
        complement.append(perp)
        if rel < eps:
            status = "converged"
            break
        if reached and perp >= eps:
            # the last cycle met its target, so the iterate is near the
            # reduced solution the cycles converge to, and its complement
            # is the floor that further restarts leave
            status = "basis-limited"
            break
        if len(history) > 1 and rel > (1.0 - STAGNATION_TOL) * history[-2]:
            status = "basis-limited"
            break
        if outer == MAX_CYCLES:
            break

        if B is None:
            v_tilde = trunc.apply(v_tilde)
            v_norm = norm(v_tilde)
        if v_norm == 0.0:
            warnings.warn("truncated residual vanished; cannot build a basis", stacklevel=2)
            status = "basis-vanished"
            break
        # the complement of the zero iterate is f's own, and one of an
        # iterate far from the reduced solution can exceed eps: both cycles
        # aim at eps ||f|| alone, as every SVD cycle does
        target = eps
        if cycles and 0.0 < perp < eps:
            target = np.sqrt(eps**2 - perp**2)
        x_hat, cycle_matvecs, reached = _cycle(
            A_cycle, P, merge, m, r, scale(v_tilde, 1.0 / v_norm), x_hat, fnorm * target
        )
        matvecs += cycle_matvecs
        cycles += 1

    t_solve = time.perf_counter() - t1
    if status != "converged":
        warnings.warn(
            f"projection solver stopped after {cycles} cycles at relative "
            f"residual {history[-1]:.3e} ({status})",
            stacklevel=2,
        )
    if cycles == 0 and u_given is not None:
        solution = u_given
    else:
        solution = P.solve(u_hat)
    report = SolveReport(
        cycles, matvecs, history, complement, solution.rank, status,
        {"setup": t_setup, "solve": t_solve},
    )
    return solution, report


class ConfigError(ValueError):
    """A configuration value out of range, named in the message.

    ``PipelineSpec`` raises it for values it checks alone, ``build_stochastic``
    for values whose KL expansion or chaos basis exceeds a size limit
    (``randfield.MAX_1D_MODES``, ``chaos.MAX_INDEX_SET_SIZE``).
    """


@dataclass(frozen=True)
class PipelineSpec:
    """Problem plus algorithm parameters for one coarse-to-fine run.

    The single configuration of the package: the command line reads its
    config files into this class, with the field names as keys.
    Construction checks every field and raises one ConfigError that names
    all problems found: every field of the wrong type (int fields take Python
    or numpy integers, float fields real numbers, ``domain`` a sequence of
    four real numbers, never a bool), else every value out of range or not
    finite.
    """

    kind: str = "diffusion"  # "diffusion" | "convection-diffusion"
    domain: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0)
    corr_len: float = 4.0
    sigma: float = 0.05
    mean_a0: float = 1.0
    degree: int = 3
    fine_level: int = 6
    eps: float = 1e-5
    num_modes: int | None = None  # None means capture randfield.CAPTURE of the variance
    coarse_level: int | None = None  # None means choose automatically
    nu: float | None = None
    m: int = 8
    truncation: str = "multilevel"  # "multilevel" | "svd"
    seed: int = 0

    def __post_init__(self):
        # a tuple: a list would skip the finite check and leave the spec unhashable
        with contextlib.suppress(TypeError):  # a scalar is named below
            object.__setattr__(self, "domain", tuple(self.domain))

        def number(kind):  # a bool is no number here
            return lambda v: isinstance(v, kind) and not isinstance(v, bool)

        real = number(numbers.Real)
        kinds = {
            "int": number(numbers.Integral),
            "float": real,
            "tuple[float, float, float, float]":
                lambda v: isinstance(v, tuple) and len(v) == 4 and all(map(real, v)),
        }
        wrong, errors = [], []
        for f in fields(self):
            is_kind, value = kinds.get(f.type.split(" |")[0]), getattr(self, f.name)
            if is_kind and not (value is None and "None" in f.type) and not is_kind(value):
                wrong.append(f"{f.name} must be {f.type}, got {value!r}")
            elif isinstance(value, (float, np.floating, tuple)) and not np.all(np.isfinite(value)):
                errors.append(f"{f.name} must be finite, got {value}")
        if wrong:  # the range checks below would compare values of the wrong type
            raise ConfigError("; ".join(wrong))
        d = tuple(map(float, self.domain))
        object.__setattr__(self, "domain", d)
        checks = [
            (self.kind in ("diffusion", "convection-diffusion"),
             f"kind must be diffusion or convection-diffusion, got {self.kind!r}"),
            (d[1] > d[0] and d[3] > d[2],
             f"domain must be x_lo, x_hi, y_lo, y_hi with x_lo < x_hi and y_lo < y_hi, got {d}"),
            (self.corr_len > 0, f"corr_len must be positive, got {self.corr_len}"),
            (self.sigma >= 0, f"sigma must be >= 0, got {self.sigma}"),
            (self.mean_a0 > 0, f"mean_a0 must be positive, got {self.mean_a0}"),
            (self.degree >= 0, f"degree must be >= 0, got {self.degree}"),
            (self.fine_level >= 1, f"fine_level must be >= 1, got {self.fine_level}"),
            (0 < self.eps < 1, f"eps must lie in (0, 1), got {self.eps}"),
            (self.num_modes is None or self.num_modes >= 1,
             f"num_modes must be >= 1, got {self.num_modes}"),
            (self.coarse_level is None or 1 <= self.coarse_level <= self.fine_level,
             f"coarse_level must lie in [1, fine_level = {self.fine_level}] or be auto, "
             f"got {self.coarse_level}"),
            (self.kind != "convection-diffusion" or (self.nu is not None and self.nu > 0),
             "convection-diffusion needs a positive nu"),
            (self.kind != "diffusion" or self.nu is None,
             f"nu applies to convection-diffusion only, got {self.nu} for diffusion"),
            (self.m >= 1, f"m must be >= 1, got {self.m}"),
            (self.truncation in ("multilevel", "svd"),
             f"truncation must be multilevel or svd, got {self.truncation!r}"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
        ]
        errors += [message for ok, message in checks if not ok]
        if errors:
            raise ConfigError("; ".join(errors))


@dataclass
class PipelineResult:
    solution: FactoredVector  # homogeneous interior part, original variable
    report: SolveReport
    pgd: PgdSolution
    kl: KLExpansion
    fine_grid: fem.Grid
    coarse_grid: fem.Grid
    fine_operator: StochasticOperator
    bc_lift: fem.BoundaryLift | None  # Dirichlet data of the fine problem

    @property
    def n_xi(self) -> int:
        return self.fine_operator.shape[1]


def build_stochastic(spec: PipelineSpec) -> tuple[KLExpansion, tuple[sp.csr_matrix, ...]]:
    """The KL expansion of the field and the chaos coupling matrices G_1..G_M."""
    cov = ExponentialCovariance(spec.sigma, spec.corr_len, spec.domain)
    try:
        kl = build_kl(cov, spec.mean_a0, spec.num_modes)
        indices = build_spectral_basis(kl.num_modes, spec.degree)
    except ValueError as exc:  # a size limit; the spec has checked every other input
        modes = "auto" if spec.num_modes is None else spec.num_modes
        raise ConfigError(
            f"corr_len = {spec.corr_len}, num_modes = {modes}, degree = {spec.degree}: {exc}"
        ) from None
    return kl, build_stochastic_matrices(indices)


def build_problem(
    spec: PipelineSpec, level: int, kl: KLExpansion, stoch: tuple[sp.csr_matrix, ...]
) -> tuple[fem.Grid, fem.SpatialMatrices, StochasticOperator]:
    """Grid, spatial matrices and Galerkin operator of ``spec`` on ``level``.

    Convection-diffusion grids are stretched towards the boundary layer and
    the Dirichlet lift is folded into the right-hand side.
    """
    if spec.kind == "diffusion":
        grid = fem.make_grid(level, spec.domain)
        spatial = fem.assemble_diffusion(grid, kl)
        return grid, spatial, build_operator(spatial, stoch)
    stretch = fem.stretch_for_boundary_layer(level, spec.domain, spec.nu)
    grid = fem.make_grid(level, spec.domain, stretch)
    spatial = fem.assemble_convection_diffusion(grid, kl, spec.nu)
    A = handle_nonhomogeneous_bc(build_operator(spatial, stoch), spatial.bc_lift)
    return grid, spatial, A


def run_pgd(
    spec: PipelineSpec, kl: KLExpansion, stoch: tuple[sp.csr_matrix, ...]
) -> tuple[fem.Grid, PgdSolution]:
    """The coarse grid and the PGD solution of ``spec`` on it, to ``spec.eps``.

    The coarse level is ``spec.coarse_level`` or, when that is None, the
    level ``fem.recommend_coarse_level`` picks for the field, capped at the
    fine level.
    """
    level = spec.coarse_level
    if level is None:
        level = min(fem.recommend_coarse_level(kl, spec.nu), spec.fine_level)
    grid, _, A = build_problem(spec, level, kl, stoch)
    return grid, solve_pgd(A, spec.eps, seed=spec.seed)


def prepare(spec: PipelineSpec):
    """Every stage of ``pipeline`` before the fine solve, run once.

    Builds the KL expansion and chaos matrices, the coarse PGD solution and
    the fine operator of ``spec``, and returns ``finish(truncation)``,
    which solves the fine problem with the basis-derived truncation
    ("multilevel": projection onto the PGD basis, "svd": SVD truncation at
    its rank) and returns the result with the stage's wall times.
    ``compare`` calls it once per ``lrp-*`` variant.
    """
    times: dict[str, float] = {}
    kl, stoch = build_stochastic(spec)

    t0 = time.perf_counter()
    coarse_grid, pgd_sol = run_pgd(spec, kl, stoch)
    times["coarse"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    fine_grid, spatial, A_fine = build_problem(spec, spec.fine_level, kl, stoch)
    times["fine_assembly"] = time.perf_counter() - t1

    def finish(truncation: str) -> PipelineResult:
        if truncation == "multilevel":
            trunc = TruncationOperator("projection", basis=pgd_sol.Zc)
        else:
            trunc = TruncationOperator("svd-rank", rank=pgd_sol.Zc.shape[1])
        t2 = time.perf_counter()
        solution, report = solve(A_fine, trunc, spec.eps, spec.m)
        report.wall_times = {
            **times, "fine_solve": time.perf_counter() - t2, **report.wall_times
        }
        return PipelineResult(
            solution, report, pgd_sol, kl, fine_grid, coarse_grid, A_fine, spatial.bc_lift
        )

    return finish


def pipeline(spec: PipelineSpec) -> PipelineResult:
    """Coarse PGD, basis extraction, and the preconditioned fine-grid solve."""
    return prepare(spec)(spec.truncation)
