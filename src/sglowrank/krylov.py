"""Restarted low-rank projection solver and the end-to-end pipeline.

The solver runs GMRES-style cycles on the right-preconditioned operator
L = A M^{-1} with M the mean-based preconditioner G_0 (x) K_0 (the mean
spatial block is factorized exactly once and reused).  Every basis vector
produced inside a cycle is compressed by a truncation operator, so the
basis is not orthogonal and both projections are computed through explicit
Gram systems:

    (V_j^T V_j) alpha = V_j^T w_j        (orthogonalization step)
    (W_m^T W_m) beta  = W_m^T r_k        (residual projection; W = L V)

A matvec multiplies the stored rank by the M+1 operator terms, which
usually makes it wider than the stochastic dimension n_xi.  Every matvec
output and every residual wider than n_xi is therefore folded, exactly,
into the n_x x n_xi block Y Z^T paired with the identity (``lowrank.fold``),
so the stored W_j and r_k are at most n_xi columns wide.  Folded blocks
share one orthonormal stochastic factor, as do all projection-truncated
basis vectors, so the Gram entries and norms among them are Frobenius
products of the spatial factors and need no QR.

The cycle update is u <- T(u + V beta); the outer loop checks the true
untruncated residual and stops on ||r|| / ||f|| < eps.  With right
preconditioning the accumulated iterate lives in the preconditioned
variable, so M^{-1} is applied once on return.

The pipeline assembles the coarse problem, runs the PGD solver to learn the
stochastic basis, builds the multilevel truncation operator from it, and
solves the fine problem; coarse and fine levels share the stochastic
discretization, so the basis transfers without interpolation.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from . import fem
from .chaos import build_spectral_basis, build_stochastic_matrices
from .lowrank import (
    FactoredVector,
    StochasticOperator,
    TruncationOperator,
    add,
    apply_operator,
    build_operator,
    fold,
    inner,
    norm,
    scale,
)
from .pgd import PgdSolution, handle_nonhomogeneous_bc, solve_pgd
from .randfield import ExponentialCovariance, KLExpansion, build_kl

__all__ = [
    "MeanPreconditioner",
    "IdentityPreconditioner",
    "SolverConfig",
    "SolveReport",
    "apply_preconditioned",
    "solve",
    "PipelineSpec",
    "PipelineResult",
    "pipeline",
]

#: basis vectors whose post-orthogonalization norm falls below this multiple
#: of the matvec norm terminate the inner loop (Krylov space exhausted)
BASIS_DROP_TOL = 1e-13
#: numerical-rank threshold of the dense Gram solves
GRAM_RCOND = 1e-12


class MeanPreconditioner:
    """Exact factorization of the mean spatial block, applied columnwise."""

    def __init__(self, A: StochasticOperator):
        self._mean = A.mean_spatial
        self._lu = spla.splu(A.mean_spatial.tocsc())
        self.shape = A.shape

    def solve_spatial(self, Y: np.ndarray) -> np.ndarray:
        if Y.shape[1] == 0:
            return np.array(Y)
        return self._lu.solve(np.asarray(Y))

    def apply(self, u: FactoredVector) -> FactoredVector:
        """M u, moving an initial guess into the preconditioned variable."""
        return FactoredVector._adopt(self._mean @ u.Y, u.Z, u.orthonormal)

    def solve(self, u: FactoredVector) -> FactoredVector:
        """M^{-1} u = (I (x) K_0^{-1}) u; rank is unchanged."""
        return FactoredVector._adopt(self.solve_spatial(u.Y), u.Z, u.orthonormal)


class IdentityPreconditioner:
    def __init__(self, A: StochasticOperator):
        self.shape = A.shape

    def solve_spatial(self, Y: np.ndarray) -> np.ndarray:
        return np.array(Y)

    def solve(self, u: FactoredVector) -> FactoredVector:
        return u

    def apply(self, u: FactoredVector) -> FactoredVector:
        return u


def build_preconditioner(A: StochasticOperator, kind: str):
    if kind == "mean-exact":
        return MeanPreconditioner(A)
    if kind == "none":
        return IdentityPreconditioner(A)
    raise ValueError(f"unknown preconditioner {kind!r}")


def apply_preconditioned(A: StochasticOperator, P, u: FactoredVector) -> FactoredVector:
    """(A M^{-1}) u in factored form, folded to at most n_xi columns."""
    return fold(apply_operator(A, P.solve(u)))


@dataclass(frozen=True)
class SolverConfig:
    eps: float
    trunc: TruncationOperator
    m: int = 8
    max_cycles: int = 50
    preconditioner: str = "mean-exact"
    max_w_columns: int | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("restart length m must be >= 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")


@dataclass
class SolveReport:
    cycles: int
    matvecs: int
    residual_history: list[float]
    final_rank: int
    converged: bool
    wall_times: dict = field(default_factory=dict)


def _gram_solve(Gram: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Dense Gram solve; rank-deficient systems shrink to their numerical rank."""
    sol, _, rank, _ = np.linalg.lstsq(Gram, rhs, rcond=GRAM_RCOND)
    if rank < Gram.shape[0]:
        warnings.warn(
            f"{what} Gram system is numerically rank deficient "
            f"({rank}/{Gram.shape[0]}); shrinking the step",
            stacklevel=3,
        )
    return sol


def _combination(vectors: list[FactoredVector], coeffs: np.ndarray) -> FactoredVector:
    cols_y = [c * v.Y for v, c in zip(vectors, coeffs) if c != 0.0 and v.rank]
    cols_z = [v.Z for v, c in zip(vectors, coeffs) if c != 0.0 and v.rank]
    if not cols_y:
        n_x, n_xi = vectors[0].shape
        return FactoredVector.zero(n_x, n_xi)
    return FactoredVector._adopt(np.hstack(cols_y), np.hstack(cols_z))


def solve(
    A: StochasticOperator,
    cfg: SolverConfig,
    u0: FactoredVector | None = None,
) -> tuple[FactoredVector, SolveReport]:
    """Run restarted low-rank projection cycles until the residual test passes.

    Returns the solution in the original variable together with a report.
    The residual history holds the true relative residual at the top of each
    cycle, including the final accepted value.
    """
    t0 = time.perf_counter()
    P = build_preconditioner(A, cfg.preconditioner)
    t_setup = time.perf_counter() - t0

    n_x, n_xi = A.shape
    fnorm = norm(A.rhs)
    if fnorm == 0.0:
        report = SolveReport(0, 0, [0.0], 0, True, {"setup": t_setup, "solve": 0.0})
        return FactoredVector.zero(n_x, n_xi), report

    # iterate in the preconditioned variable u_hat = M u
    if u0 is None or u0.rank == 0:
        u_hat = FactoredVector.zero(n_x, n_xi)
        u_given = None
    else:
        u_hat = P.apply(u0)
        u_given = u0

    t1 = time.perf_counter()
    history: list[float] = []
    cycles = 0
    matvecs = 0
    converged = False

    for outer in range(cfg.max_cycles + 1):
        r = fold(add(A.rhs, scale(apply_preconditioned(A, P, u_hat), -1.0)))
        rel = norm(r) / fnorm
        if history and rel > history[-1]:
            warnings.warn(
                f"cycle {outer} increased the relative residual "
                f"({history[-1]:.3e} -> {rel:.3e}); the truncation rank may be "
                "too small for this problem",
                stacklevel=2,
            )
        history.append(rel)
        if rel < cfg.eps:
            converged = True
            break
        if outer == cfg.max_cycles:
            break

        v_tilde = cfg.trunc.apply(r)
        v_norm = norm(v_tilde)
        if v_norm == 0.0:
            warnings.warn("truncated residual vanished; cannot build a basis", stacklevel=2)
            break
        V = [scale(v_tilde, 1.0 / v_norm)]
        W: list[FactoredVector] = []
        VtV = np.zeros((cfg.m, cfg.m))
        VtV[0, 0] = inner(V[0], V[0])

        for j in range(cfg.m):
            w = apply_preconditioned(A, P, V[j])
            matvecs += 1
            if cfg.max_w_columns is not None and w.rank > cfg.max_w_columns:
                raise MemoryError(
                    f"matvec rank {w.rank} exceeds max_w_columns={cfg.max_w_columns}"
                )
            W.append(w)
            if j + 1 == cfg.m:
                break
            Vtw = np.array([inner(v, w) for v in V])
            alpha = _gram_solve(VtV[: j + 1, : j + 1], Vtw, "orthogonalization")
            v_next = cfg.trunc.apply(_combination([w] + V, np.concatenate([[1.0], -alpha])))
            v_next_norm = norm(v_next)
            if v_next_norm <= BASIS_DROP_TOL * norm(w):
                break  # basis cannot grow further; use the j+1 vectors built
            v_next = scale(v_next, 1.0 / v_next_norm)
            V.append(v_next)
            for i, v in enumerate(V):
                VtV[i, j + 1] = VtV[j + 1, i] = inner(v, v_next)

        m_eff = len(W)
        WtW = np.zeros((m_eff, m_eff))
        for i in range(m_eff):
            for j in range(i, m_eff):
                WtW[i, j] = WtW[j, i] = inner(W[i], W[j])
        Wtr = np.array([inner(w, r) for w in W])
        beta = _gram_solve(WtW, Wtr, "projection")
        u_hat = cfg.trunc.apply(
            _combination([u_hat] + V[:m_eff], np.concatenate([[1.0], beta]))
        )
        cycles += 1

    t_solve = time.perf_counter() - t1
    if not converged and history and history[-1] >= cfg.eps:
        warnings.warn(
            f"projection solver stopped after {cycles} cycles at relative "
            f"residual {history[-1]:.3e}",
            stacklevel=2,
        )
    if cycles == 0 and u_given is not None:
        solution = u_given
    else:
        solution = P.solve(u_hat)
    report = SolveReport(
        cycles,
        matvecs,
        history,
        solution.rank,
        converged,
        {"setup": t_setup, "solve": t_solve},
    )
    return solution, report


@dataclass(frozen=True)
class PipelineSpec:
    """Problem plus algorithm parameters for one coarse-to-fine run."""

    kind: str  # "diffusion" | "convection-diffusion"
    domain: tuple[float, float, float, float]
    corr_len: float
    sigma: float
    mean_a0: float
    degree: int
    fine_level: int
    eps: float
    capture: float | None = None
    num_modes: int | None = None
    coarse_level: int | None = None  # None means choose automatically
    points_per_halfwave: float = 8.0
    nu: float | None = None
    wind: tuple[float, float] = (0.0, 1.0)
    stretch: str = "auto"  # "auto" | "none", convection-diffusion only
    m: int = 8
    truncation: str = "multilevel"  # "multilevel" | "svd"
    max_cycles: int = 50
    preconditioner: str = "mean-exact"
    pgd_eps: float | None = None
    pgd_max_rank: int = 500
    pgd_update_policy: str = "at-end"
    pgd_update_every: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("diffusion", "convection-diffusion"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.kind == "convection-diffusion" and self.nu is None:
            raise ValueError("convection-diffusion needs a viscosity")
        if self.truncation not in ("multilevel", "svd"):
            raise ValueError(f"unknown truncation {self.truncation!r}")


@dataclass
class PipelineResult:
    solution: FactoredVector  # homogeneous interior part, original variable
    report: SolveReport
    pgd: PgdSolution
    kl: KLExpansion
    n_xi: int
    coarse_level: int
    fine_grid: fem.Grid
    coarse_grid: fem.Grid
    fine_operator: StochasticOperator
    truncation_rank: int
    wall_times: dict


def _grid_for(spec: PipelineSpec, level: int) -> fem.Grid:
    stretch = None
    if spec.kind == "convection-diffusion" and spec.stretch == "auto":
        stretch = fem.stretch_for_boundary_layer(level, spec.domain, spec.nu)
    return fem.make_grid(level, spec.domain, stretch)


def _assemble(spec: PipelineSpec, kl: KLExpansion, stoch, grid: fem.Grid) -> StochasticOperator:
    if spec.kind == "diffusion":
        spatial = fem.assemble_diffusion(grid, kl)
        return build_operator(spatial, stoch)
    spatial, _ = fem.assemble_convection_diffusion(grid, kl, spec.nu, spec.wind)
    A = build_operator(spatial, stoch)
    return handle_nonhomogeneous_bc(A, spatial.bc_lift)


def pipeline(spec: PipelineSpec) -> PipelineResult:
    """Coarse PGD, basis extraction, and the preconditioned fine-grid solve."""
    times: dict[str, float] = {}
    kl = build_kl(
        ExponentialCovariance(spec.sigma, spec.corr_len, spec.domain),
        spec.mean_a0,
        capture=spec.capture,
        num_modes=spec.num_modes,
    )
    basis = build_spectral_basis(kl.num_modes, spec.degree)
    stoch = build_stochastic_matrices(basis)

    coarse_level = spec.coarse_level
    if coarse_level is None:
        coarse_level = fem.recommend_coarse_level(
            kl, spec.points_per_halfwave, spec.kind, spec.nu
        )

    t0 = time.perf_counter()
    coarse_grid = _grid_for(spec, coarse_level)
    A_coarse = _assemble(spec, kl, stoch, coarse_grid)
    pgd_sol = solve_pgd(
        A_coarse,
        spec.pgd_eps if spec.pgd_eps is not None else spec.eps,
        max_rank=spec.pgd_max_rank,
        update_policy=spec.pgd_update_policy,
        update_every=spec.pgd_update_every,
        seed=spec.seed,
    )
    times["coarse"] = time.perf_counter() - t0

    kappa = pgd_sol.Zc.shape[1]
    if spec.truncation == "multilevel":
        trunc = TruncationOperator("projection", basis=pgd_sol.Zc)
    else:
        trunc = TruncationOperator("svd-rank", rank=kappa)

    t1 = time.perf_counter()
    fine_grid = _grid_for(spec, spec.fine_level)
    A_fine = _assemble(spec, kl, stoch, fine_grid)
    times["fine_assembly"] = time.perf_counter() - t1

    cfg = SolverConfig(
        eps=spec.eps,
        trunc=trunc,
        m=spec.m,
        max_cycles=spec.max_cycles,
        preconditioner=spec.preconditioner,
    )
    t2 = time.perf_counter()
    solution, report = solve(A_fine, cfg)
    times["fine_solve"] = time.perf_counter() - t2
    times.update(report.wall_times)
    report.wall_times = times

    return PipelineResult(
        solution,
        report,
        pgd_sol,
        kl,
        basis.size,
        coarse_level,
        fine_grid,
        coarse_grid,
        A_fine,
        kappa,
        times,
    )
