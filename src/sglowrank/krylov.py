"""Restarted low-rank projection solver and the end-to-end pipeline.

The solver runs GMRES-style cycles on the right-preconditioned operator
L = A M^{-1}.  M is always the mean-based block preconditioner
G_0 (x) K_0 = I (x) K_0 (Powell & Elman, IMA J. Numer. Anal. 2009); the
mean spatial block is factorized exactly once and reused.  Every
basis vector produced inside a cycle is compressed by a truncation
operator, so the basis is not orthogonal and both projections are
computed through explicit Gram systems:

    (V_j^T V_j) alpha = V_j^T w_j        (orthogonalization step)
    (W_m^T W_m) beta  = W_m^T r_k        (residual projection; W = L V)

Every matvec output and every residual is stored as its dense
n_x x n_xi block, paired with the identity frame (``lowrank.block`` /
``lowrank.fold``).  A matvec of (Y, Z) solves X = K_0^{-1} Y once and folds
all M+1 terms with one product [Y | K_1 X | ... | K_M X] [G_0 Z | ... | G_M Z]^T
in a reused buffer; the mean term is Y itself because K_0 K_0^{-1} = I and
G_0 = I, which the preconditioner checks once.  The m output blocks of a
cycle sit in one array allocated before the first cycle, so W^T W and
W^T r are one BLAS product each.

With projection truncation onto a basis B every basis vector and the
iterate are n_x x kappa blocks Y paired with B itself.  The generic rules
of ``lowrank`` then keep all work in that frame: V^T w is one product
W B and kappa-wide Frobenius dots (``inners``), the combination
w - sum alpha_i V_i is the block W next to the summed Y_i (n_xi + kappa
columns) before its projection, and the cycle update u + V beta is the
summed Y.  SVD truncation runs through the same loop.  Every norm is
taken in an orthonormal stochastic frame (``lowrank.norm``): the identity
of the folded blocks and of the right-hand side, B, or the factor an SVD
truncation returns.

The cycle update is u <- T(u + V beta); the outer loop checks the true
untruncated residual and stops on ||r|| / ||f|| < eps, after a cycle that
removes less than a fraction STAGNATION_TOL of the residual (the basis
cannot represent a better iterate), on a vanished truncated residual, or
after MAX_CYCLES; ``SolveReport.status`` says which.  With right
preconditioning the accumulated iterate lives in the preconditioned
variable, so M^{-1} is applied once on return.

The pipeline builds the KL expansion and the chaos matrices once
(``build_stochastic``), assembles the coarse problem and runs the PGD
solver on it to learn the stochastic basis (``run_pgd``, through
``build_problem``), builds the multilevel truncation operator from it, and
solves the fine problem; coarse and fine levels share the stochastic
discretization, so the basis transfers without interpolation.
``PipelineSpec`` is the one configuration, shared with the command line;
``solve`` takes the truncation and its three settings as plain arguments.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .chaos import StochasticMatrices, build_spectral_basis, build_stochastic_matrices
# apply_operator is not called here; it stays a module attribute because
# perfbench/spans.py traces krylov.apply_operator
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
    fold,
    inner,
    inners,
    norm,
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
    "pipeline",
]

#: basis vectors whose post-orthogonalization norm falls below this multiple
#: of the matvec norm terminate the inner loop (Krylov space exhausted)
BASIS_DROP_TOL = 1e-13
#: numerical-rank threshold of the dense Gram solves
GRAM_RCOND = 1e-12
#: a cycle that keeps more than 1 - STAGNATION_TOL of the residual ends the
#: solve as basis-limited.  Measured reduction factors: cycles of projection
#: runs whose basis cannot represent the solution keep 0.999975-1.0 of it,
#: converging cycles of the test and benchmark cells at most 0.044.
STAGNATION_TOL = 1e-2
#: cycle cap of ``solve``
MAX_CYCLES = 50
#: share of the field variance the KL truncation keeps when
#: ``PipelineSpec.num_modes`` is unset
CAPTURE = 0.95


class MeanPreconditioner:
    """Exact factorization of the mean spatial block, applied columnwise.

    M = G_0 (x) K_0 with G_0 = I, checked exactly once here, so that
    M^{-1} = I (x) K_0^{-1} and the mean term of A M^{-1} is the identity.
    It also keeps the buffer the folded matvec reuses for the spatial stack
    [Y | K_1 X | ... | K_M X].
    """

    def __init__(self, A: StochasticOperator):
        G0 = A.terms[0][0]
        n_xi = A.shape[1]
        identity = sp.identity(n_xi, format="csr")
        if G0.shape != (n_xi, n_xi) or (sp.csr_matrix(G0) != identity).nnz:
            raise ValueError("the mean preconditioner needs G_0 = I exactly")
        self.shape = A.shape
        self._mean = A.mean_spatial
        self._spatial = np.empty(0)
        self._lu = spla.splu(A.mean_spatial.tocsc(), permc_spec="MMD_AT_PLUS_A")
        self._last: tuple[FactoredVector | None, FactoredVector | None] = (None, None)

    def spatial_stack(self, width: int) -> np.ndarray:
        n_x = self.shape[0]
        if self._spatial.size < n_x * width:
            self._spatial = np.empty(n_x * width)
        return self._spatial[: n_x * width].reshape(n_x, width)

    def apply(self, u: FactoredVector) -> FactoredVector:
        """M u, moving an initial guess into the preconditioned variable."""
        return FactoredVector._adopt(self._mean @ u.Y, u.Z, u.orthonormal)

    def solve(self, u: FactoredVector) -> FactoredVector:
        """M^{-1} u = (I (x) K_0^{-1}) u; rank is unchanged.

        The last result is kept: the solver's final M^{-1} u_hat repeats the
        solve of its last residual check.
        """
        if self._last[0] is not u:
            X = self._lu.solve(np.asarray(u.Y)) if u.rank else np.array(u.Y)
            self._last = (u, FactoredVector._adopt(X, u.Z, u.orthonormal))
        return self._last[1]


def apply_preconditioned(A: StochasticOperator, P, u: FactoredVector) -> FactoredVector:
    """(A M^{-1}) u as its dense n_x x n_xi block, paired with the identity.

    With X = K_0^{-1} Y, one product of the stacked factors folds all terms,
    [Y | K_1 X | ... | K_M X] [G_0 Z | ... | G_M Z]^T: the mean term is Y
    itself because K_0 K_0^{-1} = I.  The spatial stack lives in the
    preconditioner's reused buffer.
    """
    n_x, n_xi = A.shape
    if u.shape != (n_x, n_xi):
        raise ValueError(f"operator shape {(n_x, n_xi)} does not match vector {u.shape}")
    if u.rank == 0:
        return FactoredVector.zero(n_x, n_xi)
    r = u.rank
    X = np.ascontiguousarray(P.solve(u).Y)
    S = P.spatial_stack(r * A.num_terms)
    S[:, :r] = u.Y
    for l, (_, K) in enumerate(A.terms[1:], start=1):
        S[:, l * r : (l + 1) * r] = K @ X
    return block(S @ np.hstack([G @ u.Z for G, _ in A.terms]).T)


@dataclass
class SolveReport:
    """Counts and residual history of one solve.

    ``status`` says why it stopped: ``converged``, ``basis-limited`` (a
    cycle kept more than 1 - STAGNATION_TOL of the residual),
    ``max-cycles`` or ``basis-vanished`` (the truncated residual was zero).
    """

    cycles: int
    matvecs: int
    residual_history: list[float]
    final_rank: int
    status: str
    wall_times: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _gram_solve(Gram: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Dense Gram solve; rank-deficient systems shrink to their numerical rank."""
    sol, _, rank, _ = np.linalg.lstsq(Gram, rhs, rcond=GRAM_RCOND)
    if rank < Gram.shape[0]:
        warnings.warn(
            f"{what} Gram system is numerically rank deficient "
            f"({rank}/{Gram.shape[0]}); shrinking the step",
            stacklevel=4,
        )
    return sol


def _cycle(A, P, trunc: TruncationOperator, m: int, r, v0, u_hat, W: np.ndarray):
    """One restart cycle from the unit basis vector v0 and the residual r.

    Up to m matvecs are stored as rows of W; returns the updated iterate
    T(u_hat + V beta) and the number of matvecs.  Every vector of the
    cycle is released on return, before the next residual is formed.
    """
    n_x, n_xi = A.shape
    V = [v0]
    VtV = np.zeros((m, m))
    VtV[0, 0] = inner(v0, v0)
    for j in range(m):
        w = apply_preconditioned(A, P, V[j])
        # keep the block once: w becomes a view of its stored row, which is
        # rewritten only by a later cycle
        W[j] = w.Y.ravel()
        w = block(W[j].reshape(n_x, n_xi))
        if j + 1 == m:
            break
        alpha = _gram_solve(VtV[: j + 1, : j + 1], inners(V, w), "orthogonalization")
        v_next = trunc.apply(combine([w] + V, np.concatenate([[1.0], -alpha])))
        v_next_norm = norm(v_next)
        if v_next_norm <= BASIS_DROP_TOL * norm(w):
            break  # basis cannot grow further; use the j+1 vectors built
        v_next = scale(v_next, 1.0 / v_next_norm)
        V.append(v_next)
        for i, v in enumerate(V):
            VtV[i, j + 1] = VtV[j + 1, i] = inner(v, v_next)

    m_eff = j + 1
    Wm = W[:m_eff]
    # r in the identity frame of the stored blocks
    beta = _gram_solve(Wm @ Wm.T, Wm @ coordinates(r, w.Z).ravel(), "projection")
    u_hat = trunc.apply(combine([u_hat] + V[:m_eff], np.concatenate([[1.0], beta])))
    return u_hat, m_eff


def solve(
    A: StochasticOperator,
    trunc: TruncationOperator,
    eps: float,
    m: int = 8,
    u0: FactoredVector | None = None,
) -> tuple[FactoredVector, SolveReport]:
    """Run restarted low-rank projection cycles until a stopping test passes.

    ``trunc`` compresses every basis vector and iterate, ``eps`` is the
    relative residual to reach, ``m`` the restart length and ``u0`` an
    optional initial guess; at most MAX_CYCLES cycles run.  Returns the
    solution in the original variable together with a report.  The
    residual history holds the true relative residual at the top of each
    cycle, including the final accepted value.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if m < 1:
        raise ValueError("restart length m must be >= 1")
    t0 = time.perf_counter()
    P = MeanPreconditioner(A)
    t_setup = time.perf_counter() - t0

    n_x, n_xi = A.shape
    fnorm = norm(A.rhs)
    if fnorm == 0.0:
        report = SolveReport(0, 0, [0.0], 0, "converged", {"setup": t_setup, "solve": 0.0})
        return FactoredVector.zero(n_x, n_xi), report

    # iterate in the preconditioned variable u_hat = M u
    if u0 is None or u0.rank == 0:
        u_hat = FactoredVector.zero(n_x, n_xi)
        u_given = None
    else:
        u_hat = P.apply(u0)
        u_given = u0

    t1 = time.perf_counter()
    # the matvec output blocks of one cycle, one row each
    W = np.empty((m, n_x * n_xi))
    history: list[float] = []
    cycles = 0
    matvecs = 0
    status = "max-cycles"

    for outer in range(MAX_CYCLES + 1):
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
        if rel < eps:
            status = "converged"
            break
        if len(history) > 1 and rel > (1.0 - STAGNATION_TOL) * history[-2]:
            status = "basis-limited"
            break
        if outer == MAX_CYCLES:
            break

        v_tilde = trunc.apply(r)
        v_norm = norm(v_tilde)
        if v_norm == 0.0:
            warnings.warn("truncated residual vanished; cannot build a basis", stacklevel=2)
            status = "basis-vanished"
            break
        u_hat, cycle_matvecs = _cycle(A, P, trunc, m, r, scale(v_tilde, 1.0 / v_norm), u_hat, W)
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
        cycles, matvecs, history, solution.rank, status, {"setup": t_setup, "solve": t_solve}
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
    all problems found.
    """

    kind: str = "diffusion"  # "diffusion" | "convection-diffusion"
    domain: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0)
    corr_len: float = 4.0
    sigma: float = 0.05
    mean_a0: float = 1.0
    degree: int = 3
    fine_level: int = 6
    eps: float = 1e-5
    num_modes: int | None = None  # None means capture CAPTURE of the variance
    coarse_level: int | None = None  # None means choose automatically
    nu: float | None = None
    m: int = 8
    truncation: str = "multilevel"  # "multilevel" | "svd"
    pgd_eps: float | None = None  # PGD tolerance; None means eps
    seed: int = 0

    def __post_init__(self):
        d = self.domain
        checks = [
            (self.kind in ("diffusion", "convection-diffusion"),
             f"kind must be diffusion or convection-diffusion, got {self.kind!r}"),
            (len(d) == 4 and d[1] > d[0] and d[3] > d[2],
             f"domain must be x_lo, x_hi, y_lo, y_hi with x_lo < x_hi and y_lo < y_hi, got {d}"),
            (self.corr_len > 0, f"corr_len must be positive, got {self.corr_len}"),
            (self.sigma >= 0, f"sigma must be >= 0, got {self.sigma}"),
            (self.mean_a0 > 0, f"mean_a0 must be positive, got {self.mean_a0}"),
            (self.degree >= 0, f"degree must be >= 0, got {self.degree}"),
            (self.fine_level >= 1, f"fine_level must be >= 1, got {self.fine_level}"),
            (0 < self.eps < 1, f"eps must lie in (0, 1), got {self.eps}"),
            (self.num_modes is None or self.num_modes >= 1,
             f"num_modes must be >= 1, got {self.num_modes}"),
            (self.coarse_level is None or self.coarse_level >= 1,
             f"coarse_level must be >= 1 or auto, got {self.coarse_level}"),
            (self.kind != "convection-diffusion" or (self.nu is not None and self.nu > 0),
             "convection-diffusion needs a positive nu"),
            (self.kind != "diffusion" or self.nu is None,
             f"nu applies to convection-diffusion only, got {self.nu} for diffusion"),
            (self.m >= 1, f"m must be >= 1, got {self.m}"),
            (self.truncation in ("multilevel", "svd"),
             f"truncation must be multilevel or svd, got {self.truncation!r}"),
            (self.pgd_eps is None or 0 < self.pgd_eps < 1,
             f"pgd_eps must lie in (0, 1), got {self.pgd_eps}"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
        ]
        errors = [message for ok, message in checks if not ok]
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (float, tuple)) and not np.all(np.isfinite(value)):
                errors.append(f"{f.name} must be finite, got {value}")
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


def build_stochastic(spec: PipelineSpec) -> tuple[KLExpansion, StochasticMatrices]:
    """The KL expansion of the field and the chaos coupling matrices."""
    cov = ExponentialCovariance(spec.sigma, spec.corr_len, spec.domain)
    capture = None if spec.num_modes is not None else CAPTURE
    try:
        kl = build_kl(cov, spec.mean_a0, capture=capture, num_modes=spec.num_modes)
        basis = build_spectral_basis(kl.num_modes, spec.degree)
    except ValueError as exc:  # a size limit; the spec has checked every other input
        modes = "auto" if spec.num_modes is None else spec.num_modes
        raise ConfigError(
            f"corr_len = {spec.corr_len}, num_modes = {modes}, degree = {spec.degree}: {exc}"
        ) from None
    return kl, build_stochastic_matrices(basis)


def build_problem(
    spec: PipelineSpec, level: int, kl: KLExpansion, stoch: StochasticMatrices
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
    spec: PipelineSpec, kl: KLExpansion, stoch: StochasticMatrices, level: int | None = None
) -> tuple[fem.Grid, PgdSolution]:
    """The grid of ``level`` and the PGD solution of ``spec`` on it.

    ``level`` defaults to the coarse level: ``spec.coarse_level`` or, when
    that is None, the level ``fem.recommend_coarse_level`` picks for the
    field.  The tolerance is ``pgd_eps``, else ``eps``.
    """
    if level is None:
        level = spec.coarse_level
    if level is None:
        level = fem.recommend_coarse_level(kl, problem_kind=spec.kind, nu=spec.nu)
    grid, _, A = build_problem(spec, level, kl, stoch)
    sol = solve_pgd(A, spec.pgd_eps if spec.pgd_eps is not None else spec.eps, seed=spec.seed)
    return grid, sol


def pipeline(spec: PipelineSpec) -> PipelineResult:
    """Coarse PGD, basis extraction, and the preconditioned fine-grid solve."""
    times: dict[str, float] = {}
    kl, stoch = build_stochastic(spec)

    t0 = time.perf_counter()
    coarse_grid, pgd_sol = run_pgd(spec, kl, stoch)
    times["coarse"] = time.perf_counter() - t0

    if spec.truncation == "multilevel":
        trunc = TruncationOperator("projection", basis=pgd_sol.Zc)
    else:
        trunc = TruncationOperator("svd-rank", rank=pgd_sol.Zc.shape[1])

    t1 = time.perf_counter()
    fine_grid, spatial, A_fine = build_problem(spec, spec.fine_level, kl, stoch)
    times["fine_assembly"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    solution, report = solve(A_fine, trunc, spec.eps, spec.m)
    times["fine_solve"] = time.perf_counter() - t2
    times.update(report.wall_times)
    report.wall_times = times

    return PipelineResult(
        solution, report, pgd_sol, kl, fine_grid, coarse_grid, A_fine, spatial.bc_lift
    )
