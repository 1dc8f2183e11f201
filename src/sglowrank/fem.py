"""Bilinear Q1 finite elements on structured rectangular grids.

Assembles the spatial matrices of the stochastic Galerkin system: the mean
stiffness matrix, one weighted stiffness matrix per KL mode, and for the
convection-diffusion benchmark the convection matrix, the streamline
diffusion stabilization, and the Dirichlet boundary lift.

Grids are tensor products of 1D node arrays, x uniform and y uniform or
vertically stretched, refinement level l meaning 2^l elements per side.
Node numbering is lexicographic by (y, x), so a matrix acting on nodal
values is a sum of Kronecker products kron(B_y, B_x) of 1D Q1 matrices.
That form is exact, not an approximation of the 2x2 Gauss rule: the rule
is the tensor product of two 2-point rules, and every KL mode is a product
sigma*sqrt(lambda)*a_x(x)*a_y(y).  The benchmark wind is vertical, (0, 1),
with its boundary layer at the outflow wall y = y_hi, so the streamline
parameter delta depends on the element row only.  With A, M and C the 1D
stiffness, mass and convection matrices (weighted at the Gauss points),

    K = kron(A_y, M_x) + kron(M_y, A_x),
    N = kron(C_y, M_x),
    S = kron(A_y^d, M_x),

with A_y^d the delta-weighted y stiffness.  The mean block of either
problem (K_0, plus N and S with the wind) is kron(P_y, M_x) + kron(Q_y, A_x)
with unit-weight x factors, which ``SpatialMatrices.mean_factors`` hands on
so that the block can be inverted by fast diagonalization in x.
Homogeneous Dirichlet conditions are imposed by restricting every 1D factor to the interior
nodes; non-homogeneous data is folded into per-term right-hand-side
contributions -(A_l g_D)[interior].

No sparse Kronecker product is formed.  Every 1D matrix is tridiagonal and
is kept as its three diagonals, each diagonal entry the sum of its two
element contributions.  A sum of Kronecker pairs restricted to the interior
is a 9-point stencil: interior node (j, i) couples to (j + a, i + b),
a, b in {-1, 0, 1}, with value sum B_y[j, j + a] B_x[i, i + b].  All these
values come from one broadcast product per pair, and one CSR matrix keeps
the nonzero ones whose neighbour is interior.  Every entry is the sum that
sum kron(B_y, B_x) forms, so the matrices equal that assembly bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .randfield import KLExpansion, max_theta_and_halfwave, mode_factors

__all__ = [
    "Grid",
    "SpatialMatrices",
    "BoundaryLift",
    "make_grid",
    "stretch_for_boundary_layer",
    "assemble_diffusion",
    "assemble_convection_diffusion",
    "recommend_coarse_level",
    "interior_to_full",
]

# 2-point Gauss rule on the reference interval [-1, 1], weights 1
_GP = 1.0 / np.sqrt(3.0)
# values of the two linear shape functions at the two points (node, point)
# and their reference derivatives
_PSI = 0.5 * np.array([[1.0 + _GP, 1.0 - _GP], [1.0 - _GP, 1.0 + _GP]])
_DPSI = np.array([-0.5, 0.5])

#: grid points per half wavelength of the shortest retained KL mode
POINTS_PER_HALFWAVE = 8.0
#: finest level recommend_coarse_level returns
MAX_COARSE_LEVEL = 12
#: largest element height ratio of a boundary-layer grading
MAX_STRETCH_RATIO = 1.5


@dataclass(frozen=True)
class Grid:
    level: int
    x_coords: np.ndarray
    y_coords: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.x_coords), len(self.y_coords))

    @property
    def n_nodes(self) -> int:
        return len(self.x_coords) * len(self.y_coords)

    @property
    def n_interior(self) -> int:
        return (len(self.x_coords) - 2) * (len(self.y_coords) - 2)

    def node_coords(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, 2), y-major ordering."""
        X, Y = np.meshgrid(self.x_coords, self.y_coords, indexing="xy")
        return np.column_stack([X.ravel(), Y.ravel()])

    def interior_indices(self) -> np.ndarray:
        """Ascending node numbers of the interior nodes."""
        nx, ny = self.shape
        return (np.arange(1, ny - 1)[:, None] * nx + np.arange(1, nx - 1)).ravel()


@dataclass(frozen=True)
class BoundaryLift:
    """Dirichlet data and its per-term contribution to the reduced rhs.

    ``values_full`` holds g_D at boundary nodes (zero at interior nodes);
    ``coupling[l]`` is -(A_l g_D)[interior] for operator term l, which equals
    -A_l[interior, boundary] g_D[boundary].
    """

    values_full: np.ndarray
    coupling: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class SpatialMatrices:
    """Interior-reduced spatial matrices of one Galerkin problem."""

    K: tuple[sp.csr_matrix, ...]  # mean stiffness first, then one per KL mode
    f0: np.ndarray
    # interior 1D factors (P_y, Q_y, A_x, M_x) of the mean block:
    # K[0] + N + S = kron(P_y, M_x) + kron(Q_y, A_x)
    mean_factors: tuple[sp.csr_matrix, ...]
    N: sp.csr_matrix | None = None
    S: sp.csr_matrix | None = None
    bc_lift: BoundaryLift | None = None


def make_grid(level: int, domain: tuple[float, float, float, float], ratio: float | None = None) -> Grid:
    """Structured grid with 2^level elements per side.

    With ``ratio``, element heights form a geometric progression that
    decreases toward y = y_hi by that ratio; widths stay uniform.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if ratio is not None and ratio <= 1.0:
        raise ValueError(f"stretch ratio must exceed 1, got {ratio}")
    x_lo, x_hi, y_lo, y_hi = domain
    n = 2**level
    x = np.linspace(x_lo, x_hi, n + 1)
    if ratio is None:
        y = np.linspace(y_lo, y_hi, n + 1)
    else:
        # wall-adjacent element has the smallest height h_min; heights grow
        # by the ratio moving away from y_hi
        heights = ratio ** np.arange(n - 1, -1, -1)
        heights *= (y_hi - y_lo) / heights.sum()
        y = np.concatenate([[y_lo], y_lo + np.cumsum(heights)])
        y[-1] = y_hi
    return Grid(level, x, y)


def stretch_for_boundary_layer(
    level: int, domain: tuple[float, float, float, float], nu: float
) -> float | None:
    """Grading ratio whose wall element height is about nu, at most MAX_STRETCH_RATIO.

    Returns None when the uniform grid already resolves the layer.
    """
    height = domain[3] - domain[2]
    n = 2**level
    if height / n <= nu:
        return None

    def wall_height(r):
        return height * (r - 1.0) / (r**n - 1.0)

    if wall_height(MAX_STRETCH_RATIO) >= nu:
        return MAX_STRETCH_RATIO
    lo, hi = 1.0 + 1e-12, MAX_STRETCH_RATIO
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if wall_height(mid) > nu:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _gauss_points(t: np.ndarray) -> np.ndarray:
    """The two Gauss points of every element of the node array t, shape (n_e, 2)."""
    h = np.diff(t)
    return t[:-1, None] + 0.5 * h[:, None] * (1.0 + np.array([-_GP, _GP]))


def _assemble_1d(Ke: np.ndarray) -> np.ndarray:
    """The 1D matrix B on n_e + 1 nodes with element matrices Ke, shape (n_e, 2, 2),
    as its diagonals: row k of the (3, n_e + 1) result holds B[i, i + k - 1], zero
    where that column does not exist.  A diagonal entry sums its two elements."""
    D = np.zeros((3, len(Ke) + 1))
    D[0, 1:] = Ke[:, 1, 0]
    D[1, :-1] = Ke[:, 0, 0]
    D[1, 1:] += Ke[:, 1, 1]
    D[2, :-1] = Ke[:, 0, 1]
    return D


def _stiffness_1d(t: np.ndarray, coef=1.0) -> np.ndarray:
    """A = int c psi_a' psi_b' on the nodes t, ``coef`` = c at the Gauss points."""
    h, c = np.diff(t), np.broadcast_to(coef, (len(t) - 1, 2))
    return _assemble_1d(np.einsum("eg,a,b->eab", c, _DPSI, _DPSI) * (2.0 / h)[:, None, None])


def _mass_1d(t: np.ndarray, coef=1.0) -> np.ndarray:
    """M = int c psi_a psi_b on the nodes t, ``coef`` = c at the Gauss points."""
    h, c = np.diff(t), np.broadcast_to(coef, (len(t) - 1, 2))
    return _assemble_1d(np.einsum("eg,ag,bg->eab", c, _PSI, _PSI) * (0.5 * h)[:, None, None])


def _convection_1d(t: np.ndarray) -> np.ndarray:
    """C = int psi_a psi_b' on the nodes t (derivative on the trial index)."""
    return _assemble_1d(np.einsum("eg,ag,b->eab", np.ones((len(t) - 1, 2)), _PSI, _DPSI))


def _stiffness(grid: Grid, cx, cy=1.0) -> list[tuple]:
    """Kronecker pairs (y factor, x factor) of int cx(x) cy(y) grad phi_a . grad phi_b."""
    x, y = grid.x_coords, grid.y_coords
    return [(_stiffness_1d(y, cy), _mass_1d(x, cx)), (_mass_1d(y, cy), _stiffness_1d(x, cx))]


def _neighbours(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices i - 1, i, i + 1 of every i < n as rows of a (3, n) array, and
    whether each lies in [0, n)."""
    idx = np.arange(n, dtype=np.int32) + np.arange(-1, 2, dtype=np.int32)[:, None]
    return idx, (idx >= 0) & (idx < n)


def _stencil_csr(vals: np.ndarray, cols: np.ndarray, inside: np.ndarray) -> sp.csr_matrix:
    """The square matrix with entry vals[k, r] at (r, cols[k, r]) wherever inside[k, r]
    holds and the value is not zero; the int32 cols must ascend in k."""
    n = vals.shape[1]
    keep = (inside & (vals != 0)).T
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return sp.csr_matrix((vals.T[keep], cols.T[keep], indptr), shape=(n, n))


def _interior(pairs: list[tuple]) -> sp.csr_matrix:
    """sum kron(B_y, B_x) restricted to the interior nodes, without stored zeros.

    Interior node (j, i) couples to (j + a, i + b), a, b in {-1, 0, 1}, with
    value sum B_y[j, j + a] B_x[i, i + b]: one broadcast product per pair on a
    (3, 3, n_y, n_x) array.  Neighbours on the boundary are dropped, and so
    are exact zeros (C has a zero diagonal), as a sparse sum would drop them.
    """
    vals = sum(Dy[:, None, 1:-1, None] * Dx[None, :, None, 1:-1] for Dy, Dx in pairs)
    ny, nx = vals.shape[2:]
    (j, in_y), (i, in_x) = _neighbours(ny), _neighbours(nx)
    cols = (j * nx)[:, None, :, None] + i[None, :, None, :]
    inside = in_y[:, None, :, None] & in_x[None, :, None, :]
    return _stencil_csr(vals.reshape(9, -1), cols.reshape(9, -1), inside.reshape(9, -1))


def _interior_1d(D: np.ndarray) -> sp.csr_matrix:
    """The 1D matrix with diagonals D restricted to the interior nodes, without stored zeros."""
    d = D[:, 1:-1]
    return _stencil_csr(d, *_neighbours(d.shape[1]))


def _mean_factors(grid: Grid, coef: float, transport=0.0) -> tuple[sp.csr_matrix, ...]:
    """Interior 1D factors (P_y, Q_y, A_x, M_x) of a mean block.

    The block is the stiffness with constant coefficient ``coef`` plus
    kron(``transport``, M_x), so P_y = coef A_y + transport, Q_y = coef M_y.
    """
    x, y = grid.x_coords, grid.y_coords
    P_y, Q_y = coef * _stiffness_1d(y) + transport, coef * _mass_1d(y)
    return tuple(_interior_1d(D) for D in (P_y, Q_y, _stiffness_1d(x), _mass_1d(x)))


def _matmul_1d(D: np.ndarray, v: np.ndarray) -> np.ndarray:
    """B v along the first axis of v, B the 1D matrix with diagonals D."""
    out = D[1, :, None] * v
    out[1:] += D[0, 1:, None] * v[:-1]
    out[:-1] += D[2, :-1, None] * v[1:]
    return out


def _coupling(pairs: list[tuple], g: np.ndarray) -> np.ndarray:
    """-(sum kron(B_y, B_x)) g at the interior nodes, g given as an (n_y, n_x) array."""
    Ag = sum(_matmul_1d(By, _matmul_1d(Bx, g.T).T) for By, Bx in pairs)
    return -Ag[1:-1, 1:-1].ravel()


def _mode_factors(grid: Grid, kl: KLExpansion) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-axis factors of every KL mode at the Gauss points of each axis."""
    xg, yg = _gauss_points(grid.x_coords), _gauss_points(grid.y_coords)
    return [mode_factors(kl, l, xg, yg) for l in range(kl.num_modes)]


def _coercivity_check(kl: KLExpansion, factors: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Warn when the field can lose positivity at a hypercube corner."""
    # worst case over xi in [-sqrt3, sqrt3]^M is a0 - sqrt3 * sum |modes|,
    # the sum taken at every Gauss point (x_i, y_j) as an outer product
    fx = np.abs([f.ravel() for f, _ in factors])
    fy = np.abs([f.ravel() for _, f in factors])
    worst = kl.mean_a0 - np.sqrt(3.0) * (fx.T @ fy).max()
    if worst <= 0:
        warnings.warn(
            f"random field may lose coercivity: min over corners reaches {worst:.3e}",
            stacklevel=3,
        )


def assemble_diffusion(grid: Grid, kl: KLExpansion) -> SpatialMatrices:
    """Stiffness family K_0..K_M and unit load for the diffusion benchmark.

    K_0 uses the constant mean coefficient, K_l the mode coefficient
    sigma*sqrt(lambda_l)*a_l evaluated at the 2x2 Gauss points; homogeneous
    Dirichlet rows and columns are eliminated.
    """
    factors = _mode_factors(grid, kl)
    _coercivity_check(kl, factors)
    K = [_interior(_stiffness(grid, kl.mean_a0))]
    K.extend(_interior(_stiffness(grid, fx, fy)) for fx, fy in factors)
    # the load int phi_a is the row sum of the unit-weight mass matrix, added
    # as a sparse row sum adds it: B[i, i - 1] + (B[i, i] + B[i, i + 1])
    Mx, My = _mass_1d(grid.x_coords), _mass_1d(grid.y_coords)
    f0 = np.kron((My[0] + (My[1] + My[2]))[1:-1], (Mx[0] + (Mx[1] + Mx[2]))[1:-1])
    return SpatialMatrices(tuple(K), f0, _mean_factors(grid, kl.mean_a0))


def _dirichlet_values_cd(grid: Grid) -> np.ndarray:
    """Nodal Dirichlet data of the convection-diffusion benchmark, shape (n_y, n_x).

    g = x on the inflow wall y = y_lo, g = -1 / +1 on the side walls, and
    g = 0 on the whole outflow row y = y_hi including its corners.
    """
    nx, ny = grid.shape
    g = np.zeros((ny, nx))
    g[:, 0] = -1.0
    g[:, -1] = 1.0
    g[0, :] = grid.x_coords
    g[-1, :] = 0.0
    return g


def assemble_convection_diffusion(grid: Grid, kl: KLExpansion, nu: float) -> SpatialMatrices:
    """Spatial matrices nu*K_l, N, S and boundary lift for the wind benchmark.

    The wind is (0, 1), so the element length in the wind direction is the
    row height h, the convection matrix is N = kron(C_y, M_x) and the
    streamline diffusion is S = kron(A_y^d, M_x), A_y^d the 1D y stiffness
    weighted by delta = h/2 (1 - 1/P) on rows with Peclet number
    P = h / (2 nu) > 1 and zero elsewhere.
    """
    if nu <= 0:
        raise ValueError("viscosity must be positive")
    factors = _mode_factors(grid, kl)
    _coercivity_check(kl, factors)
    y = grid.y_coords
    h_k = np.diff(y)
    peclet = h_k / (2.0 * nu)
    delta = np.where(peclet > 1.0, h_k / 2.0 * (1.0 - 1.0 / peclet), 0.0)

    Mx = _mass_1d(grid.x_coords)
    Cy, Ay_delta = _convection_1d(y), _stiffness_1d(y, delta[:, None])
    N, S = [(Cy, Mx)], [(Ay_delta, Mx)]
    K0 = _stiffness(grid, nu * kl.mean_a0)
    Kl = [_stiffness(grid, nu * fx, fy) for fx, fy in factors]

    g = _dirichlet_values_cd(grid)
    coupling = [_coupling(K0 + N + S, g)]
    coupling.extend(_coupling(pairs, g) for pairs in Kl)
    return SpatialMatrices(
        tuple(_interior(pairs) for pairs in [K0] + Kl),
        np.zeros(grid.n_interior),
        _mean_factors(grid, nu * kl.mean_a0, Cy + Ay_delta),
        N=_interior(N),
        S=_interior(S),
        bc_lift=BoundaryLift(g.ravel(), tuple(coupling)),
    )


def recommend_coarse_level(kl: KLExpansion, nu: float | None = None) -> int:
    """Coarsest dyadic level resolving the retained KL modes.

    The target spacing is half_wavelength / POINTS_PER_HALFWAVE; since dyadic
    spacings cannot match it exactly, the coarsest level within a factor two
    of the target is chosen.  A convection-diffusion problem passes its
    viscosity ``nu``; the level must then also resolve the outflow layer of
    width O(nu): the spacing must not exceed the geometric mean of the
    wall-normal extent and nu, which is what a graded mesh with wall element
    about nu supports.  No level exceeds MAX_COARSE_LEVEL.
    """
    _, halfwave = max_theta_and_halfwave(kl)
    Lx, Ly = kl.cov.lengths
    side = max(Lx, Ly)
    target = 2.0 * halfwave / POINTS_PER_HALFWAVE
    level = 1
    while side / 2**level > target and level < MAX_COARSE_LEVEL:
        level += 1

    if nu is not None:
        layer_target = np.sqrt(Ly * nu)
        layer_level = 1
        while Ly / 2**layer_level > layer_target and layer_level < MAX_COARSE_LEVEL:
            layer_level += 1
        level = max(level, layer_level)
    return level


def interior_to_full(grid: Grid, interior_values: np.ndarray, boundary_values: np.ndarray | None = None) -> np.ndarray:
    """Embed interior nodal values into the full grid, optionally adding bc data."""
    full = np.zeros(grid.n_nodes) if boundary_values is None else boundary_values.copy()
    full[grid.interior_indices()] += interior_values
    return full
