"""Independent reference computations the test suite checks against.

Everything here deliberately avoids the library's own code paths: dense
Kronecker algebra, a collocation eigensolver for the covariance kernel, a
plain dense GMRES, quadrature evaluation of polynomial moments, a Q1
element loop on the 2D grid, the Q1 matrices as sums of sparse Kronecker
products of COO-assembled 1D matrices (same arithmetic as ``fem``, so
compared bit for bit), series solutions of the deterministic limit
problems, and sampled deterministic solves of the parametric problem.  The
pointwise evaluators of the chaos polynomials and the KL modes read only the
package's recurrence coefficients and 1D mode factors, which the quadrature
and Nystrom checks verify on their own.  The last section builds small test
instances: random operators and the package's own diffusion operator.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sglowrank.chaos import (
    XI_BOUND,
    build_spectral_basis,
    build_stochastic_matrices,
    recurrence_coefficients,
)
from sglowrank.fem import assemble_diffusion, make_grid
from sglowrank.lowrank import FactoredVector, StochasticOperator, build_operator
from sglowrank.randfield import ExponentialCovariance, build_kl, mode_factors


# ---------------------------------------------------------------------------
# covariance eigenproblem


def nystrom_eigenvalues(corr_len, length, n_points=2048, n_modes=10):
    """Leading eigenvalues of exp(-|s-t|/c) on [-L/2, L/2] by collocation.

    Gauss-Legendre collocation with singularity subtraction: the kernel has
    a kink on the diagonal, so the plain weighted kernel matrix converges
    slowly; correcting each diagonal entry so that the discrete operator
    integrates the kernel row exactly restores fast convergence.
    """
    x, w = np.polynomial.legendre.leggauss(n_points)
    lo, hi = -0.5 * length, 0.5 * length
    x = 0.5 * length * x
    w = 0.5 * length * w
    K = np.exp(-np.abs(x[:, None] - x[None, :]) / corr_len)
    row_exact = corr_len * (2.0 - np.exp(-(x - lo) / corr_len) - np.exp(-(hi - x) / corr_len))
    corr = row_exact - K @ w
    sw = np.sqrt(w)
    B = sw[:, None] * K * sw[None, :] + np.diag(corr)
    vals = scipy.linalg.eigh(B, eigvals_only=True,
                             subset_by_index=[n_points - n_modes, n_points - 1])
    return vals[::-1]


def nystrom_eigenpairs(corr_len, length, n_points=2048, n_modes=10):
    """Eigenvalues plus an interpolant for the eigenfunctions (unit L2 norm)."""
    x, w = np.polynomial.legendre.leggauss(n_points)
    lo, hi = -0.5 * length, 0.5 * length
    x = 0.5 * length * x
    w = 0.5 * length * w
    K = np.exp(-np.abs(x[:, None] - x[None, :]) / corr_len)
    row_exact = corr_len * (2.0 - np.exp(-(x - lo) / corr_len) - np.exp(-(hi - x) / corr_len))
    corr = row_exact - K @ w
    sw = np.sqrt(w)
    B = sw[:, None] * K * sw[None, :] + np.diag(corr)
    vals, vecs = scipy.linalg.eigh(B, subset_by_index=[n_points - n_modes, n_points - 1])
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    phi = vecs / sw[:, None]  # collocation values of the unit-norm eigenfunctions

    def interpolant(mode, s):
        """Nystrom interpolation of eigenfunction ``mode`` at points s."""
        s = np.atleast_1d(np.asarray(s, float))
        Ks = np.exp(-np.abs(s[:, None] - x[None, :]) / corr_len)
        return (Ks * w[None, :]) @ phi[:, mode] / vals[mode]

    return vals, interpolant


def equation_residual(pair, corr_len, length):
    """Residual of the transcendental equation that defines the root of a 1D
    eigenpair on an interval of ``length``."""
    t = math.tan(pair.theta * 0.5 * length)
    if pair.parity == "even":
        return 1.0 / corr_len - pair.theta * t
    return pair.theta + (1.0 / corr_len) * t


def eval_mode(kl, index, points):
    """Coefficient function of xi_index, sigma*sqrt(lambda)*a_index(x), at
    ``points`` of shape (..., 2) in original (not recentred) coordinates."""
    if not 0 <= index < kl.num_modes:
        raise IndexError(f"mode index {index} out of range [0, {kl.num_modes})")
    pts = np.asarray(points, dtype=float)
    x_lo, x_hi, y_lo, y_hi = kl.cov.domain
    px, py = pts[..., 0], pts[..., 1]
    tol_x, tol_y = 1e-12 * (x_hi - x_lo), 1e-12 * (y_hi - y_lo)
    if np.any(px < x_lo - tol_x) or np.any(px > x_hi + tol_x):
        raise ValueError("point outside domain in x")
    if np.any(py < y_lo - tol_y) or np.any(py > y_hi + tol_y):
        raise ValueError("point outside domain in y")
    fx, fy = mode_factors(kl, index, px, py)
    return fx * fy


# ---------------------------------------------------------------------------
# dense Kronecker algebra


def dense_operator(A):
    """Materialize sum_l kron(G_l, K_l) for a small StochasticOperator."""
    n_x, n_xi = A.shape
    out = np.zeros((n_x * n_xi, n_x * n_xi))
    for G, K in A.terms:
        out += np.kron(G.toarray(), K.toarray())
    return out


def dense_vec(u):
    """vec(u) with the stochastic index outermost: kron basis z (x) y."""
    return (u.Z @ u.Y.T).ravel() if u.rank else np.zeros(u.shape[0] * u.shape[1])


def residual_norm(A, u):
    """||F - sum_l K_l U G_l^T||_F for U = Y Z^T of u, formed densely and
    multiplied by the operator's sparse matrices, as ``perfbench/check.py``
    does; no factored arithmetic."""
    R = A.rhs.Y @ A.rhs.Z.T
    U = u.Y @ u.Z.T
    for G, K in A.terms:
        R -= (G @ (K @ U).T).T
    return float(np.linalg.norm(R))


def vec_to_mat(v, n_x, n_xi):
    return v.reshape(n_xi, n_x).T


def reduced_galerkin_solve(A, B):
    """Galerkin solution of the small system A u = f in R^n_x (x) span(B).

    With the lift L = kron(B, I) (stochastic index outermost, as in
    ``dense_vec``) and orthonormal B, solves (L^T D L) x = L^T b, where D is
    sum_l kron(G_l, K_l) and D and L are assembled as explicit sparse
    Kronecker matrices.  Returns the lifted solution L x and its relative
    residual ||b - D L x|| / ||b||, which lies wholly outside span(B): the
    basis floor.
    """
    D = sum(sp.kron(G, K, format="csr") for G, K in A.terms)
    b = dense_vec(A.rhs)
    L = sp.kron(sp.csr_matrix(B), sp.identity(A.shape[0]), format="csr")
    u = L @ spla.spsolve((L.T @ (D @ L)).tocsc(), L.T @ b)
    return u, float(np.linalg.norm(b - D @ u) / np.linalg.norm(b))


# ---------------------------------------------------------------------------
# dense GMRES reference (no restarting)


def dense_gmres(A, b, m, x0=None, tol=0.0):
    """Plain dense GMRES with explicit Gram solves, for cross-validation.

    Stops after the first step whose least-squares residual ||r0 - W beta||
    is <= tol, else after m steps or when the basis cannot grow.  Returns
    the iterate and the number of steps (matvecs) taken.
    """
    n = b.shape[0]
    x0 = np.zeros(n) if x0 is None else x0
    r0 = b - A @ x0
    V = [r0 / np.linalg.norm(r0)]
    W = []
    for j in range(m):
        W.append(A @ V[j])
        Wj = np.column_stack(W)
        beta = np.linalg.lstsq(Wj.T @ Wj, Wj.T @ r0, rcond=None)[0]
        if j + 1 == m or np.linalg.norm(r0 - Wj @ beta) <= tol:
            break
        Vj = np.column_stack(V)
        alpha = np.linalg.lstsq(Vj.T @ Vj, Vj.T @ W[j], rcond=None)[0]
        v = W[j] - Vj @ alpha
        nv = np.linalg.norm(v)
        if nv <= 1e-14 * np.linalg.norm(W[j]):
            break
        V.append(v / nv)
    return x0 + np.column_stack(V[: len(W)]) @ beta, len(W)


# ---------------------------------------------------------------------------
# quadrature oracles for the stochastic basis


def legendre_quadrature(n_points):
    """Gauss-Legendre rule on [-sqrt3, sqrt3] weighted by the uniform density."""
    x, w = np.polynomial.legendre.leggauss(n_points)
    s = np.sqrt(3.0)
    return s * x, 0.5 * w  # density 1/(2 sqrt 3) times Jacobian sqrt 3


def quad_moment(f, n_points=64):
    """Integral of f against the uniform density on [-sqrt3, sqrt3]."""
    x, w = legendre_quadrature(n_points)
    return float(np.dot(w, f(x)))


def univariate_values(b, degree_max, xi):
    """pi_0..pi_degree_max at points xi from the recurrence coefficients b,
    shape (degree_max+1,) + xi.shape."""
    xi = np.asarray(xi, dtype=float)
    out = np.empty((degree_max + 1,) + xi.shape)
    out[0] = 1.0
    if degree_max >= 1:
        out[1] = xi / b[0]
    for n in range(1, degree_max):
        out[n + 1] = (xi * out[n] - b[n - 1] * out[n - 1]) / b[n]
    return out


def eval_basis(indices, s, xi):
    """psi_s at xi in [-sqrt3, sqrt3]^M for the multi-index array ``indices``;
    xi has shape (..., M)."""
    n_xi, num_vars = indices.shape
    if not 0 <= s < n_xi:
        raise IndexError(f"basis ordinal {s} out of range [0, {n_xi})")
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != num_vars:
        raise ValueError(f"xi must have {num_vars} components")
    if np.any(np.abs(xi) > XI_BOUND * (1 + 1e-12)):
        raise ValueError("xi outside the support [-sqrt(3), sqrt(3)]^M")
    b = recurrence_coefficients(max(indices.max(initial=0), 1))
    alpha = indices[s]
    table = univariate_values(b, int(alpha.max(initial=0)), np.moveaxis(xi, -1, 0))
    val = np.ones(xi.shape[:-1])
    for i, a in enumerate(alpha):
        val = val * table[a, i]
    return val if val.shape else float(val)


# ---------------------------------------------------------------------------
# sampled deterministic solves


def sampled_errors(K, loads, u, indices, xi):
    """Relative distance between the chaos surrogate and sampled solves.

    For every row of xi (shape (n, M)) one sparse solve gives the reference
    (K_0 + sum_l xi_l K_l) v = loads[0] + sum_l xi_l loads[l], with the
    spatial matrices K = [K_0, ..., K_M] and one or M+1 load vectors; the
    surrogate is Y Z^T psi(xi) of the factored solution u.  No coupling
    matrix G_l enters the reference.
    """
    psi = np.column_stack([eval_basis(indices, s, xi) for s in range(indices.shape[0])])
    surrogate = u.Y @ (u.Z.T @ psi.T)
    errors = []
    for k, sample in enumerate(xi):
        matrix = K[0] + sum(x * Kl for x, Kl in zip(sample, K[1:]))
        load = loads[0] + sum(x * f for x, f in zip(sample, loads[1:]))
        v = spla.spsolve(sp.csc_matrix(matrix), load)
        errors.append(np.linalg.norm(surrogate[:, k] - v) / np.linalg.norm(v))
    return np.array(errors)


# ---------------------------------------------------------------------------
# Q1 finite elements by a loop over the 2D elements


def q1_element_loop(x, y, coefs, nu=None, wind=(0.0, 1.0)):
    """Dense full-grid Q1 matrices on the tensor grid of node arrays x and y.

    Nodes are numbered y-major: node (x[i], y[j]) is j * len(x) + i.  Every
    integral uses the 2x2 Gauss rule on each element.  Returns a dict with
    ``K``, one stiffness matrix int c grad phi_a . grad phi_b per scalar
    function c(px, py) in ``coefs``, and the load ``f`` = int phi_a.  With
    ``nu`` it adds the convection matrix ``N`` = int (w . grad phi_b) phi_a,
    the streamline matrix ``S`` = int delta (w . grad phi_a)(w . grad phi_b)
    and the per-element ``peclet`` and ``delta`` (element order y-major).
    """
    nx, n = len(x), len(x) * len(y)
    out = {"K": [np.zeros((n, n)) for _ in coefs], "f": np.zeros(n)}
    if nu is not None:
        out.update(N=np.zeros((n, n)), S=np.zeros((n, n)), peclet=[], delta=[])
        wnorm = np.hypot(*wind)
    gauss = np.array([-1.0, 1.0]) / np.sqrt(3.0)
    corners = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    for j in range(len(y) - 1):
        for i in range(nx - 1):
            hx, hy = x[i + 1] - x[i], y[j + 1] - y[j]
            nodes = [(j + (cy + 1) // 2) * nx + i + (cx + 1) // 2 for cx, cy in corners]
            block = np.ix_(nodes, nodes)
            if nu is not None:
                h_k = (abs(wind[0]) * hx + abs(wind[1]) * hy) / wnorm
                peclet = wnorm * h_k / (2.0 * nu)
                delta = h_k / (2.0 * wnorm) * (1.0 - 1.0 / peclet) if peclet > 1.0 else 0.0
                out["peclet"].append(peclet)
                out["delta"].append(delta)
            for s in gauss:
                for t in gauss:
                    px, py = x[i] + 0.5 * hx * (1.0 + s), y[j] + 0.5 * hy * (1.0 + t)
                    jac = 0.25 * hx * hy
                    phi = np.array([0.25 * (1 + cx * s) * (1 + cy * t) for cx, cy in corners])
                    dx = np.array([0.5 / hx * cx * (1 + cy * t) for cx, cy in corners])
                    dy = np.array([0.5 / hy * cy * (1 + cx * s) for cx, cy in corners])
                    for K, c in zip(out["K"], coefs):
                        K[block] += jac * c(px, py) * (np.outer(dx, dx) + np.outer(dy, dy))
                    out["f"][nodes] += jac * phi
                    if nu is not None:
                        wgrad = wind[0] * dx + wind[1] * dy
                        out["N"][block] += jac * np.outer(phi, wgrad)
                        out["S"][block] += jac * delta * np.outer(wgrad, wgrad)
    return out


# ---------------------------------------------------------------------------
# Q1 finite elements as sums of sparse Kronecker products of 1D matrices

_GP = 1.0 / np.sqrt(3.0)
_PSI = 0.5 * np.array([[1.0 + _GP, 1.0 - _GP], [1.0 - _GP, 1.0 + _GP]])
_DPSI = np.array([-0.5, 0.5])


def element_matrices_1d(t, kind, coef=1.0):
    """Q1 element matrices, shape (n_e, 2, 2), on the 1D nodes t by the 2-point
    Gauss rule: ``kind`` "stiffness" int c psi_a' psi_b', "mass" int c psi_a psi_b
    or "convection" int psi_a psi_b'; ``coef`` = c at the Gauss points."""
    h, c = np.diff(t), np.broadcast_to(coef, (len(t) - 1, 2))
    if kind == "stiffness":
        return np.einsum("eg,a,b->eab", c, _DPSI, _DPSI) * (2.0 / h)[:, None, None]
    if kind == "mass":
        return np.einsum("eg,ag,bg->eab", c, _PSI, _PSI) * (0.5 * h)[:, None, None]
    return np.einsum("eg,ag,b->eab", np.ones((len(t) - 1, 2)), _PSI, _DPSI)


def coo_1d(Ke):
    """The 1D matrix with element matrices Ke assembled COO -> CSR: every
    element entry stored, duplicates summed."""
    first = np.arange(len(Ke))[:, None, None]
    rows = np.broadcast_to(first + np.arange(2)[:, None], Ke.shape).ravel()
    cols = np.broadcast_to(first + np.arange(2)[None, :], Ke.shape).ravel()
    return sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(len(Ke) + 1,) * 2).tocsr()


def kron_interior(pairs):
    """sum sp.kron(B_y, B_x) of 1D CSR pairs on the interior nodes, without stored zeros."""
    total = sum(sp.kron(By[1:-1, 1:-1], Bx[1:-1, 1:-1], format="csr") for By, Bx in pairs)
    total.eliminate_zeros()
    return total


def kron_assembly(grid, kl, nu=None, g=None):
    """The spatial matrices of ``fem.assemble_diffusion`` (without ``nu``) or
    ``fem.assemble_convection_diffusion`` (with ``nu`` and the nodal Dirichlet
    data g, shape (n_y, n_x)) from COO-assembled 1D CSR matrices.

    Returns a dict with ``K``, ``mean_factors`` (interior 1D CSR factors
    P_y, Q_y, A_x, M_x) and ``f0``; with ``nu`` also ``N``, ``S`` and the lift
    ``coupling`` -(A_l g)[interior], A_0 = nu K_0 + N + S.
    """
    x, y = grid.x_coords, grid.y_coords

    def gauss(t):
        return t[:-1, None] + 0.5 * np.diff(t)[:, None] * (1.0 + np.array([-_GP, _GP]))

    def A(t, c=1.0):
        return coo_1d(element_matrices_1d(t, "stiffness", c))

    def M(t, c=1.0):
        return coo_1d(element_matrices_1d(t, "mass", c))

    def stiffness(cx, cy=1.0):
        return [(A(y, cy), M(x, cx)), (M(y, cy), A(x, cx))]

    scale = 1.0 if nu is None else nu
    coef = scale * kl.mean_a0
    factors = [mode_factors(kl, l, gauss(x), gauss(y)) for l in range(kl.num_modes)]
    terms = [stiffness(coef)] + [stiffness(scale * fx, fy) for fx, fy in factors]
    out = {"K": [kron_interior(pairs) for pairs in terms]}
    if nu is None:
        out["f0"] = np.kron(M(y).sum(axis=1).A1[1:-1], M(x).sum(axis=1).A1[1:-1])
        transport = 0.0
    else:
        h = np.diff(y)
        peclet = h / (2.0 * nu)
        delta = np.where(peclet > 1.0, h / 2.0 * (1.0 - 1.0 / peclet), 0.0)
        Cy, Ay_delta = coo_1d(element_matrices_1d(y, "convection")), A(y, delta[:, None])
        N, S = [(Cy, M(x))], [(Ay_delta, M(x))]
        out.update(N=kron_interior(N), S=kron_interior(S), f0=np.zeros(grid.n_interior))
        out["coupling"] = [
            -sum(By @ (Bx @ g.T).T for By, Bx in pairs)[1:-1, 1:-1].ravel()
            for pairs in [terms[0] + N + S] + terms[1:]
        ]
        transport = Cy + Ay_delta
    P_y, Q_y = coef * A(y) + transport, coef * M(y)
    out["mean_factors"] = [B[1:-1, 1:-1].tocsr() for B in (P_y, Q_y, A(x), M(x))]
    return out


# ---------------------------------------------------------------------------
# deterministic limit solutions


def poisson_square_series(x, y, n_terms=399):
    """Series solution of -lap u = 1 on the unit square, zero boundary."""
    total = 0.0
    for m in range(1, n_terms + 1, 2):
        for n in range(1, n_terms + 1, 2):
            total += (
                16.0
                / (np.pi**4 * m * n * (m**2 + n**2))
                * np.sin(m * np.pi * x)
                * np.sin(n * np.pi * y)
            )
    return total


def vertical_wind_profile(y, nu):
    """g(y) solving -nu g'' + g' = 0, g(-1) = 1, g(1) = 0.

    The benchmark solution with mean coefficient one is x * g(y) away from
    the outflow corners.
    """
    y = np.asarray(y, float)
    return -np.expm1((y - 1.0) / nu) / -np.expm1(-2.0 / nu)


# ---------------------------------------------------------------------------
# small instances


def random_factored(rng, n_x, n_xi, rank):
    return FactoredVector(rng.standard_normal((n_x, rank)), rng.standard_normal((n_xi, rank)))


def _spd_tridiagonal(rng, n, shift):
    """Random symmetric tridiagonal n x n matrix, diagonally dominant so
    that its eigenvalues are at least ``shift``."""
    off = rng.standard_normal(n - 1)
    radius = np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off])
    return sp.diags([off, shift + radius + rng.random(n), off], [-1, 0, 1], format="csr")


def random_operator(rng, n_x, n_xi, n_terms):
    """Random small symmetric Kronecker-sum operator with an SPD-dominant mean term.

    K_0 = kron(P_y, M_x) + kron(Q_y, A_x) of random SPD tridiagonal
    factors, carried as the operator's ``mean_factors``.  Their sizes
    multiply to n_x (the x size is the largest divisor of n_x up to its
    square root, 1 for a prime), and P_y's eigenvalues are at least n_x,
    the others' at least 1, so K_0's smallest eigenvalue is at least n_x + 1.
    """
    size_x = max(d for d in range(1, math.isqrt(n_x) + 1) if n_x % d == 0)
    P_y, Q_y = (_spd_tridiagonal(rng, n_x // size_x, shift) for shift in (n_x, 1.0))
    A_x, M_x = (_spd_tridiagonal(rng, size_x, 1.0) for _ in range(2))
    K0 = (sp.kron(P_y, M_x) + sp.kron(Q_y, A_x)).tocsr()
    terms = [(sp.identity(n_xi, format="csr"), K0)]
    for _ in range(1, n_terms):
        K = rng.standard_normal((n_x, n_x))
        G = rng.standard_normal((n_xi, n_xi))
        terms.append((sp.csr_matrix(0.05 * (G + G.T)), sp.csr_matrix(0.05 * (K + K.T))))
    rhs = FactoredVector(rng.standard_normal((n_x, 1)), rng.standard_normal((n_xi, 1)))
    return StochasticOperator(tuple(terms), rhs, True, (P_y, Q_y, A_x, M_x))


def diffusion_operator(level=3, M=3, p=2, sigma=0.1, c=2.0):
    """The diffusion operator of ``fem`` on the unit square."""
    unit = (0.0, 1.0, 0.0, 1.0)
    kl = build_kl(ExponentialCovariance(sigma, c, unit), 1.0, num_modes=M)
    stoch = build_stochastic_matrices(build_spectral_basis(M, p))
    return build_operator(assemble_diffusion(make_grid(level, unit), kl), stoch)
