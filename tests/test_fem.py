import numpy as np
import pytest
import scipy.sparse.linalg as spla

from oracles import (
    coo_1d,
    element_matrices_1d,
    eval_mode,
    kron_assembly,
    poisson_square_series,
    q1_element_loop,
    vertical_wind_profile,
)
from sglowrank import fem
from sglowrank.fem import (
    assemble_convection_diffusion,
    assemble_diffusion,
    interior_to_full,
    make_grid,
    recommend_coarse_level,
    stretch_for_boundary_layer,
)
from sglowrank.randfield import ExponentialCovariance, build_kl

UNIT = (0.0, 1.0, 0.0, 1.0)
BIG = (-1.0, 1.0, -1.0, 1.0)


def kl_for(c=4.0, sigma=0.05, domain=UNIT, M=None):
    return build_kl(ExponentialCovariance(sigma, c, domain), 1.0, M)


class TestGrid:
    @pytest.mark.parametrize("level,interior", [(4, 225), (5, 961)])
    def test_interior_counts(self, level, interior):
        grid = make_grid(level, UNIT)
        assert grid.n_interior == interior
        assert grid.n_nodes == (2**level + 1) ** 2

    def test_geometric_stretch_heights(self):
        grid = make_grid(2, BIG, 2.0)
        heights = np.diff(grid.y_coords)
        assert heights.sum() == pytest.approx(2.0, abs=1e-14)
        assert heights / heights[-1] == pytest.approx([8.0, 4.0, 2.0, 1.0], rel=1e-12)

    def test_stretch_validation(self):
        with pytest.raises(ValueError):
            make_grid(2, BIG, 0.9)

    def test_auto_stretch_targets_wall_height(self):
        st = stretch_for_boundary_layer(5, BIG, nu=1 / 200)
        grid = make_grid(5, BIG, st)
        wall = grid.y_coords[-1] - grid.y_coords[-2]
        assert wall == pytest.approx(1 / 200, rel=1e-6)
        assert st <= 1.5

    def test_auto_stretch_none_when_resolved(self):
        assert stretch_for_boundary_layer(4, BIG, nu=0.5) is None

    def test_auto_stretch_cap(self):
        st = stretch_for_boundary_layer(2, BIG, nu=1e-6)
        assert st == pytest.approx(1.5)


class TestDiffusionAssembly:
    def test_uniform_laplacian_stencil(self):
        # Q1 Laplacian on a uniform grid: diagonal 8/3, every neighbor -1/3
        grid = make_grid(3, UNIT)
        kl = kl_for(sigma=0.0, M=1)
        spatial = assemble_diffusion(grid, kl)
        K0 = spatial.K[0].toarray()
        n = 7  # interior nodes per side
        center = (n // 2) * n + n // 2
        assert K0[center, center] == pytest.approx(8.0 / 3.0, rel=1e-13)
        for off in (-1, 1, -n, n):
            assert K0[center, center + off] == pytest.approx(-1.0 / 3.0, rel=1e-13)
        for off in (-n - 1, -n + 1, n - 1, n + 1):
            assert K0[center, center + off] == pytest.approx(-1.0 / 3.0, rel=1e-13)

    def test_element_matrix_by_hand(self):
        # one 2x2-element patch: assemble on a level-1 grid and compare the
        # single interior node entry: 4 elements, each contributing 2/3
        grid = make_grid(1, UNIT)
        spatial = assemble_diffusion(grid, kl_for(sigma=0.0, M=1))
        assert spatial.K[0].shape == (1, 1)
        assert spatial.K[0][0, 0] == pytest.approx(4 * 2.0 / 3.0, rel=1e-13)

    def test_zero_variance_kills_mode_matrices(self):
        spatial = assemble_diffusion(make_grid(3, UNIT), kl_for(sigma=0.0, M=3))
        for K in spatial.K[1:]:
            assert K.nnz == 0 or abs(K).max() == 0.0

    def test_poisson_center_value_vs_series(self):
        grid = make_grid(6, UNIT)
        spatial = assemble_diffusion(grid, kl_for(sigma=0.0, M=1))
        u = spla.spsolve(spatial.K[0].tocsc(), spatial.f0)
        pts = grid.node_coords()[grid.interior_indices()]
        center = np.argmin(np.abs(pts - 0.5).sum(axis=1))
        exact = poisson_square_series(0.5, 0.5)
        assert abs(u[center] - exact) / exact < 5e-3

    def test_frozen_coefficient_linearity(self, rng):
        # K(xi) = K0 + sum xi_l K_l equals assembly with the frozen field
        grid = make_grid(3, UNIT)
        kl = kl_for(c=2.0, sigma=0.3, M=4)
        spatial = assemble_diffusion(grid, kl)
        xi = rng.uniform(-np.sqrt(3), np.sqrt(3), size=4)
        combo = spatial.K[0] + sum(x * K for x, K in zip(xi, spatial.K[1:]))

        def frozen(px, py):
            return kl.mean_a0 + sum(x * eval_mode(kl, l, (px, py)) for l, x in enumerate(xi))

        inner = np.ix_(grid.interior_indices(), grid.interior_indices())
        want = q1_element_loop(grid.x_coords, grid.y_coords, [frozen])["K"][0][inner]
        assert np.abs(combo.toarray() - want).max() <= 1e-12 * np.abs(want).max()

    def test_load_vector_integrates_one(self):
        grid = make_grid(4, UNIT)
        spatial = assemble_diffusion(grid, kl_for(sigma=0.0, M=1))
        full = interior_to_full(grid, spatial.f0)
        # sum of all load entries is the domain area minus boundary-row mass
        assert full.sum() < 1.0
        assert full.sum() == pytest.approx((1 - 1 / 16) ** 2, rel=1e-12)

    def test_coercivity_warning(self):
        with pytest.warns(UserWarning, match="coercivity"):
            assemble_diffusion(make_grid(3, UNIT), kl_for(c=4.0, sigma=2.0, M=3))

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_mean_stiffness_spd(self, level):
        spatial = assemble_diffusion(make_grid(level, UNIT), kl_for(M=2))
        K0 = spatial.K[0].toarray()
        assert np.abs(K0 - K0.T).max() <= 1e-14
        assert np.linalg.eigvalsh(K0).min() > 0.0


def mode_functions(kl, scale=1.0):
    """Scalar coefficient functions of the mean and of every KL mode."""
    funcs = [lambda px, py: scale * kl.mean_a0]
    for l in range(kl.num_modes):
        funcs.append(lambda px, py, l=l: scale * eval_mode(kl, l, (px, py)))
    return funcs


def assert_close(got, want, rtol=1e-13):
    got = got.toarray() if hasattr(got, "toarray") else np.asarray(got)
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestAgainstElementLoop:
    """Both assemblers entry for entry against a plain 2D element loop."""

    @pytest.mark.parametrize("stretch", [None, 1.3], ids=["uniform", "stretched"])
    def test_diffusion(self, stretch):
        grid = make_grid(3, UNIT, stretch)
        kl = kl_for(c=2.0, sigma=0.3, M=4)
        spatial = assemble_diffusion(grid, kl)
        ref = q1_element_loop(grid.x_coords, grid.y_coords, mode_functions(kl))
        idx = grid.interior_indices()
        for K, want in zip(spatial.K, ref["K"], strict=True):
            assert_close(K, want[np.ix_(idx, idx)])
        assert_close(spatial.f0, ref["f"][idx])

    @pytest.mark.parametrize("stretched", [False, True], ids=["uniform", "stretched"])
    def test_convection_diffusion(self, stretched):
        nu = 1 / 200
        stretch = stretch_for_boundary_layer(4, BIG, nu) if stretched else None
        grid = make_grid(4, BIG, stretch)
        kl = kl_for(domain=BIG, c=2.0, sigma=0.3, M=3)
        spatial = assemble_convection_diffusion(grid, kl, nu)
        # the reference takes any wind; its default is the benchmark's (0, 1)
        ref = q1_element_loop(grid.x_coords, grid.y_coords, mode_functions(kl, nu), nu)
        idx = grid.interior_indices()
        inner = np.ix_(idx, idx)
        for K, want in zip(spatial.K, ref["K"], strict=True):
            assert_close(K, want[inner])
        assert_close(spatial.N, ref["N"][inner])
        assert_close(spatial.S, ref["S"][inner])
        # the lift couplings are -(A_l g)[interior] with the mean term A_0 = nu K_0 + N + S
        g = spatial.bc_lift.values_full
        mats = [ref["K"][0] + ref["N"] + ref["S"]] + ref["K"][1:]
        for coupling, A in zip(spatial.bc_lift.coupling, mats, strict=True):
            assert_close(coupling, -(A @ g)[idx])


def assert_same_bits(got, want):
    """Arrays, or the data, indices and indptr of CSR matrices, equal bit for bit."""
    parts = ("data", "indices", "indptr") if hasattr(want, "indptr") else (None,)
    for part in parts:
        a, b = (got, want) if part is None else (getattr(got, part), getattr(want, part))
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestAgainstKronAssembly:
    """The banded assembly against sums of sparse Kronecker products of
    COO-assembled 1D matrices, which form every entry by the same sums."""

    @pytest.mark.parametrize("kind", ["stiffness", "mass", "convection"])
    @pytest.mark.parametrize("stretch", [None, 1.3], ids=["uniform", "stretched"])
    def test_1d_diagonals(self, kind, stretch, rng):
        t = make_grid(4, UNIT, stretch).y_coords
        # a zero weight on some elements stores zeros, as the streamline matrix does
        coef = rng.random((len(t) - 1, 2)) * (rng.random((len(t) - 1, 1)) < 0.7)
        for Ke in (element_matrices_1d(t, kind), element_matrices_1d(t, kind, coef)):
            D = fem._assemble_1d(Ke)
            B = coo_1d(Ke)
            assert_same_bits(D[0, 1:], B.diagonal(-1))
            assert_same_bits(D[1], B.diagonal(0))
            assert_same_bits(D[2, :-1], B.diagonal(1))
            assert D[0, 0] == D[2, -1] == 0.0

    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    @pytest.mark.parametrize("stretched", [False, True], ids=["uniform", "stretched"])
    @pytest.mark.parametrize("kind", ["diffusion", "convection-diffusion"])
    def test_spatial_matrices(self, kind, stretched, level):
        if kind == "diffusion":
            grid = make_grid(level, UNIT, 1.3 if stretched else None)
            kl = kl_for(c=2.0, sigma=0.1, M=4)
            spatial = assemble_diffusion(grid, kl)
            want = kron_assembly(grid, kl)
        else:
            nu = 1 / 200
            grid = make_grid(level, BIG, stretch_for_boundary_layer(level, BIG, nu) if stretched else None)
            kl = kl_for(domain=BIG, c=2.0, sigma=0.1, M=3)
            spatial = assemble_convection_diffusion(grid, kl, nu)
            g = spatial.bc_lift.values_full.reshape(len(grid.y_coords), -1)
            want = kron_assembly(grid, kl, nu, g)
            assert_same_bits(spatial.N, want["N"])
            assert_same_bits(spatial.S, want["S"])
            for got, ref in zip(spatial.bc_lift.coupling, want["coupling"], strict=True):
                assert_same_bits(got, ref)
        for got, ref in zip(spatial.K, want["K"], strict=True):
            assert_same_bits(got, ref)
        for got, ref in zip(spatial.mean_factors, want["mean_factors"], strict=True):
            assert_same_bits(got, ref)
        assert_same_bits(spatial.f0, want["f0"])


class TestConvectionDiffusion:
    def test_streamline_zero_when_diffusion_dominates(self):
        grid = make_grid(4, BIG)
        spatial = assemble_convection_diffusion(grid, kl_for(domain=BIG, c=8.0, M=2), nu=10.0)
        assert spatial.S.nnz == 0 or abs(spatial.S).max() == 0.0

    def test_peclet_and_delta_uniform_grid(self):
        # nu = 1/200, level 5 on [-1,1]^2: h = 1/16, P = 6.25, delta = 0.02625;
        # the streamline matrix is the element loop's with that delta
        nu = 1 / 200
        grid = make_grid(5, BIG)
        spatial = assemble_convection_diffusion(grid, kl_for(domain=BIG, c=8.0, M=2), nu=nu)
        ref = q1_element_loop(grid.x_coords, grid.y_coords, [], nu)
        assert np.all(np.array(ref["peclet"]) == pytest.approx(6.25, rel=1e-12))
        assert np.all(np.array(ref["delta"]) == pytest.approx(0.02625, rel=1e-12))
        idx = grid.interior_indices()
        assert_close(spatial.S, ref["S"][np.ix_(idx, idx)])

    def test_convection_skew_symmetric_on_interior(self):
        grid = make_grid(4, BIG)
        spatial = assemble_convection_diffusion(grid, kl_for(domain=BIG, c=8.0, M=2), nu=0.1)
        N = spatial.N
        assert np.abs((N + N.T).toarray()).max() <= 1e-14 * np.abs(N).max()

    def test_streamline_matrix_psd(self):
        grid = make_grid(4, BIG)
        spatial = assemble_convection_diffusion(grid, kl_for(domain=BIG, c=8.0, M=2), nu=1 / 400)
        S = spatial.S.toarray()
        assert np.abs(S - S.T).max() <= 1e-14
        eigs = np.linalg.eigvalsh(S)
        assert eigs.min() >= -1e-12 * max(eigs.max(), 1.0)

    def test_deterministic_boundary_layer_profile(self):
        # sigma = 0, nu = 1/20, uniform level 6: resolved layer, the solution
        # matches x * g(y) away from the outflow corners
        nu = 1 / 20
        grid = make_grid(6, BIG)
        kl = kl_for(domain=BIG, c=8.0, sigma=0.0, M=1)
        spatial = assemble_convection_diffusion(grid, kl, nu=nu)
        assert spatial.S.nnz == 0  # resolved: pure Galerkin, no streamline term
        A = spatial.K[0] + spatial.N + spatial.S
        rhs = spatial.f0 + spatial.bc_lift.coupling[0]
        u = spla.spsolve(A.tocsc(), rhs)
        full = interior_to_full(grid, u, spatial.bc_lift.values_full)
        pts = grid.node_coords()
        sel = (np.abs(pts[:, 0]) <= 0.5) & (pts[:, 1] <= 0.9)
        exact = pts[sel, 0] * vertical_wind_profile(pts[sel, 1], nu)
        assert np.abs(full[sel] - exact).max() < 0.01
        # boundary layer: the profile collapses between y=0.8 and the wall
        col = np.flatnonzero(np.isclose(pts[:, 0], 0.5))
        top = col[np.argsort(pts[col, 1])][-2:]
        assert full[top[-1]] == pytest.approx(0.0)
        assert abs(full[top[0]]) < 0.5 * 0.5  # value at the last interior node

    def test_boundary_values_follow_problem_data(self):
        grid = make_grid(3, BIG)
        spatial = assemble_convection_diffusion(grid, kl_for(domain=BIG, c=8.0, M=2), nu=0.1)
        g = spatial.bc_lift.values_full
        pts = grid.node_coords()
        assert g[grid.interior_indices()] == pytest.approx(0.0, abs=0)
        top = np.isclose(pts[:, 1], 1.0)
        bottom = np.isclose(pts[:, 1], -1.0)
        assert np.all(g[top] == 0.0)
        assert g[bottom] == pytest.approx(pts[bottom, 0])

    def test_viscosity_validation(self):
        with pytest.raises(ValueError):
            assemble_convection_diffusion(make_grid(2, BIG), kl_for(domain=BIG, c=8.0, M=1), nu=0.0)


class TestCoarseLevel:
    @pytest.mark.parametrize("M,expected", [(5, 4), (7, 4), (10, 5), (15, 5), (20, 6)])
    def test_diffusion_levels(self, M, expected):
        c = {5: 4.0, 7: 3.0, 10: 2.5, 15: 2.0, 20: 1.5}[M]
        kl = kl_for(c=c, M=M)
        assert recommend_coarse_level(kl) == expected

    @pytest.mark.parametrize(
        "nu,expected",
        [(1 / 20, 4), (1 / 100, 4), (1 / 200, 5), (1 / 400, 5), (1 / 600, 6)],
    )
    def test_convection_diffusion_levels(self, nu, expected):
        kl = kl_for(domain=BIG, c=8.0, M=5)
        got = recommend_coarse_level(kl, nu)
        assert got == expected

