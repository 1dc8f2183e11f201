from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_banded, solveh_banded

from oracles import dense_operator, dense_vec, random_operator
from sglowrank import pgd
from sglowrank.chaos import build_spectral_basis, build_stochastic_matrices
from sglowrank.fem import assemble_convection_diffusion, assemble_diffusion, make_grid
from sglowrank.lowrank import (
    FactoredVector,
    StochasticOperator,
    TruncationOperator,
    add,
    build_operator,
    norm,
    residual_norm,
    scale,
)
from sglowrank.pgd import (
    _Workspace,
    enrich_rank_one,
    handle_nonhomogeneous_bc,
    solve_pgd,
    update_stochastic,
)
from sglowrank.randfield import ExponentialCovariance, build_kl

UNIT = (0.0, 1.0, 0.0, 1.0)
BIG = (-1.0, 1.0, -1.0, 1.0)


def diffusion_operator(level=3, M=3, p=2, sigma=0.1, c=2.0):
    cov = ExponentialCovariance(sigma, c, UNIT)
    kl = build_kl(cov, 1.0, num_modes=M)
    stoch = build_stochastic_matrices(build_spectral_basis(M, p))
    spatial = assemble_diffusion(make_grid(level, UNIT), kl)
    return build_operator(spatial, stoch)


def cd_operator(level=3, M=2, p=2, sigma=0.05, c=8.0, nu=0.1):
    cov = ExponentialCovariance(sigma, c, BIG)
    kl = build_kl(cov, 1.0, num_modes=M)
    stoch = build_stochastic_matrices(build_spectral_basis(M, p))
    spatial = assemble_convection_diffusion(make_grid(level, BIG), kl, nu)
    A = build_operator(spatial, stoch)
    return handle_nonhomogeneous_bc(A, spatial.bc_lift), spatial


def dense_condensed(cond, weights, n):
    """sum_l w_l M_l as a dense n x n array, from a stacked condensation."""
    mat = np.zeros((n, n))
    mat[cond.rows, cond.cols] = weights @ cond.data
    return mat


class TestEnrichment:
    def test_deterministic_problem_exact_in_one_term(self, rng):
        A = diffusion_operator(sigma=0.0, M=2)
        y, z = enrich_rank_one(_Workspace(A), rng)
        u = FactoredVector.rank_one(y, z)
        assert residual_norm(A, u) <= 1e-10 * norm(A.rhs)
        # stochastic factor proportional to the first coordinate vector
        assert np.abs(z[1:]).max() <= 1e-12
        assert abs(abs(z[0]) - 1.0) <= 1e-12

    def test_condensed_matrix_matches_dense_galerkin(self, rng):
        # diffusion takes the banded Cholesky path, convection-diffusion banded LU
        for A in (diffusion_operator(level=3, M=3, p=2), cd_operator()[0]):
            ws = _Workspace(A)
            dense = dense_operator(A)
            n_x, n_xi = A.shape
            z = rng.standard_normal(n_xi)
            z /= np.linalg.norm(z)
            y = rng.standard_normal(n_x)
            # condensation (I (x) z)^T A (I (x) z) in the kron ordering z (x) y
            P = np.kron(z.reshape(-1, 1), np.eye(n_x))
            want = P.T @ dense @ P
            mat = dense_condensed(ws.spatial, ws.stochastic.weights(z), n_x)
            assert np.abs(mat - want).max() <= 1e-12 * np.abs(want).max()
            sol = np.linalg.solve(want, ws.spatial_rhs(z))
            assert np.abs(ws.solve_spatial(z) - sol).max() <= 1e-10 * np.abs(sol).max()
            # scipy's wrappers of the same LAPACK routines give the same bits
            # on the same band (LAPACK storage ab[u + i - j, j] = a[i, j])
            lower, upper = ws._l_and_u
            rows = [np.pad(np.diagonal(mat, k), (k, 0)) for k in range(upper, 0, -1)]
            rows += [np.pad(np.diagonal(mat, -k), (0, k)) for k in range(lower + 1)]
            if A.symmetric:
                want_bits = solveh_banded(np.array(rows), ws.spatial_rhs(z), lower=True)
            else:
                want_bits = solve_banded((lower, upper), np.array(rows), ws.spatial_rhs(z))
            assert ws.solve_spatial(z).tobytes() == want_bits.tobytes()

            # stochastic condensation (y (x) I)^T A (y (x) I), solved densely
            Q = np.kron(np.eye(n_xi), y.reshape(-1, 1))
            want = Q.T @ dense @ Q
            mat = dense_condensed(ws.stochastic, ws.spatial.weights(y), n_xi)
            assert np.abs(mat - want).max() <= 1e-12 * np.abs(want).max()
            sol = np.linalg.solve(want, ws.stochastic_rhs(y))
            assert np.abs(ws.solve_stochastic(y) - sol).max() <= 1e-10 * np.abs(sol).max()

    def test_alternation_fixed_point_residuals(self, monkeypatch, rng):
        A = diffusion_operator(level=3, M=3, p=2, sigma=0.05, c=4.0)
        monkeypatch.setattr(pgd, "ALTERNATION_TOL", 1e-12)
        monkeypatch.setattr(pgd, "MAX_SWEEPS", 60)
        ws = _Workspace(A)
        y, z = enrich_rank_one(ws, rng)
        n_x, n_xi = A.shape

        mat = dense_condensed(ws.spatial, ws.stochastic.weights(z), n_x)
        rhs = ws.spatial_rhs(z)
        assert np.linalg.norm(mat @ y - rhs) <= 1e-8 * np.linalg.norm(rhs)
        mat = dense_condensed(ws.stochastic, ws.spatial.weights(y), n_xi)
        rhs = ws.stochastic_rhs(y)
        assert np.linalg.norm(mat @ z - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_normalization_convention(self, rng):
        A = diffusion_operator(sigma=0.05)
        y, z = enrich_rank_one(_Workspace(A), rng)
        assert np.linalg.norm(z) == pytest.approx(1.0, rel=1e-12)


class TestWorkspace:
    def test_union_pattern_of_distinct_term_patterns(self, rng):
        base = random_operator(rng, 9, 7, 4)

        def masked(M):
            keep = rng.random(M.shape) < 0.4
            keep |= keep.T
            np.fill_diagonal(keep, True)
            return sp.csr_matrix(M.toarray() * keep)

        terms = tuple((masked(G) if l else G, masked(K)) for l, (G, K) in enumerate(base.terms))
        A = StochasticOperator(terms, base.rhs, base.symmetric)
        ws = _Workspace(A)
        for cond, mats in ((ws.spatial, [K for _, K in terms]), (ws.stochastic, [G for G, _ in terms])):
            # every term misses entries of the union pattern
            assert all(M.nnz < cond.rows.size for M in mats)
            n = mats[0].shape[0]
            v = rng.standard_normal(n)
            want_w = np.array([v @ (M @ v) for M in mats])
            got_w = cond.weights(v)
            assert np.abs(got_w - want_w).max() <= 1e-13 * np.abs(want_w).max()
            want = sum(w * M.toarray() for w, M in zip(want_w, mats))
            got = dense_condensed(cond, want_w, n)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_nonsymmetric_stochastic_matrix_rejected(self, rng):
        A = random_operator(rng, 6, 5, 3)
        G, K = A.terms[1]
        G = G.tolil()
        G[0, 1] += 1.0
        bad = StochasticOperator((A.terms[0], (G.tocsr(), K), A.terms[2]), A.rhs, A.symmetric)
        with pytest.raises(ValueError, match="symmetric"):
            _Workspace(bad)
        with pytest.raises(ValueError, match="symmetric"):
            solve_pgd(bad, 1e-6)

    @pytest.mark.parametrize("kind", ["diffusion", "convection-diffusion"])
    def test_failed_band_factorization_raises_linalg_error(self, rng, kind):
        # enrich_rank_one restarts on LinAlgError, so a failed factorization must raise it
        A = diffusion_operator() if kind == "diffusion" else cd_operator()[0]
        z = rng.standard_normal(A.shape[1])
        ws = _Workspace(A)
        ws.solve_spatial(z)
        cond = ws.spatial
        cond.data[:, cond.cols == 3] = 0.0  # a zero column: singular on both paths
        with pytest.raises(np.linalg.LinAlgError):
            ws.solve_spatial(z)
        if A.symmetric:
            ws = _Workspace(A)
            ws.spatial.data[:, (ws.spatial.rows == 0) & (ws.spatial.cols == 0)] *= -1.0
            with pytest.raises(np.linalg.LinAlgError):  # indefinite: no Cholesky factor
                ws.solve_spatial(z)

    @pytest.mark.parametrize("where", ["spatial", "stochastic", "rhs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_operator_rejected(self, where, bad):
        A = diffusion_operator()
        G, K = (M.copy() for M in A.terms[1])
        Y = A.rhs.Y.copy()
        {"spatial": K.data, "stochastic": G.data, "rhs": Y}[where][0] = bad
        A = replace(A, terms=(A.terms[0], (G, K)) + A.terms[2:], rhs=FactoredVector(Y, A.rhs.Z))
        with pytest.raises(ValueError, match="finite"):
            _Workspace(A)

    def test_symmetry_flag_has_no_default(self):
        # flagged symmetric, this transport operator fails in the banded Cholesky
        A, _ = cd_operator()
        with pytest.raises(TypeError, match="symmetric"):
            StochasticOperator(A.terms, A.rhs)
        assert not A.symmetric
        assert solve_pgd(A, 1e-6).kappa == 10

    @pytest.mark.parametrize("kind", ["diffusion", "convection-diffusion"])
    def test_cached_blocks_give_dense_right_hand_sides(self, rng, kind):
        A = diffusion_operator() if kind == "diffusion" else cd_operator()[0]
        sol = solve_pgd(A, 1e-6)
        n_x, n_xi = A.shape
        Y, Z = sol.factors.Y, sol.factors.Z
        # grown one pair at a time, as solve_pgd grows it
        ws = _Workspace(A)
        for i in range(sol.kappa):
            ws.extend(Y[:, i], Z[:, i])

        z = rng.standard_normal(n_xi)
        y = rng.standard_normal(n_x)
        F = A.rhs.Y @ A.rhs.Z.T
        U = Y @ Z.T
        terms = [(G.toarray(), K.toarray()) for G, K in A.terms]
        want_x = F @ z - sum(K @ U @ (G @ z) for G, K in terms)
        want_xi = F.T @ y - sum(G @ U.T @ (K.T @ y) for G, K in terms)
        # at a converged U the two terms nearly cancel; compare at their scale
        err = np.linalg.norm(ws.spatial_rhs(z) - want_x)
        assert err <= 1e-12 * np.linalg.norm(F @ z)
        err = np.linalg.norm(ws.stochastic_rhs(y) - want_xi)
        assert err <= 1e-12 * np.linalg.norm(F.T @ y)


class TestUpdateStochastic:
    def test_kappa_one_reduces_to_half_step(self, rng):
        A = diffusion_operator(sigma=0.05)
        ws = _Workspace(A)
        y, z = enrich_rank_one(ws, rng)
        mat = dense_condensed(ws.stochastic, ws.spatial.weights(y), A.shape[1])
        want = np.linalg.solve(mat, ws.stochastic_rhs(y))
        ws.extend(y, z)
        Z = update_stochastic(ws)
        assert np.abs(Z[:, 0] - want).max() <= 1e-9 * np.abs(want).max()

    def test_matches_dense_block_solve(self, rng):
        A = diffusion_operator(level=2, M=2, p=1, sigma=0.1)
        n_x, n_xi = A.shape
        kappa = 3
        Y = rng.standard_normal((n_x, kappa))
        ws = _Workspace(A)
        for y in Y.T:
            ws.extend(y, rng.standard_normal(n_xi))
        Z = update_stochastic(ws)
        # dense block system: (i, j) block sum_l (y_i^T K_l y_j) G_l
        blocks = np.zeros((kappa * n_xi, kappa * n_xi))
        for G, K in A.terms:
            H = Y.T @ (K @ Y).toarray() if sp.issparse(K @ Y) else Y.T @ (K @ Y)
            blocks += np.kron(H, G.toarray())
        rhs = np.concatenate([(A.rhs.Z @ (A.rhs.Y.T @ Y[:, i])) for i in range(kappa)])
        want = np.linalg.solve(blocks, rhs).reshape(kappa, n_xi)
        assert np.abs(Z - want.T).max() <= 1e-9 * np.abs(want).max()

    def test_update_does_not_worsen_error_spd(self, rng):
        # the update is a Galerkin projection: for SPD operators the energy
        # error cannot grow; the l2 residual may wiggle within a small slack
        for trial in range(20):
            inst = np.random.default_rng(trial)
            A = random_operator(inst, 8, 6, 3)
            dense = dense_operator(A)
            exact = np.linalg.solve(dense, dense_vec(A.rhs))
            ws = _Workspace(A)
            for _ in range(2):
                ws.extend(*enrich_rank_one(ws, inst))
            u = ws.current

            def energy_error(vec):
                e = dense_vec(vec) - exact
                return float(e @ (dense @ e))

            before_energy = energy_error(u)
            before_res = residual_norm(A, u)
            updated = FactoredVector(u.Y, update_stochastic(ws))
            assert energy_error(updated) <= before_energy * (1.0 + 1e-9)
            assert residual_norm(A, updated) <= before_res * 1.05


class TestSolvePgd:
    def test_deterministic_rank_one(self):
        A = diffusion_operator(sigma=0.0, M=3)
        sol = solve_pgd(A, 1e-8)
        assert sol.kappa == 1
        assert sol.converged
        assert sol.rel_residual <= 1e-8

    def test_converges_and_reports(self):
        A = diffusion_operator(level=3, M=3, p=2, sigma=0.1, c=2.0)
        sol = solve_pgd(A, 1e-6)
        assert sol.converged
        assert sol.rel_residual < 1e-6
        assert sol.kappa == sol.factors.rank
        # residuals are checked at rank one and every fifth enrichment
        assert len(sol.residual_history) >= sol.kappa // 5

    def test_rank_lands_on_block_boundaries(self, monkeypatch):
        A = diffusion_operator(level=3, M=4, p=2, sigma=0.15, c=2.0)
        sol = solve_pgd(A, 1e-6)
        assert sol.kappa == 1 or sol.kappa % 5 == 0
        monkeypatch.setattr(pgd, "RESIDUAL_EVERY", 1)
        fine = solve_pgd(A, 1e-6)
        assert fine.kappa <= sol.kappa

    def test_monotone_residual_history_spd(self):
        A = diffusion_operator(level=3, M=4, p=2, sigma=0.15, c=2.0)
        sol = solve_pgd(A, 1e-7)
        hist = np.array(sol.residual_history)
        assert np.all(hist[1:] <= hist[:-1] * 1.05)

    def test_basis_orthonormal_and_spans_solution(self):
        A = diffusion_operator(level=3, M=3, p=2, sigma=0.1)
        sol = solve_pgd(A, 1e-6)
        Zc = sol.Zc
        assert np.abs(Zc.T @ Zc - np.eye(Zc.shape[1])).max() < 1e-12
        # projecting the solution onto the basis loses nothing
        proj = TruncationOperator("projection", basis=Zc).apply(sol.factors)
        diff = norm(add(proj, scale(sol.factors, -1.0)))
        assert diff <= 1e-10 * norm(sol.factors)

    def test_scale_invariance(self):
        A = diffusion_operator(level=3, M=3, p=2, sigma=0.1)
        scaled = StochasticOperator(A.terms, scale(A.rhs, 10.0), A.symmetric)
        sol = solve_pgd(A, 1e-6)
        sol10 = solve_pgd(scaled, 1e-6)
        assert sol10.kappa == sol.kappa
        # agreement is limited by the iterative update tolerance, not eps_mach
        assert sol10.rel_residual == pytest.approx(sol.rel_residual, rel=1e-2)
        diff = norm(add(sol10.factors, scale(sol.factors, -10.0)))
        assert diff <= 1e-6 * norm(sol10.factors)

    def test_seeded_reproducibility(self):
        A = diffusion_operator(level=3, M=3, p=2, sigma=0.1)
        a = solve_pgd(A, 1e-6, seed=7)
        b = solve_pgd(A, 1e-6, seed=7)
        assert a.kappa == b.kappa
        assert np.array_equal(a.factors.Y, b.factors.Y)
        assert np.array_equal(a.factors.Z, b.factors.Z)

    def test_zero_rhs_gives_rank_zero(self):
        A = diffusion_operator()
        zero = StochasticOperator(A.terms, FactoredVector.zero(*A.shape), A.symmetric)
        sol = solve_pgd(zero, 1e-6)
        assert sol.kappa == 0 and sol.converged and sol.rel_residual == 0.0
        assert sol.Zc.shape == (A.shape[1], 0)

    def test_failed_start_restarts_from_seeded_random_z(self, monkeypatch):
        A = diffusion_operator(level=3, M=3, p=2, sigma=0.1)
        solve_spatial = _Workspace.solve_spatial

        def solve_failing_first(seed):
            starts = []

            def failing_first(ws, z):
                starts.append(z.copy())
                if len(starts) == 1:
                    raise np.linalg.LinAlgError("singular condensed matrix")
                return solve_spatial(ws, z)

            monkeypatch.setattr(_Workspace, "solve_spatial", failing_first)
            return solve_pgd(A, 1e-6, seed=seed), starts

        a, starts = solve_failing_first(7)
        b, _ = solve_failing_first(7)
        assert np.array_equal(starts[0], np.eye(A.shape[1])[0])
        z = np.random.default_rng(7).standard_normal(A.shape[1])
        assert np.array_equal(starts[1], z / np.linalg.norm(z))
        assert a.converged
        assert np.array_equal(a.factors.Y, b.factors.Y)
        assert np.array_equal(a.factors.Z, b.factors.Z)
        other, _ = solve_failing_first(8)
        assert not np.array_equal(other.factors.Y[:, 0], a.factors.Y[:, 0])

        def singular(ws, z):
            raise np.linalg.LinAlgError("singular condensed matrix")

        monkeypatch.setattr(_Workspace, "solve_spatial", singular)
        with pytest.raises(RuntimeError, match="enrichment failed after 3 random restarts"):
            solve_pgd(A, 1e-6)

    def test_max_rank_flags_nonconvergence(self, monkeypatch):
        A = diffusion_operator(level=3, M=4, p=2, sigma=0.2, c=1.5)
        monkeypatch.setattr(pgd, "MAX_RANK", 3)
        with pytest.warns(UserWarning, match="PGD stopped"):
            sol = solve_pgd(A, 1e-12)
        assert not sol.converged
        assert sol.kappa == 3

    @pytest.mark.parametrize("kind", ["diffusion", "convection-diffusion"])
    def test_nonconverging_update_warns_and_is_kept_only_if_no_worse(self, monkeypatch, kind):
        if kind == "diffusion":
            A = diffusion_operator(level=3, M=3, p=2, sigma=0.1, c=2.0)
        else:
            A = cd_operator()[0]
        fnorm = norm(A.rhs)
        n_xi = A.shape[1]
        # GMRES inner steps per update, counted through its per-step callback
        gmres, steps = pgd.spla.gmres, []

        def counting_gmres(op, b, **kwargs):
            calls = []
            out = gmres(op, b, callback=calls.append, callback_type="pr_norm", **kwargs)
            steps.append((b.size // n_xi, len(calls)))
            return out

        monkeypatch.setattr(pgd.spla, "gmres", counting_gmres)
        # no Krylov iterate reaches a zero residual: CG and GMRES use up their budget
        monkeypatch.setattr(pgd, "UPDATE_RTOL", 0.0)
        with pytest.warns(UserWarning, match="stochastic update did not converge"):
            sol = solve_pgd(A, 1e-6)
        assert sol.converged
        assert bool(steps) == (kind == "convection-diffusion")
        for kappa, count in steps:
            assert count <= max(200, 20 * kappa)
        assert sol.rel_residual == residual_norm(A, sol.factors) / fnorm
        assert sol.rel_residual <= sol.residual_history[-2]

        # an update that measures worse is dropped for the enriched factors
        monkeypatch.setattr(pgd, "update_stochastic", lambda ws: np.zeros_like(ws.current.Z))
        enriched = solve_pgd(A, 1e-6)
        assert enriched.residual_history[-1] == enriched.residual_history[-2]
        assert enriched.rel_residual == residual_norm(A, enriched.factors) / fnorm
        assert np.any(enriched.factors.Z)


class TestBoundaryLift:
    def test_homogeneous_problem_unchanged(self):
        A = diffusion_operator()
        out = handle_nonhomogeneous_bc(A, None)
        assert out is A

    def test_reconstruction_satisfies_boundary_values(self):
        A, spatial = cd_operator(level=3)
        grid = make_grid(3, BIG)
        sol = solve_pgd(A, 1e-8)
        from sglowrank.fem import interior_to_full

        g = spatial.bc_lift.values_full
        mean_field = interior_to_full(grid, sol.factors.Y @ sol.factors.Z[0], g)
        bnd = np.setdiff1d(np.arange(grid.n_nodes), grid.interior_indices())
        assert mean_field[bnd] == pytest.approx(g[bnd], abs=0)

    def test_lift_alignment_with_dropped_terms(self, rng):
        # a vanishing middle KL matrix must not shift later lift couplings
        from dataclasses import replace

        from sglowrank.chaos import build_spectral_basis, build_stochastic_matrices
        from sglowrank.fem import BoundaryLift
        from sglowrank.lowrank import build_operator

        A_full, spatial = cd_operator(level=2, M=2, p=1)
        zero = sp.csr_matrix(spatial.K[1].shape)
        lift = spatial.bc_lift
        # zero out mode 1 entirely, keep mode 2 and its coupling
        spatial_mod = replace(
            spatial,
            K=(spatial.K[0], zero, spatial.K[2]),
            bc_lift=BoundaryLift(
                lift.values_full,
                (lift.coupling[0], np.zeros_like(lift.coupling[1]), lift.coupling[2]),
            ),
        )
        stoch = build_stochastic_matrices(build_spectral_basis(2, 1))
        A = build_operator(spatial_mod, stoch)
        assert A.num_terms == 3
        A = handle_nonhomogeneous_bc(A, spatial_mod.bc_lift)
        n_x, n_xi = A.shape
        got = dense_vec(A.rhs)
        # couplings stack per stochastic ordinal: mean at e_1, mode 2 at G_2 e_1
        want_vec = np.zeros(n_x * n_xi)
        want_vec[:n_x] = lift.coupling[0]
        # G_2 e1 hits the ordinal of the degree-1 index in coordinate 2
        pos = stoch[1][:, 0].nonzero()[0][0]
        coeff = stoch[1][pos, 0]
        want_vec[pos * n_x : (pos + 1) * n_x] = coeff * lift.coupling[2]
        assert np.abs(got - want_vec).max() <= 1e-12 * np.abs(want_vec).max()

    def test_matches_dense_solve_with_bc(self):
        A, spatial = cd_operator(level=3, M=2, p=2)
        eps = 1e-8
        sol = solve_pgd(A, eps)
        assert sol.converged
        dense = dense_operator(A)
        want = np.linalg.solve(dense, dense_vec(A.rhs))
        got = dense_vec(sol.factors)
        # residual < eps bounds the error through the inverse operator norm
        fnorm = norm(A.rhs)
        bound = eps * fnorm * np.linalg.norm(np.linalg.inv(dense), 2)
        assert np.linalg.norm(got - want) <= bound
