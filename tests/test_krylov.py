import ast
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from oracles import (
    dense_gmres,
    dense_operator,
    dense_vec,
    diffusion_operator,
    pod_basis,
    random_factored,
    reduced_galerkin_solve,
    residual_norm,
)
from test_perfbench_spans import load as perfbench_module
from sglowrank import krylov, lowrank, pgd
from sglowrank.krylov import (
    ConfigError,
    MeanPreconditioner,
    PipelineSpec,
    apply_preconditioned,
    pipeline,
    solve,
)
from sglowrank.lowrank import (
    FactoredVector,
    TruncationOperator,
    add,
    norm,
    reduce_operator,
    scale,
    truncate_svd,
)
from sglowrank.pgd import solve_pgd

UNIT = (0.0, 1.0, 0.0, 1.0)
BIG = (-1.0, 1.0, -1.0, 1.0)


def problem_operator(kind, level, M=2, p=1):
    """The operator ``build_problem`` returns, with the benchmark's nu = 1/200."""
    nu = 1 / 200 if kind == "convection-diffusion" else None
    spec = PipelineSpec(kind=kind, domain=BIG, nu=nu, num_modes=M, degree=p)
    kl, stoch = krylov.build_stochastic(spec)
    return krylov.build_problem(spec, level, kl, stoch)


def no_truncation(A):
    return TruncationOperator("svd-rank", rank=min(A.shape))


class TestPreconditioner:
    def test_rank_preserved(self, rng):
        A = diffusion_operator()
        P = MeanPreconditioner(A)
        u = random_factored(rng, *A.shape, 4)
        assert P.solve(u).rank == 4

    def test_matches_dense_application(self, rng):
        # diffusion, and convection-diffusion on a stretched level-3 grid
        cd = problem_operator("convection-diffusion", 3)[2]
        for A in (diffusion_operator(level=2, M=2, p=1), cd):
            P = MeanPreconditioner(A)
            u = random_factored(rng, *A.shape, 3)
            got = dense_vec(apply_preconditioned(A, P, u))
            D = dense_operator(A)
            n_x, n_xi = A.shape
            Minv = np.kron(np.eye(n_xi), np.linalg.inv(A.mean_spatial.toarray()))
            want = D @ Minv @ dense_vec(u)
            assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    @pytest.mark.parametrize(
        "kind,level",
        [("diffusion", 3), ("diffusion", 6), ("convection-diffusion", 4),
         ("convection-diffusion", 6)],
    )
    def test_mean_factors_reproduce_the_mean_block(self, kind, level):
        # the operator the pipeline solves, after any Dirichlet lift is folded
        # in, carries factors whose Kronecker sum is its mean block, which the
        # preconditioner inverts from the factors alone
        grid, _, A = problem_operator(kind, level)
        P_y, Q_y, A_x, M_x = A.mean_factors
        diff = sp.kron(P_y, M_x) + sp.kron(Q_y, A_x) - A.mean_spatial
        rel = abs(diff).max() / abs(A.mean_spatial).max()
        if kind == "diffusion":
            assert rel == 0.0
        else:
            assert np.ptp(np.diff(grid.y_coords)) > 0  # a stretched grid
            assert rel <= 1e-15

    def test_exact_mean_problem_is_identity(self, rng):
        A = diffusion_operator(sigma=0.0, M=2)
        P = MeanPreconditioner(A)
        u = random_factored(rng, *A.shape, 2)
        out = apply_preconditioned(A, P, u)
        diff = add(out, scale(u, -1.0))
        assert norm(diff) <= 1e-12 * norm(u)

    def test_folded_matvec_matches_dense(self, rng):
        # vectors in two frames, u, v, then u again: each matvec depends on
        # its input alone, with no state carried over from the one before
        A = diffusion_operator(level=3, M=3, p=2)
        n_x, n_xi = A.shape
        P = MeanPreconditioner(A)
        Minv = np.kron(np.eye(n_xi), np.linalg.inv(A.mean_spatial.toarray()))
        D = dense_operator(A) @ Minv
        u = random_factored(rng, n_x, n_xi, 4)
        v = random_factored(rng, n_x, n_xi, 2)
        for x in (u, v, u):
            out = apply_preconditioned(A, P, x)
            assert out.shape == (n_x, n_xi) and out.rank == n_xi
            want = D @ dense_vec(x)
            assert np.linalg.norm(dense_vec(out) - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", ["diffusion", "convection-diffusion"])
    def test_reduced_matvec_matches_dense_projection(self, rng, kind):
        # the reduced terms B^T G_l B are dense kappa x kappa matrices stored
        # as CSR; against L^T D (I (x) K_0^{-1}) L with the lift L = kron(B, I)
        A = problem_operator(kind, 3, M=2, p=2)[2]
        n_x, n_xi = A.shape
        B, _ = np.linalg.qr(rng.standard_normal((n_xi, 4)))
        R = reduce_operator(A, B)
        u = random_factored(rng, n_x, 4, 3)
        got = dense_vec(apply_preconditioned(R, MeanPreconditioner(A), u))
        L = np.kron(B, np.eye(n_x))
        Minv = np.kron(np.eye(n_xi), np.linalg.inv(A.mean_spatial.toarray()))
        want = L.T @ dense_operator(A) @ Minv @ L @ dense_vec(u)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_matvec_memory_is_output_solve_and_one_term(self, rng):
        # M = 7 terms folded into a kappa-wide output: the call may hold the
        # output, X = K_0^{-1} Y (kept by the preconditioner and read by the
        # sparse products as it is) and one K_l X, and during the solve X
        # and its modal array, but no transposed copy of Y or X and no
        # spatial stack of the M + 1 terms
        A = diffusion_operator(level=5, M=7, p=2)
        n_x, n_xi = A.shape
        kappa = r = 20
        B, _ = np.linalg.qr(rng.standard_normal((n_xi, kappa)))
        R = reduce_operator(A, B)
        P = MeanPreconditioner(R)
        assert len(R.terms) == 8
        apply_preconditioned(R, P, random_factored(rng, n_x, kappa, r))
        u = random_factored(rng, n_x, kappa, r)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = apply_preconditioned(R, P, u)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.shape == (n_x, kappa)
        assert peak <= 8 * n_x * (kappa + 2 * r) + 64 * 1024

    @staticmethod
    def assert_solves_mean_block(A, rng):
        # against a dense solve with K_0 formed from the factors
        P_y, Q_y, A_x, M_x = A.mean_factors
        K0 = (sp.kron(P_y, M_x) + sp.kron(Q_y, A_x)).toarray()
        u = random_factored(rng, *A.shape, 3)
        got = MeanPreconditioner(A).solve(u).Y
        want = np.linalg.solve(K0, u.Y)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_exchanges_rows_where_partial_pivoting_does(self, rng):
        # the first x-mode's system of a hand-built nonsymmetric P_y has a
        # zero first pivot over a nonzero subdiagonal entry: only a row
        # exchange eliminates it, and K_0 is regular
        A = diffusion_operator(level=3)
        P_y, Q_y, A_x, M_x = A.mean_factors
        lam = scipy.linalg.eigh(A_x.toarray(), M_x.toarray(), eigvals_only=True)
        first = sp.csr_matrix(([-lam[0] * Q_y[0, 0] - P_y[0, 0]], ([0], [0])), shape=P_y.shape)
        skewed = (P_y + first + 3 * sp.tril(P_y, -1)).tocsr()
        A = replace(A, mean_factors=(skewed, Q_y, A_x, M_x))
        assert abs(skewed[0, 0] + lam[0] * Q_y[0, 0]) <= 1e-15 * abs(skewed[1, 0])
        self.assert_solves_mean_block(A, rng)

    def test_solves_convection_that_partial_pivoting_reorders(self, rng):
        # mean_a0 < 1 leaves SUPG's subdiagonal of P_y larger than its
        # pivots where the Peclet number exceeds 1 (nu = 1/200, level 5)
        spec = PipelineSpec(kind="convection-diffusion", nu=1 / 200, mean_a0=0.5,
                            num_modes=2, degree=1)
        A = krylov.build_problem(spec, 5, *krylov.build_stochastic(spec))[2]
        P_y, Q_y, A_x, M_x = A.mean_factors
        lam = scipy.linalg.eigh(A_x.toarray(), M_x.toarray(), eigvals_only=True)
        assert np.any(abs(P_y[1, 0] + lam * Q_y[1, 0]) > abs(P_y[0, 0] + lam * Q_y[0, 0]))
        self.assert_solves_mean_block(A, rng)

    @pytest.mark.parametrize("kind", ["diffusion", "convection-diffusion"])
    @pytest.mark.parametrize("level", [1, 2])
    def test_solves_the_smallest_grids(self, rng, kind, level):
        # level 1 has one grid row, which is its own factor; level 2 has
        # three, the fewest LAPACK's gttrf wrapper takes
        A = problem_operator(kind, level)[2]
        assert A.mean_factors[0].shape[0] == 2**level - 1
        self.assert_solves_mean_block(A, rng)

    def test_rejects_a_block_singular_in_one_mode(self):
        # P_y = -lambda_j Q_y leaves the system of x-mode j zero and the
        # others (lambda_i - lambda_j) Q_y, regular
        A = diffusion_operator(level=3)
        P_y, Q_y, A_x, M_x = A.mean_factors
        lam = scipy.linalg.eigh(A_x.toarray(), M_x.toarray(), eigvals_only=True)
        assert np.all(np.diff(lam) > 0)
        singular = ((-lam[2] * Q_y).tocsr(), Q_y, A_x, M_x)
        with pytest.raises(ValueError, match="singular"):
            MeanPreconditioner(replace(A, mean_factors=singular))

    def test_rejects_singular_block(self):
        # a K_0 whose last grid row is zero
        A = diffusion_operator(level=3)
        P_y, Q_y, A_x, M_x = A.mean_factors
        last_row_zero = sp.diags(np.r_[np.ones(P_y.shape[0] - 1), 0.0])
        singular = (last_row_zero @ P_y, last_row_zero @ Q_y, A_x, M_x)
        with pytest.raises(ValueError, match="singular"):
            MeanPreconditioner(replace(A, mean_factors=singular))

    def test_rejects_inexact_identity_mean(self):
        A = diffusion_operator()
        G0 = A.terms[0][0].tolil()
        G0[1, 1] = np.nextafter(1.0, 2.0)
        terms = ((G0.tocsr(), A.terms[0][1]),) + A.terms[1:]
        with pytest.raises(ValueError, match="G_0 = I"):
            MeanPreconditioner(replace(A, terms=terms))
        scaled = ((2.0 * sp.identity(A.shape[1], format="csr"), A.terms[0][1]),) + A.terms[1:]
        with pytest.raises(ValueError, match="G_0 = I"):
            MeanPreconditioner(replace(A, terms=scaled))


class TestFold:
    """Matvec outputs and residuals are exact n_x x n_xi blocks."""

    def test_matvec_output_folded_and_exact(self, rng):
        A = diffusion_operator()
        n_x, n_xi = A.shape
        u = random_factored(rng, n_x, n_xi, 3)
        assert len(A.terms) * u.rank > n_xi
        P = MeanPreconditioner(A)
        out = apply_preconditioned(A, P, u)
        assert out.rank <= n_xi
        Minv = np.kron(np.eye(n_xi), np.linalg.inv(A.mean_spatial.toarray()))
        want = dense_operator(A) @ Minv @ dense_vec(u)
        assert np.linalg.norm(dense_vec(out) - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", ["svd-rank", "projection"])
    def test_final_residual_matches_dense(self, kind):
        # rank 6 of n_xi = 10 truncates for real; the basis is the leading
        # stochastic singular space of the untruncated solution
        A = diffusion_operator()
        if kind == "projection":
            u_star, _ = solve(A, no_truncation(A), 1e-10)
            trunc = TruncationOperator("projection", basis=truncate_svd(u_star, rank=6).Z)
        else:
            trunc = TruncationOperator("svd-rank", rank=6)
        assert len(A.terms) * trunc.rank > A.shape[1]
        u, report = solve(A, trunc, 1e-3, m=6)
        assert report.converged
        b = dense_vec(A.rhs)
        dense_rel = np.linalg.norm(b - dense_operator(A) @ dense_vec(u)) / np.linalg.norm(b)
        assert report.residual_history[-1] == pytest.approx(dense_rel, rel=1e-9)


class TestFixedFrame:
    """With projection truncation the solve works in the frame of the basis."""

    def test_basis_vectors_and_iterate_share_the_basis(self, monkeypatch):
        A = diffusion_operator(level=4, M=5, p=3, sigma=0.05, c=4.0)
        n_x, n_xi = A.shape
        trunc = TruncationOperator("projection", basis=solve_pgd(A, 1e-6).Zc)
        kappa = trunc.rank
        m = 6
        # an unframed combination w - sum alpha_i V_i would grow to
        # n_xi + (m-1) kappa
        assert kappa < n_xi < (m - 1) * kappa

        inputs = []
        matvec = krylov.apply_preconditioned

        def recording_matvec(A_, P_, u):
            inputs.append(u)
            return matvec(A_, P_, u)

        built = []
        set_factors = lowrank.FactoredVector._set_factors

        def recording_set_factors(self, Y, Z):
            built.append((Y.shape[1], Z.shape[0]))
            set_factors(self, Y, Z)

        monkeypatch.setattr(krylov, "apply_preconditioned", recording_matvec)
        monkeypatch.setattr(lowrank.FactoredVector, "_set_factors", recording_set_factors)
        u, report = solve(A, trunc, 1e-6, m=m)
        assert report.converged and report.matvecs > 1
        # the zero iterate's residual is f: the first matvec takes f's
        # reduced factors (Y_f, B^T Z_f), no wider than f.  Every later
        # cycle matvec takes an n_x x kappa block of the kappa-identity
        # frame; the only full-width inputs are the lifted iterates of the
        # residual checks after a cycle (the zero iterate takes no matvec)
        reduced = [x for x in inputs if x.shape == (n_x, kappa)]
        lifted = [x for x in inputs if x.shape == (n_x, n_xi)]
        assert len(reduced) == report.matvecs and len(lifted) == report.cycles
        assert len(reduced) + len(lifted) == len(inputs)
        first, *later = reduced
        assert first.rank <= A.rhs.rank == 1
        assert np.array_equal(first.Z, trunc.basis.T @ A.rhs.Z)
        identity = later[0].Z
        assert np.array_equal(identity, np.eye(kappa))
        assert all(x.Z is identity and x.rank == kappa for x in later)
        # the lifted iterates and the returned Z are B times a kappa-row factor
        # (the identity of the cycles' frame)
        B = trunc.basis
        assert all(np.array_equal(x.Z, B) and x.rank == kappa for x in lifted)
        assert np.array_equal(u.Z, B) and u.rank == kappa
        # no vector is wider than its frame: nothing concatenates W with B
        assert all(width <= frame for width, frame in built if frame == kappa)
        assert max(width for width, _ in built) <= n_xi

    def test_basis_limited_run_stops(self):
        # a basis learned on too coarse a grid (level 2: kappa 15, rank 9)
        # cannot represent the fine solution to eps: after one cycle the
        # residual's part outside the basis alone is above eps, and the
        # solve ends there
        spec = PipelineSpec(
            kind="diffusion", domain=UNIT, corr_len=3.0, sigma=0.05, mean_a0=1.0,
            degree=2, num_modes=4, coarse_level=2, fine_level=5, eps=1e-6, m=8,
        )
        with pytest.warns(UserWarning, match="stopped after .* cycles .*basis-limited"):
            res = pipeline(spec)
        assert res.report.status == "basis-limited"
        assert not res.report.converged
        assert res.report.cycles == 1
        assert res.report.complement_history[-1] >= spec.eps
        assert res.report.residual_history[-1] >= res.report.complement_history[-1]

    def test_basis_limited_iterate_is_the_reduced_galerkin_solution(self):
        # eps below the basis floor and m long enough that the first cycle
        # reaches tau = eps ||f||: that cycle computes the Galerkin solution
        # in span(B), whose residual lies wholly outside the basis
        A = diffusion_operator(level=4, M=3, p=2, sigma=0.1)
        B = solve_pgd(diffusion_operator(level=3, M=3, p=2, sigma=0.1), 1e-2).Zc
        assert B.shape[1] < A.shape[1]
        u_star, floor = reduced_galerkin_solve(A, B)
        eps, m = 1e-9, 30
        assert floor > 1e3 * eps
        with pytest.warns(UserWarning, match="basis-limited"):
            u, report = solve(A, TruncationOperator("projection", basis=B), eps, m=m)
        assert (report.status, report.cycles) == ("basis-limited", 1)
        assert report.matvecs < m
        assert np.linalg.norm(dense_vec(u) - u_star) <= 1e-8 * np.linalg.norm(u_star)
        assert report.complement_history[-1] == pytest.approx(floor, rel=1e-6)

    def test_capped_cycle_restarts_although_its_complement_exceeds_eps(self):
        # a level-2 basis on level 4: floor 1.6e-3, f's own complement
        # 2.1e-2.  At eps = 3e-3 a cycle of m = 8 converges at once; one cut
        # by the cap m = 1 leaves an iterate far from the reduced solution,
        # whose complement (7.7e-3) is above eps but not the floor, so the
        # solve restarts instead of stopping basis-limited
        A = diffusion_operator(level=4, M=4, p=2, sigma=0.1, c=2.0)
        B = solve_pgd(diffusion_operator(level=2, M=4, p=2, sigma=0.1, c=2.0), 1e-3).Zc
        trunc = TruncationOperator("projection", basis=B)
        eps = 3e-3
        _, long = solve(A, trunc, eps, m=8)
        assert long.converged and long.cycles == 1
        _, report = solve(A, trunc, eps, m=1)
        assert report.converged and report.cycles > 1
        assert min(report.complement_history[:2]) > eps
        assert report.residual_history[-1] < eps

    def test_status_follows_the_basis_floor(self):
        # 30 cells of level-4 problems with PGD bases from coarser grids:
        # kind, sigma, coarse level and the spec's eps set the basis and its
        # floor (the residual of the reduced Galerkin solution); the fine
        # eps and m cycle through the cells.  A floor below 0.9 eps must
        # converge, one above 1.1 eps must stop basis-limited
        bases = [
            ("diffusion", 0.05, 2, 1e-2), ("diffusion", 0.2, 2, 1e-3),
            ("diffusion", 0.3, 2, 1e-4), ("diffusion", 0.05, 3, 1e-3),
            ("diffusion", 0.2, 3, 1e-2), ("convection-diffusion", 0.05, 2, 1e-3),
            ("convection-diffusion", 0.2, 2, 1e-4), ("convection-diffusion", 0.3, 2, 1e-2),
            ("convection-diffusion", 0.05, 3, 1e-2), ("convection-diffusion", 0.3, 3, 1e-2),
        ]
        eps_values, m_values = (3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4), (1, 2, 4, 8)
        statuses = {"converged": 0, "basis-limited": 0}
        for i, (kind, sigma, coarse, basis_eps) in enumerate(bases):
            nu = 1 / 50 if kind == "convection-diffusion" else None
            spec = PipelineSpec(kind=kind, domain=BIG if nu else UNIT, corr_len=2.0, sigma=sigma,
                                num_modes=3, degree=2, nu=nu, eps=basis_eps, coarse_level=coarse)
            kl, stoch = krylov.build_stochastic(spec)
            A = krylov.build_problem(spec, 4, kl, stoch)[2]
            B = krylov.run_pgd(spec, kl, stoch)[1].Zc
            _, floor = reduced_galerkin_solve(A, B)
            for k in range(3):
                eps, m = eps_values[(i + 2 * k) % 6], m_values[(i + k) % 4]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    _, report = solve(A, TruncationOperator("projection", basis=B), eps, m=m)
                cell = (kind, sigma, coarse, basis_eps, eps, m, floor, report.status)
                if floor < 0.9 * eps:
                    assert report.status == "converged", cell
                elif floor > 1.1 * eps:
                    assert report.status == "basis-limited", cell
                statuses[report.status] += 1
        assert min(statuses.values()) >= 10, statuses

    @pytest.mark.parametrize(
        "kind, coarse, basis_eps, measured",
        [
            ("diffusion", 2, 1e-4, 1.000), ("diffusion", 2, 1e-6, 0.129),
            ("diffusion", 3, 1e-4, 0.962), ("diffusion", 3, 1e-6, 1.457),
            ("convection-diffusion", 2, 1e-4, 0.998), ("convection-diffusion", 2, 1e-6, 0.998),
            ("convection-diffusion", 3, 1e-4, 8.047), ("convection-diffusion", 3, 1e-6, 0.586),
        ],
    )
    def test_pgd_floor_against_the_pod_floor(self, kind, coarse, basis_eps, measured):
        # the yardstick of a coarse basis: the POD basis of the same size,
        # the best one for the coarse problem, taken from its full-tensor
        # solve.  On the fine level either basis's floor is the residual of
        # its reduced Galerkin solution, and the PGD floor may be below the
        # POD floor.  ``measured`` is PGD floor / POD floor as it stands; a
        # PGD change that makes a cell's basis 25% worse fails here
        nu = 1 / 200 if kind == "convection-diffusion" else None
        spec = PipelineSpec(kind=kind, domain=BIG if nu else UNIT, corr_len=8.0 if nu else 3.0,
                            num_modes=3, degree=3, nu=nu, eps=basis_eps, coarse_level=coarse)
        kl, stoch = krylov.build_stochastic(spec)
        B = krylov.run_pgd(spec, kl, stoch)[1].Zc
        A_coarse = krylov.build_problem(spec, coarse, kl, stoch)[2]
        A_fine = krylov.build_problem(spec, 4, kl, stoch)[2]
        assert B.shape[1] < A_fine.shape[1] == 20
        pgd_floor = reduced_galerkin_solve(A_fine, B)[1]
        pod_floor = reduced_galerkin_solve(A_fine, pod_basis(A_coarse, B.shape[1]))[1]
        assert pgd_floor <= 1.25 * measured * pod_floor, (pgd_floor, pod_floor)

    def test_status_of_other_stops(self, monkeypatch):
        A = diffusion_operator(level=3, M=3, p=2, sigma=0.1)
        _, report = solve(A, no_truncation(A), 1e-6)
        assert report.status == "converged" and report.converged
        monkeypatch.setattr(krylov, "MAX_CYCLES", 1)
        with pytest.warns(UserWarning, match="max-cycles"):
            _, report = solve(A, no_truncation(A), 1e-14, m=2)
        assert report.status == "max-cycles" and report.cycles == 1
        # a basis orthogonal to the rhs's stochastic factor g_0 = e_1
        # truncates the first residual to exactly zero
        basis = np.eye(A.shape[1])[:, 1:4]
        trunc = TruncationOperator("projection", basis=basis)
        with pytest.warns(UserWarning, match="vanished"):
            _, report = solve(A, trunc, 1e-6)
        assert report.status == "basis-vanished" and report.cycles == 0

    def test_zero_rhs_is_solved_by_the_zero_vector(self):
        A = diffusion_operator()
        zero = replace(A, rhs=FactoredVector.zero(*A.shape))
        u, report = solve(zero, no_truncation(A), 1e-6)
        assert u.shape == A.shape and u.rank == 0
        assert (report.cycles, report.matvecs, report.status) == (0, 0, "converged")
        assert report.converged and report.residual_history == [0.0]


def singular_operator():
    """L = (I - e_n e_n^T) (x) I with f = y (x) (e_1 + e_n) / sqrt(2).

    L annihilates the e_n half of f, so the second matvec of the first
    cycle and the first matvec of every later cycle add no direction.
    """
    A = diffusion_operator()
    n_xi = A.shape[1]
    K0 = A.terms[0][1]
    last = sp.csr_matrix(([-1.0], ([n_xi - 1], [n_xi - 1])), shape=(n_xi, n_xi))
    z = np.zeros(n_xi)
    z[0] = z[-1] = np.sqrt(0.5)
    return replace(
        A, terms=((A.terms[0][0], K0), (last, K0)), rhs=FactoredVector.rank_one(A.rhs.Y[:, 0], z)
    )


def perfbench_warning_kinds() -> dict:
    """``WARNING_KINDS`` of perfbench/run.py, read without importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WARNING_KINDS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no WARNING_KINDS")


def test_perfbench_warning_fragments_match_the_warnings(monkeypatch):
    # perfbench counts warnings by text fragment (krylov.gram_rank_deficient,
    # krylov.residual_increases, pgd.nonconverged, ...); a reworded warning
    # would count zero there without failing anything else
    caught = {}

    def record(kinds, call):
        with warnings.catch_warnings(record=True) as found:
            warnings.simplefilter("always")
            out = call()
        for kind in kinds:
            caught[kind] = [str(w.message) for w in found]
        return out

    singular = singular_operator()
    record(["gram_rank_deficient"], lambda: solve(singular, no_truncation(singular), 1e-6, m=4))
    # the rank-2 iterate's truncation undoes part of the second cycle
    A = diffusion_operator(level=3, M=3, p=2, sigma=0.1)
    _, report = record(["residual_increases", "solver_stopped"],
                       lambda: solve(A, TruncationOperator("svd-rank", rank=2), 1e-6, m=8))
    assert report.status == "basis-limited"
    assert any(text.startswith("cycle 2 increased") for text in caught["residual_increases"])
    orthogonal = TruncationOperator("projection", basis=np.eye(A.shape[1])[:, 1:4])
    record(["basis_vanished"], lambda: solve(A, orthogonal, 1e-6))
    monkeypatch.setattr(pgd, "MAX_RANK", 3)
    record(["pgd_nonconverged"],
           lambda: solve_pgd(diffusion_operator(level=3, M=4, p=2, sigma=0.2, c=1.5), 1e-12))

    kinds = perfbench_warning_kinds()
    assert set(kinds) == set(caught)
    for kind, fragment in kinds.items():
        assert any(fragment in text for text in caught[kind]), (kind, fragment, caught[kind])


def test_per_matvec_residual_solves_add_no_warning():
    # the least-squares residual of every matvec comes from the orthonormal
    # W rows and warns nowhere; only a matvec that adds no direction warns,
    # and it ends its cycle: the second of the first cycle and the first of
    # the second, which then stagnates.  perfbench counts these warnings as
    # krylov.gram_rank_deficient.
    singular = singular_operator()
    with warnings.catch_warnings(record=True) as found:
        warnings.simplefilter("always")
        _, report = solve(singular, no_truncation(singular), 1e-6, m=4)
    assert (report.status, report.cycles, report.matvecs) == ("basis-limited", 2, 3)
    deficient = [str(w.message) for w in found if "rank deficient" in str(w.message)]
    assert deficient == [
        "projection Gram system is numerically rank deficient (1/2); shrinking the step",
        "projection Gram system is numerically rank deficient (0/1); shrinking the step",
    ]


@pytest.mark.parametrize("kind", ["svd-rank", "projection"])
def test_no_matvec_follows_a_rank_deficient_one_in_its_cycle(kind, monkeypatch):
    # every event of the solve in order: a residual check, a matvec, or a
    # rank-deficiency warning, which must be followed by the next cycle's
    # residual check (or nothing), never by another matvec of its cycle
    singular = singular_operator()
    n_xi = singular.shape[1]
    if kind == "svd-rank":
        trunc = TruncationOperator("svd-rank", rank=2)
    else:
        trunc = TruncationOperator("projection", basis=np.eye(n_xi)[:, [0, n_xi - 1]])
    events = []
    checking = [False]  # the residual check's own matvec is not a cycle's

    def residual(*args):
        events.append("residual")
        checking[0] = True
        try:
            return residual_check(*args)
        finally:
            checking[0] = False

    def matvec(*args):
        if not checking[0]:
            events.append("matvec")
        return matvec_call(*args)

    def show(message, *args, **kwargs):
        events.append("deficient" if "rank deficient" in str(message) else "other")

    residual_check, matvec_call = krylov._residual, krylov.apply_preconditioned
    monkeypatch.setattr(krylov, "_residual", residual)
    monkeypatch.setattr(krylov, "apply_preconditioned", matvec)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        monkeypatch.setattr(warnings, "showwarning", show)
        _, report = solve(singular, trunc, 1e-6, m=4)
    assert (report.status, report.cycles, report.matvecs) == ("basis-limited", 2, 3)
    assert events.count("matvec") == report.matvecs
    assert events.count("deficient") == 2
    for i, event in enumerate(events[:-1]):
        if event == "deficient":
            assert events[i + 1] in ("residual", "other"), events


class TestSolve:
    def test_identity_case_one_inner_iteration(self):
        # sigma = 0 with the exact mean preconditioner: L = I, so the first
        # matvec already spans the residual and the basis cannot grow
        A = diffusion_operator(sigma=0.0, M=2)
        u, report = solve(A, no_truncation(A), 1e-12, m=8)
        assert report.converged
        assert report.cycles == 1
        assert report.matvecs == 1
        assert residual_norm(A, u) <= 1e-12 * norm(A.rhs)

    def test_exact_initial_guess_returns_zero_cycles(self):
        A = diffusion_operator(level=2, M=2, p=1, sigma=0.05)
        u_star, _ = solve(A, no_truncation(A), 1e-8, m=4)
        u, report = solve(A, no_truncation(A), 1e-8, m=4, u0=u_star)
        assert report.cycles == 0
        assert report.matvecs == 0
        assert np.array_equal(u.Y, u_star.Y)
        assert np.array_equal(u.Z, u_star.Z)

    def test_projected_initial_guess_is_checked_and_returned(self):
        # a guess outside span(B) enters the reduced solve by its part in
        # span(B): the history and the returned vector both describe that part
        A = diffusion_operator(level=3, M=3, p=2, sigma=0.1)
        u_star, _ = solve(A, no_truncation(A), 1e-10)
        B = solve_pgd(diffusion_operator(level=2, M=3, p=2, sigma=0.1), 1e-2).Zc
        assert B.shape[1] < A.shape[1]
        u, report = solve(A, TruncationOperator("projection", basis=B), 1e-1, u0=u_star)
        assert (report.cycles, report.status) == (0, "converged")
        assert np.abs(B @ (B.T @ u.Z) - u.Z).max() <= 1e-14
        rel = residual_norm(A, u) / norm(A.rhs)
        assert rel == pytest.approx(report.residual_history[-1], rel=1e-9)

    def test_matches_dense_gmres_without_truncation(self, monkeypatch):
        # one cycle is one restart of dense GMRES on the right-preconditioned
        # operator D M^{-1}, mapped back to the original variable u = M^{-1} x_hat;
        # both stop at the first step whose least-squares residual passes eps ||b||
        A = diffusion_operator(level=2, M=2, p=2, sigma=0.1)
        n_xi = A.shape[1]
        m = min(A.shape)  # basis of that size exhausts the residual space
        u, report = solve(A, no_truncation(A), 1e-10, m=m)
        assert report.converged
        Minv = np.kron(np.eye(n_xi), np.linalg.inv(A.mean_spatial.toarray()))
        D = dense_operator(A) @ Minv
        b = dense_vec(A.rhs)
        monkeypatch.setattr(krylov, "MAX_CYCLES", 1)
        x_hat, steps = dense_gmres(D, b, m)
        with pytest.warns(UserWarning):
            u1, report = solve(A, no_truncation(A), 1e-30, m=m)
        assert report.matvecs == steps == m
        ref = Minv @ x_hat
        assert np.linalg.norm(dense_vec(u1) - ref) <= 1e-9 * np.linalg.norm(ref)
        # at eps = 1e-4 both end after 4 of the m = 6 matvecs
        x_hat, steps = dense_gmres(D, b, m, tol=1e-4 * np.linalg.norm(b))
        u1, report = solve(A, no_truncation(A), 1e-4, m=m)
        assert report.converged and report.cycles == 1
        assert report.matvecs == steps < m
        ref = Minv @ x_hat
        assert np.linalg.norm(dense_vec(u1) - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_converges_to_machine_precision_small(self):
        A = diffusion_operator(level=2, M=2, p=1, sigma=0.05)
        u, report = solve(A, no_truncation(A), 1e-12, m=min(A.shape))
        assert report.converged
        assert report.residual_history[-1] < 1e-12
        D = dense_operator(A)
        want = np.linalg.solve(D, dense_vec(A.rhs))
        assert np.linalg.norm(dense_vec(u) - want) <= 1e-9 * np.linalg.norm(want)

    def test_truncated_run_converges_with_pgd_basis(self, monkeypatch):
        A = diffusion_operator(level=4, M=3, p=2, sigma=0.1, c=2.0)
        pgd_sol = solve_pgd(A, 1e-6)
        trunc = TruncationOperator("projection", basis=pgd_sol.Zc)
        u, report = solve(A, trunc, 1e-6, m=8)
        assert report.converged
        assert report.residual_history[-1] < 1e-6
        assert u.rank <= pgd_sol.Zc.shape[1]
        # the early end only shortens the cycle: m cut to the matvecs taken
        # gives the same run, and one matvec fewer does not reach eps
        assert report.cycles == 1 and report.matvecs < 8
        cut, cut_report = solve(A, trunc, 1e-6, m=report.matvecs)
        assert np.array_equal(cut_report.residual_history, report.residual_history)
        assert np.array_equal(cut.Y, u.Y) and np.array_equal(cut.Z, u.Z)
        # shorter cycles restart until they reach eps
        _, restarted = solve(A, trunc, 1e-6, m=2)
        assert restarted.converged and restarted.cycles > 1
        monkeypatch.setattr(krylov, "MAX_CYCLES", 1)
        with pytest.warns(UserWarning, match="max-cycles"):
            _, short = solve(A, trunc, 1e-6, m=report.matvecs - 1)
        assert short.residual_history[-1] >= 1e-6

    def test_basis_vector_ranks_bounded(self, monkeypatch):
        A = diffusion_operator(level=3, M=3, p=2, sigma=0.1)
        pgd_sol = solve_pgd(A, 1e-5)
        kappa = pgd_sol.Zc.shape[1]
        trunc = TruncationOperator("projection", basis=pgd_sol.Zc)

        inputs = []
        matvec = krylov.apply_preconditioned

        def recording_matvec(A_, P_, u):
            inputs.append(u)
            return matvec(A_, P_, u)

        monkeypatch.setattr(krylov, "apply_preconditioned", recording_matvec)
        u, report = solve(A, trunc, 1e-5, m=6)
        assert report.converged
        assert u.rank <= kappa
        # the first matvec takes f's reduced factors, of f's rank; every
        # later vector a matvec sees (basis vectors and lifted iterates) is
        # exactly projection-rank sized, and the cycles' are kappa wide
        assert len(inputs) == report.matvecs + report.cycles
        first, *later = inputs
        assert first.shape[1] == kappa and first.rank <= A.rhs.rank
        assert all(x.rank == kappa for x in later)
        assert sum(x.shape[1] == kappa for x in inputs) >= report.matvecs

    def test_saved_basis_drives_a_later_solve(self, tmp_path):
        # the stochastic basis exported by a coarse run can be reloaded and
        # used as the projection operator of an independent fine solve
        A_coarse = diffusion_operator(level=3, M=3, p=2, sigma=0.1)
        pgd_sol = solve_pgd(A_coarse, 1e-6)
        np.save(tmp_path / "basis.npy", pgd_sol.Zc)

        basis = np.load(tmp_path / "basis.npy")
        assert np.array_equal(basis, pgd_sol.Zc)
        A_fine = diffusion_operator(level=5, M=3, p=2, sigma=0.1)
        trunc = TruncationOperator("projection", basis=basis)
        u, report = solve(A_fine, trunc, 1e-6, m=8)
        assert report.converged
        assert report.residual_history[-1] < 1e-6

    def test_residual_history_true_and_decreasing(self):
        A = diffusion_operator(level=3, M=3, p=2, sigma=0.1)
        pgd_sol = solve_pgd(A, 1e-7)
        trunc = TruncationOperator("projection", basis=pgd_sol.Zc)
        u, report = solve(A, trunc, 1e-7, m=4)
        hist = np.array(report.residual_history)
        assert np.all(np.diff(hist) <= 0.0)
        # the last entry is the true relative residual of the returned vector
        assert residual_norm(A, u) / norm(A.rhs) == pytest.approx(hist[-1], rel=1e-9)

    def test_nonconvergence_reported(self, monkeypatch):
        A = diffusion_operator(level=3, M=3, p=2, sigma=0.1)
        trunc = TruncationOperator("svd-rank", rank=1)
        monkeypatch.setattr(krylov, "MAX_CYCLES", 2)
        with pytest.warns(UserWarning, match="stopped"):
            u, report = solve(A, trunc, 1e-12, m=2)
        assert not report.converged
        assert len(report.residual_history) == 3

    def test_zero_iterate_residual_is_exactly_one(self):
        # the zero iterate's residual is f itself, so its relative residual
        # is ||f|| / ||f||, not the norm of a block formed from f's factors
        spec = PipelineSpec(kind="convection-diffusion", nu=1 / 200, fine_level=2,
                            coarse_level=1, num_modes=2, degree=1)
        with pytest.warns(UserWarning, match="basis-limited"):
            report = pipeline(spec).report
        assert report.residual_history[0] == 1.0

    def test_config_validation(self):
        A = diffusion_operator()
        for bad in (dict(eps=0.0), dict(eps=1.0), dict(eps=2.0), dict(eps=1e-5, m=0)):
            with pytest.raises(ValueError):
                solve(A, no_truncation(A), **bad)


@pytest.mark.parametrize(
    "workload, kappa, matvecs",
    [("diffusion-l6", 65, 5), ("diffusion-l7", 40, 4), ("convection-l6", 15, 5),
     ("diffusion-l6-svd", 65, 5)],
)
def test_benchmark_workload_counts(workload, kappa, matvecs):
    # the four perfbench workloads at seed 4: the counts every speed claim
    # is measured at, and the benchmark's own dense residual check
    cells, check = perfbench_module("cells"), perfbench_module("check")
    spec = PipelineSpec(**cells.spec_kwargs(workload, 4))
    res = pipeline(spec)
    report = res.report
    assert (res.pgd.kappa, report.cycles, report.matvecs, report.status) == (
        kappa, 1, matvecs, "converged")
    assert check.dense_relative_residual(res.fine_operator, res.solution) < spec.eps


class TestPipeline:
    def test_end_to_end_diffusion(self):
        spec = PipelineSpec(
            kind="diffusion", domain=UNIT, corr_len=4.0, sigma=0.05, mean_a0=1.0,
            degree=3, fine_level=5, eps=1e-5, coarse_level=4, m=8,
        )
        res = pipeline(spec)
        assert res.kl.num_modes == 5
        assert res.n_xi == 56
        assert res.report.converged
        assert res.report.residual_history[-1] < 1e-5
        true_rel = residual_norm(res.fine_operator, res.solution) / norm(res.fine_operator.rhs)
        assert true_rel < 1e-5

    def test_tighter_eps_needs_higher_rank(self):
        base = dict(
            kind="diffusion", domain=UNIT, corr_len=4.0, sigma=0.05, mean_a0=1.0,
            degree=2, fine_level=4, coarse_level=3, m=8,
        )
        res5 = pipeline(PipelineSpec(eps=1e-4, **base))
        res6 = pipeline(PipelineSpec(eps=1e-6, **base))
        assert res6.pgd.Zc.shape[1] > res5.pgd.Zc.shape[1]

    def test_degenerate_sigma_zero(self):
        spec = PipelineSpec(
            kind="diffusion", domain=UNIT, corr_len=4.0, sigma=0.0, mean_a0=1.0,
            degree=2, fine_level=4, eps=1e-10, num_modes=3, coarse_level=3,
        )
        res = pipeline(spec)
        assert res.pgd.kappa == 1
        assert res.report.final_rank == 1
        # matches the deterministic solve
        import scipy.sparse.linalg as spla

        A = res.fine_operator
        u_det = spla.spsolve(A.mean_spatial.tocsc(), np.asarray(A.rhs.Y[:, 0] * A.rhs.Z[0, 0]))
        got = res.solution.Y @ res.solution.Z[0]
        assert np.abs(got - u_det).max() <= 1e-9 * np.abs(u_det).max()

    def test_svd_truncation_variant(self):
        spec = PipelineSpec(
            kind="diffusion", domain=UNIT, corr_len=4.0, sigma=0.05, mean_a0=1.0,
            degree=2, fine_level=4, eps=1e-5, coarse_level=3,
            truncation="svd",
        )
        res = pipeline(spec)
        assert res.report.converged
        assert res.report.final_rank <= res.pgd.Zc.shape[1]

    @pytest.mark.parametrize("truncation", ["multilevel", "svd"])
    def test_repeated_pipeline_is_bit_identical(self, truncation):
        # no solver state carries over from one solve to the next in the
        # same process
        spec = PipelineSpec(
            kind="diffusion", domain=UNIT, corr_len=4.0, sigma=0.05, mean_a0=1.0,
            degree=2, fine_level=4, eps=1e-5, coarse_level=3, truncation=truncation,
        )
        first, second = pipeline(spec), pipeline(spec)
        assert first.report.converged
        assert np.array_equal(first.solution.Y, second.solution.Y)
        assert np.array_equal(first.solution.Z, second.solution.Z)
        assert np.array_equal(first.report.residual_history, second.report.residual_history)

    @pytest.mark.parametrize("kind", ["diffusion", "convection-diffusion"])
    def test_one_row_grid(self, kind):
        # fine and coarse level 1: n_x = 1, where no tridiagonal system is factored
        nu = 1 / 200 if kind == "convection-diffusion" else None
        spec = PipelineSpec(kind=kind, nu=nu, fine_level=1, coarse_level=1,
                            num_modes=2, degree=1)
        res = pipeline(spec)
        A = res.fine_operator
        assert A.shape[0] == 1
        assert res.report.converged
        assert residual_norm(A, res.solution) < spec.eps * norm(A.rhs)

    def test_convection_whose_mean_block_exchanges_rows(self):
        # mean_a0 = 0.5, nu = 1/200 at level 6: at every elimination step
        # partial pivoting exchanges rows in some x-mode's system
        spec = PipelineSpec(kind="convection-diffusion", nu=1 / 200, mean_a0=0.5,
                            fine_level=6, num_modes=2, degree=1)
        res = pipeline(spec)
        assert sum(MeanPreconditioner(res.fine_operator)._swapped) == 2**6 - 2
        assert res.report.converged
        check = perfbench_module("check")
        assert check.dense_relative_residual(res.fine_operator, res.solution) < spec.eps

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PipelineSpec(kind="heat", domain=UNIT, corr_len=1.0, sigma=0.1,
                         mean_a0=1.0, degree=2, fine_level=4, eps=1e-4)
        with pytest.raises(ValueError):
            PipelineSpec(kind="convection-diffusion", domain=UNIT, corr_len=1.0,
                         sigma=0.1, mean_a0=1.0, degree=2, fine_level=4, eps=1e-4)
        # a list domain is checked like a tuple and leaves the spec hashable
        messages = []
        for domain in ([0.0, np.inf, 0.0, 1.0], (0.0, np.inf, 0.0, 1.0)):
            with pytest.raises(ConfigError, match="domain must be finite") as exc:
                PipelineSpec(domain=domain)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        spec = PipelineSpec(domain=[0, 1, 0, 1])
        assert spec == PipelineSpec() and hash(spec) == hash(PipelineSpec())

    def test_coarse_level_never_exceeds_the_fine_level(self):
        with pytest.raises(ConfigError, match="coarse_level must lie in \\[1, fine_level = 5\\]"):
            PipelineSpec(coarse_level=7, fine_level=5)
        assert PipelineSpec(coarse_level=5, fine_level=5).coarse_level == 5
        # fem.recommend_coarse_level picks 6 for nu = 1/600 at fine level 5,
        # and 5 for nu = 1/200 at fine level 4: the automatic level is capped
        for nu, fine in ((1 / 600, 5), (1 / 200, 4)):
            spec = PipelineSpec(kind="convection-diffusion", domain=BIG, corr_len=8.0,
                                num_modes=1, degree=1, nu=nu, fine_level=fine, eps=1e-3)
            kl, stoch = krylov.build_stochastic(spec)
            assert krylov.fem.recommend_coarse_level(kl, nu) == fine + 1
            assert krylov.run_pgd(spec, kl, stoch)[0].level == fine
