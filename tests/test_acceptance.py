"""Acceptance suite: one test per benchmark criterion, at pinned tolerances.

Each test prints a PASS/FAIL line for its criterion.  Slow sweep cells
(criterion 4 for the two smallest correlation lengths) run only with
``-m slow``.
"""

import time

import numpy as np
import pytest

from oracles import nystrom_eigenvalues, residual_norm
from sglowrank import pgd
from sglowrank.chaos import build_spectral_basis, build_stochastic_matrices
from sglowrank.fem import assemble_diffusion, make_grid, recommend_coarse_level
from sglowrank.krylov import PipelineSpec, pipeline, solve
from sglowrank.lowrank import (
    TruncationOperator,
    add,
    apply_operator,
    build_operator,
    inner,
    norm,
    scale,
    truncate_svd,
)
from sglowrank.pgd import solve_pgd
from sglowrank.randfield import ExponentialCovariance, build_kl, max_theta_and_halfwave

UNIT = (0.0, 1.0, 0.0, 1.0)
BIG = (-1.0, 1.0, -1.0, 1.0)

# paper-reported pairings for the unit-square diffusion benchmark
TABLE_M = {4.0: 5, 3.0: 7, 2.5: 10, 2.0: 15}
TABLE_NXI_P3 = {5: 56, 7: 120, 10: 286, 15: 816}
TABLE_NXI_M7 = {3: 120, 4: 330, 5: 792}
TABLE_DOF = {
    (7, 5): 931_896, (7, 7): 1_996_920, (7, 10): 4_759_326, (7, 15): 13_579_056,
    (8, 5): 3_698_744, (8, 7): 7_925_880, (8, 10): 18_890_014, (8, 15): 53_895_984,
    (9, 5): 14_737_464, (9, 7): 31_580_280, (9, 10): 75_266_334, (9, 15): 214_745_904,
}
COARSE_KAPPA = {  # (c, eps) -> paper rank, tolerance band +-5
    (4.0, 1e-5): 25, (3.0, 1e-5): 40, (2.5, 1e-5): 65, (2.0, 1e-5): 115,
    (4.0, 1e-6): 35, (3.0, 1e-6): 65, (2.5, 1e-6): 100, (2.0, 1e-6): 210,
}
COARSE_LEVEL = {4.0: 4, 3.0: 4, 2.5: 5, 2.0: 5}
TABLE_THETA = {5: 6.36, 7: 9.49, 10: 12.63, 15: 18.90}
TABLE_COARSE_LEVEL = {5: 4, 7: 4, 10: 5, 15: 5}


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


# -------------------------------------------------------------------------
# 1. KL dimension selection


@pytest.mark.parametrize("c", [4.0, 3.0, 2.5, 2.0])
def test_criterion_1_kl_dimension_selection(c):
    t0 = time.time()
    kl = build_kl(ExponentialCovariance(0.05, c, UNIT), 1.0)
    elapsed = time.time() - t0
    expected = TABLE_M[c]
    ok = kl.num_modes == expected and elapsed < 5.0
    report(
        f"criterion 1 (c={c})", ok,
        f"M={kl.num_modes} expected {expected}, capture={kl.capture_ratio:.4f}, {elapsed:.2f}s",
    )
    assert elapsed < 5.0
    assert kl.num_modes == expected


# -------------------------------------------------------------------------
# 2. basis cardinality


def test_criterion_2_basis_cardinality():
    ok = True
    for M, want in TABLE_NXI_P3.items():
        ok &= build_spectral_basis(M, 3).shape[0] == want
    for p, want in TABLE_NXI_M7.items():
        ok &= build_spectral_basis(7, p).shape[0] == want
    report("criterion 2", ok, "n_xi counts for p=3 row and M=7 row")
    for M, want in TABLE_NXI_P3.items():
        assert build_spectral_basis(M, 3).shape[0] == want
    for p, want in TABLE_NXI_M7.items():
        assert build_spectral_basis(7, p).shape[0] == want


# -------------------------------------------------------------------------
# 3. DOF bookkeeping


def test_criterion_3_dof_bookkeeping():
    ok = True
    for (level, M), want in TABLE_DOF.items():
        n_nodes = (2**level + 1) ** 2
        n_xi = build_spectral_basis(M, 3).shape[0]
        ok &= n_nodes * n_xi == want
    grid = make_grid(7, UNIT)
    ok &= grid.n_nodes * 56 == 931_896
    report("criterion 3", ok, "12 cells of nodal dof counts")
    assert ok


# -------------------------------------------------------------------------
# 4. coarse PGD ranks


def coarse_diffusion_kappa(c, eps):
    kl = build_kl(ExponentialCovariance(0.05, c, UNIT), 1.0, num_modes=TABLE_M[c])
    stoch = build_stochastic_matrices(build_spectral_basis(kl.num_modes, 3))
    spatial = assemble_diffusion(make_grid(COARSE_LEVEL[c], UNIT), kl)
    A = build_operator(spatial, stoch)
    sol = solve_pgd(A, eps)
    assert sol.converged
    return sol.kappa


@pytest.mark.parametrize("c,eps", [(4.0, 1e-5), (4.0, 1e-6), (3.0, 1e-5), (3.0, 1e-6)])
def test_criterion_4_coarse_ranks_mandatory(c, eps):
    t0 = time.time()
    kappa = coarse_diffusion_kappa(c, eps)
    elapsed = time.time() - t0
    want = COARSE_KAPPA[(c, eps)]
    ok = abs(kappa - want) <= 5 and elapsed < 60.0
    report(
        f"criterion 4 (c={c}, eps={eps:.0e})", ok,
        f"kappa={kappa} expected {want}+-5, {elapsed:.1f}s",
    )
    assert elapsed < 60.0
    assert abs(kappa - want) <= 5


@pytest.mark.slow
@pytest.mark.parametrize("c,eps", [(2.5, 1e-5), (2.5, 1e-6), (2.0, 1e-5), (2.0, 1e-6)])
def test_criterion_4_coarse_ranks_slow(c, eps):
    kappa = coarse_diffusion_kappa(c, eps)
    want = COARSE_KAPPA[(c, eps)]
    report(f"criterion 4 slow (c={c}, eps={eps:.0e})", abs(kappa - want) <= 5,
           f"kappa={kappa} expected {want}+-5")
    assert abs(kappa - want) <= 5


# -------------------------------------------------------------------------
# 5. fine-grid convergence and cycle counts


@pytest.mark.parametrize("c,eps", [(4.0, 1e-5), (4.0, 1e-6), (3.0, 1e-5), (3.0, 1e-6)])
def test_criterion_5_fine_grid_convergence(c, eps):
    t0 = time.time()
    spec = PipelineSpec(
        kind="diffusion", domain=UNIT, corr_len=c, sigma=0.05, mean_a0=1.0,
        degree=3, fine_level=6, eps=eps, num_modes=TABLE_M[c],
        coarse_level=COARSE_LEVEL[c], m=8, truncation="multilevel",
    )
    res = pipeline(spec)
    elapsed = time.time() - t0
    true_rel = residual_norm(res.fine_operator, res.solution) / norm(res.fine_operator.rhs)
    ok = res.report.converged and true_rel < eps and res.report.cycles <= 2
    report(
        f"criterion 5 (M={TABLE_M[c]}, eps={eps:.0e})", ok,
        f"cycles={res.report.cycles}, true rel residual={true_rel:.2e}, {elapsed:.0f}s",
    )
    assert res.report.converged
    assert true_rel < eps
    assert res.report.cycles <= 2


# -------------------------------------------------------------------------
# 6. multilevel vs svd truncation


def test_criterion_6_truncation_variants_agree():
    base = dict(
        kind="diffusion", domain=UNIT, corr_len=4.0, sigma=0.05, mean_a0=1.0,
        degree=3, fine_level=6, eps=1e-5, num_modes=5, coarse_level=4, m=8,
    )
    res_ml = pipeline(PipelineSpec(truncation="multilevel", **base))
    res_svd = pipeline(PipelineSpec(truncation="svd", **base))
    rel_ml = res_ml.report.residual_history[-1]
    rel_svd = res_svd.report.residual_history[-1]
    # both solves share one coarse PGD; each must run at the full basis width
    width = res_ml.pgd.Zc.shape[1]
    rank_ml, rank_svd = res_ml.report.final_rank, res_svd.report.final_rank
    ok = (
        res_ml.report.converged
        and res_svd.report.converged
        and rel_ml < 1e-5
        and rel_svd < 1e-5
        and rank_ml == rank_svd == width
    )
    report(
        "criterion 6", ok,
        f"multilevel rel={rel_ml:.2e}, svd rel={rel_svd:.2e}, "
        f"final rank {rank_ml} vs {rank_svd}, basis width {width}",
    )
    assert res_ml.report.converged and res_svd.report.converged
    assert rel_ml < 1e-5 and rel_svd < 1e-5
    assert rank_ml == rank_svd == width


# -------------------------------------------------------------------------
# 7. convection-diffusion


def test_criterion_7_convection_diffusion():
    t0 = time.time()
    spec = PipelineSpec(
        kind="convection-diffusion", domain=BIG, corr_len=8.0, sigma=0.05,
        mean_a0=1.0, degree=3, fine_level=6, eps=1e-5, num_modes=5,
        coarse_level=5, m=10, nu=1 / 200,
    )
    res = pipeline(spec)
    elapsed = time.time() - t0
    true_rel = residual_norm(res.fine_operator, res.solution) / norm(res.fine_operator.rhs)
    ok = (
        res.kl.num_modes == 5
        and res.report.converged
        and true_rel < 1e-5
        and res.report.cycles <= 3
        and abs(res.pgd.kappa - 20) <= 5
    )
    report(
        "criterion 7", ok,
        f"M={res.kl.num_modes}, kappa={res.pgd.kappa} expected 20+-5, "
        f"cycles={res.report.cycles}, rel={true_rel:.2e}, {elapsed:.0f}s",
    )
    assert res.kl.num_modes == 5
    assert res.report.converged and true_rel < 1e-5
    assert res.report.cycles <= 3
    assert abs(res.pgd.kappa - 20) <= 5


# -------------------------------------------------------------------------
# 8. oracle equivalence property suite


def test_criterion_8_oracle_equivalence_suite():
    from oracles import dense_operator, dense_vec, random_factored, random_operator

    t0 = time.time()
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(50):
        n_x = int(rng.integers(5, 101))
        n_xi = int(rng.integers(3, 31))
        n_terms = int(rng.integers(1, 5))  # M <= 4 with the mean term
        A = random_operator(rng, n_x, n_xi, n_terms)
        D = dense_operator(A)
        max_rank = min(n_x, n_xi)
        ku = int(rng.integers(1, max_rank + 1))
        kv = int(rng.integers(1, max_rank + 1))
        u = random_factored(rng, n_x, n_xi, ku)
        v = random_factored(rng, n_x, n_xi, kv)
        du, dv = dense_vec(u), dense_vec(v)

        # matvec, add, inner, residual norm
        got = dense_vec(apply_operator(A, u))
        want = D @ du
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)
        assert np.linalg.norm(dense_vec(add(u, v)) - (du + dv)) <= 1e-11 * np.linalg.norm(du + dv)
        want_ip = float(du @ dv)
        assert abs(inner(u, v) - want_ip) <= 1e-11 * (
            np.linalg.norm(du) * np.linalg.norm(dv)
        )
        want_res = np.linalg.norm(dense_vec(A.rhs) - D @ du)
        workspace = pgd._Workspace(A)
        for y, z in zip(u.Y.T, u.Z.T):
            workspace.extend(y, z)
        assert abs(pgd.residual_norm(workspace) - want_res) <= 1e-11 * max(want_res, 1.0)

        # preconditioned application
        from sglowrank.krylov import MeanPreconditioner, apply_preconditioned

        P = MeanPreconditioner(A)
        got_p = dense_vec(apply_preconditioned(A, P, u))
        Minv = np.kron(np.eye(n_xi), np.linalg.inv(A.mean_spatial.toarray()))
        want_p = D @ (Minv @ du)
        assert np.linalg.norm(got_p - want_p) <= 1e-11 * np.linalg.norm(want_p)

        # svd truncation: Eckart-Young optimality
        target = int(rng.integers(1, ku + 1))
        tr = truncate_svd(u, rank=target)
        U = u.Y @ u.Z.T
        sv = np.linalg.svd(U, compute_uv=False)
        optimal = np.sqrt(np.sum(sv[target:] ** 2))
        got_err = np.linalg.norm(tr.Y @ tr.Z.T - U)
        assert got_err <= optimal + 1e-10 * max(optimal, sv[0])

        # projection truncation: idempotent, non-expansive, dense-equivalent
        kb = int(rng.integers(1, n_xi + 1))
        B, _ = np.linalg.qr(rng.standard_normal((n_xi, kb)))
        project = TruncationOperator("projection", basis=B).apply
        pr = project(u)
        pr2 = project(pr)
        assert norm(add(pr2, scale(pr, -1.0))) <= 1e-13 * max(norm(pr), 1e-300)
        assert norm(pr) <= norm(u) * (1 + 1e-13)
        want_proj = U @ B @ B.T
        assert np.linalg.norm(pr.Y @ pr.Z.T - want_proj) <= 1e-11 * max(
            np.linalg.norm(want_proj), 1.0
        )
        checked += 1
    elapsed = time.time() - t0
    ok = checked == 50 and elapsed < 120.0
    report("criterion 8", ok, f"{checked} randomized instances, {elapsed:.0f}s")
    assert checked == 50
    assert elapsed < 120.0


# -------------------------------------------------------------------------
# 9. transcendental / eigen suite


def test_criterion_9_eigen_suite():
    t0 = time.time()
    ok = True
    for c in (4.0, 3.0, 2.5, 2.0, 1.0):
        pairs = build_kl(ExponentialCovariance(1.0, c, UNIT), 1.0, num_modes=1)
        from sglowrank.randfield import solve_1d_eigenproblem

        ana = np.array(
            [p.lam for p in solve_1d_eigenproblem(ExponentialCovariance(1.0, c, UNIT), 0, 10)]
        )
        nys = nystrom_eigenvalues(c, 1.0, n_points=2048, n_modes=10)
        rel = np.max(np.abs(ana - nys) / np.abs(nys))
        ok &= rel < 1e-6

    for M, want_theta in TABLE_THETA.items():
        c = {5: 4.0, 7: 3.0, 10: 2.5, 15: 2.0}[M]
        kl = build_kl(ExponentialCovariance(0.05, c, UNIT), 1.0, num_modes=M)
        theta, _ = max_theta_and_halfwave(kl)
        ok &= abs(theta - want_theta) / want_theta < 0.02
        ok &= recommend_coarse_level(kl) == TABLE_COARSE_LEVEL[M]
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    report("criterion 9", ok, f"eigen oracle, theta table, levels; {elapsed:.0f}s")
    assert ok


# -------------------------------------------------------------------------
# 10. degenerate cases


def test_criterion_10_degenerate_cases():
    t0 = time.time()
    # sigma = 0: rank-one solutions through the whole pipeline
    spec = PipelineSpec(
        kind="diffusion", domain=UNIT, corr_len=4.0, sigma=0.0, mean_a0=1.0,
        degree=3, fine_level=5, eps=1e-10, num_modes=5, coarse_level=4,
    )
    res = pipeline(spec)
    ok = res.pgd.kappa == 1 and res.report.final_rank == 1

    spec_cd = PipelineSpec(
        kind="convection-diffusion", domain=BIG, corr_len=8.0, sigma=0.0,
        mean_a0=1.0, degree=2, fine_level=5, eps=1e-10, num_modes=3,
        coarse_level=4, m=10, nu=1 / 100,
    )
    res_cd = pipeline(spec_cd)
    ok &= res_cd.pgd.kappa == 1 and res_cd.report.final_rank == 1

    # exact preconditioner: identity operator converges in one inner iteration
    kl0 = build_kl(ExponentialCovariance(0.0, 4.0, UNIT), 1.0, num_modes=2)
    stoch = build_stochastic_matrices(build_spectral_basis(2, 2))
    A = build_operator(assemble_diffusion(make_grid(4, UNIT), kl0), stoch)
    trunc = TruncationOperator("svd-rank", rank=5)
    u, rep = solve(A, trunc, 1e-12, m=8)
    ok &= rep.converged and rep.cycles == 1 and rep.matvecs == 1

    # exact initial guess: zero cycles
    u2, rep2 = solve(A, trunc, 1e-12, m=8, u0=u)
    ok &= rep2.cycles == 0 and rep2.matvecs == 0
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    report("criterion 10", ok,
           f"rank-1 pipelines, one-iteration identity, zero-cycle restart; {elapsed:.0f}s")
    assert ok
