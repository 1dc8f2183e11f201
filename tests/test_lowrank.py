import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dense_operator,
    dense_vec,
    diffusion_operator,
    random_factored,
    random_operator,
    residual_norm,
)
from sglowrank import krylov, pgd
from sglowrank.lowrank import (
    SV_DROP_TOL,
    FactoredVector,
    TruncationOperator,
    add,
    apply_operator,
    block,
    combine,
    dense,
    inner,
    norm,
    reduce_operator,
    scale,
    truncate_svd,
)


def dense_of(u):
    return u.Y @ u.Z.T


def project(u, B):
    return TruncationOperator("projection", basis=B).apply(u)


class TestFactoredVector:
    def test_shapes_and_rank(self, rng):
        u = random_factored(rng, 7, 5, 3)
        assert u.rank == 3
        assert u.shape == (7, 5)

    def test_zero(self):
        z = FactoredVector.zero(4, 6)
        assert z.rank == 0
        assert np.all(dense_of(z) == 0.0)

    def test_immutability(self, rng):
        u = random_factored(rng, 4, 4, 2)
        with pytest.raises(ValueError):
            u.Y[0, 0] = 1.0

    def test_caller_arrays_neither_aliased_nor_frozen(self, rng):
        Y = rng.standard_normal((4, 2))
        Z = rng.standard_normal((3, 2))
        u = FactoredVector(Y, Z)
        assert not np.shares_memory(u.Y, Y) and not np.shares_memory(u.Z, Z)
        assert Y.flags.writeable and Z.flags.writeable
        Y[0, 0] += 1.0
        assert u.Y[0, 0] != Y[0, 0]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FactoredVector(np.zeros((3, 2)), np.zeros((4, 3)))


class TestOperatorApplication:
    def test_rank_bookkeeping(self, rng):
        A = random_operator(rng, 6, 5, 4)
        u = random_factored(rng, 6, 5, 3)
        assert apply_operator(A, u).rank == 4 * 3

    def test_rank_one_diffusion_pattern(self, rng):
        A = random_operator(rng, 6, 5, 6)  # M = 5 plus the mean term
        u = random_factored(rng, 6, 5, 1)
        assert apply_operator(A, u).rank == 6

    def test_zero_input(self, rng):
        A = random_operator(rng, 6, 5, 3)
        out = apply_operator(A, FactoredVector.zero(6, 5))
        assert out.rank == 0

    def test_matches_dense_kronecker(self, rng):
        A = random_operator(rng, 9, 4, 3)
        u = random_factored(rng, 9, 4, 3)
        got = dense_vec(apply_operator(A, u))
        want = dense_operator(A) @ dense_vec(u)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_dimension_mismatch(self, rng):
        A = random_operator(rng, 6, 5, 2)
        with pytest.raises(ValueError):
            apply_operator(A, random_factored(rng, 7, 5, 2))


class TestAddInner:
    def test_add_concatenates(self, rng):
        u = random_factored(rng, 5, 4, 2)
        v = random_factored(rng, 5, 4, 3)
        s = add(u, v)
        assert s.rank == 5
        # concatenation is exact; materialization reassociates the sums
        scale_ref = np.abs(dense_of(s)).max()
        assert np.abs(dense_of(s) - dense_of(u) - dense_of(v)).max() <= 4e-16 * scale_ref

    def test_add_zero_is_identity(self, rng):
        u = random_factored(rng, 5, 4, 2)
        s = add(u, FactoredVector.zero(5, 4))
        assert np.array_equal(s.Y, u.Y)
        assert np.array_equal(s.Z, u.Z)

    def test_cancellation_is_representational(self, rng):
        u = random_factored(rng, 5, 4, 2)
        s = add(u, scale(u, -1.0))
        assert s.rank == 4
        assert norm(s) <= 1e-13 * norm(u)

    def test_inner_matches_dense(self, rng):
        u = random_factored(rng, 6, 7, 3)
        v = random_factored(rng, 6, 7, 2)
        want = float(dense_vec(u) @ dense_vec(v))
        assert inner(u, v) == pytest.approx(want, rel=1e-12)

    def test_inner_positive_definite(self, rng):
        u = random_factored(rng, 6, 7, 3)
        assert inner(u, u) > 0
        assert inner(FactoredVector.zero(6, 7), FactoredVector.zero(6, 7)) == 0.0

    def test_inner_unit_tensors(self):
        y = np.zeros(5)
        y[2] = 1.0
        z = np.zeros(4)
        z[1] = 1.0
        e = FactoredVector.rank_one(y, z)
        assert inner(e, e) == pytest.approx(1.0, abs=1e-15)

    def test_norm_matches_dense(self, rng):
        u = random_factored(rng, 6, 7, 4)
        assert norm(u) == pytest.approx(np.linalg.norm(dense_of(u)), rel=1e-12)


class TestFold:
    """Dense n_x x n_xi blocks, paired with the identity frame."""

    def test_blocks_share_one_frame(self, rng):
        u = block(rng.standard_normal((9, 4)))
        v = block(rng.standard_normal((9, 4)))
        assert u.Z is v.Z and np.array_equal(u.Z, np.eye(4))
        assert inner(u, v) == pytest.approx(float(dense_vec(u) @ dense_vec(v)), rel=1e-12)
        assert norm(u) == pytest.approx(np.linalg.norm(dense_of(u)), rel=1e-12)


    def test_dense_copies_a_block_and_multiplies_any_other_frame(self, rng):
        W = rng.standard_normal((9, 4))
        u = block(W)
        got = dense(u)
        assert got.tobytes() == W.tobytes() and got.flags.c_contiguous
        assert not np.may_share_memory(got, u.Y)
        # the same numbers in a frame that is not the shared identity
        for v in (FactoredVector(W, np.eye(4)), random_factored(rng, 9, 4, 3)):
            assert np.array_equal(dense(v), v.Y @ v.Z.T)


class TestSharedFrame:
    """Vectors sharing one Z object combine and take inner products in it."""

    def framed(self, rng, n_x, Z, count):
        op = TruncationOperator("projection", basis=Z)
        return op, [op.apply(random_factored(rng, n_x, Z.shape[0], 3)) for _ in range(count)]

    def test_combination_in_one_frame_sums_y(self, rng):
        B, _ = np.linalg.qr(rng.standard_normal((9, 4)))
        op, vs = self.framed(rng, 7, B, 3)
        coeffs = [0.5, -2.0, 1.5]
        out = combine(vs, coeffs)
        assert out.Z is op.basis and out.orthonormal and out.rank == 4
        want = sum(c * dense_of(v) for c, v in zip(coeffs, vs))
        assert np.abs(dense_of(out) - want).max() <= 1e-13 * np.abs(want).max()
        # projecting onto its own frame leaves it as it is
        assert np.array_equal(op.apply(out).Y, out.Y)

    def test_combination_across_frames_is_its_block(self, rng):
        # the identity frame, a projection basis shared by two vectors, an
        # unflagged frame and a skipped one, in mixed order
        B, _ = np.linalg.qr(rng.standard_normal((9, 4)))
        _, vs = self.framed(rng, 7, B, 2)
        w = block(rng.standard_normal((7, 9)))
        loose = random_factored(rng, 7, 9, 3)
        skipped = random_factored(rng, 7, 9, 5)
        vectors = [vs[0], w, skipped, loose, vs[1]]
        coeffs = [-0.5, 1.0, 0.0, 3.0, 2.0]
        out = combine(vectors, coeffs)
        assert out.orthonormal and out.rank == 9 and out.Z is w.Z
        want = sum(c * dense_of(v) for c, v in zip(coeffs, vectors))
        assert np.abs(out.Y - want).max() <= 1e-13 * np.abs(want).max()

    def test_combination_rejects_mismatched_shapes(self, rng):
        # a 1-row Y sharing its Z with a 5-row one must not broadcast
        u = random_factored(rng, 5, 3, 2)
        v = FactoredVector._adopt(rng.standard_normal((1, 2)), u.Z)
        with pytest.raises(ValueError, match="shape mismatch"):
            combine([u, v], [1.0, 2.0])
        with pytest.raises(ValueError, match="shape mismatch"):
            combine([u, random_factored(rng, 5, 4, 2)], [1.0, 0.0])

    def test_svd_cycle_combination_holds_no_stack(self, rng):
        # a block w and j truncations of rank kappa, each in a frame of its
        # own, as an SVD cycle's update combines its iterate and basis
        # vectors.  The call may hold its output, one frame's sum and one
        # product Y Z^T, but no factors concatenated n_xi + j kappa wide
        n_x, n_xi, kappa, j = 2000, 60, 30, 4
        w = block(rng.standard_normal((n_x, n_xi)))
        V = [truncate_svd(random_factored(rng, n_x, n_xi, kappa)) for _ in range(j)]
        coeffs = np.concatenate([[1.0], -rng.standard_normal(j)])
        combine([w] + V, coeffs)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = combine([w] + V, coeffs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert 2 * n_xi + kappa < n_xi + j * kappa
        assert peak <= 8 * n_x * (2 * n_xi + kappa) + 64 * 1024
        assert out.rank == n_xi


#: one input of each kind truncate_svd takes, built from a generator
SVD_INPUTS = {
    "identity-frame block": lambda rng: block(rng.standard_normal((30, 12))),
    "earlier truncation": lambda rng: truncate_svd(random_factored(rng, 30, 12, 8), rank=8),
    "unflagged": lambda rng: random_factored(rng, 30, 12, 6),
    "rank-deficient block": lambda rng: block(
        rng.standard_normal((30, 3)) @ rng.standard_normal((3, 12))
    ),
    "rank-deficient unflagged": lambda rng: FactoredVector(
        rng.standard_normal((30, 3)) @ rng.standard_normal((3, 9)), rng.standard_normal((12, 9))
    ),
    "short-wide block": lambda rng: block(rng.standard_normal((5, 12))),
    "short-wide unflagged": lambda rng: random_factored(rng, 5, 12, 9),
}


class TestSvdTruncation:
    def test_exact_rank_recovery(self, rng):
        base = random_factored(rng, 10, 8, 2)
        # same rank-2 matrix stored with 7 redundant factor columns
        M = rng.standard_normal((7, 2))
        redundant = FactoredVector(base.Y @ M.T, base.Z @ np.linalg.pinv(M))
        # rank=None keeps every singular value above SV_DROP_TOL
        for rank in (2, None):
            out = truncate_svd(redundant, rank=rank)
            assert out.rank == 2
            err = np.abs(dense_of(out) - dense_of(redundant)).max()
            assert err <= 1e-12 * np.abs(dense_of(redundant)).max()

    def test_eckart_young_optimality(self, rng):
        u = FactoredVector(rng.standard_normal((20, 15)), np.eye(15))
        out = truncate_svd(u, rank=5)
        sv = np.linalg.svd(dense_of(u), compute_uv=False)
        optimal = np.sqrt(np.sum(sv[5:] ** 2))
        got = np.linalg.norm(dense_of(out) - dense_of(u))
        assert got == pytest.approx(optimal, rel=1e-12)

    def test_noop_when_rank_not_reduced(self, rng):
        u = random_factored(rng, 9, 6, 4)
        out = truncate_svd(u, rank=4)
        assert norm(add(out, scale(u, -1.0))) <= 1e-13 * norm(u)

    def test_stochastic_factor_orthonormal(self, rng):
        u = random_factored(rng, 12, 10, 6)
        out = truncate_svd(u, rank=3)
        gram = out.Z.T @ out.Z
        assert np.abs(gram - np.eye(3)).max() < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_wide_input_folded_first(self, seed):
        # an unflagged input wider than n_xi takes the qr(Z) route, whose
        # square Z makes Y R_z^T its block; reference: QRs of both factors
        # on the n_xi + 30 columns
        rng = np.random.default_rng(seed)
        n_x, n_xi = 40, 12
        u = random_factored(rng, n_x, n_xi, n_xi + 30)
        Qy, Ry = np.linalg.qr(u.Y)
        Qz, Rz = np.linalg.qr(u.Z)
        U, s_ref, Vt = np.linalg.svd(Ry @ Rz.T)
        for k in (n_xi, 5):
            out = truncate_svd(u, rank=k)
            assert out.rank == k
            s_got = np.linalg.norm(out.Y, axis=0)
            assert np.allclose(s_got, s_ref[:k], rtol=1e-12, atol=0.0)
            want = (Qy @ U[:, :k] * s_ref[:k]) @ (Qz @ Vt[:k].T).T
            assert np.abs(dense_of(out) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("case", list(SVD_INPUTS))
    @pytest.mark.parametrize("rank", [None, 2, 4])
    def test_matches_dense_svd(self, rng, case, rank):
        # against numpy's SVD of the dense block Y Z^T
        u = SVD_INPUTS[case](rng)
        if case == "earlier truncation":
            assert u.orthonormal and u.Z.shape == (12, 8)  # not the identity frame
        dense = dense_of(u)
        sv = np.linalg.svd(dense, compute_uv=False)
        above = int(np.sum(sv > SV_DROP_TOL * sv[0]))
        keep = above if rank is None else min(rank, above)
        out = truncate_svd(u, rank=rank)
        assert out.rank == keep and out.orthonormal
        optimal = np.sqrt(np.sum(sv[keep:] ** 2))
        err = np.linalg.norm(dense_of(out) - dense)
        assert abs(err - optimal) <= 1e-12 * np.linalg.norm(dense)
        assert np.allclose(np.linalg.norm(out.Y, axis=0), sv[:keep], rtol=0.0, atol=1e-12 * sv[0])
        assert np.abs(out.Z.T @ out.Z - np.eye(keep)).max() <= 1e-12

    @pytest.mark.parametrize("case", ["rank-deficient block", "rank-deficient unflagged"])
    def test_exact_rank_deficiency_keeps_the_true_rank(self, rng, case):
        u = SVD_INPUTS[case](rng)
        sv = np.linalg.svd(dense_of(u), compute_uv=False)
        assert truncate_svd(u).rank == int(np.sum(sv > SV_DROP_TOL * sv[0])) == 3

    def test_memory_is_input_copy_output_and_r(self, rng):
        # a flagged n_x x n_xi block of the diffusion-l6 size, as combine
        # makes every truncation input inside an SVD cycle: the call may hold one
        # working copy of Y for the R-only QR, R and the output, but no Q
        n_x, n_xi, k = 3969, 120, 65
        u = block(rng.standard_normal((n_x, n_xi)))
        truncate_svd(u, rank=k)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = truncate_svd(u, rank=k)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.rank == k
        assert peak <= 8 * (n_x * n_xi + (n_x + n_xi) * k + n_xi * n_xi) + 64 * 1024


class TestProjectionTruncation:
    def make_basis(self, rng, n_xi, kappa):
        B, _ = np.linalg.qr(rng.standard_normal((n_xi, kappa)))
        return B

    def test_identity_on_its_range(self, rng):
        B = self.make_basis(rng, 8, 3)
        u = FactoredVector(rng.standard_normal((6, 3)), B)
        out = project(u, B)
        assert np.abs(dense_of(out) - dense_of(u)).max() <= 1e-12 * np.abs(dense_of(u)).max()

    def test_idempotent(self, rng):
        B = self.make_basis(rng, 9, 4)
        u = random_factored(rng, 7, 9, 5)
        once = project(u, B)
        twice = project(once, B)
        assert norm(add(twice, scale(once, -1.0))) <= 1e-13 * max(norm(once), 1e-300)

    def test_matches_dense_projection(self, rng):
        B = self.make_basis(rng, 9, 4)
        u = random_factored(rng, 7, 9, 5)
        out = project(u, B)
        want = dense_of(u) @ B @ B.T
        assert np.abs(dense_of(out) - want).max() <= 1e-12 * np.abs(want).max()

    def test_non_expansive(self, rng):
        B = self.make_basis(rng, 9, 4)
        for _ in range(10):
            u = random_factored(rng, 7, 9, 5)
            assert norm(project(u, B)) <= norm(u) * (1 + 1e-13)

    def test_rank_is_basis_size(self, rng):
        B = self.make_basis(rng, 9, 4)
        out = project(random_factored(rng, 7, 9, 6), B)
        assert out.rank == 4

    def test_orthonormality_enforced(self, rng):
        B = self.make_basis(rng, 9, 4) * 1.01
        with pytest.raises(ValueError, match="orthonormality"):
            project(random_factored(rng, 7, 9, 5), B)


class TestTruncationOperator:
    def test_dispatch(self, rng):
        u = random_factored(rng, 8, 6, 5)
        B, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        by_rank = TruncationOperator("svd-rank", rank=2)
        by_proj = TruncationOperator("projection", basis=B)
        assert by_rank.apply(u).rank == 2
        assert by_proj.apply(u).rank == 2
        assert by_proj.rank == 2

    def test_projection_outputs_share_the_basis(self, rng):
        B, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        op = TruncationOperator("projection", basis=B)
        u = op.apply(random_factored(rng, 8, 6, 5))
        v = op.apply(random_factored(rng, 8, 6, 4))
        assert u.Z is v.Z and u.orthonormal
        assert inner(u, v) == pytest.approx(float(dense_vec(u) @ dense_vec(v)), rel=1e-12)
        assert not random_factored(rng, 8, 6, 2).orthonormal

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationOperator("svd-rank")
        with pytest.raises(ValueError):
            TruncationOperator("projection")
        with pytest.raises(ValueError, match="orthonormality"):
            TruncationOperator("projection", basis=2.0 * np.eye(3)[:, :2])
        with pytest.raises(ValueError):
            TruncationOperator("unknown")


class TestReduceOperator:
    def test_matches_dense_galerkin_projection(self, rng):
        n_x, n_xi, kappa = 6, 7, 3
        A = random_operator(rng, n_x, n_xi, 3)
        B, _ = np.linalg.qr(rng.standard_normal((n_xi, kappa)))
        R = reduce_operator(A, B)
        assert R.shape == (n_x, kappa) and R.symmetric == A.symmetric
        # the lift (I (x) B) with the stochastic index outermost
        L = np.kron(B, np.eye(n_x))
        want = L.T @ dense_operator(A) @ L
        assert np.abs(dense_operator(R) - want).max() <= 1e-13 * np.abs(want).max()
        want_rhs = L.T @ dense_vec(A.rhs)
        assert np.abs(dense_vec(R.rhs) - want_rhs).max() <= 1e-13 * np.abs(want_rhs).max()
        # G_0 is the identity by construction, not B^T B
        G0 = R.terms[0][0]
        assert G0.shape == (kappa, kappa) and (sp.csr_matrix(G0) != sp.identity(kappa)).nnz == 0

    @pytest.mark.parametrize("kind", ["diffusion", "convection-diffusion"])
    def test_mean_preconditioner_keeps_fast_diagonalization(self, rng, kind):
        nu = 1 / 200 if kind == "convection-diffusion" else None
        spec = krylov.PipelineSpec(kind=kind, domain=(-1.0, 1.0, -1.0, 1.0), nu=nu,
                                   num_modes=2, degree=2)
        kl, stoch = krylov.build_stochastic(spec)
        A = krylov.build_problem(spec, 4, kl, stoch)[2]
        B, _ = np.linalg.qr(rng.standard_normal((A.shape[1], 3)))
        R = reduce_operator(A, B)
        assert R.mean_factors is A.mean_factors and R.terms[0][1] is A.mean_spatial
        # so the reduced operator's preconditioner solves exactly as A's does
        Y = rng.standard_normal((A.shape[0], 2))
        solves = [
            krylov.MeanPreconditioner(op).solve(FactoredVector(Y, rng.standard_normal((n_xi, 2)))).Y
            for op, n_xi in ((R, 3), (A, A.shape[1]))
        ]
        assert np.array_equal(*solves)


def workspace_of(A, u):
    """A PGD workspace whose current factors are the pairs of u."""
    workspace = pgd._Workspace(A)
    for y, z in zip(u.Y.T, u.Z.T):
        workspace.extend(y, z)
    return workspace


def convection_operator():
    """A small nonsymmetric operator of ``build_problem`` with its Dirichlet lift."""
    spec = krylov.PipelineSpec(kind="convection-diffusion", domain=(-1.0, 1.0, -1.0, 1.0),
                               nu=1 / 200, num_modes=2, degree=2)
    return krylov.build_problem(spec, 3, *krylov.build_stochastic(spec))[2]


class TestResidualNorm:
    """``pgd.residual_norm`` reads the workspace's cached K_l Y and G_l Z
    blocks; ``oracles.residual_norm`` re-applies the operator densely."""

    OPERATORS = {
        "random": lambda rng: random_operator(rng, 8, 5, 3),
        "diffusion": lambda rng: diffusion_operator(level=2, M=2, p=2),
        "convection": lambda rng: convection_operator(),
    }

    def test_exact_solution_gives_tiny_residual(self, rng):
        A = random_operator(rng, 8, 5, 3)
        dense = dense_operator(A)
        x = np.linalg.solve(dense, dense_vec(A.rhs))
        # represent the exact solution in factored form (full rank)
        u = FactoredVector(x.reshape(5, 8).T, np.eye(5))
        assert pgd.residual_norm(workspace_of(A, u)) <= 1e-10 * norm(A.rhs)

    def test_zero_iterate_gives_rhs_norm(self, rng):
        A = random_operator(rng, 8, 5, 3)
        got = pgd.residual_norm(pgd._Workspace(A))
        assert got == pytest.approx(norm(A.rhs), rel=1e-14)

    def test_matches_dense(self, rng):
        A = random_operator(rng, 8, 5, 3)
        u = random_factored(rng, 8, 5, 2)
        want = np.linalg.norm(dense_vec(A.rhs) - dense_operator(A) @ dense_vec(u))
        assert pgd.residual_norm(workspace_of(A, u)) == pytest.approx(want, rel=1e-11)
        assert residual_norm(A, u) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("kind", OPERATORS)
    def test_matches_oracle(self, rng, kind):
        A = self.OPERATORS[kind](rng)
        assert A.symmetric == (kind != "convection")
        zero = pgd.residual_norm(pgd._Workspace(A))
        assert zero == pytest.approx(residual_norm(A, FactoredVector.zero(*A.shape)), rel=1e-14)
        u = random_factored(rng, *A.shape, 3)
        workspace = workspace_of(A, u)
        assert pgd.residual_norm(workspace) == pytest.approx(residual_norm(A, u), rel=1e-10)
        # an update's Z pairs with the cached K_l Y of the current spatial factors
        Z = rng.standard_normal((A.shape[1], 3))
        want = residual_norm(A, FactoredVector(u.Y, Z))
        assert pgd.residual_norm(workspace, Z) == pytest.approx(want, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    n_x=st.integers(2, 16),
    n_xi=st.integers(2, 12),
    rank=st.integers(1, 8),
    basis_size=st.integers(1, 12),
    seed=st.integers(0, 2**31),
)
def test_projection_contraction_property(n_x, n_xi, rank, basis_size, seed):
    """Orthogonal projection never expands the Frobenius norm."""
    rng = np.random.default_rng(seed)
    basis_size = min(basis_size, n_xi)
    B, _ = np.linalg.qr(rng.standard_normal((n_xi, basis_size)))
    u = random_factored(rng, n_x, n_xi, rank)
    out = project(u, B)
    assert norm(out) <= norm(u) * (1 + 1e-13)
    again = project(out, B)
    assert norm(add(again, scale(out, -1.0))) <= 1e-12 * max(norm(out), 1e-300)


@settings(max_examples=30, deadline=None)
@given(
    n_x=st.integers(2, 12),
    n_xi=st.integers(2, 9),
    rank_u=st.integers(1, 5),
    rank_v=st.integers(1, 5),
    n_terms=st.integers(1, 4),
    seed=st.integers(0, 2**31),
)
def test_factored_dense_equivalence(n_x, n_xi, rank_u, rank_v, n_terms, seed):
    """Every factored operation agrees with its dense counterpart."""
    rng = np.random.default_rng(seed)
    A = random_operator(rng, n_x, n_xi, n_terms)
    u = random_factored(rng, n_x, n_xi, rank_u)
    v = random_factored(rng, n_x, n_xi, rank_v)
    D = dense_operator(A)
    du, dv = dense_vec(u), dense_vec(v)
    scale_ref = max(np.abs(du).max(), np.abs(dv).max(), 1.0)

    assert np.abs(dense_vec(add(u, v)) - (du + dv)).max() <= 1e-11 * scale_ref
    want_inner = float(du @ dv)
    assert inner(u, v) == pytest.approx(want_inner, rel=1e-10, abs=1e-11 * scale_ref**2)
    got_av = dense_vec(apply_operator(A, u))
    want_av = D @ du
    assert np.abs(got_av - want_av).max() <= 1e-11 * max(np.abs(want_av).max(), 1.0)
    assert norm(u) == pytest.approx(np.linalg.norm(du), rel=1e-11)
