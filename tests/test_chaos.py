from math import comb

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eval_basis, legendre_quadrature, quad_moment, univariate_values
from sglowrank import chaos
from sglowrank.chaos import (
    XI_BOUND,
    build_spectral_basis,
    build_stochastic_matrices,
    recurrence_coefficients,
)
from sglowrank.fem import SpatialMatrices
from sglowrank.lowrank import build_operator


class TestIndexSet:
    @pytest.mark.parametrize(
        "M,p,expected",
        [(5, 3, 56), (7, 3, 120), (10, 3, 286), (15, 3, 816), (7, 4, 330), (7, 5, 792), (3, 0, 1)],
    )
    def test_cardinality(self, M, p, expected):
        assert build_spectral_basis(M, p).shape == (expected, M)

    @given(st.integers(1, 20), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_cardinality_formula(self, M, p):
        indices = build_spectral_basis(M, p)
        assert indices.shape == (comb(M + p, p), M)
        degs = indices.sum(axis=1)
        assert degs.max(initial=0) <= p

    def test_graded_lexicographic_order(self):
        rows = [tuple(r) for r in build_spectral_basis(2, 2).tolist()]
        assert rows == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_first_index_is_zero(self):
        assert tuple(build_spectral_basis(4, 3)[0]) == (0, 0, 0, 0)

    def test_size_limit(self, monkeypatch):
        monkeypatch.setattr(chaos, "MAX_INDEX_SET_SIZE", 100)
        with pytest.raises(ValueError, match="limit"):
            build_spectral_basis(15, 3)


class TestRecurrence:
    def test_first_coefficient_is_unit_stddev(self):
        # <xi^2> = 1 for the scaled uniform density
        b = recurrence_coefficients(4)
        assert b[0] == pytest.approx(1.0, abs=1e-15)

    def test_unit_variance_by_quadrature(self):
        var = quad_moment(lambda x: x**2)
        assert var == pytest.approx(1.0, abs=1e-14)

    def test_orthonormality_by_quadrature(self):
        x, w = legendre_quadrature(64)
        table = univariate_values(recurrence_coefficients(5), 5, x)
        gram = table @ (w[:, None] * table.T)
        assert np.abs(gram - np.eye(6)).max() < 1e-12


class TestStochasticMatrices:
    def test_single_variable_degree_one(self):
        G1 = build_stochastic_matrices(build_spectral_basis(1, 1))[0].toarray()
        b = quad_moment(lambda x: x * 1.0 * (x / recurrence_coefficients(1)[0]), 64)
        assert G1 == pytest.approx(np.array([[0.0, b], [b, 0.0]]), abs=1e-13)

    def test_identity_and_first_basis_vector(self):
        # the operator pairs K_0 with G_0 = I and the load with e_1
        Gl = build_stochastic_matrices(build_spectral_basis(3, 2))
        n = Gl[0].shape[0]
        spatial = SpatialMatrices(tuple(sp.identity(4, format="csr") for _ in range(4)), np.ones(4))
        A = build_operator(spatial, Gl)
        assert np.array_equal(A.terms[0][0].toarray(), np.eye(n))
        assert [G for G, _ in A.terms[1:]] == list(Gl)
        expected = np.zeros(n)
        expected[0] = 1.0
        assert np.array_equal(A.rhs.Z[:, 0], expected)

    def test_entries_match_quadrature_oracle(self):
        idx = build_spectral_basis(2, 2)
        Gl = build_stochastic_matrices(idx)
        x, w = legendre_quadrature(16)
        table = univariate_values(recurrence_coefficients(2), 2, x)
        for l in range(2):
            G = Gl[l].toarray()
            for i in range(len(idx)):
                for j in range(len(idx)):
                    # tensorized quadrature of xi_l psi_i psi_j
                    fac = 1.0
                    for d in range(2):
                        integrand = table[idx[i, d]] * table[idx[j, d]]
                        if d == l:
                            integrand = integrand * x
                        fac *= float(np.dot(w, integrand))
                    assert G[i, j] == pytest.approx(fac, abs=1e-12)

    def test_symmetry_and_sparsity(self):
        idx = build_spectral_basis(4, 3)
        for G in build_stochastic_matrices(idx):
            assert (G != G.T).nnz == 0
            assert G.nnz <= 2 * len(idx)
            row_counts = np.diff(G.tocsr().indptr)
            assert row_counts.max(initial=0) <= 2

    def test_action_on_first_basis_vector(self):
        idx = build_spectral_basis(3, 2)
        position = {tuple(row): s for s, row in enumerate(idx.tolist())}
        for l, G in enumerate(build_stochastic_matrices(idx)):
            v = G[:, 0].toarray().ravel()
            nonzero = np.flatnonzero(v)
            assert len(nonzero) == 1
            alpha = [0, 0, 0]
            alpha[l] = 1
            assert nonzero[0] == position[tuple(alpha)]
            assert v[nonzero[0]] == pytest.approx(recurrence_coefficients(1)[0], abs=1e-15)


class TestEvalBasis:
    def test_constant_mode(self, rng):
        idx = build_spectral_basis(3, 2)
        for _ in range(5):
            xi = rng.uniform(-XI_BOUND, XI_BOUND, size=3)
            assert eval_basis(idx, 0, xi) == pytest.approx(1.0, abs=1e-15)

    def test_normalization_by_quadrature(self):
        idx = build_spectral_basis(2, 3)
        x, w = legendre_quadrature(32)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        W = np.outer(w, w)
        pts = np.stack([X1, X2], axis=-1)
        for s in range(len(idx)):
            vals = eval_basis(idx, s, pts)
            assert float(np.sum(W * vals**2)) == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_orthonormality(self, rng):
        idx = build_spectral_basis(2, 2)
        xi = rng.uniform(-XI_BOUND, XI_BOUND, size=(1_000_000, 2))
        vals = np.column_stack([eval_basis(idx, s, xi) for s in range(len(idx))])
        gram = vals.T @ vals / len(xi)
        assert np.abs(gram - np.eye(len(idx))).max() < 5e-3

    def test_input_validation(self):
        idx = build_spectral_basis(2, 1)
        with pytest.raises(IndexError):
            eval_basis(idx, 99, np.zeros(2))
        with pytest.raises(ValueError):
            eval_basis(idx, 0, np.array([5.0, 0.0]))
