"""The chaos surrogate against sampled deterministic solves.

The stochastic Galerkin solution U, evaluated at xi as Y Z^T psi(xi), should
agree with the solve of (K_0 + sum_l xi_l K_l) u = f(xi) at that xi (the
non-intrusive reference of Babuska, Tempone & Zouraris, SINUM 2004).  The
reference uses only the spatial matrices and loads, no coupling matrix G_l
and no factored arithmetic, so one check covers the KL scaling, the chaos
recurrence and normalization, every G_l, the Dirichlet lift and the fine
solve together.

The bounds sit above the largest error measured over 20 samples for the
sampling seeds 5, 6 and 7 with a stated margin, and far below the error of a
reference at 1.01 xi.  Their floor is the degree-3 chaos truncation, not
the solver: the diffusion cell at eps = 1e-6 still measures 9.8e-6 (seed 6).
"""

import numpy as np
import pytest

from oracles import sampled_errors
from sglowrank import fem
from sglowrank.chaos import XI_BOUND, build_spectral_basis
from sglowrank.krylov import PipelineSpec, pipeline

N_SAMPLES = 20


def surrogate_errors(spec, seed=5):
    result = pipeline(spec)
    assert result.report.converged
    K = [Kl for _, Kl in result.fine_operator.terms]
    if result.bc_lift is None:
        loads = [fem.assemble_diffusion(result.fine_grid, result.kl).f0]
    else:
        loads = list(result.bc_lift.coupling)
    indices = build_spectral_basis(result.kl.num_modes, spec.degree)
    xi = np.random.default_rng(seed).uniform(-XI_BOUND, XI_BOUND, (N_SAMPLES, result.kl.num_modes))
    return sampled_errors(K, loads, result.solution, indices, xi)


@pytest.mark.parametrize("spec,bound", [
    # kappa 20; max error 5.2e-6 / 1.04e-5 / 5.7e-6 for seeds 5 / 6 / 7, and
    # 7.2e-4 against a reference at 1.01 xi: the bound is 2x the worst seed
    (PipelineSpec(corr_len=4.0, num_modes=5, degree=3, coarse_level=3, fine_level=5,
                  eps=1e-5), 2e-5),
    # kappa 15; max error 1.7e-6 / 1.1e-6 / 9.9e-7, and 8.3e-5 at 1.01 xi:
    # the bound is 3x the worst seed
    (PipelineSpec(kind="convection-diffusion", domain=(-1.0, 1.0, -1.0, 1.0), corr_len=8.0,
                  num_modes=5, degree=3, nu=1 / 200, coarse_level=4, fine_level=5, eps=1e-5,
                  m=10), 5e-6),
], ids=["diffusion", "convection-diffusion"])
def test_surrogate_matches_sampled_solves(spec, bound):
    errors = surrogate_errors(spec)
    assert errors.max() < bound, errors.max()
