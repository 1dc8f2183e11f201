"""Low-rank tensor solvers for stochastic Galerkin systems in Kronecker form."""

from .chaos import (
    MultiIndexSet,
    SpectralBasis,
    StochasticMatrices,
    build_index_set,
    build_spectral_basis,
    build_stochastic_matrices,
    eval_basis,
)
from .fem import (
    Grid,
    GridStretch,
    SpatialMatrices,
    assemble_convection_diffusion,
    assemble_diffusion,
    make_grid,
    recommend_coarse_level,
)
from .krylov import (
    PipelineResult,
    PipelineSpec,
    SolveReport,
    pipeline,
    solve,
)
from .lowrank import (
    FactoredVector,
    StochasticOperator,
    TruncationOperator,
    add,
    apply_operator,
    build_operator,
    inner,
    norm,
    residual_norm,
    truncate_svd,
)
from .pgd import PgdSolution, solve_pgd
from .randfield import (
    ExponentialCovariance,
    KLExpansion,
    build_kl,
    eval_mode,
    max_theta_and_halfwave,
    solve_1d_eigenproblem,
)

__version__ = "0.1.0"
