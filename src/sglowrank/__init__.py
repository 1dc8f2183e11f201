"""Low-rank tensor solvers for stochastic Galerkin systems in Kronecker form.

The package root holds the end-to-end entry point only; every other name
is imported from its module (``sglowrank.lowrank``, ``sglowrank.pgd``, ...).
"""

from .krylov import PipelineSpec, pipeline

__version__ = "0.1.0"
