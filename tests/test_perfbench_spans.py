"""The benchmark's outside-in tracing still fits the package.

``perfbench/spans.py`` patches names the package binds (``krylov.inner``,
``krylov.apply_operator``, ``TruncationOperator.apply``, ...) and meters
their arguments.  A refactor that drops or reshapes one of them fails here,
not first in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from sglowrank import krylov, lowrank, pgd
from sglowrank.krylov import PipelineSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_enters_traces_and_restores():
    spans = load("spans")
    cells = load("cells")
    originals = {
        "krylov.solve": krylov.solve,
        "krylov.inner": krylov.inner,
        "krylov.apply_preconditioned": krylov.apply_preconditioned,
        "TruncationOperator.apply": lowrank.TruncationOperator.apply,
        "pgd.enrich_rank_one": pgd.enrich_rank_one,
    }
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert krylov.solve is not originals["krylov.solve"]
        results = [
            krylov.pipeline(PipelineSpec(**cells.warmup_kwargs(workload)))
            for workload in ("diffusion-l6", "diffusion-l6-svd", "convection-l6")
        ]
    reports = [r.report for r in results]
    assert krylov.solve is originals["krylov.solve"]
    assert krylov.inner is originals["krylov.inner"]
    assert krylov.apply_preconditioned is originals["krylov.apply_preconditioned"]
    assert lowrank.TruncationOperator.apply is originals["TruncationOperator.apply"]
    assert pgd.enrich_rank_one is originals["pgd.enrich_rank_one"]

    calls = tracer.calls()
    for name in ("randfield.build_kl", "chaos.build", "fem.assemble", "lowrank.build_operator",
                 "krylov.solve", "krylov.matvec", "krylov.precond", "lowrank.inner",
                 "lowrank.norm", "lowrank.truncate", "pgd.enrich"):
        assert calls[name] > 0, name
    # on the coarse and the fine level, make_grid and assemble_diffusion per
    # diffusion pipeline, and stretch_for_boundary_layer, make_grid and
    # assemble_convection_diffusion for convection-diffusion: an assembler no
    # longer called through ``fem`` drops out of fem.assemble_s
    assert calls["fem.assemble"] == 2 * 2 * 2 + 3 * 2
    # the Dirichlet lift of the convection-diffusion cell, once per level
    assert calls["pgd.bc_lift"] == 2
    # every cycle matvec, and every residual check but the zero iterate's,
    # goes through the name perfbench meters: a matvec routed around it
    # would be missing from krylov.matvec
    assert calls["krylov.matvec"] == sum(
        r.matvecs + len(r.residual_history) - 1 for r in reports
    )
    # every PGD checkpoint and the update's accept test read the traced
    # pgd.residual_norm: each records one residual_history entry
    assert calls["pgd.residual"] == sum(len(r.pgd.residual_history) for r in results)
    metrics = spans.layer_metrics(tracer)
    assert metrics["lowrank.truncate_rank_in_max"] > 0
    assert metrics["krylov.basis_bytes"] > 0
