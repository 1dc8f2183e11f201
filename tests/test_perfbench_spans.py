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
        for workload in ("diffusion-l6", "diffusion-l6-svd"):
            krylov.pipeline(PipelineSpec(**cells.warmup_kwargs(workload)))
    assert krylov.solve is originals["krylov.solve"]
    assert krylov.inner is originals["krylov.inner"]
    assert krylov.apply_preconditioned is originals["krylov.apply_preconditioned"]
    assert lowrank.TruncationOperator.apply is originals["TruncationOperator.apply"]
    assert pgd.enrich_rank_one is originals["pgd.enrich_rank_one"]

    calls = tracer.calls()
    for name in ("krylov.solve", "krylov.matvec", "krylov.precond", "lowrank.inner",
                 "lowrank.norm", "lowrank.truncate", "pgd.enrich"):
        assert calls[name] > 0, name
    metrics = spans.layer_metrics(tracer)
    assert metrics["lowrank.truncate_rank_in_max"] > 0
    assert metrics["krylov.basis_bytes"] > 0
