"""The four benchmark workloads: paper cells solved by ``pipeline``.

Each workload is one ``PipelineSpec`` without its seed; the benchmark's
``--seed`` becomes ``PipelineSpec.seed`` (it feeds the random restarts of
the coarse PGD enrichment).  Why each workload is there is recorded in
``BENCHMARK.json``.
"""

from __future__ import annotations

UNIT = (0.0, 1.0, 0.0, 1.0)
BIG = (-1.0, 1.0, -1.0, 1.0)

# unit-square diffusion, correlation length 3 with the published M = 7
# modes at degree 3 (n_xi = 120), coarse PGD on level 4
_DIFFUSION_C3 = dict(
    kind="diffusion", domain=UNIT, corr_len=3.0, sigma=0.05, mean_a0=1.0,
    degree=3, num_modes=7, coarse_level=4, m=8,
)

WORKLOADS = {
    "diffusion-l6": dict(_DIFFUSION_C3, fine_level=6, eps=1e-6, truncation="multilevel"),
    "diffusion-l7": dict(_DIFFUSION_C3, fine_level=7, eps=1e-5, truncation="multilevel"),
    # the nu = 1/200 cell of acceptance criterion 7
    "convection-l6": dict(
        kind="convection-diffusion", domain=BIG, corr_len=8.0, sigma=0.05,
        mean_a0=1.0, degree=3, num_modes=5, coarse_level=5, fine_level=6,
        eps=1e-5, m=10, nu=1 / 200, truncation="multilevel",
    ),
    "diffusion-l6-svd": dict(_DIFFUSION_C3, fine_level=6, eps=1e-6, truncation="svd"),
}


def spec_kwargs(workload: str, seed: int) -> dict:
    return dict(WORKLOADS[workload], seed=seed)


def warmup_kwargs(workload: str) -> dict:
    """A cell of the workload's kind and truncation that solves in well under a second."""
    spec = WORKLOADS[workload]
    small = dict(spec, num_modes=2, degree=2, eps=1e-4, seed=0)
    if spec["kind"] == "convection-diffusion":
        small.update(coarse_level=3, fine_level=4)
    else:
        small.update(coarse_level=2, fine_level=3)
    return small
