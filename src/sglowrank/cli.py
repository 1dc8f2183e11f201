"""Configuration-driven benchmark runner.

Subcommands:

* ``run``: execute the full coarse-to-fine pipeline for one experiment and
  write a JSON report plus CSV summaries.
* ``compare``: run several solver variants (multilevel truncation, SVD
  truncation, direct PGD on the fine grid) on the identical problem and
  write a side-by-side CSV.
* ``coarse-only``: stop after the coarse PGD stage; saves the stochastic
  basis in the binary factor format.
* ``export-matrices``: dump the assembled spatial and stochastic matrices
  in Matrix Market format.

Configs are flat ``key = value`` text files (``#`` starts a comment);
``--set key=value`` overrides individual entries.  Exit codes: 0 success,
1 non-convergence, 2 invalid configuration, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fem
from .chaos import build_spectral_basis, build_stochastic_matrices
from .krylov import PipelineSpec, pipeline
from .lowrank import FactoredVector, build_operator, save_factored
from .pgd import handle_nonhomogeneous_bc, solve_pgd
from .randfield import ExponentialCovariance, build_kl

SCHEMA_VERSION = 1
VARIANTS = ("lrp-multilevel", "lrp-svd", "pgd-direct")

#: required report fields per section: (path, type) pairs of schema version 1
REPORT_SCHEMA = {
    "schema_version": int,
    "config": dict,
    "problem.M": int,
    "problem.capture_ratio": float,
    "problem.n_xi": int,
    "problem.n_x_interior": int,
    "problem.n_x_nodes": int,
    "problem.dof_nodes": int,
    "problem.dof_interior": int,
    "problem.coarse_level": int,
    "problem.fine_level": int,
    "coarse.kappa": int,
    "coarse.rel_residual": float,
    "coarse.converged": bool,
    "coarse.basis_rank": int,
    "solve.cycles": int,
    "solve.matvecs": int,
    "solve.final_rank": int,
    "solve.converged": bool,
    "solve.status": str,
    "solve.residual_history": list,
    "timings": dict,
}


def validate_report(report: dict) -> None:
    """Raise ValueError when a report does not match the published schema."""
    if report.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {report.get('schema_version')!r}")
    for path, kind in REPORT_SCHEMA.items():
        node = report
        for part in path.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ValueError(f"report is missing field {path!r}")
            node = node[part]
        if not isinstance(node, kind):
            raise ValueError(f"report field {path!r} should be {kind.__name__}")


class ConfigError(Exception):
    pass


class NonConvergence(Exception):
    pass


@dataclass
class ExperimentConfig:
    problem: str = "diffusion"
    corr_len: float = 4.0
    sigma: float = 0.05
    mean: float = 1.0
    degree: int = 3
    capture: float = 0.95
    num_kl_modes: int | None = None  # overrides capture when set
    domain: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0)
    coarse_level: int | str = "auto"
    fine_level: int = 6
    eps: float = 1e-5
    restart: int = 8
    truncation: str = "multilevel"  # "multilevel" | "svd"
    max_cycles: int = 50
    preconditioner: str = "mean-exact"
    points_per_halfwave: float = 8.0
    nu: float | None = None
    wind: tuple[float, float] = (0.0, 1.0)
    stretch: str = "auto"
    pgd_max_rank: int = 500
    pgd_update_policy: str = "at-end"
    pgd_update_every: int = 5
    seed: int = 0
    dump_mean_field: bool = False

    def validate(self) -> list[str]:
        errors = []
        if self.problem not in ("diffusion", "convection-diffusion"):
            errors.append(f"problem must be diffusion or convection-diffusion, got {self.problem!r}")
        if self.eps <= 0:
            errors.append(f"eps must be positive, got {self.eps}")
        if self.corr_len <= 0:
            errors.append(f"corr_len must be positive, got {self.corr_len}")
        if self.sigma < 0:
            errors.append(f"sigma must be >= 0, got {self.sigma}")
        if not (0 < self.capture < 1):
            errors.append(f"capture must lie in (0, 1), got {self.capture}")
        if self.pgd_update_policy not in ("at-end", "every-k"):
            errors.append(
                f"pgd_update_policy must be at-end or every-k, got {self.pgd_update_policy!r}")
        if self.num_kl_modes is not None and self.num_kl_modes < 1:
            errors.append(f"num_kl_modes must be >= 1, got {self.num_kl_modes}")
        if self.degree < 0:
            errors.append(f"degree must be >= 0, got {self.degree}")
        if self.restart < 1:
            errors.append(f"restart must be >= 1, got {self.restart}")
        if self.fine_level < 1:
            errors.append(f"fine_level must be >= 1, got {self.fine_level}")
        if self.coarse_level != "auto":
            try:
                lvl = int(self.coarse_level)
                if lvl < 1:
                    errors.append(f"coarse_level must be >= 1, got {lvl}")
            except (TypeError, ValueError):
                errors.append(f"coarse_level must be an integer or 'auto', got {self.coarse_level!r}")
        if self.truncation not in ("multilevel", "svd"):
            errors.append(f"truncation must be multilevel or svd, got {self.truncation!r}")
        if self.problem == "convection-diffusion" and (self.nu is None or self.nu <= 0):
            errors.append("convection-diffusion needs a positive nu")
        if self.stretch not in ("auto", "none"):
            errors.append(f"stretch must be auto or none, got {self.stretch!r}")
        x_lo, x_hi, y_lo, y_hi = self.domain
        if not (x_hi > x_lo and y_hi > y_lo):
            errors.append(f"degenerate domain {self.domain}")
        return errors

    def echo(self) -> dict:
        out = dataclasses.asdict(self)
        out["domain"] = list(self.domain)
        out["wind"] = list(self.wind)
        return out


_FIELD_TYPES = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    raw = raw.strip().strip("\"'")
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    if key in ("domain", "wind"):
        parts = [p for p in raw.replace(",", " ").split() if p]
        return tuple(float(p) for p in parts)
    if key == "coarse_level":
        return raw if raw == "auto" else int(raw)
    if key == "num_kl_modes":
        return None if raw.lower() in ("none", "auto") else int(raw)
    if key == "dump_mean_field":
        return raw.lower() in ("1", "true", "yes", "on")
    if key in ("problem", "truncation", "preconditioner", "stretch", "pgd_update_policy"):
        return raw
    if key in ("degree", "fine_level", "restart", "max_cycles", "pgd_max_rank",
               "pgd_update_every", "seed"):
        return int(raw)
    return float(raw)


def load_config(path: str | None, overrides: list[str] | None = None) -> ExperimentConfig:
    """Flat key = value file plus command-line overrides."""
    values = {}
    if path is not None:
        text = Path(path).read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, raw = line.split("=", 1)
            values[key.strip()] = _parse_value(key.strip(), raw)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        values[key.strip()] = _parse_value(key.strip(), raw)
    cfg = ExperimentConfig(**values)
    errors = cfg.validate()
    if errors:
        raise ConfigError("; ".join(errors))
    return cfg


def _pipeline_spec(cfg: ExperimentConfig, truncation: str | None = None) -> PipelineSpec:
    return PipelineSpec(
        kind=cfg.problem,
        domain=cfg.domain,
        corr_len=cfg.corr_len,
        sigma=cfg.sigma,
        mean_a0=cfg.mean,
        degree=cfg.degree,
        fine_level=cfg.fine_level,
        eps=cfg.eps,
        capture=None if cfg.num_kl_modes is not None else cfg.capture,
        num_modes=cfg.num_kl_modes,
        coarse_level=None if cfg.coarse_level == "auto" else int(cfg.coarse_level),
        points_per_halfwave=cfg.points_per_halfwave,
        nu=cfg.nu,
        wind=cfg.wind,
        stretch=cfg.stretch,
        m=cfg.restart,
        truncation=truncation or cfg.truncation,
        max_cycles=cfg.max_cycles,
        preconditioner=cfg.preconditioner,
        pgd_max_rank=cfg.pgd_max_rank,
        pgd_update_policy=cfg.pgd_update_policy,
        pgd_update_every=cfg.pgd_update_every,
        seed=cfg.seed,
    )


def _mean_field_rows(result) -> list[tuple[float, float, float]]:
    """Nodal mean field <u> = Y (Z^T e_1) embedded on the full grid."""
    grid = result.fine_grid
    u = result.solution
    mean_int = u.Y @ u.Z[0] if u.rank else np.zeros(grid.n_interior)
    bc = result.fine_operator.bc_values
    full = fem.interior_to_full(grid, mean_int, bc)
    pts = grid.node_coords()
    return [(float(x), float(y), float(v)) for (x, y), v in zip(pts, full)]


def _report_dict(cfg: ExperimentConfig, result) -> dict:
    grid = result.fine_grid
    n_nodes = grid.n_nodes
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.echo(),
        "problem": {
            "M": result.kl.num_modes,
            "capture_ratio": result.kl.capture_ratio,
            "n_xi": result.n_xi,
            "n_x_interior": grid.n_interior,
            "n_x_nodes": n_nodes,
            "dof_nodes": n_nodes * result.n_xi,
            "dof_interior": grid.n_interior * result.n_xi,
            "coarse_level": result.coarse_level,
            "fine_level": grid.level,
        },
        "coarse": {
            "kappa": result.pgd.kappa,
            "rel_residual": result.pgd.rel_residual,
            "converged": result.pgd.converged,
            "basis_rank": int(result.pgd.Zc.shape[1]),
        },
        "solve": {
            "cycles": result.report.cycles,
            "matvecs": result.report.matvecs,
            "final_rank": result.report.final_rank,
            "converged": result.report.converged,
            "status": result.report.status,
            "residual_history": list(result.report.residual_history),
        },
        "timings": {k: float(v) for k, v in result.wall_times.items()},
    }
    return report


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_history_csv(path: Path, history) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cycle", "rel_residual"])
        for k, r in enumerate(history):
            writer.writerow([k, f"{r:.16e}"])


def run_experiment(cfg: ExperimentConfig, out_dir: Path, fmt: str = "json") -> dict:
    """Full pipeline run; writes report files and returns the report dict."""
    out_dir.mkdir(parents=True, exist_ok=True)
    result = pipeline(_pipeline_spec(cfg))
    report = _report_dict(cfg, result)
    validate_report(report)
    _write_json(out_dir / "report.json", report)
    _write_history_csv(out_dir / "residual_history.csv", report["solve"]["residual_history"])
    if fmt == "csv":
        row = {
            "problem": cfg.problem,
            "corr_len": cfg.corr_len,
            "M": report["problem"]["M"],
            "n_xi": report["problem"]["n_xi"],
            "fine_level": cfg.fine_level,
            "kappa": report["coarse"]["kappa"],
            "cycles": report["solve"]["cycles"],
            "matvecs": report["solve"]["matvecs"],
            "rel_residual": report["solve"]["residual_history"][-1],
        }
        with open(out_dir / "summary.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(row))
            writer.writeheader()
            writer.writerow(row)
    if cfg.dump_mean_field:
        with open(out_dir / "mean_field.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "mean_u"])
            writer.writerows(_mean_field_rows(result))
    if not result.report.converged:
        raise NonConvergence(
            f"solver stopped ({report['solve']['status']}) at relative residual "
            f"{report['solve']['residual_history'][-1]:.3e}"
        )
    return report


def run_comparison(cfg: ExperimentConfig, variants, out_dir: Path) -> list[dict]:
    """Identical problem and seed across solver variants; side-by-side CSV."""
    unknown = set(variants) - set(VARIANTS)
    if unknown:
        raise ConfigError(f"unknown variants: {sorted(unknown)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for variant in variants:
        entry = {"variant": variant}
        t0 = time.perf_counter()
        try:
            if variant == "pgd-direct":
                entry.update(_run_pgd_direct(cfg))
            else:
                truncation = "multilevel" if variant == "lrp-multilevel" else "svd"
                result = pipeline(_pipeline_spec(cfg, truncation=truncation))
                entry.update(
                    kappa=result.truncation_rank,
                    final_rank=result.report.final_rank,
                    cycles=result.report.cycles,
                    matvecs=result.report.matvecs,
                    rel_residual=result.report.residual_history[-1],
                    converged=result.report.converged,
                    coarse_time=result.wall_times.get("coarse", 0.0),
                    solve_time=result.wall_times.get("fine_solve", 0.0),
                )
        except Exception as exc:  # per-variant failures must not abort the rest
            entry.update(error=str(exc), converged=False)
        entry["total_time"] = time.perf_counter() - t0
        rows.append(entry)

    fields = ["variant", "kappa", "final_rank", "cycles", "matvecs",
              "rel_residual", "converged", "coarse_time", "solve_time",
              "total_time", "error"]
    with open(out_dir / "comparison.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fields})
    _write_json(out_dir / "comparison.json", {"schema_version": SCHEMA_VERSION,
                                              "config": cfg.echo(), "variants": rows})
    return rows


def _build_problem(cfg: ExperimentConfig, level: int):
    cov = ExponentialCovariance(cfg.sigma, cfg.corr_len, cfg.domain)
    if cfg.num_kl_modes is not None:
        kl = build_kl(cov, cfg.mean, num_modes=cfg.num_kl_modes)
    else:
        kl = build_kl(cov, cfg.mean, capture=cfg.capture)
    basis = build_spectral_basis(kl.num_modes, cfg.degree)
    stoch = build_stochastic_matrices(basis)
    stretch = None
    if cfg.problem == "convection-diffusion" and cfg.stretch == "auto":
        stretch = fem.stretch_for_boundary_layer(level, cfg.domain, cfg.nu)
    grid = fem.make_grid(level, cfg.domain, stretch)
    if cfg.problem == "diffusion":
        spatial = fem.assemble_diffusion(grid, kl)
        A = build_operator(spatial, stoch)
    else:
        spatial, _ = fem.assemble_convection_diffusion(grid, kl, cfg.nu, cfg.wind)
        A = handle_nonhomogeneous_bc(build_operator(spatial, stoch), spatial.bc_lift)
    return kl, basis, grid, spatial, A


def _coarse_level(cfg: ExperimentConfig, kl) -> int:
    if cfg.coarse_level != "auto":
        return int(cfg.coarse_level)
    return fem.recommend_coarse_level(kl, cfg.points_per_halfwave, cfg.problem, cfg.nu)


def _run_pgd_direct(cfg: ExperimentConfig) -> dict:
    t0 = time.perf_counter()
    kl, basis, grid, spatial, A = _build_problem(cfg, cfg.fine_level)
    sol = solve_pgd(A, cfg.eps, max_rank=cfg.pgd_max_rank,
                    update_policy=cfg.pgd_update_policy,
                    update_every=cfg.pgd_update_every, seed=cfg.seed)
    return {
        "kappa": sol.kappa,
        "final_rank": sol.kappa,
        "cycles": 0,
        "matvecs": 0,
        "rel_residual": sol.rel_residual,
        "converged": sol.converged,
        "coarse_time": 0.0,
        "solve_time": time.perf_counter() - t0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sglowrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "compare", "coarse-only", "export-matrices"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the rng seed")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if name == "compare":
            p.add_argument("--variants", default="lrp-multilevel,lrp-svd",
                           help="comma-separated subset of "
                                f"{','.join(VARIANTS)}")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.set)
        if args.seed is not None:
            cfg.seed = args.seed
        out_dir = Path(args.out)
        if args.command == "run":
            run_experiment(cfg, out_dir, args.format)
        elif args.command == "compare":
            variants = [v.strip() for v in args.variants.split(",") if v.strip()]
            rows = run_comparison(cfg, variants, out_dir)
            if any(not r.get("converged", False) for r in rows):
                raise NonConvergence("at least one variant did not converge")
        elif args.command == "coarse-only":
            coarse_only(cfg, out_dir)
        else:
            export_matrices(cfg, out_dir)
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def coarse_only(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """Coarse assembly and PGD only; exports the stochastic basis."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cov = ExponentialCovariance(cfg.sigma, cfg.corr_len, cfg.domain)
    if cfg.num_kl_modes is not None:
        kl = build_kl(cov, cfg.mean, num_modes=cfg.num_kl_modes)
    else:
        kl = build_kl(cov, cfg.mean, capture=cfg.capture)
    level = _coarse_level(cfg, kl)
    kl, basis, grid, spatial, A = _build_problem(cfg, level)
    sol = solve_pgd(A, cfg.eps, max_rank=cfg.pgd_max_rank,
                    update_policy=cfg.pgd_update_policy,
                    update_every=cfg.pgd_update_every, seed=cfg.seed)
    save_factored(out_dir / "coarse_solution.bin", sol.factors)
    basis_vec = FactoredVector(np.zeros((grid.n_interior, sol.Zc.shape[1])), sol.Zc)
    save_factored(out_dir / "stochastic_basis.bin", basis_vec)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.echo(),
        "problem": {"M": kl.num_modes, "n_xi": basis.size,
                    "n_x_interior": grid.n_interior, "coarse_level": level},
        "coarse": {"kappa": sol.kappa, "rel_residual": sol.rel_residual,
                   "converged": sol.converged, "basis_rank": int(sol.Zc.shape[1])},
    }
    _write_json(out_dir / "coarse_report.json", payload)
    if not sol.converged:
        raise NonConvergence(f"coarse PGD stopped at {sol.rel_residual:.3e}")
    return payload


def export_matrices(cfg: ExperimentConfig, out_dir: Path) -> None:
    """Matrix Market dumps of the assembled fine-level problem."""
    out_dir.mkdir(parents=True, exist_ok=True)
    kl, basis, grid, spatial, A = _build_problem(cfg, cfg.fine_level)
    stoch = build_stochastic_matrices(basis)
    for l, K in enumerate(spatial.K):
        fem.export_matrix_market(K, out_dir / f"K{l}.mtx")
    if spatial.N is not None:
        fem.export_matrix_market(spatial.N, out_dir / "N.mtx")
    if spatial.S is not None:
        fem.export_matrix_market(spatial.S, out_dir / "S.mtx")
    fem.export_matrix_market(stoch.G0, out_dir / "G0.mtx")
    for l, G in enumerate(stoch.Gl, start=1):
        fem.export_matrix_market(G, out_dir / f"G{l}.mtx")
    np.savetxt(out_dir / "f0.txt", spatial.f0)
