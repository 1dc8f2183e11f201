"""Configuration-driven benchmark runner.

Subcommands:

* ``run``: execute the full coarse-to-fine pipeline for one experiment and
  write ``report.json``, ``residual_history.csv``, the one-row
  ``summary.csv`` and the nodal mean field ``mean_field.csv``.
* ``compare``: run several solver variants (multilevel truncation, SVD
  truncation, direct PGD on the fine grid) on the identical problem and
  write ``comparison.csv`` and ``comparison.json``.
* ``coarse-only``: stop after the coarse PGD stage; writes
  ``coarse_report.json``, the coarse solution factors Y and Z as
  ``coarse_solution.npz`` and the stochastic basis as
  ``stochastic_basis.npy`` (both read with ``numpy.load``).
* ``export-matrices``: write the assembled spatial and stochastic matrices
  in Matrix Market format, the load vector as text and the factored
  right-hand side of the assembled system, Dirichlet lift included, as
  ``rhs.npz``.

This module writes every file the package produces; the numerical modules
do no file I/O.  Configs are flat ``key = value`` text files (``#`` starts
a comment); ``--set key=value`` overrides individual entries.  The keys
are the field names of ``krylov.PipelineSpec``, which also holds the
defaults and the validation.  Without an installed console script, run
``python -m sglowrank.cli`` with ``src`` on ``PYTHONPATH``.  Exit codes:
0 success, 1 non-convergence, 2 invalid configuration, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
from scipy.io import mmwrite

from . import fem
from .krylov import ConfigError, PipelineSpec, build_problem, build_stochastic, pipeline, run_pgd

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


class NonConvergence(Exception):
    pass


_FIELDS = {f.name: f.type for f in dataclasses.fields(PipelineSpec)}


def _parse_value(key: str, raw: str):
    """A config value as the type its PipelineSpec field annotation names."""
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _FIELDS[key]
    raw = raw.strip().strip("\"'")
    try:
        if "None" in kind and raw.lower() in ("none", "auto"):
            return None
        if kind.startswith("tuple"):
            return tuple(float(p) for p in raw.replace(",", " ").split())
        if kind.startswith("int"):
            return int(raw)
        if kind.startswith("float"):
            return float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be {kind}, got {raw!r}") from None
    return raw


def load_config(path: str | None, overrides: list[str] | None = None) -> PipelineSpec:
    """Flat key = value file plus command-line overrides."""
    items = []
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if line:
                items.append((f"{path}:{lineno}", line))
    items += [("--set", item) for item in overrides or []]
    values = {}
    for where, item in items:
        if "=" not in item:
            raise ConfigError(f"{where}: expected key = value, got {item!r}")
        key, raw = item.split("=", 1)
        values[key.strip()] = _parse_value(key.strip(), raw)
    return PipelineSpec(**values)


def _echo(spec: PipelineSpec) -> dict:
    """The configuration as reports record it."""
    return dict(dataclasses.asdict(spec), domain=list(spec.domain))


def _mean_field_rows(result) -> list[tuple[float, float, float]]:
    """Nodal mean field <u> = Y (Z^T e_1) embedded on the full grid."""
    grid = result.fine_grid
    u = result.solution
    mean_int = u.Y @ u.Z[0] if u.rank else np.zeros(grid.n_interior)
    lift = result.bc_lift
    full = fem.interior_to_full(grid, mean_int, None if lift is None else lift.values_full)
    pts = grid.node_coords()
    return [(float(x), float(y), float(v)) for (x, y), v in zip(pts, full)]


def _coarse_report(spec: PipelineSpec, kl, n_xi: int, coarse_grid, sol) -> dict:
    """The report sections ``run`` and ``coarse-only`` share: config, problem, coarse."""
    return {
        "schema_version": SCHEMA_VERSION,
        "config": _echo(spec),
        "problem": {
            "M": kl.num_modes,
            "capture_ratio": kl.capture_ratio,
            "n_xi": n_xi,
            "coarse_level": coarse_grid.level,
        },
        "coarse": {
            "kappa": sol.kappa,
            "rel_residual": sol.rel_residual,
            "converged": sol.converged,
            "basis_rank": int(sol.Zc.shape[1]),
        },
    }


def _report_dict(spec: PipelineSpec, result) -> dict:
    report = _coarse_report(spec, result.kl, result.n_xi, result.coarse_grid, result.pgd)
    grid = result.fine_grid
    report["problem"].update(
        n_x_interior=grid.n_interior,
        n_x_nodes=grid.n_nodes,
        dof_nodes=grid.n_nodes * result.n_xi,
        dof_interior=grid.n_interior * result.n_xi,
        fine_level=grid.level,
    )
    report["solve"] = {
        "cycles": result.report.cycles,
        "matvecs": result.report.matvecs,
        "final_rank": result.report.final_rank,
        "converged": result.report.converged,
        "status": result.report.status,
        "residual_history": list(result.report.residual_history),
        "complement_history": list(result.report.complement_history),
    }
    report["timings"] = {k: float(v) for k, v in result.report.wall_times.items()}
    return report


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_experiment(spec: PipelineSpec, out_dir: Path) -> dict:
    """Full pipeline run; writes the four result files and returns the report dict."""
    result = pipeline(spec)
    report = _report_dict(spec, result)
    validate_report(report)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "report.json", report)
    history = report["solve"]["residual_history"]
    _write_csv(out_dir / "residual_history.csv", ["cycle", "rel_residual"],
               ([k, f"{r:.16e}"] for k, r in enumerate(history)))
    row = {
        "problem": spec.kind,
        "corr_len": spec.corr_len,
        "M": report["problem"]["M"],
        "n_xi": report["problem"]["n_xi"],
        "fine_level": spec.fine_level,
        "kappa": report["coarse"]["kappa"],
        "cycles": report["solve"]["cycles"],
        "matvecs": report["solve"]["matvecs"],
        "rel_residual": history[-1],
    }
    _write_csv(out_dir / "summary.csv", list(row), [list(row.values())])
    _write_csv(out_dir / "mean_field.csv", ["x", "y", "mean_u"], _mean_field_rows(result))
    if not result.report.converged:
        raise NonConvergence(
            f"solver stopped ({report['solve']['status']}) at relative residual {history[-1]:.3e}"
        )
    return report


def run_comparison(spec: PipelineSpec, variants, out_dir: Path) -> list[dict]:
    """Identical problem and seed across solver variants; side-by-side CSV."""
    if not variants:
        raise ConfigError(f"no variants given; choose from {','.join(VARIANTS)}")
    unknown = set(variants) - set(VARIANTS)
    if unknown:
        raise ConfigError(f"unknown variants: {sorted(unknown)}")
    rows = []
    for variant in variants:
        entry = {"variant": variant}
        t0 = time.perf_counter()
        try:
            if variant == "pgd-direct":
                kl, stoch = build_stochastic(spec)
                _, sol = run_pgd(spec, kl, stoch, level=spec.fine_level)
                entry.update(
                    kappa=sol.kappa,
                    final_rank=sol.kappa,
                    cycles=0,
                    matvecs=0,
                    rel_residual=sol.rel_residual,
                    converged=sol.converged,
                    coarse_time=0.0,
                    solve_time=time.perf_counter() - t0,
                )
            else:
                truncation = "multilevel" if variant == "lrp-multilevel" else "svd"
                result = pipeline(dataclasses.replace(spec, truncation=truncation))
                entry.update(
                    kappa=result.pgd.kappa,
                    final_rank=result.report.final_rank,
                    cycles=result.report.cycles,
                    matvecs=result.report.matvecs,
                    rel_residual=result.report.residual_history[-1],
                    converged=result.report.converged,
                    coarse_time=result.report.wall_times.get("coarse", 0.0),
                    solve_time=result.report.wall_times.get("fine_solve", 0.0),
                )
        except ConfigError:
            raise  # out of range for every variant
        except Exception as exc:  # per-variant failures must not abort the rest
            entry.update(error=str(exc), converged=False)
        entry["total_time"] = time.perf_counter() - t0
        rows.append(entry)

    fields = ["variant", "kappa", "final_rank", "cycles", "matvecs",
              "rel_residual", "converged", "coarse_time", "solve_time",
              "total_time", "error"]
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "comparison.csv", fields,
               ([row.get(k, "") for k in fields] for row in rows))
    _write_json(out_dir / "comparison.json", {"schema_version": SCHEMA_VERSION,
                                              "config": _echo(spec), "variants": rows})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sglowrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "compare", "coarse-only", "export-matrices"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry")
        p.add_argument("--out", default="out", help="output directory")
        if name == "compare":
            p.add_argument("--variants", default="lrp-multilevel,lrp-svd",
                           help="comma-separated subset of "
                                f"{','.join(VARIANTS)}")
    args = parser.parse_args(argv)

    try:
        spec = load_config(args.config, args.set)
        out_dir = Path(args.out)
        if args.command == "run":
            run_experiment(spec, out_dir)
        elif args.command == "compare":
            variants = [v.strip() for v in args.variants.split(",") if v.strip()]
            rows = run_comparison(spec, variants, out_dir)
            if any(not r.get("converged", False) for r in rows):
                raise NonConvergence("at least one variant did not converge")
        elif args.command == "coarse-only":
            coarse_only(spec, out_dir)
        else:
            export_matrices(spec, out_dir)
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


def coarse_only(spec: PipelineSpec, out_dir: Path) -> dict:
    """Coarse assembly and PGD only; saves the coarse solution and the stochastic basis."""
    kl, stoch = build_stochastic(spec)
    grid, sol = run_pgd(spec, kl, stoch)
    out_dir.mkdir(parents=True, exist_ok=True)
    np.savez(out_dir / "coarse_solution.npz", Y=sol.factors.Y, Z=sol.factors.Z)
    np.save(out_dir / "stochastic_basis.npy", sol.Zc)
    payload = _coarse_report(spec, kl, sol.Zc.shape[0], grid, sol)
    _write_json(out_dir / "coarse_report.json", payload)
    if not sol.converged:
        raise NonConvergence(f"coarse PGD stopped at {sol.rel_residual:.3e}")
    return payload


def export_matrices(spec: PipelineSpec, out_dir: Path) -> None:
    """Matrix Market dumps of the assembled fine-level problem.

    ``rhs.npz`` holds the operator's right-hand side as arrays Y and Z with
    mat(F) = Y Z^T; for convection-diffusion that is the Dirichlet lift,
    which ``f0.txt`` (the load, zero there) does not carry.
    """
    kl, stoch = build_stochastic(spec)
    _, spatial, A = build_problem(spec, spec.fine_level, kl, stoch)
    out_dir.mkdir(parents=True, exist_ok=True)
    for l, K in enumerate(spatial.K):
        mmwrite(out_dir / f"K{l}.mtx", K)
    if spatial.N is not None:
        mmwrite(out_dir / "N.mtx", spatial.N)
    if spatial.S is not None:
        mmwrite(out_dir / "S.mtx", spatial.S)
    mmwrite(out_dir / "G0.mtx", A.terms[0][0])  # the identity the operator pairs with K_0
    for l, G in enumerate(stoch, start=1):
        mmwrite(out_dir / f"G{l}.mtx", G)
    np.savetxt(out_dir / "f0.txt", spatial.f0)
    np.savez(out_dir / "rhs.npz", Y=A.rhs.Y, Z=A.rhs.Z)


if __name__ == "__main__":
    sys.exit(main())
