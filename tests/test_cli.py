import contextlib
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sglowrank import krylov, randfield
from sglowrank.cli import (
    ConfigError,
    _echo,
    load_config,
    main,
    run_comparison,
    run_experiment,
)
from sglowrank.krylov import PipelineSpec, build_problem, build_stochastic, pipeline, run_pgd

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

FAST = [
    "kind = diffusion",
    "corr_len = 4.0",
    "sigma = 0.05",
    "degree = 2",
    "coarse_level = 3",
    "fine_level = 4",
    "eps = 1e-5",
    "m = 8",
    "seed = 11",
]


# keys of no PipelineSpec field, whatever their value
REMOVED_KEYS = ("wind", "capture", "max_cycles", "pgd_max_rank", "pgd_eps")

# a convection-diffusion cell, for the checks of its own keys
FAST_CD = ["kind = convection-diffusion" if line.startswith("kind") else line for line in FAST]
FAST_CD += ["nu = 0.05"]


def write_cfg(tmp_path, lines, name="exp.cfg"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestConfigParsing:
    def test_file_and_overrides(self, tmp_path):
        path = write_cfg(tmp_path, FAST + ["# a comment", "", "num_modes = 4"])
        cfg = load_config(str(path), ["eps=1e-4", "seed=3"])
        assert cfg.kind == "diffusion"
        assert cfg.eps == 1e-4
        assert cfg.seed == 3
        assert cfg.num_modes == 4

    def test_domain_parsing(self, tmp_path):
        path = write_cfg(tmp_path, FAST + ["domain = -1, 1, -1, 1"])
        cfg = load_config(str(path))
        assert cfg.domain == (-1.0, 1.0, -1.0, 1.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, FAST + ["mystery = 1"])
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.cfg"))

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["eps=-1"])
        with pytest.raises(ConfigError):
            load_config(None, ["kind=heat"])
        with pytest.raises(ConfigError):
            load_config(None, ["truncation=magic"])

    def test_documented_configs_parse(self):
        # the shipped config files, and every command in README.md with the
        # config file and --set overrides it names
        configs = sorted((ROOT / "configs").glob("*.cfg"))
        assert len(configs) == 2
        for path in configs:
            load_config(str(path))
        text = (ROOT / "README.md").read_text().replace("\\\n", " ")
        commands = [line.split() for line in text.splitlines() if line.startswith("sglowrank ")]
        assert sum("--set" in words for words in commands) >= 10
        for words in commands:
            assert {w for w in words if w.startswith("--")} <= {
                "--config", "--set", "--out", "--variants"}, words
            config = words[words.index("--config") + 1] if "--config" in words else None
            sets = [words[i + 1] for i, word in enumerate(words) if word == "--set"]
            assert isinstance(load_config(config and str(ROOT / config), sets), PipelineSpec)

    def test_readme_documents_every_key(self):
        readme = (ROOT / "README.md").read_text()
        missing = [f.name for f in dataclasses.fields(PipelineSpec) if f"`{f.name}`" not in readme]
        assert not missing, missing

    def test_readme_names_no_removed_key(self):
        readme = (ROOT / "README.md").read_text()
        lingering = [key for key in REMOVED_KEYS if f"`{key}`" in readme]
        assert not lingering, lingering

    def test_cd_requires_nu(self):
        with pytest.raises(ConfigError, match="nu"):
            load_config(None, ["kind=convection-diffusion"])

    def test_echo_roundtrip(self):
        cfg = PipelineSpec()
        echoed = _echo(cfg)
        assert echoed["kind"] == "diffusion"
        assert echoed["domain"] == [0.0, 1.0, 0.0, 1.0]

    def test_schema_rejects_malformed_reports(self):
        from sglowrank.cli import validate_report

        with pytest.raises(ValueError, match="schema version"):
            validate_report({"schema_version": 99})
        with pytest.raises(ValueError, match="missing field"):
            validate_report({"schema_version": 1, "config": {}})


class TestRunExperiment:
    def test_report_files_and_content(self, tmp_path):
        from sglowrank.cli import validate_report

        cfg = load_config(None, [s.replace(" ", "") for s in FAST])
        report = run_experiment(cfg, tmp_path / "out")
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        validate_report(data)
        assert data["schema_version"] == 1
        assert data["problem"]["M"] == 5
        assert data["problem"]["n_xi"] == 21
        assert data["solve"]["converged"] is True
        assert data["solve"]["status"] == "converged"
        assert data["solve"]["residual_history"][-1] < 1e-5
        # the residual's part outside the coarse basis, one per cycle top
        complement = data["solve"]["complement_history"]
        assert len(complement) == len(data["solve"]["residual_history"])
        assert 0.0 <= complement[-1] <= data["solve"]["residual_history"][-1]
        assert (tmp_path / "out" / "residual_history.csv").exists()
        assert report["problem"]["n_x_nodes"] == 17**2

    def test_dof_bookkeeping(self, tmp_path):
        cfg = load_config(None, [s.replace(" ", "") for s in FAST])
        problem = run_experiment(cfg, tmp_path / "out")["problem"]
        # level 4: 17^2 nodes, 15^2 interior; M = 5 at degree 2: n_xi = 21
        assert problem["n_x_nodes"] == 17**2 and problem["n_x_interior"] == 15**2
        assert problem["n_xi"] == 21
        assert problem["dof_nodes"] == 17**2 * 21 == 6069
        assert problem["dof_interior"] == 15**2 * 21 == 4725

    def test_determinism_excluding_timings(self, tmp_path):
        cfg = load_config(None, [s.replace(" ", "") for s in FAST])
        r1 = run_experiment(cfg, tmp_path / "a")
        r2 = run_experiment(cfg, tmp_path / "b")
        r1.pop("timings")
        r2.pop("timings")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_run_file_set(self, tmp_path):
        path = write_cfg(tmp_path, FAST)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == [
            "mean_field.csv", "report.json", "residual_history.csv", "summary.csv"]
        report = json.loads((out / "report.json").read_text())
        summary = list(csv.DictReader((out / "summary.csv").open()))
        assert len(summary) == 1
        assert int(summary[0]["kappa"]) == report["coarse"]["kappa"]
        assert int(summary[0]["cycles"]) == report["solve"]["cycles"]
        history = list(csv.reader((out / "residual_history.csv").open()))
        assert len(history) - 1 == len(report["solve"]["residual_history"])

    def test_mean_field_dump(self, tmp_path):
        # the mean field is part of the fixed file set, written on every run
        cfg = load_config(None, [s.replace(" ", "") for s in FAST])
        run_experiment(cfg, tmp_path / "out")
        rows = list(csv.reader((tmp_path / "out" / "mean_field.csv").open()))
        assert rows[0] == ["x", "y", "mean_u"]
        # fine level 4: (2^4 + 1)^2 nodes
        assert len(rows) - 1 == (2**4 + 1) ** 2


class TestComparison:
    def test_single_variant_matches_run(self, tmp_path):
        cfg = load_config(None, [s.replace(" ", "") for s in FAST])
        report = run_experiment(cfg, tmp_path / "run")
        rows = run_comparison(cfg, ["lrp-multilevel"], tmp_path / "cmp")
        assert len(rows) == 1
        assert rows[0]["cycles"] == report["solve"]["cycles"]
        # every variant's kappa is the PGD rank, as in report.json
        assert rows[0]["kappa"] == report["coarse"]["kappa"]
        assert rows[0]["rel_residual"] == pytest.approx(
            report["solve"]["residual_history"][-1], rel=1e-12
        )

    def test_all_variants_converge(self, tmp_path):
        cfg = load_config(None, [s.replace(" ", "") for s in FAST])
        rows = run_comparison(cfg, ["lrp-multilevel", "lrp-svd", "pgd-direct"], tmp_path / "cmp")
        assert all(r["converged"] for r in rows)
        csv_rows = list(csv.DictReader((tmp_path / "cmp" / "comparison.csv").open()))
        assert [r["variant"] for r in csv_rows] == ["lrp-multilevel", "lrp-svd", "pgd-direct"]
        # the direct fine-grid PGD lands within one rank-reporting bucket
        by_name = {r["variant"]: r for r in rows}
        assert abs(by_name["pgd-direct"]["kappa"] - by_name["lrp-multilevel"]["kappa"]) <= 5
        # and is the coarse stage of the spec with the fine level as its coarse one
        kl, stoch = build_stochastic(cfg)
        _, sol = run_pgd(dataclasses.replace(cfg, coarse_level=cfg.fine_level), kl, stoch)
        assert (by_name["pgd-direct"]["kappa"], by_name["pgd-direct"]["rel_residual"]) == (
            sol.kappa, sol.rel_residual)

    def test_lrp_variants_share_one_coarse_solve(self, tmp_path, monkeypatch):
        # the lrp-* variants differ only in the truncation: one coarse PGD
        # serves both, and each row is the row of its own pipeline run
        cfg = load_config(None, [s.replace(" ", "") for s in FAST])
        variants = {"lrp-multilevel": "multilevel", "lrp-svd": "svd"}
        lone = {name: pipeline(dataclasses.replace(cfg, truncation=truncation))
                for name, truncation in variants.items()}
        calls = []
        solve_pgd = krylov.solve_pgd

        def counting_solve_pgd(*args, **kwargs):
            calls.append(args)
            return solve_pgd(*args, **kwargs)

        monkeypatch.setattr(krylov, "solve_pgd", counting_solve_pgd)
        rows = run_comparison(cfg, list(variants), tmp_path / "cmp")
        assert len(calls) == 1
        assert len({row["coarse_time"] for row in rows}) == 1
        for row in rows:
            result = lone[row["variant"]]
            assert (row["kappa"], row["final_rank"], row["cycles"], row["matvecs"],
                    row["rel_residual"]) == (
                result.pgd.kappa, result.report.final_rank, result.report.cycles,
                result.report.matvecs, result.report.residual_history[-1])
            assert row["total_time"] >= row["coarse_time"] + row["solve_time"]

    def test_unknown_variant(self, tmp_path, capsys):
        cfg = load_config(None, [s.replace(" ", "") for s in FAST])
        for variants in (["lrp-quantum"], []):
            with pytest.raises(ConfigError):
                run_comparison(cfg, variants, tmp_path / "cmp")
        # an unknown or empty --variants list exits 2 and writes nothing
        path = write_cfg(tmp_path, FAST)
        for arg in ("lrp-quantum", ","):
            out = tmp_path / "out"
            assert main(["compare", "--config", str(path), "--variants", arg, "--out", str(out)]) == 2
            assert "invalid configuration" in capsys.readouterr().err
            assert not out.exists()
        assert not (tmp_path / "cmp").exists()


class TestMainEntry:
    def test_run_exit_zero(self, tmp_path):
        path = write_cfg(tmp_path, FAST)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_invalid_config_exit_two(self, tmp_path, capsys):
        assert load_config(str(write_cfg(tmp_path, FAST_CD, name="cd.cfg"))).nu == 0.05
        diffusion = [
            "eps = -3", "eps = abc", "fine_level = 6.5", "domain = 0,1", "wind = 1",
            "preconditioner = foo", "max_cycles = 0", "pgd_max_rank = 0", "pgd_update_every = 0",
            "mean_a0 = 0", "seed = -1", "pgd_update_policy = every-k",
            "eps = 2", "domain = -inf, inf, -1, 1", "corr_len = inf", "nu = 0.01",
            "wind = 1, 0", "capture = 0.9", "max_cycles = 5", "pgd_max_rank = 10",
            "pgd_eps = 1e-3", "coarse_level = 5",
        ]
        cases = [FAST + [bad] for bad in diffusion]
        cases += [FAST_CD + [bad] for bad in ("wind = nan, 1", "nu = inf", "wind = 0, 0")]
        for i, lines in enumerate(cases):
            path = write_cfg(tmp_path, lines, name=f"bad{i}.cfg")
            code = main(["run", "--config", str(path), "--out", str(tmp_path / f"out{i}")])
            assert code == 2, lines[-1]
            err = capsys.readouterr().err
            assert "invalid configuration" in err, lines[-1]
            if lines[-1].split("=")[0].strip() in REMOVED_KEYS:
                assert "unknown config key" in err, lines[-1]
            assert not (tmp_path / f"out{i}" / "report.json").exists(), lines[-1]
        path = write_cfg(tmp_path, FAST)
        # run writes one fixed file set, and the seed is set like every other key
        for argv in (["run", "--format", "csv"], ["compare", "--format", "csv"],
                     ["run", "--seed", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--config", str(path), "--out", str(tmp_path / "flag")])
            assert exc.value.code == 2, argv
            assert not (tmp_path / "flag").exists(), argv

    def test_size_limits_exit_two(self, tmp_path, capsys, monkeypatch):
        # values in range alone whose chaos basis or KL expansion exceeds a
        # size limit, which only the run finds
        config = str(ROOT / "configs" / "diffusion_c4.cfg")
        cases = [
            (["num_modes=40", "degree=6"], None,
             "num_modes = 40, degree = 6: index set of size 9366819 exceeds the limit"),
            # a smaller 1D mode limit fails after two KL builds, not seven
            (["num_modes=auto", "corr_len=0.0005"], 32,
             "corr_len = 0.0005, num_modes = auto, degree = 3: 95% capture not reachable"),
            # a pinned count is named as such, not as a capture target
            (["num_modes=40"], 32,
             "corr_len = 4.0, num_modes = 40, degree = 3: 40 modes not reachable"),
        ]
        for sets, max_1d_modes, named in cases:
            if max_1d_modes is not None:
                monkeypatch.setattr(randfield, "MAX_1D_MODES", max_1d_modes)
            for command in ("run", "compare", "coarse-only", "export-matrices"):
                out = tmp_path / command
                argv = [command, "--config", config, "--out", str(out)]
                code = main(argv + [arg for s in sets for arg in ("--set", s)])
                assert code == 2, (command, sets)
                err = capsys.readouterr().err
                assert "invalid configuration" in err and named in err, err
                # the run failed before its first write: no --out directory
                assert not out.exists(), (command, sets)

    def test_module_entry_point(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "sglowrank.cli", "run", "--set", "eps=-3",
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert "invalid configuration" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_dump_mean_field_flag(self, tmp_path):
        # the mean field needs no flag: run writes it, and the old flag exits 2
        path = write_cfg(tmp_path, FAST)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(path), "--out", str(tmp_path / "flag"),
                  "--dump-mean-field"])
        assert exc.value.code == 2
        assert not (tmp_path / "flag").exists()
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        rows = list(csv.reader((tmp_path / "out" / "mean_field.csv").open()))
        assert len(rows) - 1 == 17**2

    def test_nonconvergence_exit_one(self, tmp_path):
        # a basis learned on level 2 cannot carry the fine solve to eps = 1e-5
        path = write_cfg(tmp_path, FAST + ["coarse_level = 2"])
        with pytest.warns(UserWarning, match="basis-limited"):
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        # a run that fails to converge still writes all four files
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "mean_field.csv", "report.json", "residual_history.csv", "summary.csv"]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["solve"]["status"] == "basis-limited"

    def test_coarse_only(self, tmp_path):
        path = write_cfg(tmp_path, FAST)
        code = main(["coarse-only", "--config", str(path), "--out", str(tmp_path / "c")])
        assert code == 0
        out = tmp_path / "c"
        assert sorted(p.name for p in out.iterdir()) == [
            "coarse_report.json", "coarse_solution.npz", "stochastic_basis.npy"]
        data = json.loads((out / "coarse_report.json").read_text())
        assert data["coarse"]["converged"] is True
        # the saved arrays are the coarse solve's own, bit for bit
        spec = load_config(str(path))
        kl, stoch = build_stochastic(spec)
        _, sol = run_pgd(spec, kl, stoch)
        with np.load(out / "coarse_solution.npz") as saved:
            assert sorted(saved.files) == ["Y", "Z"]
            assert np.array_equal(saved["Y"], sol.factors.Y)
            assert np.array_equal(saved["Z"], sol.factors.Z)
        Zc = np.load(out / "stochastic_basis.npy")
        assert np.array_equal(Zc, sol.Zc)
        assert data["coarse"]["basis_rank"] == Zc.shape[1]
        assert np.abs(Zc.T @ Zc - np.eye(Zc.shape[1])).max() < 1e-12

    # (extra config lines, coarse level, kappa, basis rank, exit code of run);
    # kappa and basis rank are the values measured for these cells.  A basis
    # learned on level 2 is smaller and cannot carry the fine solve to
    # eps = 1e-5.
    @pytest.mark.parametrize("extra,level,kappa,rank,run_code", [
        ([], 3, 20, 20, 0),
        (["coarse_level = auto"], 4, 25, 21, 0),
        (["coarse_level = 2"], 2, 15, 9, 1),
    ])
    def test_coarse_only_matches_run(self, tmp_path, extra, level, kappa, rank, run_code):
        path = write_cfg(tmp_path, FAST + extra)
        assert main(["coarse-only", "--config", str(path), "--out", str(tmp_path / "c")]) == 0
        basis_limited = pytest.warns(UserWarning, match="basis-limited")
        with basis_limited if run_code else contextlib.nullcontext():
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == run_code
        coarse = json.loads((tmp_path / "c" / "coarse_report.json").read_text())
        run = json.loads((tmp_path / "r" / "report.json").read_text())
        assert coarse["coarse"] == run["coarse"]
        assert coarse["problem"].items() <= run["problem"].items()
        assert coarse["problem"]["coarse_level"] == level
        assert (run["coarse"]["kappa"], run["coarse"]["basis_rank"]) == (kappa, rank)

    def test_export_matrices(self, tmp_path):
        path = write_cfg(tmp_path, FAST)
        code = main(["export-matrices", "--config", str(path), "--out", str(tmp_path / "m")])
        assert code == 0
        from scipy.io import mmread

        # every matrix reads back exactly
        spec = load_config(str(path))
        kl, stoch = build_stochastic(spec)
        _, spatial, _ = build_problem(spec, spec.fine_level, kl, stoch)
        assert mmread(tmp_path / "m" / "K0.mtx").shape == (15**2, 15**2)
        matrices = {f"K{l}": K for l, K in enumerate(spatial.K)}
        matrices.update({f"G{l}": G for l, G in enumerate(stoch, start=1)}, G0=np.eye(stoch[0].shape[0]))
        for name, matrix in matrices.items():
            assert abs(mmread(tmp_path / "m" / f"{name}.mtx") - matrix).max() == 0.0, name
        assert (tmp_path / "m" / "f0.txt").exists()

    def test_export_matrices_rhs(self, tmp_path):
        # the convection-diffusion load is zero: the system's rhs is the
        # Dirichlet lift, exported factored as mat(F) = Y Z^T; the coarse
        # level may not exceed the fine one
        config = str(ROOT / "configs" / "convection_diffusion_nu200.cfg")
        overrides = ["fine_level=4", "coarse_level=4"]
        code = main(["export-matrices", "--config", config, "--set", overrides[0],
                     "--set", overrides[1], "--out", str(tmp_path / "m")])
        assert code == 0
        spec = load_config(config, overrides)
        kl, stoch = build_stochastic(spec)
        _, spatial, A = build_problem(spec, spec.fine_level, kl, stoch)
        assert not np.any(spatial.f0)
        with np.load(tmp_path / "m" / "rhs.npz") as saved:
            assert sorted(saved.files) == ["Y", "Z"]
            F = saved["Y"] @ saved["Z"].T
        assert np.array_equal(F, A.rhs.Y @ A.rhs.Z.T)
        assert np.any(F)

    def test_seed_flag_overrides(self, tmp_path):
        path = write_cfg(tmp_path, FAST)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "s"),
                     "--set", "seed=99"])
        assert code == 0
        data = json.loads((tmp_path / "s" / "report.json").read_text())
        assert data["config"]["seed"] == 99
