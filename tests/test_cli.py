import csv
import json

import numpy as np
import pytest

from sglowrank.cli import (
    ConfigError,
    ExperimentConfig,
    load_config,
    main,
    run_comparison,
    run_experiment,
)

FAST = [
    "problem = diffusion",
    "corr_len = 4.0",
    "sigma = 0.05",
    "degree = 2",
    "coarse_level = 3",
    "fine_level = 4",
    "eps = 1e-5",
    "restart = 8",
    "seed = 11",
]


def write_cfg(tmp_path, lines, name="exp.cfg"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestConfigParsing:
    def test_file_and_overrides(self, tmp_path):
        path = write_cfg(tmp_path, FAST + ["# a comment", "", "capture = 0.95"])
        cfg = load_config(str(path), ["eps=1e-4", "seed=3"])
        assert cfg.problem == "diffusion"
        assert cfg.eps == 1e-4
        assert cfg.seed == 3
        assert cfg.capture == 0.95

    def test_domain_parsing(self, tmp_path):
        path = write_cfg(tmp_path, FAST + ["domain = -1, 1, -1, 1"])
        cfg = load_config(str(path))
        assert cfg.domain == (-1.0, 1.0, -1.0, 1.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, FAST + ["mystery = 1"])
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(str(path))

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["eps=-1"])
        with pytest.raises(ConfigError):
            load_config(None, ["problem=heat"])
        with pytest.raises(ConfigError):
            load_config(None, ["truncation=magic"])

    def test_cd_requires_nu(self):
        with pytest.raises(ConfigError, match="nu"):
            load_config(None, ["problem=convection-diffusion"])

    def test_echo_roundtrip(self):
        cfg = ExperimentConfig()
        echoed = cfg.echo()
        assert echoed["problem"] == "diffusion"
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
        assert (tmp_path / "out" / "residual_history.csv").exists()
        assert report["problem"]["n_x_nodes"] == 17**2

    def test_dof_bookkeeping(self, tmp_path):
        cfg = load_config(None, [
            "problem=diffusion", "corr_len=4.0", "degree=3",
            "coarse_level=3", "fine_level=7", "eps=1e-5",
        ])
        # no solve needed to check the bookkeeping formula
        assert (2**7 + 1) ** 2 * 56 == 931896

    def test_determinism_excluding_timings(self, tmp_path):
        cfg = load_config(None, [s.replace(" ", "") for s in FAST])
        r1 = run_experiment(cfg, tmp_path / "a")
        r2 = run_experiment(cfg, tmp_path / "b")
        r1.pop("timings")
        r2.pop("timings")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_mean_field_dump(self, tmp_path):
        cfg = load_config(None, [s.replace(" ", "") for s in FAST] + ["dump_mean_field=true"])
        run_experiment(cfg, tmp_path / "out")
        rows = list(csv.reader((tmp_path / "out" / "mean_field.csv").open()))
        assert rows[0] == ["x", "y", "mean_u"]
        assert len(rows) - 1 == 17**2


class TestComparison:
    def test_single_variant_matches_run(self, tmp_path):
        cfg = load_config(None, [s.replace(" ", "") for s in FAST])
        report = run_experiment(cfg, tmp_path / "run")
        rows = run_comparison(cfg, ["lrp-multilevel"], tmp_path / "cmp")
        assert len(rows) == 1
        assert rows[0]["cycles"] == report["solve"]["cycles"]
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

    def test_unknown_variant(self, tmp_path):
        cfg = load_config(None, [s.replace(" ", "") for s in FAST])
        with pytest.raises(ConfigError):
            run_comparison(cfg, ["lrp-quantum"], tmp_path / "cmp")


class TestMainEntry:
    def test_run_exit_zero(self, tmp_path):
        path = write_cfg(tmp_path, FAST)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_invalid_config_exit_two(self, tmp_path, capsys):
        path = write_cfg(tmp_path, FAST + ["eps = -3"])
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out" / "report.json").exists()

    def test_nonconvergence_exit_one(self, tmp_path):
        path = write_cfg(tmp_path, FAST + ["eps = 1e-13", "max_cycles = 1", "pgd_max_rank = 2"])
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1

    def test_coarse_only(self, tmp_path):
        path = write_cfg(tmp_path, FAST)
        code = main(["coarse-only", "--config", str(path), "--out", str(tmp_path / "c")])
        assert code == 0
        data = json.loads((tmp_path / "c" / "coarse_report.json").read_text())
        assert data["coarse"]["converged"] is True
        from sglowrank.lowrank import load_factored

        basis = load_factored(tmp_path / "c" / "stochastic_basis.bin")
        Zc = basis.Z
        assert np.abs(Zc.T @ Zc - np.eye(Zc.shape[1])).max() < 1e-12

    def test_export_matrices(self, tmp_path):
        path = write_cfg(tmp_path, FAST)
        code = main(["export-matrices", "--config", str(path), "--out", str(tmp_path / "m")])
        assert code == 0
        from scipy.io import mmread

        K0 = mmread(tmp_path / "m" / "K0.mtx")
        assert K0.shape == (15**2, 15**2)
        assert (tmp_path / "m" / "G1.mtx").exists()
        assert (tmp_path / "m" / "f0.txt").exists()

    def test_seed_flag_overrides(self, tmp_path):
        path = write_cfg(tmp_path, FAST)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "s"),
                     "--seed", "99"])
        assert code == 0
        data = json.loads((tmp_path / "s" / "report.json").read_text())
        assert data["config"]["seed"] == 99
