import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gamow_thermo as gt
from gamow_thermo import cli, config, decay, friedrichs
from gamow_thermo.cli import main as cli_main
from gamow_thermo.numerics import NonConvergence

from conftest import FLAT_CONFIG


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class TestPoleCommand:
    def test_flat_model_row(self, run_cli):
        code, out, record_path = run_cli("pole", FLAT_CONFIG)
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["method", "e_r", "gamma", "residual",
                          "delta_gamma"]
        resolved = dict(zip(header, rows[0]))
        assert resolved["method"] == "resolved"
        assert float(resolved["gamma"]) == pytest.approx(0.0635520235703,
                                                         rel=1e-9)
        assert float(resolved["residual"]) < 1e-12
        perturbative = dict(zip(header, rows[1]))
        assert float(perturbative["gamma"]) == pytest.approx(
            2.0 * np.pi * 0.01, rel=1e-9)

    def test_stable_state_reported(self, run_cli):
        cfg = FLAT_CONFIG.replace("model.lambda = 0.1", "model.lambda = 0.0")
        code, out, record_path = run_cli("pole", cfg)
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[0][2]) == 0.0  # gamma column
        record = json.loads(record_path.read_text())
        assert any("stable" in w for w in record["warnings"])

    def test_negative_level_is_config_error(self, run_cli, capsys):
        cfg = FLAT_CONFIG.replace("model.omega0 = 1.0",
                                  "model.omega0 = -1.0")
        code, _, _ = run_cli("pole", cfg)
        assert code == 1
        assert "omega0" in capsys.readouterr().err


class TestSurvivalCommand:
    SHORT = FLAT_CONFIG + (
        "grid.time.start = 0.0\n"
        "grid.time.stop = 40.0\n"
        "grid.time.points = 9\n")
    LONG = FLAT_CONFIG + ("grid.time.start = 0.0\n"
                          "grid.time.stop = 410.0\n"
                          "grid.time.points = 420\n")

    def test_first_row_is_normalized(self, run_cli):
        code, out, record_path = run_cli("survival", self.SHORT)
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "re_a", "im_a", "p", "p_gamow"]
        first = dict(zip(header, rows[0]))
        assert float(first["t"]) == 0.0
        assert float(first["p"]) == pytest.approx(1.0, abs=1e-8)
        assert float(first["p_gamow"]) == 1.0

    def test_short_span_warns_but_succeeds(self, run_cli):
        code, _, record_path = run_cli("survival", self.SHORT)
        assert code == 0
        record = json.loads(record_path.read_text())
        assert any("25/Gamma" in w for w in record["warnings"])
        assert "regimes" not in record["results"]

    def test_record_carries_table_quality(self, run_cli):
        code, _, record_path = run_cli("survival", self.SHORT)
        assert code == 0
        quality = json.loads(record_path.read_text())["results"][
            "density_table"]
        assert quality["knots"] > 1000
        assert abs(float(quality["norm"]) - 1.0) < 1e-8
        assert abs(float(quality["norm_direct"]) - 1.0) < 1e-6
        assert float(quality["max_refine_dev"]) < 1e-8

    def test_table_build_failure_is_numerical(self, run_cli, monkeypatch):
        def fail(model):
            raise NonConvergence("budget exhausted")

        monkeypatch.setattr(decay, "density_table", fail)
        code, _, record_path = run_cli("survival", self.SHORT)
        assert code == 2
        error = json.loads(record_path.read_text())["results"]["error"]
        assert "density table build failed" in error

    def test_failed_normalization_is_numerical(self, run_cli, capsys):
        # at lambda = 0.3 the flat model's bound state below threshold
        # carries weight 1.7e-3, which the density table leaves out, so
        # the series fails its P(0) check: a numerical failure, not a
        # configuration error
        cfg = self.SHORT.replace("model.lambda = 0.1", "model.lambda = 0.3")
        code, _, record_path = run_cli("survival", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: P(0) = 0.99669")
        assert "np.float64" not in err
        error = json.loads(record_path.read_text())["results"]["error"]
        assert error.startswith("UnitarityViolation: P(0)")

    def test_tabulated_profile_runs_without_pole(self, run_cli, tmp_path,
                                                 flat_model):
        """No continuation, no pole: amplitudes still come from the
        density, here a sampled flat profile that must match the flat
        model."""
        grid = np.linspace(0.0, 10.0, 2001)
        np.savetxt(tmp_path / "flat.txt",
                   np.column_stack([grid, np.ones_like(grid)]))
        cfg = self.SHORT.replace(
            "model.form_factor = flat_cutoff\nmodel.cutoff = 10.0",
            "model.form_factor = tabulated\nmodel.table = flat.txt")
        code, out, record_path = run_cli("survival", cfg)
        assert code == 0
        header, rows = read_csv(out)
        assert all(r[header.index("p_gamow")] == "" for r in rows)
        times = np.array([float(r[0]) for r in rows])
        amps = np.array([complex(float(r[1]), float(r[2])) for r in rows])
        flat = gt.survival_probability(flat_model, times).amplitudes
        assert np.max(np.abs(amps - flat)) < 1e-9
        record = json.loads(record_path.read_text())
        assert "pole" not in record["results"]
        assert "regimes" not in record["results"]
        assert any("no analytic continuation" in w
                   for w in record["warnings"])
        assert any("regimes not classified" in w
                   for w in record["warnings"])

    def test_long_span_regime_width_matches_pole(self, run_cli):
        """Cross-module consistency: the fitted width in the survival
        record agrees with the pole subcommand's width within 5%."""
        code, _, record_path = run_cli("survival", self.LONG)
        assert code == 0
        record = json.loads(record_path.read_text())
        gamma_pole = float(record["results"]["pole"]["gamma"])
        gamma_fit = float(record["results"]["regimes"]["gamma_fit"])
        assert abs(gamma_fit - gamma_pole) / gamma_pole < 0.05

    def test_regimes_block_format(self, run_cli):
        code, _, record_path = run_cli("survival", self.LONG)
        assert code == 0
        regimes = json.loads(record_path.read_text())["results"]["regimes"]
        assert list(regimes) == [
            "zeno_window", "zeno_curvature", "exponential_window",
            "gamma_fit", "tail_window", "tail_exponent", "tail_resolved",
            "tail_ratio_last", "tail_ratio_increasing", "fit_residuals"]
        for key in ("zeno_window", "exponential_window", "tail_window"):
            window = regimes[key]
            assert window is None or (
                len(window) == 2 and all(isinstance(w, str) for w in window))
        assert regimes["exponential_window"] is not None
        for key in ("tail_resolved", "tail_ratio_increasing"):
            assert isinstance(regimes[key], bool)
        for key in ("zeno_curvature", "tail_exponent", "tail_ratio_last"):
            assert regimes[key] is None or isinstance(regimes[key], str)
        assert isinstance(regimes["gamma_fit"], str)
        assert regimes["fit_residuals"] and all(
            isinstance(v, str) for v in regimes["fit_residuals"].values())


class TestEntropyCommand:
    def test_oscillator_row(self, run_cli):
        code, out, _ = run_cli(
            "entropy", "pole.e_r = 1.0\npole.gamma = 0.0\nthermo.beta = 1.0\n")
        assert code == 0
        header, rows = read_csv(out)
        assert rows[0] == ["1", "1", "0", "0"]

    def test_right_angle_row(self, run_cli):
        code, out, _ = run_cli(
            "entropy", "pole.e_r = 1.0\npole.gamma = 2.0\nthermo.beta = 1.0\n")
        header, rows = read_csv(out)
        entry = dict(zip(header, rows[0]))
        assert float(entry["re_s"]) == pytest.approx(0.65342640972, rel=1e-10)
        assert float(entry["im_s"]) == pytest.approx(-np.pi / 4.0, rel=1e-10)
        assert float(entry["identity_dev"]) < 1e-12

    def test_beta_grid_rows(self, run_cli):
        cfg = ("pole.e_r = 1.0\npole.gamma = 0.5\n"
               "grid.beta.start = 0.5\ngrid.beta.stop = 4.0\n"
               "grid.beta.points = 8\n")
        code, out, record_path = run_cli("entropy", cfg)
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 8
        re_s = np.array([float(r[1]) for r in rows])
        im_s = np.array([float(r[2]) for r in rows])
        assert np.all(np.diff(re_s) < 0)
        assert np.unique(im_s).size == 1
        assert max(float(r[3]) for r in rows) < 1e-12

    def test_nonpositive_beta_is_config_error(self, run_cli):
        code, _, _ = run_cli(
            "entropy", "pole.e_r = 1.0\npole.gamma = 0.5\nthermo.beta = -1\n")
        assert code == 1

    def test_pole_resolved_from_model(self, run_cli):
        code, out, record_path = run_cli("entropy",
                                         FLAT_CONFIG + "thermo.beta = 1.0\n")
        assert code == 0
        record = json.loads(record_path.read_text())
        assert float(record["results"]["pole"]["gamma"]) == pytest.approx(
            0.0635520235703, rel=1e-9)


@pytest.mark.parametrize("command,extra", [
    ("entropy", ""),
    ("evolve", "grid.time.start = 0.0\ngrid.time.stop = 1.0\n"
               "grid.time.points = 2\ngrid.temperature.start = 0.5\n"
               "grid.temperature.stop = 4.0\ngrid.temperature.points = 3\n"),
    ("scan", "scan.axis = beta\nscan.values = 1.0\n"),
], ids=["entropy", "evolve", "scan-beta"])
def test_one_reader_for_thermo_keys(run_cli, capsys, command, extra):
    code, _, _ = run_cli(command, "pole.e_r = 1.0\npole.gamma = 0.5\n"
                         "thermo.k = 0\n" + extra)
    assert code == 1
    assert "invalid thermo section: k must be positive" in \
        capsys.readouterr().err


class TestEvolveCommand:
    BASE = ("pole.e_r = 1.0\npole.gamma = 0.2\n"
            "evolve.mode = in\nevolve.branch = time\n"
            "grid.time.start = 0.0\ngrid.time.stop = 10.0\n"
            "grid.time.points = 5\n")

    def test_first_row_is_initial_coefficient(self, run_cli):
        code, out, _ = run_cli("evolve", self.BASE)
        assert code == 0
        header, rows = read_csv(out)
        assert rows[0] == ["0", "1", "0", "1"]

    def test_modulus_column_is_width_decay(self, run_cli):
        code, out, _ = run_cli("evolve", self.BASE)
        _, rows = read_csv(out)
        for row in rows:
            t, modulus = float(row[0]), float(row[3])
            assert modulus == pytest.approx(np.exp(-0.1 * t), rel=1e-10)

    def test_temperature_table_is_ordered(self, run_cli, tmp_path):
        cfg = self.BASE + ("grid.temperature.start = 0.5\n"
                           "grid.temperature.stop = 4.0\n"
                           "grid.temperature.points = 6\n")
        code, out, record_path = run_cli("evolve", cfg)
        assert code == 0
        temp_csv = out.with_name(out.stem + "_temperature" + out.suffix)
        header, rows = read_csv(temp_csv)
        assert header == ["temperature", "in_factor", "out_factor"]
        in_f = [float(r[1]) for r in rows]
        out_f = [float(r[2]) for r in rows]
        assert all(a > b for a, b in zip(in_f, in_f[1:]))
        assert all(a < b for a, b in zip(out_f, out_f[1:]))
        record = json.loads(record_path.read_text())
        assert record["results"]["monotonicity"] == {
            "in_strictly_decreasing": True,
            "out_strictly_increasing": True,
        }

    def test_overflow_is_numerical_failure(self, run_cli):
        cfg = self.BASE.replace("evolve.mode = in", "evolve.mode = out") \
                       .replace("grid.time.stop = 10.0",
                                "grid.time.stop = 1e5")
        code, _, _ = run_cli("evolve", cfg)
        assert code == 2


class TestScanCommand:
    def test_lambda_scan_scaling_column(self, run_cli):
        cfg = FLAT_CONFIG + "scan.axis = lambda\nscan.values = 0.05,0.1,0.2\n"
        code, out, _ = run_cli("scan", cfg)
        assert code == 0
        header, rows = read_csv(out)
        ratios = [float(dict(zip(header, r))["gamma_over_lambda2"])
                  for r in rows]
        assert (max(ratios) - min(ratios)) / ratios[1] < 10.0 * 0.2**2
        assert all(r[-1] == "" for r in rows)

    def test_gamma_scan_imag_monotone(self, run_cli):
        cfg = ("pole.e_r = 1.0\nthermo.beta = 1.0\n"
               "scan.axis = gamma\nscan.start = 0.0\nscan.stop = 4.0\n"
               "scan.points = 9\n")
        code, out, _ = run_cli("scan", cfg)
        assert code == 0
        _, rows = read_csv(out)
        im_s = [float(r[2]) for r in rows]
        assert all(a > b for a, b in zip(im_s, im_s[1:]))

    def test_empty_scan_is_config_error(self, run_cli):
        cfg = FLAT_CONFIG + "scan.axis = lambda\nscan.values =\n"
        code, _, _ = run_cli("scan", cfg)
        assert code == 1

    def test_partial_failures_keep_running(self, run_cli):
        # negative width is invalid; that row carries the diagnostic
        cfg = ("pole.e_r = 1.0\nthermo.beta = 1.0\n"
               "scan.axis = gamma\nscan.values = 0.5, -1.0, 1.5\n")
        code, out, record_path = run_cli("scan", cfg)
        assert code == 0
        _, rows = read_csv(out)
        assert rows[1][-1] != "" and rows[0][-1] == "" and rows[2][-1] == ""
        record = json.loads(record_path.read_text())
        assert record["results"]["failed_points"] == 1

    def test_all_failures_exit_two(self, run_cli):
        cfg = ("pole.e_r = 1.0\nthermo.beta = 1.0\n"
               "scan.axis = gamma\nscan.values = -1.0, -2.0\n")
        code, _, _ = run_cli("scan", cfg)
        assert code == 2

    @pytest.mark.parametrize("cfg", [
        "pole.e_r = 1.0\nthermo.k = -1\nscan.axis = gamma\n"
        "scan.values = 0.5, 1.0\n",
        "thermo.beta = 1.0\nscan.axis = gamma\nscan.values = 0.5, 1.0\n",
        FLAT_CONFIG.replace("model.cutoff = 10.0\n", "")
        + "scan.axis = lambda\nscan.values = 0.05, 0.1\n",
        "pole.e_r = 1.0\npole.gamma = 0.5\nthermo.k = -2\n"
        "scan.axis = beta\nscan.values = 0.5, 1.0\n",
    ], ids=["gamma-k", "gamma-no-e_r", "lambda-no-cutoff", "beta-k"])
    def test_fixed_section_error_is_config_error(self, run_cli, capsys, cfg):
        code, out, record_path = run_cli("scan", cfg)
        assert code == 1
        assert "config error:" in capsys.readouterr().err
        assert not out.exists() and not record_path.exists()

    @pytest.mark.parametrize("axis,bad", [("gamma", ["nan", "inf", "-0.5"]),
                                          ("beta", ["nan", "inf", "0"])])
    def test_invalid_values_are_error_rows(self, run_cli, axis, bad):
        cfg = ("pole.e_r = 1.0\npole.gamma = 0.5\nthermo.beta = 1.0\n"
               f"scan.axis = {axis}\nscan.values = 0.5, "
               + ", ".join(bad) + ", 1.5\n")
        code, out, record_path = run_cli("scan", cfg)
        assert code == 0
        _, rows = read_csv(out)
        assert [r[-1] != "" for r in rows] == [False, True, True, True,
                                               False]
        assert all(r[1] == r[2] == "" for r in rows[1:4])
        assert all(r[-1].startswith("ValueError: ") for r in rows[1:4])
        assert json.loads(record_path.read_text())["results"][
            "failed_points"] == 3

    def test_beta_scan_resolves_the_pole_once(self, run_cli, monkeypatch):
        calls = []
        find_pole = config.find_pole

        def counted(*args, **kwargs):
            calls.append(args)
            return find_pole(*args, **kwargs)

        monkeypatch.setattr(config, "find_pole", counted)
        cfg = FLAT_CONFIG + ("scan.axis = beta\nscan.start = 0.5\n"
                             "scan.stop = 4.0\nscan.points = 20\n")
        code, out, _ = run_cli("scan", cfg)
        assert code == 0
        assert len(read_csv(out)[1]) == 20
        assert len(calls) == 1

    def test_lambda_scan_seeds_each_search_once(self, run_cli, monkeypatch):
        """The perturbative estimate a lambda row reports is also its
        Newton start: one estimate per row, not one more inside find_pole."""
        calls = []
        perturbative_pole = friedrichs.perturbative_pole

        def counted(*args, **kwargs):
            calls.append(args)
            return perturbative_pole(*args, **kwargs)

        monkeypatch.setattr(friedrichs, "perturbative_pole", counted)
        cfg = FLAT_CONFIG + "scan.axis = lambda\nscan.values = 0.05,0.1,0.2\n"
        code, out, _ = run_cli("scan", cfg)
        assert code == 0
        assert len(read_csv(out)[1]) == 3
        assert len(calls) == 3
        calls.clear()
        code, _, _ = run_cli("pole", FLAT_CONFIG)
        assert code == 0
        assert len(calls) == 1

    def test_lambda_scan_builds_the_model_once(self, run_cli, monkeypatch,
                                               tmp_path):
        reads = []
        from_file = gt.TabulatedFormFactor.from_file.__func__

        def counted(cls, path):
            reads.append(path)
            return from_file(cls, path)

        monkeypatch.setattr(gt.TabulatedFormFactor, "from_file",
                            classmethod(counted))
        grid = np.linspace(0.0, 10.0, 201)
        np.savetxt(tmp_path / "flat.txt",
                   np.column_stack([grid, np.ones_like(grid)]))
        cfg = FLAT_CONFIG.replace(
            "model.form_factor = flat_cutoff\nmodel.cutoff = 10.0",
            "model.form_factor = tabulated\nmodel.table = flat.txt") + (
            "scan.axis = lambda\nscan.values = 0.05, 0.1, 0.2\n")
        code, out, _ = run_cli("scan", cfg)
        # sampled data has no continuation: every pole search fails
        assert code == 2
        assert all("ContinuationUnavailable" in r[-1]
                   for r in read_csv(out)[1])
        assert len(reads) == 1

    def test_lambda_scan_needs_no_model_lambda(self, run_cli, tmp_path):
        scan = "scan.axis = lambda\nscan.values = 0.05, 0.1, 0.2\n"
        code, out, _ = run_cli("scan", FLAT_CONFIG + scan)
        assert code == 0
        with_lambda = out.read_bytes()
        code, out, _ = run_cli(
            "scan", FLAT_CONFIG.replace("model.lambda = 0.1\n", "") + scan)
        assert code == 0
        assert out.read_bytes() == with_lambda


@pytest.mark.parametrize("command,cfg,key", [
    ("survival", TestSurvivalCommand.SHORT
     + "survival.noise_floor = 1e-13x\n", "survival.noise_floor"),
    ("survival", TestSurvivalCommand.LONG
     + "survival.noise_floor = 1e-13x\n", "survival.noise_floor"),
    ("entropy", "pole.e_r = 1.0\npole.gamma = 0.5\nevolve.value = 1+0.5i\n",
     "evolve.value"),
    ("entropy", "pole.e_r = 1.0\npole.gamma = 0.5\n"
     "survival.regimes = maybe\n", "survival.regimes"),
    ("entropy", "pole.e_r = 1.0\npole.gamma = 0.5\n"
     "evolve.mode = sideways\n", "evolve.mode"),
], ids=["survival-short", "survival-long", "entropy-complex", "entropy-bool",
        "entropy-choice"])
def test_malformed_value_stops_before_work(run_cli, capsys, command, cfg,
                                           key):
    """Every value is read when the config loads, also for keys the
    command never uses, so nothing is computed or written."""
    code, out, record_path = run_cli(command, cfg)
    assert code == 1
    assert key in capsys.readouterr().err
    assert not out.exists() and not record_path.exists()


@pytest.mark.parametrize("key,table", [
    ("evolve.mode", cli._MODES), ("evolve.branch", cli._BRANCHES),
    ("scan.axis", cli._SCAN_COLUMNS)])
def test_branch_tables_are_the_allowed_values(key, table):
    """The config accepts exactly the values a command has a branch for,
    so an accepted value never misses its branch."""
    assert config._KEYS[key][0] == f"one of {sorted(table)}"


@pytest.mark.parametrize("extra,numerical", [
    ("", False), ("root.max_iter = 1\n", True)], ids=["ok", "numerical"])
def test_unwritable_output_is_output_error(tmp_path, capsys, extra,
                                           numerical):
    """An output that cannot be written exits 1 with a typed message, on
    the normal path and after a numerical failure alike."""
    blocker = tmp_path / "notadir"
    blocker.write_text("")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FLAT_CONFIG + extra)
    code = cli_main(["pole", "--config", str(cfg_path),
                     "--out", str(blocker / "x.csv"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 1
    assert "output error:" in err
    assert ("numerical failure:" in err) == numerical


class TestOutputContract:
    def test_round_trip_record_reproduces_bytes(self, run_cli, tmp_path):
        cfg = "pole.e_r = 1.0\npole.gamma = 2.0\nthermo.beta = 1.0\n"
        code, out, record_path = run_cli("entropy", cfg)
        assert code == 0
        rerun_out = tmp_path / "rerun.csv"
        code = cli_main(["entropy", "--config", str(record_path),
                         "--out", str(rerun_out), "--quiet"])
        assert code == 0
        assert rerun_out.read_bytes() == out.read_bytes()
        assert json.loads(rerun_out.with_suffix(".json").read_text())[
            "tables"] == json.loads(record_path.read_text())["tables"]

    def test_sidecar_numbers_match_csv(self, run_cli):
        cfg = "pole.e_r = 1.0\npole.gamma = 2.0\nthermo.beta = 1.0\n"
        _, out, record_path = run_cli("entropy", cfg)
        header, rows = read_csv(out)
        record = json.loads(record_path.read_text())
        assert record["tables"][0]["columns"] == header
        assert record["tables"][0]["rows"] == rows

    def test_csv_uses_lf_endings(self, run_cli):
        _, out, _ = run_cli("entropy",
                            "pole.e_r = 1.0\npole.gamma = 1.0\n")
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_json_only_format(self, run_cli):
        code, out, record_path = run_cli(
            "entropy", "pole.e_r = 1.0\npole.gamma = 1.0\n",
            out_name="rec.json", fmt="json")
        assert code == 0
        assert not out.with_suffix(".csv").exists()
        record = json.loads(record_path.read_text())
        assert record["command"] == "entropy"

    def test_missing_config_is_usage_error(self, capsys):
        assert cli_main(["pole"]) == 1
        assert "--config" in capsys.readouterr().err

    def test_unknown_format_is_usage_error(self, run_cli, capsys):
        code, _, _ = run_cli("entropy", "pole.e_r = 1.0\npole.gamma = 1.0\n",
                             fmt="xml")
        assert code == 1
        assert "xml" in capsys.readouterr().err

    def test_help_and_version_exit_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert cli_main(["--version"]) == 0
        assert gt.__version__ in capsys.readouterr().out

    def test_parser_is_built_once(self, run_cli):
        before = cli._build_parser()
        run_cli("entropy", "pole.e_r = 1.0\npole.gamma = 2.0\n"
                           "thermo.beta = 1.0\n")
        assert cli._build_parser() is before

    def test_precision_is_respected(self, run_cli):
        cfg = ("pole.e_r = 1.0\npole.gamma = 2.0\nthermo.beta = 1.0\n"
               "output.precision = 6\n")
        _, out, _ = run_cli("entropy", cfg)
        _, rows = read_csv(out)
        assert rows[0][1] == "0.653426"


_SRC = Path(__file__).resolve().parents[1] / "src"
_SCIPY_LOADED = ("sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy')")


def _cold_run(script: str, cwd: Path):
    """Run ``script`` in a fresh interpreter on the package in ``src/``;
    it prints one JSON value last, which is returned."""
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + script],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(_SRC)},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestColdStart:
    """No command loads SciPy: the package needs numpy alone, also where
    it builds a cubic spline (a survival density table, a tabulated
    profile)."""

    RUNS = {
        "pole": "",
        "scan": "scan.axis = lambda\nscan.values = 0.05, 0.1\n",
        "entropy": "grid.beta.start = 0.5\ngrid.beta.stop = 4.0\n"
                   "grid.beta.points = 3\n",
        "evolve": "grid.time.start = 0.0\ngrid.time.stop = 20.0\n"
                  "grid.time.points = 3\n",
        "survival": "grid.time.start = 0.0\ngrid.time.stop = 40.0\n"
                    "grid.time.points = 3\n",
    }

    def test_import_and_pole_commands_load_no_scipy(self, tmp_path):
        grid = np.linspace(0.0, 10.0, 201)
        np.savetxt(tmp_path / "flat.txt",
                   np.column_stack([grid, np.ones_like(grid)]))
        tabulated = FLAT_CONFIG.replace(
            "model.form_factor = flat_cutoff\nmodel.cutoff = 10.0",
            "model.form_factor = tabulated\nmodel.table = flat.txt")
        runs = {command: (command, FLAT_CONFIG + extra)
                for command, extra in self.RUNS.items()}
        runs["tabulated"] = ("survival", tabulated + self.RUNS["survival"])
        for name, (_, text) in runs.items():
            (tmp_path / f"{name}.cfg").write_text(text)
        commands = {name: command for name, (command, _) in runs.items()}
        script = f"""
import gamow_thermo, gamow_thermo.cli
loaded = {{"import": {_SCIPY_LOADED}}}
for name, command in {commands!r}.items():
    code = gamow_thermo.cli.main([command, "--config", name + ".cfg",
                                  "--out", name + ".csv", "--quiet"])
    loaded[name] = [code, {_SCIPY_LOADED}]
print(json.dumps(loaded))
"""
        loaded = _cold_run(script, tmp_path)
        assert loaded.pop("import") == []
        assert loaded == {name: [0, []] for name in runs}

    @pytest.mark.parametrize("build", [
        "gt.TabulatedFormFactor(grid=np.linspace(0.0, 10.0, 8), "
        "values=np.ones(8))",
        "gt.density_table(gt.FriedrichsModel(omega0=1.0, lam=0.1, "
        "form_factor=gt.RationalFormFactor(scale=1.0)))",
    ], ids=["tabulated", "density_table"])
    def test_spline_builds_load_scipy_interpolate(self, tmp_path, build):
        # Each spline build runs without SciPy; only an explicit import
        # loads scipy.interpolate, and the probe sees it then, so the
        # guard above cannot pass vacuously.
        script = f"""
import numpy as np
import gamow_thermo as gt
before = {_SCIPY_LOADED}
{build}
built = {_SCIPY_LOADED}
import scipy.interpolate
print(json.dumps([before, built, "scipy.interpolate" in {_SCIPY_LOADED}]))
"""
        assert _cold_run(script, tmp_path) == [[], [], True]
