import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gamow_thermo as gt
from gamow_thermo import cli, config, decay, friedrichs, numerics
from gamow_thermo.cli import main as cli_main
from gamow_thermo.numerics import NonConvergence

from conftest import FLAT_CONFIG

# a start above the cut: on the benchmark model the search closes on the
# upper zero 0.97778 + 0.03178i, which is no decaying resonance
_FAR_START = "root.initial_guess = 1+0.005j\n"


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def test_readme_pole_example_is_the_golden_fixture():
    """README's ``pole`` example prints the golden fixture's bytes, so a
    refresh of the fixture cannot leave the example stale."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    example = readme.split("### Example", 1)[1]
    block = example.split("```csv\n", 1)[1].split("```", 1)[0]
    golden = root / "tests" / "golden" / "expected" / "pole.csv"
    assert block.encode() == golden.read_bytes()


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

    def test_strong_coupling_prints_the_estimate(self, run_cli):
        """At lambda = 1 the estimate lies left of threshold; it is
        printed as it is, and the search started from it resolves."""
        cfg = FLAT_CONFIG.replace("model.lambda = 0.1", "model.lambda = 1.0")
        code, out, _ = run_cli("pole", cfg)
        assert code == 0
        header, rows = read_csv(out)
        resolved, estimate = (dict(zip(header, r)) for r in rows)
        assert float(resolved["e_r"]) == pytest.approx(0.239143191572)
        assert float(resolved["gamma"]) == pytest.approx(10.3032574516)
        assert float(estimate["e_r"]) == pytest.approx(1.0 - np.log(9.0))
        assert float(estimate["gamma"]) == pytest.approx(2.0 * np.pi)

    def test_initial_guess_reaches_another_zero(self, run_cli):
        """Rational scale 0.34395, omega0 = 0.029139, lambda = 0.20175:
        ``root.initial_guess`` chooses the zero the search closes on, here
        the sheet-II zero near 0.1 - 0.35i."""
        cfg = ("model.omega0 = 0.029139\nmodel.lambda = 0.20175\n"
               "model.form_factor = rational\nmodel.scale = 0.34395\n"
               "root.initial_guess = 0.1-0.35j\n")
        code, out, record_path = run_cli("pole", cfg)
        assert code == 0
        header, rows = read_csv(out)
        resolved = dict(zip(header, rows[0]))
        assert float(resolved["e_r"]) == pytest.approx(0.107234623522,
                                                       rel=1e-10)
        assert float(resolved["gamma"]) == pytest.approx(
            2.0 * 0.358215643958, rel=1e-10)
        pole = json.loads(record_path.read_text())["results"]["pole"]
        assert float(pole["residual"]) <= numerics._RESIDUAL_TOL
        assert 1 <= pole["stencils"] <= numerics._MAX_STENCILS

    @pytest.mark.parametrize("omega0,lam,cutoff,z", [
        ("0.05", "0.3", "10.0", "(-0.2187"), ("1.0", "0.1", "0.5", "(1.0068")],
        ids=["below-threshold", "above-cutoff"])
    def test_zero_outside_support_is_numerical(self, run_cli, capsys, omega0,
                                               lam, cutoff, z):
        cfg = (f"model.omega0 = {omega0}\nmodel.lambda = {lam}\n"
               f"model.form_factor = flat_cutoff\nmodel.cutoff = {cutoff}\n")
        code, out, record_path = run_cli("pole", cfg)
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith(
            f"numerical failure: converged to {z}")
        error = json.loads(record_path.read_text())["results"]["error"]
        assert error.startswith("PoleOutsideSupport: ")
        assert f"outside the support (0, {float(cutoff):g})" in error

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["flat_cutoff", "rational"]),
           omega0=st.floats(-2.0, np.log10(3.0)),
           lam=st.floats(-2.0, np.log10(2.0)),
           size=st.floats(np.log10(0.3), 1.0))
    def test_valid_config_never_exits_one(self, run_cli, kind, omega0, lam,
                                          size):
        """A valid model either has a resonance inside its support (exit
        0) or fails with a typed numerical error (exit 2), never as a
        config error; exponents are drawn, so the values are log-uniform."""
        key = "model.cutoff" if kind == "flat_cutoff" else "model.scale"
        cfg = (f"model.omega0 = {10**omega0!r}\n"
               f"model.lambda = {10**lam!r}\n"
               f"model.form_factor = {kind}\n{key} = {10**size!r}\n")
        code, out, _ = run_cli("pole", cfg)
        assert code in (0, 2)
        if code == 0:
            e_r = float(read_csv(out)[1][0][1])
            hi = 10**size if kind == "flat_cutoff" else np.inf
            assert 0.0 < e_r < hi


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

    @pytest.mark.parametrize("column,bad", [(1, "nan"), (1, "inf"),
                                            (0, "nan")],
                             ids=["nan-value", "inf-value", "nan-grid"])
    def test_non_finite_table_is_config_error(self, run_cli, tmp_path,
                                              capsys, column, bad):
        rows = [[f"{w:.1f}", "1.0"] for w in np.linspace(0.0, 10.0, 11)]
        rows[5][column] = bad
        (tmp_path / "flat.txt").write_text(
            "".join(" ".join(r) + "\n" for r in rows))
        cfg = self.SHORT.replace(
            "model.form_factor = flat_cutoff\nmodel.cutoff = 10.0",
            "model.form_factor = tabulated\nmodel.table = flat.txt")
        code, out, record_path = run_cli("survival", cfg)
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: invalid model section: tabulated grid and f^2 "
            "samples must be finite\n")
        assert not out.exists() and not record_path.exists()

    @pytest.mark.parametrize("key,bad", [
        ("grid.time.stop", "nan"), ("grid.time.stop", "inf"),
        ("model.omega0", "nan"), ("model.cutoff", "inf")])
    def test_non_finite_number_is_config_error(self, run_cli, capsys, key,
                                               bad):
        """NaN passes every ordering check, so each of these once reached
        the numerics: an IndexError traceback, or exit 2."""
        lines = [f"{key} = {bad}" if ln.split(" = ")[0] == key else ln
                 for ln in self.SHORT.splitlines()]
        code, out, record_path = run_cli("survival", "\n".join(lines) + "\n")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"{key} must be a finite number" in err
        assert not out.exists() and not record_path.exists()

    def test_zero_outside_support_leaves_p_gamow_blank(self, run_cli,
                                                       capsys):
        """The pole is only survival's comparison: a zero right of the
        cutoff is a warning, and the run still stops where it stopped
        before, on P(0), for the missing bound state above the
        continuum."""
        cfg = self.SHORT.replace("model.cutoff = 10.0", "model.cutoff = 0.5")
        code, out, record_path = run_cli("survival", cfg)
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "numerical failure: P(0) = 9.41")
        record = json.loads(record_path.read_text())
        assert record["results"]["error"].startswith(
            "UnitarityViolation: P(0) = 9.41")
        assert "pole" not in record["results"]
        assert any("outside the support (0, 0.5)" in w
                   and "p_gamow is left blank" in w
                   for w in record["warnings"])

    def test_failed_pole_search_keeps_the_table(self, run_cli):
        """Any failed pole search only blanks p_gamow: a start above the
        cut closes on the upper zero, and the amplitudes are those of a
        run without the key."""
        code, out, _ = run_cli("survival", self.SHORT, out_name="full.csv")
        assert code == 0
        _, full = read_csv(out)
        code, out, record_path = run_cli("survival",
                                         self.SHORT + _FAR_START)
        assert code == 0
        header, rows = read_csv(out)
        p_gamow = header.index("p_gamow")
        assert all(r[p_gamow] == "" for r in rows)
        assert [r[:p_gamow] for r in rows] == [r[:p_gamow] for r in full]
        record = json.loads(record_path.read_text())
        assert "pole" not in record["results"]
        assert any(w.startswith("converged to (0.97778")
                   and "upper half-plane" in w
                   and w.endswith("; p_gamow is left blank")
                   for w in record["warnings"])

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

    def test_strong_coupling_pole_from_model(self, run_cli):
        cfg = FLAT_CONFIG.replace("model.lambda = 0.1", "model.lambda = 1.0")
        code, _, record_path = run_cli("entropy", cfg)
        assert code == 0
        pole = json.loads(record_path.read_text())["results"]["pole"]
        assert float(pole["e_r"]) == pytest.approx(0.239143191572)


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

    def test_lambda_scan_through_strong_coupling(self, run_cli):
        """Every row resolves, also where the estimate lies left of
        threshold (lambda >= 0.8); gamma_fgr is the golden rule."""
        cfg = FLAT_CONFIG + "scan.axis = lambda\nscan.values = 0.1,0.5,0.8,1\n"
        code, out, record_path = run_cli("scan", cfg)
        assert code == 0
        header, rows = read_csv(out)
        table = [dict(zip(header, r)) for r in rows]
        assert all(r["error"] == "" and r["e_r"] != "" for r in table)
        assert [float(r["gamma_fgr"]) for r in table] == pytest.approx(
            [2.0 * np.pi * lam**2 for lam in (0.1, 0.5, 0.8, 1.0)])
        assert float(table[-1]["e_r"]) == pytest.approx(0.239143191572)
        assert json.loads(record_path.read_text())["warnings"] == []

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
        """Each error row names the type of its failure, as a lambda row
        and the run record do: a value the check rejects is
        ``InvalidElements``, an entropy past the float range
        ``NonFiniteEntropy``."""
        cfg = ("pole.e_r = 1.0\npole.gamma = 0.5\nthermo.beta = 1.0\n"
               f"scan.axis = {axis}\nscan.values = 0.5, "
               + ", ".join(bad) + ", 1.5\n")
        code, out, record_path = run_cli("scan", cfg)
        assert code == 0
        _, rows = read_csv(out)
        assert [r[-1] != "" for r in rows] == [False, True, True, True,
                                               False]
        assert all(r[1] == r[2] == "" for r in rows[1:4])
        assert [r[-1].split(": ")[0] for r in rows[1:4]] == [
            "InvalidElements", "NonFiniteEntropy", "InvalidElements"]
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

    @pytest.mark.parametrize("profile", [
        "model.form_factor = flat_cutoff\nmodel.cutoff = 10.0\n",
        "model.form_factor = rational\nmodel.scale = 1.0\n"],
        ids=["flat", "rational"])
    @pytest.mark.parametrize("lam", [0.03, 0.1, 0.25])
    def test_lambda_row_takes_at_most_four_kernel_calls(
            self, run_cli, monkeypatch, profile, lam):
        """The estimate and the pole search of one row evaluate the
        self-energy at most four times: the search returns the corrected
        point of a stencil without evaluating it."""
        calls = []
        self_energy = friedrichs.self_energy

        def counted(*args, **kwargs):
            calls.append(args[1])
            return self_energy(*args, **kwargs)

        monkeypatch.setattr(friedrichs, "self_energy", counted)
        cfg = (f"model.omega0 = 1.0\n{profile}"
               f"scan.axis = lambda\nscan.values = {lam}\n")
        code, out, _ = run_cli("scan", cfg)
        assert code == 0
        assert read_csv(out)[1][0][-1] == ""
        assert len(calls) <= 4

    def test_error_text_with_a_comma_stays_one_field(self, run_cli):
        """A PoleOutsideSupport message names the support "(0, 0.5)": the
        field is quoted, so a CSV reader gets six fields a row and the
        whole message."""
        cfg = ("model.omega0 = 1.0\nmodel.form_factor = flat_cutoff\n"
               "model.cutoff = 0.5\n"
               "scan.axis = lambda\nscan.values = 0.1, 0.2\n")
        code, out, record_path = run_cli("scan", cfg)
        assert code == 2
        header, rows = read_csv(out)
        assert len(header) == 6 and [len(r) for r in rows] == [6, 6]
        table = json.loads(record_path.read_text())["tables"][0]
        assert [r[-1] for r in rows] == [r[-1] for r in table["rows"]]
        assert all(r[-1].startswith("PoleOutsideSupport: converged to (")
                   and r[-1].endswith(
                       "outside the support (0, 0.5): no resonance")
                   for r in rows)

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
     + "thermo.k = 1x\n", "thermo.k"),
    ("survival", TestSurvivalCommand.LONG
     + "thermo.k = 1x\n", "thermo.k"),
    ("survival", TestSurvivalCommand.LONG
     + "thermo.beta = nan\n", "thermo.beta"),
    ("entropy", "pole.e_r = 1.0\npole.gamma = 0.5\nevolve.value = 1+0.5i\n",
     "evolve.value"),
    ("entropy", "pole.e_r = 1.0\npole.gamma = 0.5\n"
     "evolve.mode = sideways\n", "evolve.mode"),
], ids=["survival-short", "survival-long", "survival-nan",
        "entropy-complex", "entropy-choice"])
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
    ("", False), (_FAR_START, True)], ids=["ok", "numerical"])
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


@pytest.mark.parametrize("cls,base", [
    (gt.NonConvergence, RuntimeError), (gt.IntegrandError, ValueError),
    (gt.MaxIterExceeded, RuntimeError), (gt.SingularStep, RuntimeError),
    (gt.StepUnderflow, RuntimeError), (gt.ContinuationUnavailable, ValueError),
    (gt.PoleInUpperHalfPlane, RuntimeError),
    (gt.PoleOutsideSupport, RuntimeError),
    (gt.UnitarityViolation, ValueError),
    (gt.EvolutionOverflow, OverflowError)])
def test_numerical_errors_keep_their_builtin_base(cls, base):
    assert issubclass(cls, gt.NumericalFailure)
    assert issubclass(cls, base)


def test_input_errors_are_not_numerical():
    for cls in (gt.InvalidElements, config.ConfigError, gt.InsufficientSpan):
        assert not issubclass(cls, gt.NumericalFailure)


def test_any_numerical_failure_exits_two(run_cli, monkeypatch, capsys):
    """The exit code follows the type: a failure class the CLI has never
    heard of exits 2 from ``pole`` and fills an error row in a scan."""
    class Fresh(gt.NumericalFailure):
        pass

    def fail(*args, **kwargs):
        raise Fresh("no verdict")

    monkeypatch.setattr(friedrichs, "find_pole", fail)
    code, out, record_path = run_cli("pole", FLAT_CONFIG)
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == "numerical failure: no verdict\n"
    assert json.loads(record_path.read_text())["results"][
        "error"] == "Fresh: no verdict"
    cfg = FLAT_CONFIG + "scan.axis = lambda\nscan.values = 0.05,0.1\n"
    code, out, _ = run_cli("scan", cfg)
    assert code == 2
    _, rows = read_csv(out)
    assert [r[-1] for r in rows] == ["Fresh: no verdict"] * 2


def test_lambda_row_catches_value_error_only_from_the_model(run_cli,
                                                           monkeypatch):
    """A lambda the model rejects is an error row; a bare ``ValueError``
    from the pole search is a bug and escapes ``main``."""
    cfg = FLAT_CONFIG + "scan.axis = lambda\nscan.values = 1e200, nan, 0.1\n"
    code, out, _ = run_cli("scan", cfg)
    assert code == 0
    _, rows = read_csv(out)
    assert [r[-1] for r in rows] == [
        "ValueError: coupling must be real, with a finite square"] * 2 + [""]

    def fail(*args, **kwargs):
        raise ValueError("a bug in the search")

    monkeypatch.setattr(friedrichs, "find_pole", fail)
    with pytest.raises(ValueError, match="a bug in the search"):
        run_cli("scan", cfg)


def test_bare_overflow_error_is_a_bug(run_cli, monkeypatch):
    """Exit 2 is a ``NumericalFailure`` alone: a builtin ``OverflowError``
    from inside a command escapes ``main`` with its traceback."""
    def fail(*args, **kwargs):
        raise OverflowError("a bug in the search")

    monkeypatch.setattr(friedrichs, "find_pole", fail)
    with pytest.raises(OverflowError, match="a bug in the search"):
        run_cli("pole", FLAT_CONFIG)


_GOLDEN_CONFIGS = Path(__file__).resolve().parent / "golden" / "configs"
_TIME = "grid.time.start = 0.0\ngrid.time.stop = 40.0\ngrid.time.points = 9\n"
_BETA_SCAN = "scan.axis = beta\nscan.values = 0.5, 1.0\n"


class TestPoleReport:
    """A record whose pole was searched carries the search's own report
    under ``results.pole``; a direct ``pole.*`` pole is its two numbers."""

    def test_pole_takes_three_kernel_calls(self, run_cli, monkeypatch):
        """The estimate and two Newton stencils: the residual in the table
        is the search's, not one more evaluation at the root."""
        calls = []
        self_energy = friedrichs.self_energy

        def counted(*args, **kwargs):
            calls.append(args[1])
            return self_energy(*args, **kwargs)

        monkeypatch.setattr(friedrichs, "self_energy", counted)
        code, out, record_path = run_cli(
            "pole", (_GOLDEN_CONFIGS / "pole.cfg").read_text())
        assert code == 0
        assert len(calls) == 3
        header, rows = read_csv(out)
        report = json.loads(record_path.read_text())["results"]["pole"]
        assert rows[0][header.index("residual")] == report["residual"]

    @pytest.mark.parametrize("command,extra", [
        ("pole", ""), ("survival", _TIME), ("entropy", ""),
        ("evolve", _TIME), ("scan", _BETA_SCAN)],
        ids=["pole", "survival", "entropy", "evolve", "scan-beta"])
    def test_searched_pole_reports_itself(self, run_cli, flat_model, command,
                                          extra):
        code, _, record_path = run_cli(command, FLAT_CONFIG + extra)
        assert code == 0
        pole = json.loads(record_path.read_text())["results"]["pole"]
        assert list(pole) == ["e_r", "gamma", "estimate", "residual", "step",
                              "stencils"]
        assert float(pole["residual"]) <= numerics._RESIDUAL_TOL
        assert float(pole["step"]) <= numerics._STEP_TOL
        assert 1 <= pole["stencils"] <= numerics._MAX_STENCILS
        estimate = gt.perturbative_pole(flat_model)
        assert [float(v) for v in pole["estimate"]] == pytest.approx(
            [estimate.real, estimate.imag], rel=1e-11)

    @pytest.mark.parametrize("command,extra", [
        ("entropy", ""), ("evolve", _TIME), ("scan", _BETA_SCAN)],
        ids=["entropy", "evolve", "scan-beta"])
    def test_direct_pole_is_its_parameters(self, run_cli, command, extra):
        code, _, record_path = run_cli(
            command, "pole.e_r = 1.0\npole.gamma = 0.2\n" + extra)
        assert code == 0
        assert json.loads(record_path.read_text())["results"]["pole"] == {
            "e_r": "1", "gamma": "0.2"}


class TestOutputContract:
    def test_refresh_names_the_largest_relative_move(self, refresh):
        """The fixture report names the place of the largest relative
        move as well as that of the largest absolute one."""
        report = refresh.compare(Path("x.json"),
                                 '{"a": 1000.0, "b": [1e-06, 5.0]}',
                                 '{"a": 1000.5, "b": [2e-06, 5.0]}')
        assert "largest numeric deviation 0.5 at a " in report
        assert "largest relative deviation 1 at b/0 " in report

    def test_tabulated_record_reruns_from_another_directory(
            self, tmp_path, monkeypatch):
        """A record echoes the absolute path of the table it opened, so it
        reruns from any directory and reproduces its bytes; a relative
        ``model.table`` resolves against the config's own directory."""
        work = tmp_path / "work"
        work.mkdir()
        grid = np.linspace(0.0, 10.0, 201)
        np.savetxt(work / "ff.txt", np.column_stack([grid,
                                                     np.ones_like(grid)]))
        (work / "run.cfg").write_text(TestSurvivalCommand.SHORT.replace(
            "model.form_factor = flat_cutoff\nmodel.cutoff = 10.0",
            "model.form_factor = tabulated\nmodel.table = ff.txt"))
        monkeypatch.chdir(work)
        assert cli_main(["survival", "--config", "run.cfg", "--out",
                         "out/s.csv", "--quiet"]) == 0
        record = json.loads((work / "out" / "s.json").read_text())
        assert record["config"]["model.table"] == str(
            (work / "ff.txt").resolve())
        monkeypatch.chdir(tmp_path)
        assert cli_main(["survival", "--config", "work/out/s.json", "--out",
                         "again/s.csv", "--quiet"]) == 0
        for name in ("s.csv", "s.json"):
            assert (tmp_path / "again" / name).read_bytes() == \
                (work / "out" / name).read_bytes()

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

    def test_command_help_lists_every_command(self, capsys):
        assert cli_main(["pole", "--help"]) == 0
        out = capsys.readouterr().out
        assert all(f"\n  {name} " in out for name in cli._COMMANDS)

    def test_options_may_precede_the_command(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pole.e_r = 1.0\npole.gamma = 1.0\n")
        out = tmp_path / "s.csv"
        assert cli_main(["--config", str(cfg), "--out", str(out), "--quiet",
                         "entropy"]) == 0
        assert json.loads(out.with_suffix(".json").read_text())[
            "command"] == "entropy"

    def test_missing_command_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pole.e_r = 1.0\npole.gamma = 1.0\n")
        assert cli_main(["--config", str(cfg)]) == 1
        assert "command" in capsys.readouterr().err

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
# the optional modules loaded so far: SciPy and numpy.fft
_LAZY_LOADED = ("sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy' or m.startswith('numpy.fft'))")


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
    profile).  Nor does any command load numpy.fft, which only the
    eigen-sum oracle's secular solver uses."""

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
loaded = {{"import": {_LAZY_LOADED}}}
for name, command in {commands!r}.items():
    code = gamow_thermo.cli.main([command, "--config", name + ".cfg",
                                  "--out", name + ".csv", "--quiet"])
    loaded[name] = [code, {_LAZY_LOADED}]
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
before = {_LAZY_LOADED}
{build}
built = {_LAZY_LOADED}
import scipy.interpolate
print(json.dumps([before, built, "scipy.interpolate" in {_LAZY_LOADED}]))
"""
        assert _cold_run(script, tmp_path) == [[], [], True]

    def test_discretize_loads_numpy_fft(self, tmp_path):
        # The secular solver's model start reaches numpy.fft through
        # ``np.fft`` only once it runs, and the probe sees it then.
        script = f"""
import gamow_thermo as gt
before = {_LAZY_LOADED}
gt.discretize(gt.FriedrichsModel(omega0=1.0, lam=0.1,
                                 form_factor=gt.FlatCutoff(cutoff=10.0)),
              50, 10.0)
print(json.dumps([before, "numpy.fft" in {_LAZY_LOADED}]))
"""
        assert _cold_run(script, tmp_path) == [[], True]
