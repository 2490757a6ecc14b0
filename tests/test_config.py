import numpy as np
import pytest

import gamow_thermo as gt
from gamow_thermo import config
from gamow_thermo.cli import main as cli_main
from gamow_thermo.config import ConfigError, RunConfig, load_config


def write_and_load(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return load_config(path)


class TestParsing:
    def test_comments_and_blanks(self, tmp_path):
        cfg = write_and_load(tmp_path, """
            # full-line comment
            model.omega0 = 1.0   # trailing comment

            model.lambda = 0.1
        """)
        assert cfg.raw == {"model.omega0": "1.0", "model.lambda": "0.1"}

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            write_and_load(tmp_path, "model.omega0 1.0\n")

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            write_and_load(tmp_path, "thermo.beta = 1\nthermo.beta = 2\n")

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key"):
            write_and_load(tmp_path, "model.omega_zero = 1.0\n")

    def test_oscillation_split_is_not_a_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model.omega0 = 1.0\nmodel.lambda = 0.1\n"
                        "numerics.oscillation_split = 30\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(path)
        out = tmp_path / "pole.csv"
        assert cli_main(["pole", "--config", str(path), "--out", str(out),
                         "--quiet"]) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")

    def test_json_record_round_trip(self, tmp_path):
        path = tmp_path / "record.json"
        path.write_text('{"config": {"thermo.beta": "2.5"}, "tables": []}')
        cfg = load_config(path)
        assert cfg.get("thermo.beta") == 2.5

    def test_json_without_config(self, tmp_path):
        path = tmp_path / "record.json"
        path.write_text('{"tables": []}')
        with pytest.raises(ConfigError, match="config"):
            load_config(path)


class TestAccessors:
    def test_float_conversion_failure(self):
        with pytest.raises(ConfigError, match="thermo.beta must be a number"):
            RunConfig(raw={"thermo.beta": "warm"})

    def test_positive_enforced(self):
        cfg = RunConfig(raw={"thermo.beta": "-2.0"})
        with pytest.raises(ConfigError, match="positive"):
            cfg.thermo_point()

    def test_required_missing(self):
        with pytest.raises(ConfigError, match="missing required"):
            RunConfig().get("model.omega0", required=True)

    def test_complex_literal(self):
        cfg = RunConfig(raw={"evolve.value": "1 - 0.5j"})
        assert cfg.get("evolve.value") == 1.0 - 0.5j

    def test_bool_values(self):
        cfg = RunConfig(raw={"survival.regimes": "off"})
        assert cfg.get("survival.regimes", default=True) is False

    def test_choices(self):
        cfg = RunConfig(raw={"output.format": "yaml"})
        with pytest.raises(ConfigError, match="must be one of"):
            cfg.get("output.format", choices=("csv", "json"))

    def test_key_table_is_the_accepted_key_set(self):
        ranges = {f"{prefix}.{end}"
                  for prefix in ("grid.time", "grid.tau", "grid.beta",
                                 "grid.temperature", "scan")
                  for end in ("start", "stop", "points", "spacing")}
        assert set(config._KEYS) == ranges | {
            "model.omega0", "model.lambda", "model.form_factor",
            "model.cutoff", "model.scale", "model.table",
            "pole.e_r", "pole.gamma", "thermo.beta", "thermo.k",
            "evolve.mode", "evolve.branch", "evolve.value",
            "scan.axis", "scan.values",
            "survival.regimes", "survival.noise_floor",
            "numerics.abs_tol", "numerics.rel_tol",
            "numerics.max_subdivisions",
            "root.initial_guess", "root.step_tol", "root.residual_tol",
            "root.max_iter",
            "output.path", "output.format", "output.precision",
        }

    def test_unknown_form_factor_kind(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("model.omega0 = 1.0\nmodel.lambda = 0.1\n"
                        "model.form_factor = gaussian\n")
        assert cli_main(["pole", "--config", str(path), "--out",
                         str(tmp_path / "pole.csv"), "--quiet"]) == 1
        assert "must be one of" in capsys.readouterr().err


class TestBuilders:
    def test_flat_model(self):
        cfg = RunConfig(raw={"model.omega0": "1.0", "model.lambda": "0.1",
                             "model.form_factor": "flat_cutoff",
                             "model.cutoff": "10.0"})
        model = cfg.model()
        assert isinstance(model.form_factor, gt.FlatCutoff)
        assert model.omega0 == 1.0

    def test_model_field_diagnostic(self):
        cfg = RunConfig(raw={"model.omega0": "-1.0", "model.lambda": "0.1",
                             "model.form_factor": "flat_cutoff",
                             "model.cutoff": "10.0"})
        with pytest.raises(ConfigError, match="omega0"):
            cfg.model()

    def test_tabulated_model_relative_path(self, tmp_path):
        grid = np.linspace(0.0, 10.0, 100)
        np.savetxt(tmp_path / "ff.txt",
                   np.column_stack([grid, np.ones_like(grid)]))
        cfg = RunConfig(raw={"model.omega0": "1.0", "model.lambda": "0.1",
                             "model.form_factor": "tabulated",
                             "model.table": "ff.txt"}, base_dir=tmp_path)
        assert isinstance(cfg.model().form_factor, gt.TabulatedFormFactor)

    def test_direct_pole(self):
        cfg = RunConfig(raw={"pole.e_r": "2.0", "pole.gamma": "0.4"})
        pole = cfg.pole()
        assert (pole.e_r, pole.gamma) == (2.0, 0.4)

    def test_pole_needs_source(self):
        with pytest.raises(ConfigError, match="pole"):
            RunConfig().pole()

    def test_grids(self):
        cfg = RunConfig(raw={"grid.time.start": "0", "grid.time.stop": "10",
                             "grid.time.points": "11"})
        grid = cfg.grid("time")
        assert grid.size == 11 and grid[0] == 0.0 and grid[-1] == 10.0
        assert cfg.grid("beta") is None
        with pytest.raises(ConfigError, match="grid.tau"):
            cfg.grid("tau", required=True)

    def test_log_grid(self):
        cfg = RunConfig(raw={"grid.beta.start": "0.1",
                             "grid.beta.stop": "10",
                             "grid.beta.points": "3",
                             "grid.beta.spacing": "log"})
        assert np.allclose(cfg.grid("beta"), [0.1, 1.0, 10.0])

    def test_grid_validation(self):
        cfg = RunConfig(raw={"grid.time.start": "5", "grid.time.stop": "1",
                             "grid.time.points": "4"})
        with pytest.raises(ConfigError, match="stop must exceed"):
            cfg.grid("time")

    def test_scan_values(self):
        cfg = RunConfig(raw={"scan.values": "0.05, 0.1, 0.2"})
        assert np.allclose(cfg.scan_values(), [0.05, 0.1, 0.2])

    def test_scan_range(self):
        cfg = RunConfig(raw={"scan.start": "1", "scan.stop": "2",
                             "scan.points": "3"})
        assert np.allclose(cfg.scan_values(), [1.0, 1.5, 2.0])

    def test_scan_missing(self):
        with pytest.raises(ConfigError, match="scan"):
            RunConfig().scan_values()

    def test_precision_bounds(self):
        assert RunConfig().precision() == 12
        with pytest.raises(ConfigError, match="precision"):
            RunConfig(raw={"output.precision": "20"}).precision()

    def test_quadrature_overrides(self):
        cfg = RunConfig(raw={"numerics.abs_tol": "1e-8",
                             "numerics.max_subdivisions": "100"})
        spec = cfg.quadrature_spec()
        assert spec.abs_tol == 1e-8 and spec.max_subdivisions == 100

    def test_root_overrides(self):
        cfg = RunConfig(raw={"root.initial_guess": "0.9-0.05j",
                             "root.max_iter": "7"})
        rc = cfg.root_config()
        assert rc.initial_guess == 0.9 - 0.05j and rc.max_iter == 7
