import re
from pathlib import Path

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


def test_readme_names_only_accepted_keys():
    """Every backticked ``section.key`` in README whose section is a config
    section is a key, and every ``section.*`` matches one, so README
    cannot advertise a removed key."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sections = {key.split(".")[0] for key in config._KEYS}
    named = [name for name in re.findall(r"`([^`\s]+)`", readme)
             if re.fullmatch(r"[a-z_]+(\.[a-z0-9_]+)*(\.\*)?", name)
             and "." in name and name.split(".")[0] in sections]
    assert named
    for name in named:
        if name.endswith(".*"):
            assert any(key.startswith(name[:-1]) for key in config._KEYS), \
                name
        else:
            assert name in config._KEYS, name


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
        """Removed keys, the oscillation split and the quadrature
        tolerances, stop a config that still sets them."""
        path = tmp_path / "run.cfg"
        out = tmp_path / "pole.csv"
        for key in ("numerics.oscillation_split", "numerics.abs_tol",
                    "numerics.rel_tol", "numerics.max_subdivisions"):
            path.write_text("model.omega0 = 1.0\nmodel.lambda = 0.1\n"
                            f"{key} = 30\n")
            with pytest.raises(ConfigError,
                               match=f"unknown config key '{key}'"):
                load_config(path)
            assert cli_main(["pole", "--config", str(path), "--out",
                             str(out), "--quiet"]) == 1

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
        with pytest.raises(ConfigError,
                           match="thermo.beta must be a finite number"):
            RunConfig(raw={"thermo.beta": "warm"})

    @pytest.mark.parametrize("key", [
        "model.lambda", "pole.e_r", "pole.gamma", "thermo.beta", "thermo.k"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_every_number_must_be_finite(self, key, bad):
        """A non-finite number stops the config when it loads, before any
        command reads it."""
        with pytest.raises(ConfigError, match=f"{key} must be a finite "):
            RunConfig(raw={key: bad})

    @pytest.mark.parametrize("key", ["evolve.value", "root.initial_guess"])
    @pytest.mark.parametrize("bad", ["nan+1j", "1+infj", "-inf"])
    def test_complex_parts_must_be_finite(self, key, bad):
        with pytest.raises(ConfigError, match=f"{key} must be a complex "):
            RunConfig(raw={key: bad})

    def test_scan_values_accept_any_float(self):
        """nan, inf and negative scan values are error rows, not config
        errors."""
        values = RunConfig(raw={"scan.values": "nan, inf, -1"}).scan_values()
        assert np.isnan(values[0]) and values[1] == np.inf

    def test_grid_of_equal_floats_is_config_error(self):
        """A range narrower than its points leaves repeated floats, which
        no time or temperature grid may hold."""
        cfg = RunConfig(raw={"grid.time.start": "1.0",
                             "grid.time.stop": "1.0000000000000002",
                             "grid.time.points": "5"})
        with pytest.raises(ConfigError, match="not distinct floats"):
            cfg.grid("time")

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

    def test_choices(self):
        with pytest.raises(ConfigError, match="output.format must be one of"):
            RunConfig(raw={"output.format": "yaml"})

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
            "root.initial_guess",
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

    @pytest.mark.parametrize("key,bad", [
        ("model.omega0", "nan"), ("model.omega0", "inf"),
        ("model.cutoff", "inf"), ("model.cutoff", "nan")])
    def test_model_numbers_must_be_finite(self, key, bad):
        raw = {"model.omega0": "1.0", "model.lambda": "0.1",
               "model.form_factor": "flat_cutoff", "model.cutoff": "10.0"}
        with pytest.raises(ConfigError, match=f"{key} must be a finite"):
            RunConfig(raw={**raw, key: bad})
        with pytest.raises(ConfigError, match="model.scale must be a finite"):
            RunConfig(raw={**raw, "model.form_factor": "rational",
                           "model.scale": bad})

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

    @pytest.mark.parametrize("end", ["start", "stop"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_grid_ends_must_be_finite(self, end, bad):
        raw = {"grid.time.start": "0", "grid.time.stop": "40",
               "grid.time.points": "9", f"grid.time.{end}": bad}
        with pytest.raises(ConfigError,
                           match=f"grid.time.{end} must be a finite"):
            RunConfig(raw=raw)

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

    def test_root_overrides(self, monkeypatch):
        """``root.initial_guess`` is the pole search's start; unset, the
        search starts from its own estimate."""
        starts = []
        monkeypatch.setattr(config, "find_pole",
                            lambda model, start=None: starts.append(start))
        model = {"model.omega0": "1.0", "model.lambda": "0.1",
                 "model.form_factor": "flat_cutoff", "model.cutoff": "10.0"}
        RunConfig(raw={**model, "root.initial_guess": "0.9-0.05j"}).pole()
        RunConfig(raw=model).pole()
        assert starts == [0.9 - 0.05j, None]
