"""The exit-code contract of the CLI.

Exit 1 is a ``ConfigError`` alone, raised before any numerical work; exit 2
is a ``NumericalFailure`` or an ``OverflowError``; any other exception is a
bug and leaves ``main`` with its traceback.  On exit 0 every table holds
finite numbers.
"""

import csv
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gamow_thermo import cli, config, friedrichs
from gamow_thermo.cli import main as cli_main

from conftest import FLAT_CONFIG

RATIONAL_CONFIG = FLAT_CONFIG.replace(
    "model.form_factor = flat_cutoff\nmodel.cutoff = 10.0",
    "model.form_factor = rational\nmodel.scale = 1.0")
DIRECT = "pole.e_r = 1.0\npole.gamma = 0.2\n"
TIME = "grid.time.start = 0.0\ngrid.time.stop = 40.0\ngrid.time.points = 9\n"
TEMPERATURE = ("grid.temperature.start = 0.5\ngrid.temperature.stop = 4.0\n"
               "grid.temperature.points = 3\n")
BETA = ("thermo.beta = 1.0\nthermo.k = 1.0\ngrid.beta.start = 0.5\n"
        "grid.beta.stop = 4.0\ngrid.beta.points = 3\n")


def _set(text: str, key: str, value: str) -> str:
    """``text`` with ``key = value`` in place of any line of that key."""
    lines = [ln for ln in text.splitlines() if ln.split(" = ")[0] != key]
    return "\n".join([*lines, f"{key} = {value}"]) + "\n"


def _run(tmp_path, command, text):
    """(exit code, output path) of ``command``; earlier outputs are
    removed first, so every table found afterwards is this run's."""
    for old in tmp_path.glob("out*"):
        old.unlink()
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = tmp_path / "out.csv"
    code = cli_main([command, "--config", str(path), "--out", str(out),
                     "--quiet"])
    return code, out


def _rows(path):
    """The rows of a CSV table under its header."""
    with open(path, newline="") as handle:
        return list(csv.reader(handle))[1:]


# -- every key is read before the first numerical call ---------------------

@pytest.mark.parametrize("command,text", [
    ("entropy", FLAT_CONFIG + "thermo.k = -1\n"),
    ("entropy", FLAT_CONFIG + "grid.beta.start = 2.0\n"
     "grid.beta.stop = 1.0\ngrid.beta.points = 3\n"),
    ("evolve", FLAT_CONFIG),
    ("evolve", FLAT_CONFIG + TIME + _set(TEMPERATURE,
                                         "grid.temperature.start", "0")),
    ("scan", FLAT_CONFIG + "thermo.k = 0\nscan.axis = beta\n"
     "scan.values = 0.5, 1.0\n"),
    ("pole", FLAT_CONFIG + "root.initial_guess = 1+0.5i\n"),
], ids=["entropy-k", "entropy-beta-grid", "evolve-no-time-grid",
        "evolve-temperature", "scan-beta-k", "pole-root"])
def test_config_error_precedes_the_pole_search(tmp_path, capsys,
                                               monkeypatch, command, text):
    calls = []
    self_energy = friedrichs.self_energy

    def counted(*args, **kwargs):
        calls.append(args[1])
        return self_energy(*args, **kwargs)

    monkeypatch.setattr(friedrichs, "self_energy", counted)
    code, out = _run(tmp_path, command, text)
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert calls == []
    assert not out.exists() and not out.with_suffix(".json").exists()


# -- exit 1 is a ConfigError alone -------------------------------------------

def test_an_unexpected_exception_is_a_bug(tmp_path, monkeypatch):
    """A bare ValueError is no config error: it leaves main unhandled."""
    def broken(cfg, emitter):
        raise ValueError("not a config error")

    monkeypatch.setitem(cli._COMMANDS, "pole", broken)
    with pytest.raises(ValueError, match="not a config error"):
        _run(tmp_path, "pole", FLAT_CONFIG)


@pytest.mark.parametrize("command,text,key", [
    ("entropy", _set(DIRECT, "pole.e_r", "inf"), "pole.e_r"),
    ("entropy", _set(DIRECT, "pole.gamma", "inf"), "pole.gamma"),
    ("entropy", DIRECT + "thermo.k = inf\n", "thermo.k"),
    ("evolve", _set(DIRECT, "pole.e_r", "inf") + TIME, "pole.e_r"),
    ("pole", _set(FLAT_CONFIG, "model.lambda", "inf"), "model.lambda"),
], ids=["entropy-e_r", "entropy-gamma", "entropy-k", "evolve-e_r",
        "pole-lambda"])
def test_infinite_number_is_named_on_load(tmp_path, capsys, command, text,
                                          key):
    code, out = _run(tmp_path, command, text)
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"config error: {tmp_path / 'run.cfg'}: {key} must be a finite "
        "number, got 'inf'")
    assert not out.exists()


@pytest.mark.parametrize("spacing,start,stop", [
    ("log", "0", "1"), ("log", "-1", "1"), ("linear", "-1e308", "1e308"),
], ids=["log-zero", "log-signs", "linear-overflow"])
def test_unrepresentable_scan_range_is_config_error(tmp_path, capsys,
                                                    spacing, start, stop):
    """A scan range that numpy could not lay out as finite floats is
    named before any point runs, with no numpy warning."""
    text = ("pole.e_r = 1.0\nthermo.beta = 1.0\nscan.axis = gamma\n"
            f"scan.spacing = {spacing}\nscan.start = {start}\n"
            f"scan.stop = {stop}\nscan.points = 3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = _run(tmp_path, "scan", text)
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: scan: ")
    assert [w for w in caught if w.category is RuntimeWarning] == []
    assert not out.exists()


def test_coupling_with_infinite_square(tmp_path, capsys):
    """|lambda| >= 1.3e154 is a config error for one model, and one error
    row in a lambda scan, which keeps its valid rows."""
    code, _ = _run(tmp_path, "pole",
                   _set(FLAT_CONFIG, "model.lambda", "1e200"))
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: invalid model section: coupling must be real, with "
        "a finite square\n")
    code, out = _run(tmp_path, "scan", FLAT_CONFIG + "scan.axis = lambda\n"
                     "scan.values = 0.1, 1e200\n")
    assert code == 0
    ok, bad = _rows(out)
    assert ok[-1] == "" and float(ok[2]) == pytest.approx(0.0635520235703)
    assert bad == ["1e+200", "", "", "", "",
                   "ValueError: coupling must be real, with a finite square"]


# -- numerical routes raise typed failures -----------------------------------

@pytest.mark.parametrize("command,text,message", [
    ("survival", _set(RATIONAL_CONFIG, "model.omega0", "1e308") + TIME,
     "density table build failed: coupling weight decays too slowly"),
    ("evolve", _set(DIRECT, "pole.e_r", "1e308") + TIME,
     "evolution phase or coefficient overflows"),
    ("survival", _set(FLAT_CONFIG, "model.lambda", "0") + TIME,
     "P(0) = 0.0 is not 1 within 1e-8"),
    ("survival", _set(FLAT_CONFIG + TIME, "grid.time.stop", "1e308"),
     "the phase t * omega overflows"),
    ("entropy", DIRECT + "thermo.beta = 1e-300\nthermo.k = 1e308\n",
     "entropy parts must be finite"),
    ("pole", _set(_set(RATIONAL_CONFIG, "model.omega0", "1e-320"),
                  "model.scale", "1e-320"), "f^2(omega0) is not finite"),
], ids=["tail-cutoff", "evolve-phase", "survival-uncoupled",
        "survival-phase", "entropy-overflow", "infinite-profile"])
def test_numerical_route_fails_typed(tmp_path, capsys, command, text,
                                     message):
    code, _ = _run(tmp_path, command, text)
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"numerical failure: {message}")


@pytest.mark.parametrize("lam", ["1e-170", "1e-320"])
def test_vanishing_square_is_the_free_level(tmp_path, lam):
    """lambda^2 = 0: a stable level, reported as such by `pole`, and a
    scan row with no width-over-lambda^2 ratio."""
    code, out = _run(tmp_path, "pole", _set(FLAT_CONFIG, "model.lambda", lam))
    assert code == 0
    assert _rows(out)[0][:4] == ["resolved", "1", "0", "0"]
    record = json.loads(out.with_suffix(".json").read_text())
    assert record["warnings"] == [
        "stable state: lambda^2 is zero, width vanishes"]
    code, out = _run(tmp_path, "scan", FLAT_CONFIG + "scan.axis = lambda\n"
                     f"scan.values = {lam}\n")
    assert code == 0
    (row,) = _rows(out)
    assert row[1:] == ["1", "0", "", "0", ""]


def test_all_failed_scan_says_so(tmp_path, capsys):
    code, out = _run(tmp_path, "scan", "pole.e_r = 1.0\nthermo.beta = 1.0\n"
                     "scan.axis = gamma\nscan.values = -1.0, -2.0\n")
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical failure: all 2 scan points failed\n")
    record = json.loads(out.with_suffix(".json").read_text())
    assert record["results"]["failed_points"] == 2
    assert record["results"]["error"] == (
        "NumericalFailure: all 2 scan points failed")
    assert len(_rows(out)) == 2


def test_subnormal_width_resolves(tmp_path):
    """lambda = 1e-155 puts the pole 3e-310 below the axis, where the
    Cauchy kernel takes its rim value."""
    code, out = _run(tmp_path, "pole",
                     _set(FLAT_CONFIG, "model.lambda", "1e-155"))
    assert code == 0
    resolved = _rows(out)[0]
    assert float(resolved[1]) == 1.0
    assert float(resolved[2]) == pytest.approx(2.0 * np.pi * 1e-310,
                                               rel=1e-6)


# -- survival never writes NaN, and its verdict ignores the grid -------------

@pytest.mark.parametrize("cutoff", ["1e-300", "1e308"])
def test_non_finite_table_is_numerical(tmp_path, capsys, cutoff):
    code, out = _run(tmp_path, "survival",
                     _set(FLAT_CONFIG, "model.cutoff", cutoff) + TIME)
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "numerical failure: density table build failed: ")
    assert not out.exists()


def test_unitarity_verdict_ignores_the_grid(tmp_path, capsys):
    """At lambda = 0.3 the table misses the bound state's weight: P(0)
    fails whether or not the grid holds t = 0."""
    strong = _set(FLAT_CONFIG, "model.lambda", "0.3") + TIME
    errors = []
    for start in ("0.0", "0.5"):
        code, out = _run(tmp_path, "survival",
                         _set(strong, "grid.time.start", start))
        assert code == 2
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("numerical failure: P(0) = 0.99669")


# -- the contract, one key at a time -----------------------------------------

NUMBERS = ["nan", "inf", "-inf", "0", "-1", "1e-320", "1e-170", "1e-155",
           "2", "1000", "1e308"]
INTEGERS = ["-1", "0", "1", "2", "1000"]
_INTEGER_KEYS = {key for key, (what, _) in config._KEYS.items()
                 if what == "an integer"}
_NUMBER_KEYS = {key for key, (what, _) in config._KEYS.items()
                if what.startswith("a finite")}

BASES = [
    ("pole", FLAT_CONFIG), ("pole", RATIONAL_CONFIG),
    ("survival", FLAT_CONFIG + TIME), ("survival", RATIONAL_CONFIG + TIME),
    ("entropy", FLAT_CONFIG + BETA), ("entropy", RATIONAL_CONFIG + BETA),
    ("entropy", DIRECT + BETA),
    ("evolve", FLAT_CONFIG + TIME + TEMPERATURE),
    ("evolve", RATIONAL_CONFIG + TIME + TEMPERATURE),
    ("evolve", DIRECT + TIME + TEMPERATURE),
    ("scan", FLAT_CONFIG + "scan.axis = lambda\nscan.values = 0.05, 0.1\n"),
    ("scan", RATIONAL_CONFIG + "scan.axis = lambda\n"
     "scan.values = 0.05, 0.1\n"),
    ("scan", DIRECT + "thermo.k = 1.0\nscan.axis = beta\n"
     "scan.values = 0.5, 1.0\n"),
    ("scan", "pole.e_r = 1.0\nthermo.beta = 1.0\nscan.axis = gamma\n"
     "scan.start = 0.0\nscan.stop = 4.0\nscan.points = 5\n"),
]
# (command, base, key): every numeric key of a section the base sets, and
# the root and output keys
CASES = [(command, base, key) for command, base in BASES
         for key in sorted(_INTEGER_KEYS | _NUMBER_KEYS)
         if key.split(".")[0] in ("root", "output")
         or f"\n{key.rsplit('.', 1)[0]}." in f"\n{base}"]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(CASES), number=st.sampled_from(NUMBERS),
       integer=st.sampled_from(INTEGERS))
def test_every_run_ends_in_its_exit_code(tmp_path, capsys, case, number,
                                         integer):
    """One numeric key of a working config replaced: the run exits 0 with
    finite tables, 1 with a config error or 2 with a numerical failure,
    and raises nothing (a RuntimeWarning from the package raises too)."""
    command, base, key = case
    value = integer if key in _INTEGER_KEYS else number
    code, _ = _run(tmp_path, command, _set(base, key, value))
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 0:
        for cell in (cell for path in tmp_path.glob("out*.csv")
                     for row in _rows(path) for cell in row):
            try:
                number_in_cell = float(cell)
            except ValueError:
                continue  # a method name or an error text
            assert np.isfinite(number_in_cell), (key, value, cell)
    else:
        assert err.startswith(("", "config error: ",
                               "numerical failure: ")[code]), err
