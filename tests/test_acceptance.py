"""Acceptance battery.

Each criterion runs at its stated tolerance and prints one pass/fail line
on the terminal (bypassing capture), so a full run reads as a checklist.
"""

import filecmp
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import gamow_thermo as gt
from gamow_thermo.cli import main as cli_main
from gamow_thermo.evolution import Mode

GOLDEN = Path(__file__).resolve().parent / "golden"


@contextmanager
def criterion(number, name, capsys):
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"acceptance {number:02d} {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance {number:02d} {name}: PASS")


def test_01_oscillator_limit(capsys):
    with criterion(1, "oscillator limit of the complex entropy", capsys):
        s = gt.complex_entropy(gt.ResonancePole(e_r=1.0, gamma=1e-8),
                               gt.ThermoPoint(beta=1.0, k=1.0))
        assert abs(s.value - (1.0 + 0.0j)) < 1e-6


def test_02_log_identity_oracle(capsys):
    with criterion(2, "closed form == k(1 - Log(beta conj(z)))", capsys):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            e_r, gamma, beta = rng.uniform(1e-12, 10.0, size=3)
            pole = gt.ResonancePole(e_r=e_r, gamma=gamma)
            point = gt.ThermoPoint(beta=beta)
            a = gt.complex_entropy(pole, point).value
            b = gt.entropy_via_log_identity(pole, point).value
            worst = max(worst, abs(a - b))
        assert worst < 1e-12


def test_03_canonical_functional_consistency(capsys):
    with criterion(3, "beta-derivative functional reproduces closed form",
                   capsys):
        rng = np.random.default_rng(77)
        for _ in range(100):
            e_r, gamma, beta = rng.uniform(0.05, 10.0, size=3)
            pole = gt.ResonancePole(e_r=e_r, gamma=gamma)
            point = gt.ThermoPoint(beta=beta)
            z_conj = np.conjugate(pole.z)
            functional = gt.canonical_entropy(
                lambda b: -np.log(b * z_conj), point)
            closed = gt.complex_entropy(pole, point).value
            assert abs(functional - closed) < 1e-8


def test_04_pole_against_golden_rule_and_oracle(capsys):
    with criterion(4, "pole width: golden rule + diagonalization oracle",
                   capsys):
        for lam in (0.05, 0.1, 0.2):
            model = gt.FriedrichsModel(
                omega0=1.0, lam=lam, form_factor=gt.FlatCutoff(cutoff=10.0))
            pole = gt.find_pole(model)
            fgr = 2.0 * np.pi * lam**2
            assert abs(pole.gamma - fgr) / fgr <= 10.0 * lam**2

            spectrum = gt.discretize(model, 2000, 10.0)
            ts = np.linspace(1.0 / pole.gamma, 5.0 / pole.gamma, 80)
            slope = np.polyfit(ts,
                               np.log(spectrum.survival_probability(ts)),
                               1)[0]
            assert abs(pole.gamma - (-slope)) / (-slope) <= 0.05


def test_05_zeno_flat_start(flat_model, flat_pole, flat_table, capsys):
    with criterion(5, "P'(0) vanishes (and the exponential control does "
                      "not)", capsys):
        tol = 1e-4 * flat_pole.gamma
        slope, err = gt.zeno_check(flat_model)
        assert abs(slope) <= tol
        assert err <= tol
        control, _ = gt.zeno_check(
            lambda t: np.exp(-flat_pole.gamma * t))
        assert control == pytest.approx(-flat_pole.gamma, rel=1e-6)
        assert abs(control) > tol  # flagged as non-flat


def test_06_exponential_window_and_tail(flat_series, flat_pole, capsys):
    with criterion(6, "log-linear window slope + tail dominance", capsys):
        gamma = flat_pole.gamma
        mask = (flat_series.times >= 1.0 / gamma) \
            & (flat_series.times <= 5.0 / gamma)
        slope = np.polyfit(flat_series.times[mask],
                           np.log(flat_series.probabilities[mask]), 1)[0]
        assert abs(-slope - gamma) / gamma <= 0.05

        report = gt.classify_regimes(flat_series, flat_pole)
        assert report.tail_resolved
        assert report.tail_ratio_last > 1.0
        assert report.tail_ratio_increasing


def test_07_spectral_normalization(flat_table, oracle_2000, capsys):
    with criterion(7, "density integrates to one; overlaps complete",
                   capsys):
        assert abs(flat_table.norm_direct - 1.0) <= 1e-6
        assert abs(float(oracle_2000.overlaps.sum()) - 1.0) <= 1e-10


def test_08_ladder_odes_and_semigroup(capsys):
    with criterion(8, "ladder rate equations match closed forms", capsys):
        pole = gt.ResonancePole(e_r=1.0, gamma=0.1)  # z = 1 - 0.05j
        dev = gt.verify_ode_solutions(pole, np.linspace(0.0, 5.0, 26))
        assert dev <= 1e-8

        rng = np.random.default_rng(8)
        for mode in Mode:
            start = gt.LadderCoefficient(mode=mode)
            for _ in range(50):
                tau1, tau2 = rng.uniform(0.0, 5.0, size=2)
                stepped = gt.thermal_evolve(
                    gt.thermal_evolve(start, pole, tau1), pole, tau2)
                direct = gt.thermal_evolve(start, pole, tau1 + tau2)
                scale = max(abs(direct.value), 1e-300)
                assert abs(stepped.value - direct.value) / scale <= 1e-12


def test_09_temperature_ordering(capsys):
    with criterion(9, "thermal factors strictly ordered across T", capsys):
        pole = gt.ResonancePole(e_r=1.0, gamma=0.3)
        for grid in (np.geomspace(0.25, 64.0, 10),
                     np.linspace(0.4, 9.0, 23)):
            table = gt.temperature_monotonicity(pole, grid)
            assert table.in_strictly_decreasing
            assert table.out_strictly_increasing
            assert np.allclose(table.in_factors * table.out_factors, 1.0,
                               rtol=1e-12)


def test_10_cli_golden_regression(refresh, tmp_path, capsys):
    with criterion(10, "golden CSV/JSON fixtures bit-exact + round-trip",
                   capsys):
        first, rerun = tmp_path / "first", tmp_path / "rerun"
        assert refresh.regenerate(first) == 0
        expected = GOLDEN / "expected"
        names = sorted(path.name for path in expected.iterdir())
        assert sorted(path.name for path in first.iterdir()) == names
        for name in names:
            assert filecmp.cmp(expected / name, first / name,
                               shallow=False), \
                f"{name} deviates from the golden fixture"

        # feeding each run record back reproduces its tables, and every
        # CSV byte for byte
        for path in sorted(first.glob("*.json")):
            record = json.loads(path.read_text())
            assert cli_main([record["command"], "--config", str(path),
                             "--out", str(rerun / f"{path.stem}.csv"),
                             "--quiet"]) == 0
            assert json.loads((rerun / path.name).read_text())[
                "tables"] == record["tables"], path.name
        csvs = [{path.name: path.read_bytes() for path in out.glob("*.csv")}
                for out in (first, rerun)]
        assert csvs[0] == csvs[1]
