import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import gamow_thermo as gt
from gamow_thermo.cli import main as cli_main

# a failing property prints the @reproduce_failure blob that replays it
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")


@pytest.fixture(scope="session")
def flat_model():
    """Default benchmark model: flat cutoff 10, level at 1, coupling 0.1."""
    return gt.FriedrichsModel(omega0=1.0, lam=0.1,
                              form_factor=gt.FlatCutoff(cutoff=10.0))


@pytest.fixture(scope="session")
def flat_pole(flat_model):
    return gt.find_pole(flat_model)


@pytest.fixture(scope="session")
def flat_table(flat_model):
    return gt.density_table(flat_model)


@pytest.fixture(scope="session")
def flat_series(flat_model, flat_pole, flat_table):
    """Survival series with a log-dense head (resolves the quadratic
    window) and a linear body out to 27/Gamma (resolves the tail)."""
    gamma = flat_pole.gamma
    grid = np.unique(np.concatenate([
        [0.0],
        np.geomspace(0.005, 0.45, 25),
        np.linspace(0.5, 27.0 / gamma, 430),
    ]))
    return gt.survival_probability(flat_model, grid)


@pytest.fixture(scope="session")
def oracle_2000(flat_model):
    return gt.discretize(flat_model, 2000, 10.0)


@pytest.fixture(scope="session")
def rational_model():
    return gt.FriedrichsModel(omega0=1.0, lam=0.1,
                              form_factor=gt.RationalFormFactor(scale=1.0))


@pytest.fixture(scope="session")
def rational_oracle(rational_model):
    """Bins fine enough to resolve Gamma ~ 0.01 (two bins per width)."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return gt.discretize(rational_model, 4000, 20.0)


@pytest.fixture(scope="session")
def oracle_4000(flat_model):
    return gt.discretize(flat_model, 4000, 10.0)


@pytest.fixture(scope="session")
def refresh():
    """``tests/golden/refresh.py``, the one runner of the golden configs,
    loaded as a module."""
    path = Path(__file__).resolve().parent / "golden" / "refresh.py"
    spec = importlib.util.spec_from_file_location("refresh", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def run_cli(tmp_path):
    """Run the CLI in-process; returns (exit_code, csv_path, json_path)."""

    def run(command, config_text, *extra, out_name=None, fmt=None):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config_text)
        out = tmp_path / (out_name or f"{command}.csv")
        argv = [command, "--config", str(cfg_path), "--out", str(out),
                "--quiet", *extra]
        if fmt:
            argv += ["--format", fmt]
        code = cli_main(argv)
        return code, out, out.with_suffix(".json")

    return run


FLAT_CONFIG = """\
model.omega0 = 1.0
model.lambda = 0.1
model.form_factor = flat_cutoff
model.cutoff = 10.0
"""


@pytest.fixture
def flat_config_text():
    return FLAT_CONFIG
