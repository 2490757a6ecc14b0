"""Seeded inputs for the three benchmark workloads.

Everything a workload hands to the package is drawn here from the workload
seed: model parameters, lambda values and time grids, each within the
stated range around the paper's benchmark model.  The package receives
only the resulting config files and arrays.
"""

from __future__ import annotations

import numpy as np

from reference import golden_rule_width

# Relative jitter of model parameters around the paper's values.  It is kept
# small so that every seed asks the package for about the same work.
JITTER = 0.002

SURVIVAL_POINTS = 9
SURVIVAL_STOP = 40.0
SCAN_LAMBDAS = 120
SCAN_RANGE = (0.03, 0.25)
ORACLE_LAMBDAS = (0.05, 0.1, 0.2)
ORACLE_BINS = 2000


def _jitter(rng, value, share=JITTER):
    return float(value * rng.uniform(1.0 - share, 1.0 + share))


def model_lines(model):
    lines = [f"model.omega0 = {model['omega0']!r}",
             f"model.lambda = {model['lam']!r}",
             f"model.form_factor = {model['kind']}"]
    if model["kind"] == "flat_cutoff":
        lines.append(f"model.cutoff = {model['cutoff']!r}")
    else:
        lines.append(f"model.scale = {model['scale']!r}")
    return lines


def config_text(lines):
    # full float precision so that every output parses back exactly
    return "\n".join(list(lines) + ["output.precision = 17"]) + "\n"


def survival_cold(seed):
    """Paper flat-cutoff model, 9-point grid to t ~ 40, one CLI run."""
    rng = np.random.default_rng([seed, 1])
    model = {"kind": "flat_cutoff", "omega0": _jitter(rng, 1.0),
             "lam": _jitter(rng, 0.1), "cutoff": 10.0}
    stop = _jitter(rng, SURVIVAL_STOP)
    lines = model_lines(model) + [
        "grid.time.start = 0.0",
        f"grid.time.stop = {stop!r}",
        f"grid.time.points = {SURVIVAL_POINTS}",
    ]
    return {"model": model, "times": np.linspace(0.0, stop,
                                                 SURVIVAL_POINTS).tolist(),
            "configs": {"survival": config_text(lines)}}


def series_warm(seed):
    """Rational form factor (unbounded support), ~145-point series.

    The grid is sized from the golden-rule width, which the benchmark
    computes itself: a log-dense head resolves the quadratic start and a
    linear body reaches 27 lifetimes so the regimes can be classified.
    """
    rng = np.random.default_rng([seed, 2])
    model = {"kind": "rational", "omega0": _jitter(rng, 1.0),
             "lam": _jitter(rng, 0.1), "scale": _jitter(rng, 1.0)}
    gamma = golden_rule_width(model)
    head = np.geomspace(_jitter(rng, 0.005), 0.9 / gamma, 30)
    body = np.linspace(1.0 / gamma, _jitter(rng, 27.0) / gamma, 115)
    times = np.concatenate([[0.0], head, body])
    return {"model": model, "times": times.tolist()}


def pole_oracle(seed):
    """Many small CLI jobs, the ladder ODE check and the eigen-sum oracle."""
    rng = np.random.default_rng([seed, 3])
    flat = {"kind": "flat_cutoff", "omega0": _jitter(rng, 1.0),
            "lam": 0.1, "cutoff": 10.0}
    rational = {"kind": "rational", "omega0": _jitter(rng, 1.0),
                "lam": 0.1, "scale": _jitter(rng, 1.0)}
    configs = {}
    scans = []
    for name, model in (("flat", flat), ("rational", rational)):
        # one draw per equal slice of the range: the pole search costs more
        # at small lambda, and stratifying keeps the total steady per seed
        lo, hi = SCAN_RANGE
        slices = (np.arange(SCAN_LAMBDAS) + rng.uniform(size=SCAN_LAMBDAS))
        lams = rng.permutation(lo + (hi - lo) * slices / SCAN_LAMBDAS)
        for i, lam in enumerate(lams):
            key = f"scan_{name}_{i:03d}"
            configs[key] = config_text(model_lines(model) + [
                "scan.axis = lambda", f"scan.values = {float(lam)!r}"])
            scans.append({"key": key, "model": {**model, "lam": float(lam)}})

    pole_model = {**flat, "lam": _jitter(rng, 0.1)}
    configs["pole"] = config_text(model_lines(pole_model))
    entropy = {"e_r": _jitter(rng, 1.0), "gamma": _jitter(rng, 2.0),
               "k": _jitter(rng, 1.0), "beta": (_jitter(rng, 0.5),
                                                _jitter(rng, 4.0), 8)}
    configs["entropy"] = config_text([
        f"pole.e_r = {entropy['e_r']!r}", f"pole.gamma = {entropy['gamma']!r}",
        f"thermo.k = {entropy['k']!r}",
        f"grid.beta.start = {entropy['beta'][0]!r}",
        f"grid.beta.stop = {entropy['beta'][1]!r}",
        f"grid.beta.points = {entropy['beta'][2]}"])
    evolve = {"e_r": _jitter(rng, 1.0), "gamma": _jitter(rng, 0.2),
              "time": (0.0, _jitter(rng, 20.0), 6),
              "temperature": (_jitter(rng, 0.5), _jitter(rng, 4.0), 5)}
    configs["evolve"] = config_text([
        f"pole.e_r = {evolve['e_r']!r}", f"pole.gamma = {evolve['gamma']!r}",
        "evolve.mode = in", "evolve.branch = time",
        f"grid.time.start = {evolve['time'][0]!r}",
        f"grid.time.stop = {evolve['time'][1]!r}",
        f"grid.time.points = {evolve['time'][2]}",
        f"grid.temperature.start = {evolve['temperature'][0]!r}",
        f"grid.temperature.stop = {evolve['temperature'][1]!r}",
        f"grid.temperature.points = {evolve['temperature'][2]}"])
    return {
        "configs": configs,
        "scans": scans,
        "pole_model": pole_model,
        "entropy": entropy,
        "evolve": evolve,
        "cli_jobs": [k for k in configs if k.startswith("scan_")]
        + ["pole", "entropy", "evolve"],
        "ode_pole": (_jitter(rng, 1.0), _jitter(rng, 0.1)),
        "ode_grid": np.linspace(0.0, 5.0, 26).tolist(),
        "oracle_model": {**flat, "lam": None},
        "oracle_lambdas": list(ORACLE_LAMBDAS),
        "oracle_bins": ORACLE_BINS,
    }


GENERATORS = {
    "survival_cold": survival_cold,
    "series_warm": series_warm,
    "pole_oracle": pole_oracle,
}
