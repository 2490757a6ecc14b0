"""Batch command-line front end.

Subcommands: pole | survival | entropy | evolve | scan.  Every run writes a
primary table (CSV by default) plus a JSON run record carrying the exact
configuration, so any emitted number can be reproduced by feeding the
record back as ``--config``.  Exit codes are stable: 0 success or partial
success with warnings, 1 configuration, usage or output error, 2 numerical
failure.  Two types decide them: a :class:`ConfigError`, which every
command raises before its first numerical call, exits 1, and a
:class:`NumericalFailure` exits 2.  Any other exception, a bare
:class:`OverflowError` included, is a bug and leaves with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__, decay, evolution, friedrichs, thermo
from .config import ConfigError, RunConfig, load_config
from .numerics import InvalidElements, NumericalFailure


class _Emitter:
    """Formats numbers at the configured precision and writes outputs."""

    def __init__(self, cfg: RunConfig, args):
        self.precision = cfg.precision()
        self.format = args.format or cfg.get("output.format", default="csv")
        out = args.out or cfg.get("output.path",
                                  default=f"{args.command}.{self.format}")
        self.out_path = Path(out)
        self.quiet = args.quiet
        self.record = {
            "tool": {"name": "gamow-thermo", "version": __version__},
            "command": args.command,
            "config": dict(cfg.raw),
            "warnings": [],
            "results": {},
            "tables": [],
        }

    def num(self, value):
        """``value`` with every number printed at the configured precision,
        through dicts, lists and tuples, and a complex as ``[re, im]``;
        text, bools, Python ints and None pass through unchanged."""
        if isinstance(value, dict):
            return {k: self.num(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [self.num(v) for v in value]
        if isinstance(value, complex):
            return [self.num(value.real), self.num(value.imag)]
        if value is None or isinstance(value, (str, bool, int)):
            return value
        value = float(value)
        if value == 0.0:
            value = 0.0  # fold -0.0 into a single representation
        return "%.*g" % (self.precision, value)

    def add_table(self, name: str, columns: list[str], rows) -> None:
        self.record["tables"].append(
            {"name": name, "columns": list(columns),
             "rows": [self.num(r) for r in rows]})

    def warn(self, message: str) -> None:
        self.record["warnings"].append(message)
        if not self.quiet:
            print(f"warning: {message}", file=sys.stderr)

    def _csv_path(self, index: int, name: str) -> Path:
        if index == 0:
            return self.out_path
        return self.out_path.with_name(
            f"{self.out_path.stem}_{name}{self.out_path.suffix}")

    def flush(self) -> None:
        self.out_path.parent.mkdir(parents=True, exist_ok=True)
        written = []
        if self.format == "csv":
            for index, table in enumerate(self.record["tables"]):
                path = self._csv_path(index, table["name"])
                # quoted where a field holds a comma, as error texts may
                with open(path, "w", newline="") as handle:
                    writer = csv.writer(handle, lineterminator="\n")
                    writer.writerow(table["columns"])
                    writer.writerows(table["rows"])
                written.append(path)
        sidecar = self.out_path.with_suffix(".json")
        sidecar.write_text(json.dumps(self.record, indent=2) + "\n",
                           newline="\n")
        written.append(sidecar)
        if not self.quiet:
            for path in written:
                print(f"wrote {path}")


def cmd_pole(cfg: RunConfig, emitter: _Emitter) -> None:
    model = cfg.model()
    pole = friedrichs.find_pole(model, cfg.get("root.initial_guess"))
    if model.lam**2 == 0.0:
        emitter.warn("stable state: lambda^2 is zero, width vanishes")
    fgr = -2.0 * pole.estimate.imag
    delta = abs(pole.gamma - fgr)
    emitter.add_table(
        "pole",
        ["method", "e_r", "gamma", "residual", "delta_gamma"],
        [["resolved", pole.e_r, pole.gamma, pole.residual, delta],
         ["perturbative", pole.estimate.real, fgr, "", delta]])
    emitter.record["results"]["pole"] = emitter.num(asdict(pole))


def cmd_survival(cfg: RunConfig, emitter: _Emitter) -> None:
    model = cfg.model()
    grid = cfg.grid("time", required=True)
    try:
        pole = friedrichs.find_pole(model, cfg.get("root.initial_guess"))
    except NumericalFailure as exc:
        pole = None
        emitter.warn(f"{exc}; p_gamow is left blank")
    else:
        emitter.record["results"]["pole"] = emitter.num(asdict(pole))

    try:
        table = decay.density_table(model)
    except NumericalFailure as exc:
        raise type(exc)(f"density table build failed: {exc}") from exc
    series = decay.survival_probability(model, grid)
    emitter.record["results"]["density_table"] = emitter.num({
        "knots": int(table.knots.size), "norm": table.norm,
        "norm_direct": table.norm_direct,
        "max_refine_dev": table.max_refine_dev})
    p_gamow = ([""] * grid.size if pole is None else
               np.abs(decay.gamow_approximation(pole, series.times)) ** 2)
    emitter.add_table(
        "survival", ["t", "re_a", "im_a", "p", "p_gamow"],
        zip(series.times, series.amplitudes.real, series.amplitudes.imag,
            series.probabilities, p_gamow))

    if pole is None:
        emitter.warn("no resonance pole to compare with; regimes not "
                     "classified")
    elif pole.gamma <= 0:
        emitter.warn("stable pole: no decay regimes to classify")
    else:
        try:
            report = decay.classify_regimes(series, pole)
        except decay.InsufficientSpan as exc:
            emitter.warn(f"{exc}; regimes not classified")
        else:
            emitter.record["results"]["regimes"] = emitter.num(asdict(report))


def cmd_entropy(cfg: RunConfig, emitter: _Emitter) -> None:
    point = cfg.thermo_point()
    betas = cfg.grid("beta", positive=True)
    betas = np.atleast_1d(point.beta if betas is None else betas)
    point = replace(point, beta=betas)
    pole = cfg.pole()
    closed = thermo.complex_entropy(pole, point)
    via_log = thermo.entropy_via_log_identity(pole, point)
    emitter.add_table("entropy", ["beta", "re_s", "im_s", "identity_dev"],
                      zip(betas, closed.real_part, closed.imag_part,
                          np.abs(closed.value - via_log.value)))
    emitter.record["results"]["pole"] = emitter.num(asdict(pole))
    emitter.record["results"]["thermo"] = emitter.num(
        {"k": point.k, "betas": list(betas)})


_MODES = {"in": evolution.Mode.IN_CREATION,
          "out": evolution.Mode.OUT_ANNIHILATION}
# evolve.branch -> (grid name, first column, evolution law)
_BRANCHES = {"time": ("time", "t", evolution.time_evolve),
             "thermal": ("tau", "tau", evolution.thermal_evolve)}


def cmd_evolve(cfg: RunConfig, emitter: _Emitter) -> None:
    mode = _MODES[cfg.get("evolve.mode", default="in")]
    grid_name, column, evolve = _BRANCHES[cfg.get("evolve.branch",
                                                  default="time")]
    value = cfg.get("evolve.value", default=1.0 + 0.0j)
    start = evolution.LadderCoefficient(mode=mode, value=value)
    grid = cfg.grid(grid_name, required=True)
    temps = cfg.grid("temperature", positive=True)
    k = None if temps is None else cfg.thermo_point().k
    pole = cfg.pole()

    c = evolve(start, pole, grid)
    emitter.add_table("trajectory",
                      [column, "re_value", "im_value", "modulus"],
                      zip(grid, c.value.real, c.value.imag, np.abs(c.value)))
    if temps is not None:
        table = evolution.temperature_monotonicity(pole, temps, k=k)
        emitter.add_table(
            "temperature",
            ["temperature", "in_factor", "out_factor"],
            zip(table.temperatures, table.in_factors, table.out_factors))
        emitter.record["results"]["monotonicity"] = {
            "in_strictly_decreasing": table.in_strictly_decreasing,
            "out_strictly_increasing": table.out_strictly_increasing,
        }
    emitter.record["results"]["pole"] = emitter.num(asdict(pole))


def _failure(exc: Exception) -> str:
    """The text of an error row or record: the type name, then the message."""
    return f"{type(exc).__name__}: {exc}"


def _scan_lambda(cfg: RunConfig, values: np.ndarray) -> list:
    """One pole search per lambda on a model built once, each reporting
    its own estimate; a failed search is an error row."""
    model = RunConfig(raw={**cfg.raw, "model.lambda": "0"}).model()
    start = cfg.get("root.initial_guess")

    def row(lam: float) -> list:
        try:
            row_model = replace(model, lam=lam)
        except ValueError as exc:  # the model's finite-square check only
            return [lam, "", "", "", "", _failure(exc)]
        try:
            pole = friedrichs.find_pole(row_model, start)
        except NumericalFailure as exc:
            return [lam, "", "", "", "", _failure(exc)]
        ratio = pole.gamma / lam**2 if lam**2 != 0 else ""
        return [lam, pole.e_r, pole.gamma, ratio, -2 * pole.estimate.imag, ""]

    return list(zip(*(row(float(v)) for v in values)))


def _scan_entropy(values: np.ndarray, entropy) -> list:
    """Columns of ``entropy(values)``, one array call.  Values that an
    elementwise check rejects become error rows and the call is repeated
    on the rest, once per failing check."""
    error = np.full(values.shape, "", dtype=object)
    while True:
        keep = error == ""
        try:
            s = entropy(values[keep])
            break
        except InvalidElements as exc:
            bad = np.broadcast_to(exc.mask, (np.count_nonzero(keep),))
            if not bad.any():
                raise
            error[np.flatnonzero(keep)[bad]] = _failure(exc)
    re_s, im_s = np.full((2, values.size), "", dtype=object)
    re_s[keep], im_s[keep] = s.real_part, s.imag_part
    return [values, re_s, im_s, error]


_SCAN_COLUMNS = {
    "lambda": ["lambda", "e_r", "gamma", "gamma_over_lambda2", "gamma_fgr",
               "error"],
    "gamma": ["gamma", "re_s", "im_s", "error"],
    "beta": ["beta", "re_s", "im_s", "error"],
}


def cmd_scan(cfg: RunConfig, emitter: _Emitter) -> None:
    """Sweep one axis.  The fixed sections are read once, before the sweep,
    so a configuration error stops the run instead of filling rows; a
    sweep whose every point failed is a numerical failure."""
    axis = cfg.get("scan.axis", required=True)
    values = cfg.scan_values()
    if axis == "lambda":
        columns = _scan_lambda(cfg, values)
    elif axis == "gamma":
        e_r = cfg.get("pole.e_r", required=True)
        if e_r <= 0:
            raise ConfigError(f"pole.e_r must be positive, got {e_r!r}")
        point = cfg.thermo_point()
        columns = _scan_entropy(values, lambda g: thermo.complex_entropy(
            friedrichs.ResonancePole(e_r=e_r, gamma=g), point))
    else:
        point = cfg.thermo_point()
        pole = cfg.pole()
        columns = _scan_entropy(values, lambda b: thermo.complex_entropy(
            pole, replace(point, beta=b)))
        emitter.record["results"]["pole"] = emitter.num(asdict(pole))
    emitter.add_table("scan", _SCAN_COLUMNS[axis], zip(*columns))
    failures = int(np.count_nonzero(np.asarray(columns[-1]) != ""))
    emitter.record["results"]["points"] = values.size
    emitter.record["results"]["failed_points"] = failures
    if failures == values.size:
        raise NumericalFailure(f"all {failures} scan points failed")
    if failures:
        emitter.warn(f"{failures} of {values.size} scan points failed")


_COMMANDS = {
    "pole": cmd_pole,
    "survival": cmd_survival,
    "entropy": cmd_entropy,
    "evolve": cmd_evolve,
    "scan": cmd_scan,
}


_EPILOG = """commands:
  pole      locate the resonance pole and compare the perturbative estimate
  survival  survival amplitude/probability series and decay regimes
  entropy   complex entropy rows over beta
  evolve    ladder-coefficient trajectories and temperature table
  scan      sweep lambda, gamma or beta"""


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamow-thermo",
        description="Resonance poles, survival dynamics and complex entropy "
                    "of quantum unstable states.",
        epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="flat key=value "
                        "config file or a JSON run record")
    parser.add_argument("--out", default=None, help="output path (default "
                        "<command>.<format>)")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the numerical-failure code
        return 1 if exc.code else 0
    status = 0
    try:
        cfg = load_config(args.config)
        emitter = _Emitter(cfg, args)
        _COMMANDS[args.command](cfg, emitter)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        emitter.record["results"]["error"] = _failure(exc)
        print(f"numerical failure: {exc}", file=sys.stderr)
        status = 2
    try:
        emitter.flush()
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    return status


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
