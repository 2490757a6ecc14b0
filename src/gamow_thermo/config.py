"""Run configuration: flat dotted-key text files.

One ``section.key = value`` pair per line, ``#`` comments, no nesting.
A JSON run record produced by the CLI can be fed back as a config: its
embedded ``config`` mapping is exactly the original key set, with a table
path made absolute, which is what makes reruns bit-for-bit reproducible
from any directory.  Every value is read by its key's type, and checked
against its allowed values where a key has a fixed set, when the config
is constructed, so a malformed value stops a run before any work, even
when the command never uses that key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .friedrichs import (
    FlatCutoff,
    FriedrichsModel,
    RationalFormFactor,
    ResonancePole,
    TabulatedFormFactor,
    find_pole,
)
from .thermo import ThermoPoint

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Invalid or missing configuration; maps to CLI exit code 1."""


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


def _complex(text: str) -> complex:
    value = complex(text.replace(" ", ""))
    if not np.isfinite(value):
        raise ValueError(text)
    return value


def _numbers(text: str) -> np.ndarray:
    parts = [p for p in (s.strip() for s in text.split(",")) if p]
    if not parts:
        raise ValueError(text)
    return np.array([float(p) for p in parts])


# how the text of a value is read: (what the error message asks for, reader)
_FINITE = ("a finite number", _finite)
_INTEGER = ("an integer", int)
_COMPLEX = ("a complex literal like 1+0.5j with finite parts",
            _complex)
_TEXT = ("text", str)


def _one_of(*allowed: str):
    """Text that must be one of ``allowed``."""
    def read(text: str) -> str:
        if text not in allowed:
            raise ValueError(text)
        return text

    return (f"one of {sorted(allowed)}", read)


_RANGE = {"start": _FINITE, "stop": _FINITE, "points": _INTEGER,
          "spacing": _one_of("linear", "log")}

# the parameter key of each form factor kind
_FORM_FACTOR_KEYS = {"flat_cutoff": "model.cutoff", "rational": "model.scale",
                     "tabulated": "model.table"}

# every accepted key and how its value is read
_KEYS = {
    "model.omega0": _FINITE, "model.lambda": _FINITE,
    "model.form_factor": _one_of(*_FORM_FACTOR_KEYS),
    "model.cutoff": _FINITE, "model.scale": _FINITE, "model.table": _TEXT,
    "pole.e_r": _FINITE, "pole.gamma": _FINITE,
    "thermo.beta": _FINITE, "thermo.k": _FINITE,
    **{f"grid.{name}.{end}": reader
       for name in ("time", "tau", "beta", "temperature")
       for end, reader in _RANGE.items()},
    "evolve.mode": _one_of("in", "out"),
    "evolve.branch": _one_of("time", "thermal"), "evolve.value": _COMPLEX,
    "scan.axis": _one_of("lambda", "gamma", "beta"),
    "scan.values": ("comma-separated numbers", _numbers),
    **{f"scan.{end}": reader for end, reader in _RANGE.items()},
    "root.initial_guess": _COMPLEX,
    "output.path": _TEXT, "output.format": _one_of("csv", "json"),
    "output.precision": _INTEGER,
}


def load_config(path) -> "RunConfig":
    """Read a flat key-value config, or the config echo of a run record."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON run record: {exc}") from exc
        raw = record.get("config")
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: JSON input lacks a 'config' mapping")
        entries = {str(k): str(v) for k, v in raw.items()}
    else:
        entries = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in body.split("=", 1))
            if key in entries:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            entries[key] = value
    try:
        return RunConfig(raw=entries, base_dir=path.parent)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass
class RunConfig:
    """Raw key-value pairs, each read by its key's type on construction,
    plus the builders that turn them into model objects."""

    raw: dict[str, str] = field(default_factory=dict)
    base_dir: Path = field(default_factory=Path)
    values: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = {}
        for key, text in self.raw.items():
            if key not in _KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            what, read = _KEYS[key]
            try:
                self.values[key] = read(text)
            except ValueError:
                raise ConfigError(
                    f"{key} must be {what}, got {text!r}") from None
        # a table path is kept absolute, in the echoed raw pairs too, so
        # that a run record opens the same file from any directory
        if "model.table" in self.values:
            table = str((self.base_dir / self.values["model.table"]).resolve())
            self.values["model.table"] = table
            self.raw = {**self.raw, "model.table": table}

    def get(self, key: str, default=None, required: bool = False):
        """The value of ``key``, or ``default`` when it is not set."""
        if key not in self.values:
            if required:
                raise ConfigError(f"missing required key {key!r}")
            return default
        return self.values[key]

    # -- composite builders ----------------------------------------------
    def model(self) -> FriedrichsModel:
        omega0 = self.get("model.omega0", required=True)
        lam = self.get("model.lambda", required=True)
        kind = self.get("model.form_factor", required=True)
        param = self.get(_FORM_FACTOR_KEYS[kind], required=True)
        try:
            if kind == "flat_cutoff":
                ff = FlatCutoff(cutoff=param)
            elif kind == "rational":
                ff = RationalFormFactor(scale=param)
            else:
                ff = TabulatedFormFactor.from_file(param)
            return FriedrichsModel(omega0=omega0, lam=lam, form_factor=ff)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"invalid model section: {exc}") from exc

    def pole(self) -> ResonancePole:
        """Direct pole.e_r/pole.gamma when given, else resolved from the model."""
        if "pole.e_r" in self.raw or "pole.gamma" in self.raw:
            e_r = self.get("pole.e_r", required=True)
            gamma = self.get("pole.gamma", default=0.0)
            try:
                return ResonancePole(e_r=e_r, gamma=gamma)
            except ValueError as exc:
                raise ConfigError(f"invalid pole section: {exc}") from exc
        if not any(k.startswith("model.") for k in self.raw):
            raise ConfigError("need either a pole.* or a model.* section")
        return find_pole(self.model(), self.get("root.initial_guess"))

    def thermo_point(self) -> ThermoPoint:
        """The one reader of ``thermo.beta`` and ``thermo.k``."""
        beta = self.get("thermo.beta", default=1.0)
        k = self.get("thermo.k", default=1.0)
        try:
            return ThermoPoint(beta=beta, k=k)
        except ValueError as exc:
            raise ConfigError(f"invalid thermo section: {exc}") from exc

    def _spaced(self, prefix: str, floor: float | None = None) -> np.ndarray:
        """Finite points from the start/stop/points/spacing keys under
        ``prefix``, log-spaced only between nonzero ends of one sign; with a
        ``floor``, points that rise strictly from at least ``floor``."""
        start = self.get(f"{prefix}.start", required=True)
        stop = self.get(f"{prefix}.stop", required=True)
        points = self.get(f"{prefix}.points", required=True)
        if points < 2:
            raise ConfigError(f"{prefix}.points must be >= 2, got {points}")
        spacing = self.get(f"{prefix}.spacing", default="linear")
        if floor is not None:
            if stop <= start:
                raise ConfigError(f"{prefix}: stop must exceed start")
            if start < floor:
                raise ConfigError(f"{prefix}.start must be "
                                  f"{'positive' if floor else 'nonnegative'}")
        if spacing == "log" and not (start > 0 < stop or start < 0 > stop):
            raise ConfigError(f"{prefix}: log spacing needs a nonzero start "
                              "and stop of one sign")
        space = np.geomspace if spacing == "log" else np.linspace
        # a linear range wider than the float range has no finite step
        with np.errstate(over="ignore", invalid="ignore"):
            grid = space(start, stop, points)
        if not np.isfinite(grid).all():
            raise ConfigError(f"{prefix}: {points} points between start and "
                              "stop are not all finite floats")
        if floor is not None and not np.all(np.diff(grid) > 0):
            raise ConfigError(f"{prefix}: {points} points between start and "
                              "stop are not distinct floats")
        return grid

    def grid(self, name: str, required: bool = False,
             positive: bool = False) -> np.ndarray | None:
        prefix = f"grid.{name}"
        if f"{prefix}.start" not in self.raw:
            if required:
                raise ConfigError(f"missing {prefix}.* grid")
            return None
        return self._spaced(prefix, np.finfo(float).tiny if positive else 0.0)

    def scan_values(self) -> np.ndarray:
        if "scan.values" in self.raw:
            return self.get("scan.values")
        if "scan.start" in self.raw:
            return self._spaced("scan")
        raise ConfigError("scan needs scan.values or scan.start/stop/points")

    def precision(self) -> int:
        prec = self.get("output.precision", default=12)
        if not 6 <= prec <= 17:
            raise ConfigError(f"output.precision must be in [6, 17], got {prec}")
        return prec
