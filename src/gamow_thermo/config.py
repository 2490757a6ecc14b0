"""Run configuration: flat dotted-key text files.

One ``section.key = value`` pair per line, ``#`` comments, no nesting.
A JSON run record produced by the CLI can be fed back as a config: its
embedded ``config`` mapping is exactly the original key set, which is what
makes reruns bit-for-bit reproducible.  Every value is read by its key's
type when the config is constructed, so a malformed value stops a run
before any work, even when the command never uses that key.
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
from .numerics import QuadratureSpec, RootSearchConfig
from .thermo import ThermoPoint

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Invalid or missing configuration; maps to CLI exit code 1."""


def _boolean(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(text)


def _numbers(text: str) -> np.ndarray:
    parts = [p for p in (s.strip() for s in text.split(",")) if p]
    if not parts:
        raise ValueError(text)
    return np.array([float(p) for p in parts])


# how the text of a value is read: (what the error message asks for, reader)
_NUMBER = ("a number", float)
_INTEGER = ("an integer", int)
_COMPLEX = ("a complex literal like 1+0.5j",
            lambda text: complex(text.replace(" ", "")))
_BOOLEAN = ("a boolean", _boolean)
_TEXT = ("text", str)
_RANGE = {"start": _NUMBER, "stop": _NUMBER, "points": _INTEGER,
          "spacing": _TEXT}

# every accepted key and how its value is read
_KEYS = {
    "model.omega0": _NUMBER, "model.lambda": _NUMBER,
    "model.form_factor": _TEXT, "model.cutoff": _NUMBER,
    "model.scale": _NUMBER, "model.table": _TEXT,
    "pole.e_r": _NUMBER, "pole.gamma": _NUMBER,
    "thermo.beta": _NUMBER, "thermo.k": _NUMBER,
    **{f"grid.{name}.{end}": reader
       for name in ("time", "tau", "beta", "temperature")
       for end, reader in _RANGE.items()},
    "evolve.mode": _TEXT, "evolve.branch": _TEXT, "evolve.value": _COMPLEX,
    "scan.axis": _TEXT, "scan.values": ("comma-separated numbers", _numbers),
    **{f"scan.{end}": reader for end, reader in _RANGE.items()},
    "survival.regimes": _BOOLEAN, "survival.noise_floor": _NUMBER,
    "numerics.abs_tol": _NUMBER, "numerics.rel_tol": _NUMBER,
    "numerics.max_subdivisions": _INTEGER,
    "root.initial_guess": _COMPLEX, "root.step_tol": _NUMBER,
    "root.residual_tol": _NUMBER, "root.max_iter": _INTEGER,
    "output.path": _TEXT, "output.format": _TEXT, "output.precision": _INTEGER,
}

# the parameter key of each form factor kind
_FORM_FACTOR_KEYS = {"flat_cutoff": "model.cutoff", "rational": "model.scale",
                     "tabulated": "model.table"}


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

    def get(self, key: str, default=None, required: bool = False,
            choices=None):
        """The value of ``key``, or ``default`` when it is not set."""
        if key not in self.values:
            if required:
                raise ConfigError(f"missing required key {key!r}")
            return default
        value = self.values[key]
        if choices is not None and value not in choices:
            raise ConfigError(
                f"{key} must be one of {sorted(choices)}, got {value!r}")
        return value

    # -- composite builders ----------------------------------------------
    def model(self) -> FriedrichsModel:
        omega0 = self.get("model.omega0", required=True)
        lam = self.get("model.lambda", required=True)
        kind = self.get("model.form_factor", required=True,
                        choices=_FORM_FACTOR_KEYS)
        param = self.get(_FORM_FACTOR_KEYS[kind], required=True)
        try:
            if kind == "flat_cutoff":
                ff = FlatCutoff(cutoff=param)
            elif kind == "rational":
                ff = RationalFormFactor(scale=param)
            else:
                ff = TabulatedFormFactor.from_file(self.base_dir / param)
            return FriedrichsModel(omega0=omega0, lam=lam, form_factor=ff)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"invalid model section: {exc}") from exc

    def pole(self, spec: QuadratureSpec | None = None) -> ResonancePole:
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
        return find_pole(self.model(), self.root_config(), spec)

    def quadrature_spec(self) -> QuadratureSpec:
        base = QuadratureSpec()
        try:
            return QuadratureSpec(
                abs_tol=self.get("numerics.abs_tol", base.abs_tol),
                rel_tol=self.get("numerics.rel_tol", base.rel_tol),
                max_subdivisions=self.get("numerics.max_subdivisions",
                                          base.max_subdivisions))
        except ValueError as exc:
            raise ConfigError(f"invalid numerics section: {exc}") from exc

    def root_config(self) -> RootSearchConfig:
        base = RootSearchConfig()
        try:
            return RootSearchConfig(
                initial_guess=self.get("root.initial_guess"),
                step_tol=self.get("root.step_tol", base.step_tol),
                residual_tol=self.get("root.residual_tol", base.residual_tol),
                max_iter=self.get("root.max_iter", base.max_iter))
        except ValueError as exc:
            raise ConfigError(f"invalid root section: {exc}") from exc

    def thermo_point(self) -> ThermoPoint:
        """The one reader of ``thermo.beta`` and ``thermo.k``."""
        beta = self.get("thermo.beta", default=1.0)
        k = self.get("thermo.k", default=1.0)
        try:
            return ThermoPoint(beta=beta, k=k)
        except ValueError as exc:
            raise ConfigError(f"invalid thermo section: {exc}") from exc

    def _spaced(self, prefix: str, floor: float | None = None) -> np.ndarray:
        """Points from the start/stop/points/spacing keys under ``prefix``;
        with a ``floor``, a range that rises from at least ``floor``."""
        start = self.get(f"{prefix}.start", required=True)
        stop = self.get(f"{prefix}.stop", required=True)
        points = self.get(f"{prefix}.points", required=True)
        if points < 2:
            raise ConfigError(f"{prefix}.points must be >= 2, got {points}")
        spacing = self.get(f"{prefix}.spacing", default="linear",
                           choices=("linear", "log"))
        if floor is not None:
            if stop <= start:
                raise ConfigError(f"{prefix}: stop must exceed start")
            if start < floor:
                raise ConfigError(f"{prefix}.start must be "
                                  f"{'positive' if floor else 'nonnegative'}")
            if spacing == "log" and start <= 0:
                raise ConfigError(f"{prefix}: log spacing needs start > 0")
        space = np.geomspace if spacing == "log" else np.linspace
        return space(start, stop, points)

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
