"""Run configuration: flat dotted-key text files.

One ``section.key = value`` pair per line, ``#`` comments, no nesting.
A JSON run record produced by the CLI can be fed back as a config: its
embedded ``config`` mapping is exactly the original key set, which is what
makes reruns bit-for-bit reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .friedrichs import (
    FriedrichsModel,
    ResonancePole,
    TabulatedFormFactor,
    find_pole,
    form_factor,
)
from .numerics import QuadratureSpec, RootSearchConfig
from .thermo import ThermoPoint

__all__ = ["ConfigError", "RunConfig", "load_config"]

_KNOWN_KEYS = {
    "model.omega0", "model.lambda", "model.form_factor", "model.cutoff",
    "model.scale", "model.table",
    "pole.e_r", "pole.gamma",
    "thermo.beta", "thermo.k",
    "grid.time.start", "grid.time.stop", "grid.time.points",
    "grid.time.spacing",
    "grid.tau.start", "grid.tau.stop", "grid.tau.points", "grid.tau.spacing",
    "grid.beta.start", "grid.beta.stop", "grid.beta.points",
    "grid.beta.spacing",
    "grid.temperature.start", "grid.temperature.stop",
    "grid.temperature.points", "grid.temperature.spacing",
    "evolve.mode", "evolve.branch", "evolve.value",
    "scan.axis", "scan.values", "scan.start", "scan.stop", "scan.points",
    "scan.spacing",
    "survival.regimes", "survival.noise_floor",
    "numerics.abs_tol", "numerics.rel_tol", "numerics.max_subdivisions",
    "root.initial_guess", "root.step_tol", "root.residual_tol",
    "root.max_iter",
    "output.path", "output.format", "output.precision",
}


class ConfigError(ValueError):
    """Invalid or missing configuration; maps to CLI exit code 1."""


def load_config(path) -> "RunConfig":
    """Read a flat key-value config, or the config echo of a run record."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
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
    for key in entries:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
    return RunConfig(raw=entries, base_dir=path.parent)


@dataclass
class RunConfig:
    """Raw key-value pairs plus typed, validating accessors."""

    raw: dict[str, str] = field(default_factory=dict)
    base_dir: Path = field(default_factory=Path)

    # -- scalar accessors -------------------------------------------------
    def _get(self, key: str, default=None, required: bool = False):
        if key in self.raw:
            return self.raw[key]
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default

    def get_str(self, key, default=None, required=False, choices=None):
        value = self._get(key, default, required)
        if value is not None and choices is not None and value not in choices:
            raise ConfigError(
                f"{key} must be one of {sorted(choices)}, got {value!r}")
        return value

    def get_float(self, key, default=None, required=False, positive=False):
        value = self._get(key, default, required)
        if value is None:
            return None
        try:
            out = float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be a number, got {value!r}") from None
        if positive and out <= 0:
            raise ConfigError(f"{key} must be positive, got {out!r}")
        return out

    def get_int(self, key, default=None, required=False, minimum=None):
        value = self._get(key, default, required)
        if value is None:
            return None
        try:
            out = int(str(value))
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be an integer, got {value!r}") from None
        if minimum is not None and out < minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {out}")
        return out

    def get_complex(self, key, default=None, required=False):
        value = self._get(key, default, required)
        if value is None or isinstance(value, complex):
            return value
        try:
            return complex(str(value).replace(" ", ""))
        except ValueError:
            raise ConfigError(
                f"{key} must be a complex literal like 1+0.5j, got {value!r}"
            ) from None

    def get_bool(self, key, default=False):
        value = self._get(key, None)
        if value is None:
            return default
        lowered = str(value).strip().lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{key} must be a boolean, got {value!r}")

    # -- composite builders ----------------------------------------------
    def has_section(self, prefix: str) -> bool:
        return any(k.startswith(prefix + ".") for k in self.raw)

    def model(self) -> FriedrichsModel:
        omega0 = self.get_float("model.omega0", required=True)
        lam = self.get_float("model.lambda", required=True)
        kind = self.get_str("model.form_factor", required=True,
                            choices=set(("flat_cutoff", "rational",
                                         "tabulated")))
        try:
            if kind == "flat_cutoff":
                ff = form_factor(kind, cutoff=self.get_float(
                    "model.cutoff", required=True))
            elif kind == "rational":
                ff = form_factor(kind, scale=self.get_float(
                    "model.scale", required=True))
            else:
                table = self.get_str("model.table", required=True)
                ff = TabulatedFormFactor.from_file(self.base_dir / table)
            return FriedrichsModel(omega0=omega0, lam=lam, form_factor=ff)
        except (ValueError, OSError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"invalid model section: {exc}") from exc

    def pole(self, spec: QuadratureSpec | None = None) -> ResonancePole:
        """Direct pole.e_r/pole.gamma when given, else resolved from the model."""
        if "pole.e_r" in self.raw or "pole.gamma" in self.raw:
            e_r = self.get_float("pole.e_r", required=True)
            gamma = self.get_float("pole.gamma", default=0.0)
            try:
                return ResonancePole(e_r=e_r, gamma=gamma)
            except ValueError as exc:
                raise ConfigError(f"invalid pole section: {exc}") from exc
        if not self.has_section("model"):
            raise ConfigError("need either a pole.* or a model.* section")
        return find_pole(self.model(), self.root_config(), spec)

    def quadrature_spec(self) -> QuadratureSpec:
        base = QuadratureSpec()
        try:
            return QuadratureSpec(
                abs_tol=self.get_float("numerics.abs_tol", base.abs_tol),
                rel_tol=self.get_float("numerics.rel_tol", base.rel_tol),
                max_subdivisions=self.get_int("numerics.max_subdivisions",
                                              base.max_subdivisions))
        except ValueError as exc:
            raise ConfigError(f"invalid numerics section: {exc}") from exc

    def root_config(self) -> RootSearchConfig:
        base = RootSearchConfig()
        try:
            return RootSearchConfig(
                initial_guess=self.get_complex("root.initial_guess", None),
                step_tol=self.get_float("root.step_tol", base.step_tol),
                residual_tol=self.get_float("root.residual_tol",
                                            base.residual_tol),
                max_iter=self.get_int("root.max_iter", base.max_iter))
        except ValueError as exc:
            raise ConfigError(f"invalid root section: {exc}") from exc

    def thermo_point(self) -> ThermoPoint:
        """The one reader of ``thermo.beta`` and ``thermo.k``."""
        beta = self.get_float("thermo.beta", default=1.0)
        k = self.get_float("thermo.k", default=1.0)
        try:
            return ThermoPoint(beta=beta, k=k)
        except ValueError as exc:
            raise ConfigError(f"invalid thermo section: {exc}") from exc

    def grid(self, name: str, required: bool = False,
             positive: bool = False) -> np.ndarray | None:
        prefix = f"grid.{name}"
        if f"{prefix}.start" not in self.raw:
            if required:
                raise ConfigError(f"missing {prefix}.* grid")
            return None
        start = self.get_float(f"{prefix}.start", required=True)
        stop = self.get_float(f"{prefix}.stop", required=True)
        points = self.get_int(f"{prefix}.points", required=True, minimum=2)
        spacing = self.get_str(f"{prefix}.spacing", default="linear",
                               choices={"linear", "log"})
        if stop <= start:
            raise ConfigError(f"{prefix}: stop must exceed start")
        floor = 0.0 if not positive else np.finfo(float).tiny
        if start < floor:
            raise ConfigError(f"{prefix}.start must be "
                              f"{'positive' if positive else 'nonnegative'}")
        if spacing == "log":
            if start <= 0:
                raise ConfigError(f"{prefix}: log spacing needs start > 0")
            return np.geomspace(start, stop, points)
        return np.linspace(start, stop, points)

    def scan_values(self) -> np.ndarray:
        if "scan.values" in self.raw:
            text = self.raw["scan.values"].strip()
            parts = [p for p in (s.strip() for s in text.split(",")) if p]
            if not parts:
                raise ConfigError("scan.values is empty")
            try:
                return np.array([float(p) for p in parts])
            except ValueError:
                raise ConfigError(
                    f"scan.values must be comma-separated numbers, got "
                    f"{text!r}") from None
        if "scan.start" in self.raw:
            start = self.get_float("scan.start", required=True)
            stop = self.get_float("scan.stop", required=True)
            points = self.get_int("scan.points", required=True, minimum=2)
            spacing = self.get_str("scan.spacing", default="linear",
                                   choices={"linear", "log"})
            if spacing == "log":
                return np.geomspace(start, stop, points)
            return np.linspace(start, stop, points)
        raise ConfigError("scan needs scan.values or scan.start/stop/points")

    def precision(self) -> int:
        prec = self.get_int("output.precision", default=12)
        if not 6 <= prec <= 17:
            raise ConfigError(f"output.precision must be in [6, 17], got {prec}")
        return prec
