"""Thermal and time evolution of the resonance ladder coefficients.

The creation/annihilation operators attached to a decaying state evolve
diagonally: their scalar coefficients pick up exp(+tau z_R) (creation) or
exp(-tau z_R) (annihilation).  Real tau is the thermal picture with
tau = beta; the substitution tau = -i t (Wick rotation) turns the same law
into time evolution, where the creation coefficient decays like
exp(-Gamma t / 2) and the annihilation coefficient grows by the inverse
factor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .friedrichs import ResonancePole
from .numerics import NumericalFailure, _require, _unbox, ode_evolve

__all__ = [
    "EvolutionOverflow",
    "Mode",
    "LadderCoefficient",
    "MonotonicityTable",
    "thermal_evolve",
    "time_evolve",
    "temperature_monotonicity",
    "verify_ode_solutions",
]

# |Re(tau * z_R)| beyond which exp over- or underflows float64; reported,
# never saturated
_EXP_GUARD = 700.0


class EvolutionOverflow(NumericalFailure, OverflowError):
    """An evolution factor, phase or product past the float range."""


class Mode(enum.Enum):
    IN_CREATION = "in_creation"
    OUT_ANNIHILATION = "out_annihilation"


@dataclass(frozen=True)
class LadderCoefficient:
    """Scalar coefficient of a ladder operator at evolution parameter tau;
    ``value`` and ``tau`` are arrays along a trajectory."""

    mode: Mode
    value: complex | np.ndarray = 1.0 + 0.0j
    tau: complex | np.ndarray = 0.0 + 0.0j

    def __post_init__(self):
        value = np.asarray(self.value, dtype=complex)
        _require(np.isfinite(value), "coefficient value must be finite")
        object.__setattr__(self, "value", _unbox(value))
        object.__setattr__(self, "tau",
                           _unbox(np.asarray(self.tau, dtype=complex)))


def _rate(mode: Mode, pole: ResonancePole) -> complex:
    return pole.z if mode is Mode.IN_CREATION else -pole.z


def _evolve(c0: LadderCoefficient, pole: ResonancePole,
            tau) -> LadderCoefficient:
    """The one code path of both branches, elementwise over an array of
    tau: the coefficient times exp(+-tau z_R).  A factor past the guard,
    a phase tau z_R that overflows, or a product that does, raises
    :class:`EvolutionOverflow`."""
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = tau * _rate(c0.mode, pole)
        value = c0.value * np.exp(exponent)
    real = np.ravel(np.real(exponent))
    worst = real[np.argmax(np.abs(real))] if real.size else 0.0
    if not abs(worst) <= _EXP_GUARD:
        raise EvolutionOverflow(
            f"evolution factor exp({worst:.1f}) "
            f"{'underflows' if worst < 0 else 'overflows'} float64; "
            "shorten the evolution span")
    if not np.isfinite(value).all():
        raise EvolutionOverflow("evolution phase or coefficient overflows "
                                "float64; shorten the evolution span")
    return LadderCoefficient(mode=c0.mode, value=value, tau=c0.tau + tau)


def thermal_evolve(c0: LadderCoefficient, pole: ResonancePole,
                   tau) -> LadderCoefficient:
    """Evolve by real tau = beta (a scalar or an array): creation gains
    exp(+tau z_R), annihilation the reciprocal factor."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("thermal branch needs tau >= 0")
    return _evolve(c0, pole, tau)


def time_evolve(c0: LadderCoefficient, pole: ResonancePole,
                t) -> LadderCoefficient:
    """Evolve in real time (a scalar or an array) through the Wick
    substitution tau = -i t.

    Same code path as :func:`thermal_evolve`; the creation coefficient
    decays as exp(-Gamma t / 2) while the annihilation one grows as
    exp(+Gamma t / 2), guarded against float overflow.
    """
    return _evolve(c0, pole, -1j * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class MonotonicityTable:
    """(T, |creation factor|, |annihilation factor|) rows over a T grid."""

    temperatures: np.ndarray
    in_factors: np.ndarray
    out_factors: np.ndarray

    @property
    def in_strictly_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.in_factors) < 0))

    @property
    def out_strictly_increasing(self) -> bool:
        return bool(np.all(np.diff(self.out_factors) > 0))


def temperature_monotonicity(pole: ResonancePole, t_grid,
                             k: float = 1.0) -> MonotonicityTable:
    """Thermal factors across temperatures: hotter means a smaller creation
    coefficient and a larger annihilation coefficient.

    With tau = beta = 1/(kT), the moduli of the :func:`thermal_evolve`
    factors are exp(+beta E_R) and exp(-beta E_R); the first column
    strictly decreases with T, the second strictly increases, and their
    product stays 1.
    """
    temps = np.asarray(t_grid, dtype=float)
    if temps.ndim != 1 or temps.size < 1:
        raise ValueError("temperature grid must be a non-empty 1-d sequence")
    if np.any(temps <= 0) or np.any(np.diff(temps) <= 0):
        raise ValueError("temperatures must be positive and increasing")
    # k T beyond the float range gives beta = 0, below it beta = inf,
    # which the evolution reports as an overflow
    with np.errstate(over="ignore", divide="ignore"):
        beta = 1.0 / (k * temps)
    in_factors, out_factors = (
        np.abs(thermal_evolve(LadderCoefficient(mode), pole, beta).value)
        for mode in Mode)
    return MonotonicityTable(temperatures=temps, in_factors=in_factors,
                             out_factors=out_factors)


def verify_ode_solutions(pole: ResonancePole, tau_grid) -> float:
    """Integrate both ladder rate equations and compare with closed forms.

    Runs d/dtau A = +z_R A and d/dtau A = -z_R A through the RK4 stepper
    and returns the largest absolute deviation from the closed-form
    factors exp(+-tau z_R) of :func:`_evolve` over the grid; the
    refinement loop keeps this at the 1e-9 scale or better.
    """
    tau = np.asarray(tau_grid, dtype=float)
    worst = 0.0
    for mode in Mode:
        numeric = ode_evolve(_rate(mode, pole), 1.0 + 0.0j, tau)
        exact = _evolve(LadderCoefficient(mode=mode), pole, tau).value
        worst = max(worst, float(np.max(np.abs(numeric - exact))))
    return worst
