"""Entropy of an unstable state in the canonical picture.

A resonance carries a complex energy, and the canonical entropy built on
coherent states of its ladder operators inherits a complex value: the real
part plays the role of the system entropy, the imaginary part tracks what
the decaying state exchanges with the continuum acting as a bath.  The
closed form, an independent complex-logarithm identity, and the defining
beta-derivative functional are all implemented and cross-checked.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .friedrichs import ResonancePole
from .numerics import (InvalidElements, NumericalFailure, _complex, _require,
                       _unbox, derivative)

__all__ = [
    "NonFiniteEntropy",
    "ThermoPoint",
    "ComplexEntropy",
    "complex_entropy",
    "entropy_via_log_identity",
    "canonical_entropy",
]


class NonFiniteEntropy(NumericalFailure, InvalidElements):
    """An entropy part is not a finite float, for an infinite input or for
    a k (1 - ln(beta |z_R|)) past the float range; ``mask`` marks where."""


@dataclass(frozen=True)
class ThermoPoint:
    """Inverse temperature (a scalar or an array) and entropy unit
    (Boltzmann constant)."""

    beta: float | np.ndarray
    k: float = 1.0

    def __post_init__(self):
        _require(np.greater(self.beta, 0), "beta must be positive")
        _require(np.greater(self.k, 0), "k must be positive")

    @property
    def temperature(self) -> float | np.ndarray:
        return 1.0 / (self.k * self.beta)


@dataclass(frozen=True)
class ComplexEntropy:
    """Complex entropy values: Python floats for a scalar point and pole,
    arrays of their broadcast shape otherwise.  ``k`` is the entropy unit
    that bounds the imaginary part to [-k*pi/2, 0]; the lower end is
    reached in floating point once Gamma/(2 E_R) exceeds about 1e16."""

    real_part: float | np.ndarray
    imag_part: float | np.ndarray
    k: InitVar[float] = 1.0

    def __post_init__(self, k):
        real, imag = np.broadcast_arrays(np.asarray(self.real_part, float),
                                         np.asarray(self.imag_part, float))
        finite = np.isfinite(real) & np.isfinite(imag)
        if not finite.all():
            raise NonFiniteEntropy("entropy parts must be finite", ~finite)
        _require((-0.5 * k * np.pi <= imag) & (imag <= 1e-15 * k),
                 "imaginary entropy outside [-k*pi/2, 0]")
        object.__setattr__(self, "real_part", _unbox(real.copy()))
        object.__setattr__(self, "imag_part", _unbox(imag.copy()))

    @property
    def value(self) -> complex | np.ndarray:
        return _complex(self.real_part, self.imag_part)


def _log_product(beta, w):
    """Log(beta * w), split as ln beta + Log w where the product is not a
    normal double (subnormal, zero or overflowing) and would lose digits."""
    with np.errstate(divide="ignore", over="ignore"):
        product = beta * w
        size = np.abs(product)
        normal = (size >= np.finfo(float).tiny) & (size < np.inf)
        return np.where(normal, np.log(product), np.log(beta) + np.log(w))


def complex_entropy(pole: ResonancePole, point: ThermoPoint) -> ComplexEntropy:
    """Closed-form entropy of a resonance at inverse temperature beta.

    S = k * [1 - ln(beta * |z_R|) - i*arctan(Gamma / (2 E_R))] with the
    principal arctangent, elementwise over the broadcast pole and beta
    arrays.  The stable limit Gamma -> 0 collapses onto the real
    oscillator entropy k * (1 - ln(beta * E_R)).
    """
    k = point.k
    # a part past the float range is reported by ComplexEntropy
    with np.errstate(over="ignore"):
        magnitude = np.hypot(pole.e_r, 0.5 * pole.gamma)
        real = k * (1.0 - _log_product(point.beta, magnitude))
        imag = -k * np.arctan2(0.5 * pole.gamma, pole.e_r)
    return ComplexEntropy(real_part=real, imag_part=imag, k=k)


def entropy_via_log_identity(pole: ResonancePole,
                             point: ThermoPoint) -> ComplexEntropy:
    """Same entropy through S = k * (1 - Log(beta * conj(z_R))).

    conj(z_R) = E_R + i*Gamma/2 lies in the first quadrant, so the
    principal complex logarithm splits into ln(beta*|z_R|) and the
    arctangent above; the two routes agree to machine precision and are
    tested against each other as an algebraic oracle.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = point.k * (1.0 - _log_product(point.beta, np.conjugate(pole.z)))
    return ComplexEntropy(real_part=s.real, imag_part=s.imag, k=point.k)


def canonical_entropy(log_z, point: ThermoPoint,
                      rel_step: float = 1e-5) -> complex:
    """Canonical functional S = k (1 - beta d/dbeta) log Z.

    ``log_z`` is any callable of beta, real- or complex-valued, and
    ``point.beta`` a scalar; the derivative is a Richardson-extrapolated
    central difference with relative step ``rel_step``.  Feeding
    log Z = -Log(beta * conj(z_R)) reproduces :func:`complex_entropy` to
    finite-difference accuracy.
    """
    beta = point.beta
    value = complex(log_z(beta))
    dlog, _err = derivative(log_z, beta, rel_step * beta)
    return point.k * (value - beta * complex(dlog))
