"""Friedrichs model: a bound state coupled to a continuum.

A discrete level ``omega0`` embedded in the half-line continuum acquires a
finite lifetime once the coupling ``lam`` is switched on.  This module
locates the resulting resonance pole on the second Riemann sheet of the
reduced resolvent, evaluates the continuum overlap density, and provides a
brute-force finite-matrix diagonalization that serves as an independent
oracle for everything else.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh

from .numerics import (
    QuadratureSpec,
    RootSearchConfig,
    _complex,
    _require,
    _rows,
    _unbox,
    complex_newton,
    principal_values,
)

__all__ = [
    "ContinuationUnavailable",
    "PoleInUpperHalfPlane",
    "FormFactor",
    "FlatCutoff",
    "RationalFormFactor",
    "TabulatedFormFactor",
    "form_factor",
    "FriedrichsModel",
    "ResonancePole",
    "DiscretizedSpectrum",
    "self_energy",
    "find_pole",
    "perturbative_pole",
    "spectral_density",
    "discretize",
]


class ContinuationUnavailable(ValueError):
    """The form factor has no analytic continuation off the real axis."""


class PoleInUpperHalfPlane(RuntimeError):
    """Root search converged to a non-resonant (upper half-plane) zero."""


class FormFactor:
    """Coupling profile |f(omega)|^2 between the level and the continuum.

    Subclasses provide ``f2`` on the positive half-line, the support
    interval where it is nonzero, and (when the profile is an explicit
    analytic expression) its continuation ``f2_complex`` to complex
    arguments.
    """

    def f2(self, omega):
        """|f|^2 at real frequencies: an array maps to an array of the
        same shape (a scalar to a float).  Every quadrature over the
        profile evaluates it on whole arrays of nodes."""
        raise NotImplementedError

    def f2_complex(self, z):
        """f^2 continued to complex arguments, elementwise over an array;
        raises :class:`ContinuationUnavailable` for a profile without an
        analytic expression."""
        raise ContinuationUnavailable(
            f"{type(self).__name__} cannot be continued off the real axis")

    @property
    def support(self) -> tuple[float, float]:
        """Interval outside of which f^2 vanishes (upper edge may be inf)."""
        raise NotImplementedError

    @property
    def scale_hint(self) -> float:
        """Characteristic energy used to size tail splits and grids."""
        raise NotImplementedError


@dataclass(frozen=True)
class FlatCutoff(FormFactor):
    """f^2 = 1 on [0, cutoff], zero above.

    The sharply cut profile makes the self-energy an elementary complex
    logarithm, so every sheet can be cross-checked in closed form.
    """

    cutoff: float

    def __post_init__(self):
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")

    def f2(self, omega):
        omega = np.asarray(omega, dtype=float)
        out = np.where((omega >= 0.0) & (omega <= self.cutoff), 1.0, 0.0)
        return out if out.ndim else float(out)

    def f2_complex(self, z):
        return 1.0 + 0.0j

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, self.cutoff)

    @property
    def scale_hint(self) -> float:
        return self.cutoff


@dataclass(frozen=True)
class RationalFormFactor(FormFactor):
    """f^2(omega) = omega / (pi * (omega^2 + scale^2)) on the half-line."""

    scale: float

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def f2(self, omega):
        omega = np.asarray(omega, dtype=float)
        out = np.where(omega >= 0.0,
                       omega / (np.pi * (omega**2 + self.scale**2)), 0.0)
        return out if out.ndim else float(out)

    def f2_complex(self, z):
        return z / (np.pi * (z * z + self.scale**2))

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, np.inf)

    @property
    def scale_hint(self) -> float:
        return self.scale


@dataclass(frozen=True, eq=False)
class TabulatedFormFactor(FormFactor):
    """f^2 sampled on a grid, cubic interpolation inside, zero outside.

    No analytic continuation exists for sampled data, so second-sheet
    quantities are unavailable with this profile.
    """

    grid: np.ndarray
    values: np.ndarray
    _spline: CubicSpline = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 4:
            raise ValueError("tabulated form factor needs >= 4 grid points")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("tabulated grid must be strictly increasing")
        if grid[0] < 0:
            raise ValueError("tabulated grid must not extend below 0")
        if values.shape != grid.shape:
            raise ValueError("grid and values must have matching shapes")
        if np.any(values < 0):
            raise ValueError("f^2 samples must be nonnegative")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_spline", CubicSpline(grid, values))

    @classmethod
    def from_file(cls, path) -> "TabulatedFormFactor":
        """Load a two-column text table: omega, f^2(omega)."""
        data = np.loadtxt(path, ndmin=2)
        if data.shape[1] < 2:
            raise ValueError(f"{path}: expected two columns (omega, f^2)")
        return cls(grid=data[:, 0], values=data[:, 1])

    def f2(self, omega):
        omega = np.asarray(omega, dtype=float)
        inside = (omega >= self.grid[0]) & (omega <= self.grid[-1])
        interp = self._spline(np.clip(omega, self.grid[0], self.grid[-1]))
        # the interpolant may undershoot between nonnegative samples
        out = np.where(inside, np.clip(interp, 0.0, None), 0.0)
        return out if out.ndim else float(out)

    @property
    def support(self) -> tuple[float, float]:
        return (float(self.grid[0]), float(self.grid[-1]))

    @property
    def scale_hint(self) -> float:
        return float(self.grid[-1])


_FORM_FACTORS = {
    "flat_cutoff": FlatCutoff,
    "rational": RationalFormFactor,
    "tabulated": TabulatedFormFactor,
}


def form_factor(kind: str, **params) -> FormFactor:
    """Build a form factor by name: flat_cutoff, rational or tabulated."""
    try:
        cls = _FORM_FACTORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown form factor {kind!r}; choose from {sorted(_FORM_FACTORS)}"
        ) from None
    return cls(**params)


@dataclass(frozen=True)
class FriedrichsModel:
    """Level energy, real coupling and coupling profile.

    Only lam**2 enters any observable, so the coupling sign is free.
    Models with value-hashable form factors compare by value, which lets
    per-model caches (the density table) be shared across instances.
    """

    omega0: float
    lam: float
    form_factor: FormFactor

    def __post_init__(self):
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if not np.isfinite(self.lam) or self.lam != np.real(self.lam):
            raise ValueError("coupling must be real and finite")


@dataclass(frozen=True)
class ResonancePole:
    """Resonance parameters: energy e_r and width gamma (gamma = 0 is stable).

    Either may be an array (a family of poles, e.g. a width sweep); the
    checks hold elementwise.
    """

    e_r: float | np.ndarray
    gamma: float | np.ndarray

    def __post_init__(self):
        _require(np.greater(self.e_r, 0), "resonance energy must be positive")
        _require(np.greater_equal(self.gamma, 0), "width must be nonnegative")

    @property
    def z(self) -> complex | np.ndarray:
        """Pole position E_R - i*Gamma/2 in the lower half-plane."""
        return _complex(self.e_r, np.multiply(-0.5, self.gamma))


def self_energy(model: FriedrichsModel, z, sheet: str = "I",
                spec: QuadratureSpec | None = None):
    """Reduced-resolvent denominator eta(z) on either Riemann sheet.

    Sheet I is eta(z) = z - omega0 - lam^2 * integral f^2/(z - w) dw,
    analytic off the cut.  Sheet II continues sheet I through the cut:
    crossing from above adds 2*pi*i*lam^2*f^2(z) in the lower half-plane,
    crossing from below subtracts it in the upper half-plane.  A real z
    strictly inside the support is resolved as the omega + i0 rim on both
    sheets, through the explicit split: real part from the principal
    value, imaginary part i*pi*lam^2*f^2(omega).  This sidesteps the
    catastrophic cancellation of approaching the cut numerically.

    Accepts a scalar (giving a Python complex) or an array of z.  The rim
    points of an array are one batched principal-value evaluation, all
    other points one batched quadrature with one row per point.  Sheet II
    needs the form factor's continuation ``f2_complex``.
    """
    spec = spec or QuadratureSpec()
    if sheet not in ("I", "II"):
        raise ValueError(f"sheet must be 'I' or 'II', got {sheet!r}")
    shape = np.shape(z)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    lam2 = model.lam**2
    if lam2 == 0.0:
        return _unbox((z - model.omega0).reshape(shape))

    ff = model.form_factor
    lo, hi = ff.support
    rim = (z.imag == 0.0) & (lo < z.real) & (z.real < hi)
    off = z[~rim]
    if sheet == "II":
        # continuation through the cut: from above into Im z < 0, from
        # below into Im z > 0
        jump = 2j * np.pi * lam2 * ff.f2_complex(off)
        jump = np.where(off.imag < 0, jump, -jump)
    eta = np.empty(z.shape, dtype=complex)
    w = z.real[rim]
    if w.size:
        pv = principal_values(ff.f2, lo, hi, w, spec, scale=ff.scale_hint)
        eta[rim] = (w - model.omega0 - lam2 * pv
                    + 1j * np.pi * lam2 * np.asarray(ff.f2(w)))
    if off.size:
        eta_off = off - model.omega0 - lam2 * _rows(
            lambda i, x: ff.f2(x) / (off[i] - x), lo, hi, off.size, spec)
        if sheet == "II":
            eta_off += jump
        eta[~rim] = eta_off
    return _unbox(eta.reshape(shape))


def perturbative_pole(model: FriedrichsModel,
                      spec: QuadratureSpec | None = None) -> ResonancePole:
    """Second-order pole estimate from eta(omega0 + i0): golden-rule width
    Gamma = 2 Im eta, principal-value shift e_r = omega0 - Re eta.

    Serves both as the default Newton seed and as an independent check on
    :func:`find_pole` (the two agree to relative O(lam^2)).
    """
    if not np.isfinite(model.form_factor.f2(model.omega0)):
        raise ValueError("f^2(omega0) must be finite")
    eta = self_energy(model, model.omega0, "I", spec)
    return ResonancePole(e_r=model.omega0 - eta.real, gamma=2.0 * eta.imag)


def find_pole(model: FriedrichsModel, cfg: RootSearchConfig | None = None,
              spec: QuadratureSpec | None = None) -> ResonancePole:
    """Locate the resonance pole: the second-sheet zero below the cut.

    Newton-iterates eta_II from the perturbative estimate (or the guess in
    ``cfg``).  A converged zero in the upper half-plane is reported as
    :class:`PoleInUpperHalfPlane` rather than silently conjugated.
    """
    cfg = cfg or RootSearchConfig()
    spec = spec or QuadratureSpec()
    if model.lam == 0.0:
        return ResonancePole(e_r=model.omega0, gamma=0.0)

    if cfg.initial_guess is None:
        seed = perturbative_pole(model, spec)
        guess = seed.z
        if guess.imag == 0.0:
            guess -= 1e-6j * max(1.0, abs(guess))
        cfg = RootSearchConfig(initial_guess=guess, step_tol=cfg.step_tol,
                               residual_tol=cfg.residual_tol,
                               max_iter=cfg.max_iter)

    root = complex_newton(lambda z: self_energy(model, z, "II", spec), cfg)
    scale = max(1.0, abs(root))
    if root.imag > 1e-10 * scale:
        raise PoleInUpperHalfPlane(
            f"converged to {root!r}: upper half-plane zeros are not "
            "decaying resonances")
    gamma = max(0.0, -2.0 * root.imag)
    return ResonancePole(e_r=root.real, gamma=gamma)


def spectral_density(model: FriedrichsModel, omega,
                     spec: QuadratureSpec | None = None):
    """Continuum overlap density rho(omega) of the (bare) level.

    rho = lam^2 f^2 / |eta(omega + i0)|^2.  It is nonnegative, integrates
    to one when no discrete state survives the coupling, and peaks within
    a width of the resonance energy for narrow resonances.  Accepts a
    scalar or an array of frequencies; an array is one batched
    boundary evaluation.
    """
    spec = spec or QuadratureSpec()
    arr = np.asarray(omega, dtype=float)
    if np.any(arr < 0):
        raise ValueError("spectral density is defined for omega >= 0")
    if model.lam == 0.0:
        raise ValueError("spectral density needs a nonzero coupling")

    lo, hi = model.form_factor.support
    f2 = np.asarray(model.form_factor.f2(arr), dtype=float)
    # zero where f^2 vanishes and at the support edges, where the
    # log-divergent boundary value sends the density to zero
    inside = (f2 != 0.0) & (arr > lo) & (arr < hi)
    rho = np.zeros(arr.shape)
    if np.any(inside):
        eta = self_energy(model, arr[inside], "I", spec)
        rho[inside] = model.lam**2 * f2[inside] / np.abs(eta) ** 2
    return rho if rho.ndim else float(rho)


@dataclass(frozen=True)
class DiscretizedSpectrum:
    """Eigen-decomposition of the finite-matrix stand-in for the model.

    ``eigenvalues`` and ``overlaps`` describe the level's decomposition
    over the discretized eigenbasis; overlaps sum to one because the basis
    is orthonormal.  The survival amplitude reduces to an explicit
    eigen-sum, which makes this the brute-force oracle for the quadrature
    pipeline.
    """

    n_bins: int
    omega_max: float
    eigenvalues: np.ndarray
    overlaps: np.ndarray

    def __post_init__(self):
        total = float(np.sum(self.overlaps))
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"overlap sum {total!r} deviates from 1")
        if np.any(self.overlaps < -1e-14):
            raise ValueError("overlaps must be nonnegative")

    def survival_amplitude(self, t):
        """Sum of overlaps * exp(-i E t); scalar t or array."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        amp = np.exp(-1j * np.outer(t_arr, self.eigenvalues)) @ self.overlaps
        return amp if np.ndim(t) else complex(amp[0])

    def survival_probability(self, t):
        amp = self.survival_amplitude(t)
        return np.abs(amp) ** 2


def discretize(model: FriedrichsModel, n_bins: int,
               omega_max: float) -> DiscretizedSpectrum:
    """Diagonalize the model on a uniform frequency grid.

    Builds the (n_bins+1) x (n_bins+1) real symmetric matrix with the
    level on the first diagonal entry, midpoint-rule continuum energies on
    the rest, and couplings lam * f(omega_i) * sqrt(dw).  Flags an
    omega_max that truncates visible coupling weight.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    if omega_max <= model.omega0:
        raise ValueError("omega_max must exceed omega0")
    support_hi = model.form_factor.support[1]
    probe = omega_max * (1.0 + 1e-9)
    if support_hi > omega_max and \
            model.lam**2 * float(model.form_factor.f2(probe)) > 1e-8:
        warnings.warn(
            f"omega_max = {omega_max!r} cuts off non-negligible coupling "
            "weight; increase it for a trustworthy oracle", stacklevel=2)

    dw = omega_max / n_bins
    grid = (np.arange(n_bins) + 0.5) * dw
    coupling = model.lam * np.sqrt(np.asarray(model.form_factor.f2(grid))
                                   * dw)
    ham = np.zeros((n_bins + 1, n_bins + 1))
    ham[0, 0] = model.omega0
    idx = np.arange(1, n_bins + 1)
    ham[idx, idx] = grid
    ham[0, 1:] = coupling
    ham[1:, 0] = coupling
    vals, vecs = eigh(ham)
    return DiscretizedSpectrum(n_bins=n_bins, omega_max=omega_max,
                               eigenvalues=vals, overlaps=vecs[0, :] ** 2)
