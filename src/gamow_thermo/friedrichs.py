"""Friedrichs model: a bound state coupled to a continuum.

A discrete level ``omega0`` embedded in the half-line continuum acquires a
finite lifetime once the coupling ``lam`` is switched on.  This module
locates the resulting resonance pole on the second Riemann sheet of the
reduced resolvent, evaluates the continuum overlap density, and provides a
brute-force finite-matrix diagonalization, solved through its secular
equation, that serves as an independent oracle for everything else.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    IntegrandError,
    NonConvergence,
    NumericalFailure,
    PiecewiseCubic,
    _complex,
    _cubic_spline,
    _require,
    _unbox,
    complex_newton,
    principal_values,
)

__all__ = [
    "ContinuationUnavailable",
    "PoleInUpperHalfPlane",
    "PoleOutsideSupport",
    "FormFactor",
    "FlatCutoff",
    "RationalFormFactor",
    "TabulatedFormFactor",
    "FriedrichsModel",
    "ResonancePole",
    "ResolvedPole",
    "DiscretizedSpectrum",
    "self_energy",
    "find_pole",
    "perturbative_pole",
    "spectral_density",
    "discretize",
]


class ContinuationUnavailable(NumericalFailure, ValueError):
    """The form factor has no analytic continuation off the real axis."""


class PoleInUpperHalfPlane(NumericalFailure, RuntimeError):
    """Root search converged to a non-resonant (upper half-plane) zero."""


class PoleOutsideSupport(NumericalFailure, RuntimeError):
    """Root search converged to a zero outside the form factor's support."""


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
            f"{type(self).__name__} has no analytic continuation")

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
        if not 0 < self.cutoff < np.inf:
            raise ValueError("cutoff must be positive and finite")

    def f2(self, omega):
        omega = np.asarray(omega, dtype=float)
        return _unbox(np.where((omega >= 0.0) & (omega <= self.cutoff),
                               1.0, 0.0))

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
        if not 0 < self.scale < np.inf:
            raise ValueError("scale must be positive and finite")

    def f2(self, omega):
        omega = np.asarray(omega, dtype=float)
        # past omega^2 = inf, omega = inf included, the profile is its
        # limit, zero; where omega^2 + scale^2 underflows to 0 it is inf
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            inside = (omega >= 0.0) & (omega < np.inf)
            return _unbox(np.where(inside, omega / (
                np.pi * (omega**2 + self.scale**2)), 0.0))

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
    _spline: PiecewiseCubic = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 4:
            raise ValueError("tabulated form factor needs >= 4 grid points")
        if not (np.isfinite(grid).all() and np.isfinite(values).all()):
            raise ValueError("tabulated grid and f^2 samples must be finite")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("tabulated grid must be strictly increasing")
        if grid[0] < 0:
            raise ValueError("tabulated grid must not extend below 0")
        if values.shape != grid.shape:
            raise ValueError("grid and values must have matching shapes")
        if np.any(values < 0):
            raise ValueError("f^2 samples must be nonnegative")
        spline = _cubic_spline(grid, values)
        if not np.isfinite(spline.c).all():
            raise ValueError("the spline through the tabulated f^2 samples "
                             "is not finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_spline", spline)

    @classmethod
    def from_file(cls, path) -> "TabulatedFormFactor":
        """Load a two-column text table: omega, f^2(omega)."""
        data = np.loadtxt(path, ndmin=2)
        if data.shape[1] < 2:
            raise ValueError(f"{path}: expected two columns (omega, f^2)")
        return cls(grid=data[:, 0], values=data[:, 1])

    def f2(self, omega):
        # the interpolant may undershoot between nonnegative samples
        return _unbox(np.clip(self._spline(omega), 0.0, None))

    @property
    def support(self) -> tuple[float, float]:
        return (float(self.grid[0]), float(self.grid[-1]))

    @property
    def scale_hint(self) -> float:
        return float(self.grid[-1])


@dataclass(frozen=True)
class FriedrichsModel:
    """Level energy, real coupling and coupling profile.

    Only lam**2 enters any observable, so the coupling sign is free, and
    lam**2 must be a finite float: |lam| up to about 1.3e154.
    Models with value-hashable form factors compare by value, which lets
    per-model caches (the density table) be shared across instances.
    """

    omega0: float
    lam: float
    form_factor: FormFactor

    def __post_init__(self):
        if not 0 < self.omega0 < np.inf:
            raise ValueError("omega0 must be positive and finite")
        lam = complex(self.lam)
        if lam.imag != 0.0 or not math.isfinite(lam.real * lam.real):
            raise ValueError("coupling must be real, with a finite square")


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


def self_energy(model: FriedrichsModel, z, sheet: str = "I"):
    """Reduced-resolvent denominator eta(z) on either Riemann sheet.

    Sheet I is eta(z) = z - omega0 - lam^2 * integral f^2/(z - w) dw,
    analytic off the cut.  Sheet II continues sheet I through the cut:
    crossing from above adds 2*pi*i*lam^2*f^2(z) in the lower half-plane,
    crossing from below subtracts it in the upper half-plane.  A real z
    strictly inside the support is resolved as the omega + i0 rim on both
    sheets, through the explicit split: real part from the principal
    value, imaginary part i*pi*lam^2*f^2(omega).  This sidesteps the
    catastrophic cancellation of approaching the cut numerically.

    Accepts a scalar (giving a Python complex) or an array of z; all of
    them go through one call of the Cauchy kernel
    :func:`~gamow_thermo.numerics.principal_values`, at its fixed
    accuracy: each integral within max(1e-12, 1e-10 |integral|) by its
    Kronrod-Gauss gauge.  Sheet II needs the form factor's continuation
    ``f2_complex``; at a pole of it eta_II is infinite, and
    :class:`~gamow_thermo.numerics.IntegrandError` names z.
    """
    if sheet not in ("I", "II"):
        raise ValueError(f"sheet must be 'I' or 'II', got {sheet!r}")
    shape = np.shape(z)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    lam2 = model.lam**2
    if lam2 == 0.0:
        return _unbox((z - model.omega0).reshape(shape))

    ff = model.form_factor
    lo, hi = ff.support
    eta = z - model.omega0 - lam2 * principal_values(
        ff.f2, lo, hi, z, scale=ff.scale_hint)
    # the rim: real points strictly inside the support
    rim = z.imag == 0.0
    if np.count_nonzero(rim):
        rim &= (lo < z.real) & (z.real < hi)
        eta[rim] += 1j * np.pi * lam2 * np.asarray(ff.f2(z.real[rim]))
        cut = ~rim
    else:
        cut = slice(None)
    if sheet == "II":
        # continuation through the cut: from above into Im z < 0, from
        # below into Im z > 0
        off = z[cut]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            jump = 2j * np.pi * lam2 * ff.f2_complex(off)
        jump = np.where(off.imag < 0, jump, -jump)
        bad = ~np.isfinite(jump)
        if np.count_nonzero(bad):
            raise IntegrandError(f"eta_II is infinite at z = "
                                 f"{complex(off[bad][0])!r}, a pole of "
                                 f"f2_complex")
        eta[cut] += jump
    return _unbox(eta.reshape(shape))


@dataclass(frozen=True)
class ResolvedPole(ResonancePole):
    """A pole found by :func:`find_pole`, with the report of its search:
    the :func:`perturbative_pole` ``estimate``, the ``residual`` |eta_II|
    at the centre of the last Newton stencil, the ``step`` taken from
    there to the pole, and the number of ``stencils`` (0 for an uncoupled
    level, which needs no search)."""

    estimate: complex
    residual: float
    step: float
    stencils: int


def perturbative_pole(model: FriedrichsModel) -> complex:
    """Second-order pole estimate omega0 - eta(omega0 + i0), a complex: its
    real part is the principal-value shift omega0 - Re eta, and -2 Im is
    the golden-rule width 2 Im eta.  It is the default start of
    :func:`find_pole`, which reports it as the pole's ``estimate``, and an
    independent check on it (the two agree to relative O(lam^2)); unlike a
    resonance it may lie anywhere.
    """
    if not np.isfinite(model.form_factor.f2(model.omega0)):
        raise IntegrandError("f^2(omega0) is not finite")
    return model.omega0 - self_energy(model, model.omega0)


def find_pole(model: FriedrichsModel,
              start: complex | None = None) -> ResolvedPole:
    """Locate the resonance pole: the second-sheet zero below the cut.

    Computes the :func:`perturbative_pole` estimate once, then
    Newton-iterates eta_II from ``start``, or else from that estimate; a
    real start moves 1e-6 max(1, |z|) below the axis.
    Deforming the decay integral into the lower half-plane sweeps only a
    zero with Im z <= 0 and Re z strictly inside the support, so any other
    is raised, never conjugated or clipped: :class:`PoleInUpperHalfPlane`
    or :class:`PoleOutsideSupport`.  The pole carries the estimate and
    the search's report, so no caller evaluates eta again for them.
    """
    estimate = perturbative_pole(model)
    if model.lam**2 == 0.0:
        return ResolvedPole(e_r=model.omega0, gamma=0.0, estimate=estimate,
                            residual=0.0, step=0.0, stencils=0)
    start = estimate if start is None else start
    if start.imag == 0.0:
        start -= 1e-6j * max(1.0, abs(start))

    root, residual, step, stencils = complex_newton(
        lambda z: self_energy(model, z, "II"), start)
    scale = max(1.0, abs(root))
    if root.imag > 1e-10 * scale:
        raise PoleInUpperHalfPlane(
            f"converged to {root!r}: upper half-plane zeros are not "
            "decaying resonances")
    lo, hi = model.form_factor.support
    if not lo < root.real < hi:
        raise PoleOutsideSupport(f"converged to {root!r}, outside the "
                                 f"support ({lo:g}, {hi:g}): no resonance")
    return ResolvedPole(e_r=root.real, gamma=max(0.0, -2.0 * root.imag),
                        estimate=estimate, residual=residual, step=step,
                        stencils=stencils)


def spectral_density(model: FriedrichsModel, omega):
    """Continuum overlap density rho(omega) of the (bare) level.

    rho = lam^2 f^2 / |eta(omega + i0)|^2.  It is nonnegative, integrates
    to one when no discrete state survives the coupling, and peaks within
    a width of the resonance energy for narrow resonances.  An uncoupled
    level (lam^2 = 0) has no continuum density: it is zero everywhere.
    Accepts a scalar or an array of frequencies; an array is one batched
    boundary evaluation.  Its principal values are those of
    :func:`self_energy`, each within max(1e-12, 1e-10 |PV|): the accuracy
    of the density table that :func:`~gamow_thermo.decay.density_table`
    fits to it, so every caller gets the table's own densities.  A
    negative or NaN frequency raises :class:`ValueError`.
    """
    arr = np.asarray(omega, dtype=float)
    # NaN fails every comparison: it must not pass as a frequency
    if not np.all(arr >= 0):
        raise ValueError("spectral density is defined for omega >= 0")
    if model.lam**2 == 0.0:
        return _unbox(np.zeros(arr.shape))

    lo, hi = model.form_factor.support
    f2 = np.asarray(model.form_factor.f2(arr), dtype=float)
    # zero where f^2 vanishes and at the support edges, where the
    # log-divergent boundary value sends the density to zero
    inside = (f2 != 0.0) & (arr > lo) & (arr < hi)
    rho = np.zeros(arr.shape)
    if np.any(inside):
        eta = self_energy(model, arr[inside], "I")
        # |eta|^2 may overflow far out, where rho is zero
        with np.errstate(over="ignore"):
            rho[inside] = model.lam**2 * f2[inside] / np.abs(eta) ** 2
    return _unbox(rho)


@dataclass(frozen=True)
class DiscretizedSpectrum:
    """Eigen-decomposition of the finite-matrix stand-in for the model.

    ``eigenvalues`` (ascending) and ``overlaps`` describe the level's
    decomposition over the discretized eigenbasis; overlaps sum to one
    because the basis is orthonormal.  The survival amplitude reduces to
    an explicit eigen-sum, which makes this the brute-force oracle for the
    quadrature pipeline.  ``max_passes`` is a read-out of the solver: the
    most exact secular-function evaluations any one eigenvalue needed (the
    steps on the model that starts it are not counted).
    """

    n_bins: int
    omega_max: float
    eigenvalues: np.ndarray
    overlaps: np.ndarray
    max_passes: int = 0

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

    The matrix is the (n_bins+1) x (n_bins+1) arrowhead with the level
    ``omega0`` on the first diagonal entry, midpoint-rule continuum
    energies omega_i on the rest, and couplings lam * f(omega_i) * sqrt(dw)
    in the first row and column.  It is never formed: its eigenvalues are
    the roots of the secular function (see :func:`_secular_roots`), found
    in O(n_bins^2) work and O(n_bins) memory, and the level's overlap with
    each eigenvector follows in closed form.  Each exact pass over the
    open roots costs O(n_bins^2); from a start modelled in O(n_bins log
    n_bins), nearly every root closes in one, and only the two outermost
    roots and those beside bins of zero coupling take more.  A bin whose
    squared coupling is 0 is an eigenvalue omega_i with overlap 0.  Flags
    an omega_max that truncates visible coupling weight.  ``n_bins`` must
    be an integer >= 1 and ``omega_max`` finite and above ``omega0``.
    """
    if isinstance(n_bins, bool) or not isinstance(n_bins, numbers.Integral) \
            or n_bins < 1:
        raise ValueError(f"n_bins must be an integer >= 1, got {n_bins!r}")
    if not np.isfinite(omega_max):
        raise ValueError(f"omega_max must be finite, got {omega_max!r}")
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
    coupling = abs(model.lam) * np.sqrt(np.asarray(model.form_factor.f2(grid))
                                        * dw)
    live = coupling**2 > 0.0
    roots, overlaps, passes = _secular_roots(model.omega0, grid[live],
                                             coupling[live])
    vals = np.concatenate([roots, grid[~live]])
    overlaps = np.concatenate([overlaps, np.zeros(vals.size - roots.size)])
    order = np.argsort(vals, kind="stable")
    return DiscretizedSpectrum(n_bins=n_bins, omega_max=omega_max,
                               eigenvalues=vals[order],
                               overlaps=overlaps[order], max_passes=passes)


# evaluation passes after which a root search is reported as stuck;
# bisection alone halves a bracket to float resolution in about 60
_MAX_PASSES = 100
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_SMALLEST = np.finfo(float).smallest_subnormal
# (root x pole) terms per block of an exact pass
_SWEEP = 2**16
# The model start of a one-step gap sums its 2 _NEAR nearest poles exactly
# and each farther pole, at least _NEAR + 1/2 steps from the gap's middle,
# as a Taylor series in the offset x from the middle, |x| <= half a step.
# _TAYLOR is the lowest last power at which every far term's relative
# truncation, at most (2 _NEAR + 1)^-(_TAYLOR + 1) (2 _NEAR + 1)/(2 _NEAR),
# falls under _MODEL_TOL, the accuracy the start aims at (_TAYLOR = 8):
# near float resolution, so that one exact pass closes nearly every root.
_NEAR = 16
_MODEL_TOL = 1e-13
_TAYLOR = math.ceil(math.log((2 * _NEAR + 1) / (2 * _NEAR) / _MODEL_TOL)
                    / math.log(2 * _NEAR + 1)) - 1
# middle-way steps taken on the model
_MODEL_STEPS = 4


def _secular_roots(omega0: float, poles: np.ndarray, coupling: np.ndarray):
    """All roots of F(E) = E - omega0 + sum_i c_i^2 / (omega_i - E).

    ``poles`` omega_i ascend strictly and the couplings c_i are positive.
    F rises from -inf to +inf between neighbouring poles and beyond each
    end, so root r lies alone in the gap (omega_{r-1}, omega_r), with
    omega_{-1} = -inf and omega_k = +inf.  Returns the k+1 roots
    (ascending), the overlaps 1/F'(E) = 1/(1 + sum_i (c_i/(omega_i -
    E))^2) and the most exact passes, evaluations of F, any root needed.

    Each root is E = omega_o + tau with its origin o at the nearer end of
    its gap, chosen by the sign of F at the gap's middle, so that
    omega_i - E = (omega_i - omega_o) - tau carries no cancellation.  The
    terms of the gap's two end poles are kept apart from the sums over
    the other poles, and every term is formed from c_i/(omega_i - E), so
    that a tiny or underflowing c_i^2 next to the root loses nothing.
    The iterates are the roots of :func:`_middle_way_root`, kept inside
    the bracket that the signs of F have left (bisecting it otherwise,
    geometrically while its ends differ by more than a factor 4).  The
    bracket starts as the whole gap.  A root of a gap one step wide on a
    uniform grid starts from :func:`_model_start`, usually within float
    resolution of its offset, at the origin the model picked; every other
    root starts at the middle of its gap, and its first pass picks the
    origin.
    A root closes once |F| <= 8 eps (|omega_o - omega0| + |tau| + sum_i
    |c_i^2/(omega_i - E)|), the float resolution of F as it is summed,
    once the model's next step falls below 4 ulps of tau (tau, not E,
    fixes the overlap of a root that hugs its pole), once no double is
    left inside its bracket, or once the bracket lies within the smallest
    normal double of the pole (E is then the pole's neighbour, and the
    overlap, below (tau/c_o)^2 with c_o^2 > 0, is under 1e-290).  Only
    open roots are evaluated, in blocks of about ``_SWEEP`` (root x pole)
    elements: an exact pass costs O(k^2) and the model start O(k log k),
    and from that start nearly every root closes in one exact pass.  A
    root closer to a pole than float resolution is returned as the
    adjacent double, which keeps the roots strictly interlaced with the
    poles.
    """
    k = poles.size
    if k == 0:
        return np.array([omega0]), np.array([1.0]), 0
    rows = np.arange(k + 1)
    left = np.concatenate([[-np.inf], poles])  # the gap of each root
    right = np.concatenate([poles, [np.inf]])
    c_l = np.concatenate([[0.0], coupling])  # its end poles' couplings
    c_r = np.concatenate([coupling, [0.0]])
    # tau brackets from the left pole (the first pole for the lowest
    # root); F < 0 at min(omega0, omega_0) - 2 |c| and F > 0 at
    # max(omega0, omega_k-1) + 2 |c| bound the end gaps, widened by
    # rounding slack so that a root there stays strictly inside
    origin = np.maximum(rows - 1, 0)
    reach = 2.0 * np.hypot.reduce(coupling) + 4.0 * _EPS * (omega0
                                                            + poles[-1])
    lo = np.zeros(k + 1)
    hi = np.concatenate([[0.0], np.diff(poles), [0.0]])
    lo[0] = min(omega0 - poles[0], 0.0) - reach
    hi[-1] = max(omega0 - poles[-1], 0.0) + reach
    tau = 0.5 * (lo + hi)
    # the inner gaps start at their middle, save the one-step gaps of a
    # uniform grid, which start from a model of F at an origin it picked
    at_mid = (rows > 0) & (rows < k)
    g, o, t = _model_start(omega0, poles, coupling)
    shift = poles[o] - poles[g - 1]
    at_mid[g] = False
    origin[g], lo[g], hi[g], tau[g] = o, lo[g] - shift, hi[g] - shift, t
    roots, overlaps = np.empty(k + 1), np.empty(k + 1)
    r = rows
    for sweep in range(_MAX_PASSES):
        o, t = origin[r], tau[r]
        base = poles[o]
        psi, phi, dpsi, dphi = _other_poles(poles, coupling, r, base, t)
        # a root at float distance from its pole has an infinite slope
        # there: a zero overlap
        with np.errstate(divide="ignore", over="ignore"):
            u_l = c_l[r] / np.where(r > 0, left[r] - base - t, -1.0)
            u_r = c_r[r] / np.where(r < k, right[r] - base - t, 1.0)
            overlaps[r] = 1.0 / (1.0 + dpsi + dphi + u_l * u_l + u_r * u_r)
        energy = base + t
        roots[r] = np.clip(energy, np.nextafter(left[r], np.inf),
                           np.nextafter(right[r], -np.inf))
        total = psi + phi
        f = (base - omega0) + t + total + c_l[r] * u_l + c_r[r] * u_r
        gauge = (np.abs(base - omega0) + np.abs(t) + phi - psi
                 + np.abs(c_l[r] * u_l) + np.abs(c_r[r] * u_r))
        # after the middle of an inner gap started there: move the origin
        # to the right pole when the root lies in the right half
        move = (sweep == 0) & at_mid[r] & (f < 0.0)
        shift = np.where(move, right[r] - base, 0.0)
        o, t, base = np.where(move, r, o), t - shift, base + shift
        new = _middle_way_root((base - omega0) + total, t, left[r] - base,
                               right[r] - base, c_l[r], c_r[r], dpsi, dphi)
        lo_r = np.where(f < 0.0, t, lo[r] - shift)
        hi_r = np.where(f > 0.0, t, hi[r] - shift)
        mid = 0.5 * (lo_r + hi_r)
        closed = ((np.abs(f) <= 8.0 * _EPS * gauge) & np.isfinite(f)
                  | (np.abs(new - t) <= 4.0 * np.spacing(np.abs(t)))
                  | (mid <= lo_r) | (mid >= hi_r)
                  | (np.maximum(-lo_r, hi_r) < _TINY))
        # a bracket spanning orders of magnitude on one side of the origin
        # is bisected geometrically, an end at the origin's pole counting
        # as the smallest double of the bracket's sign
        small = np.minimum(np.abs(lo_r), np.abs(hi_r))
        big = np.maximum(np.abs(lo_r), np.abs(hi_r))
        small = np.where(small == 0.0, _SMALLEST, small)
        mid = np.where((lo_r * hi_r >= 0.0) & (big > 4.0 * small),
                       np.sign(lo_r + hi_r) * np.sqrt(small) * np.sqrt(big),
                       mid)
        # a step that lands within 4 ulps outside the bracket has
        # converged onto its end: take the double next to it instead
        inside = np.clip(new, np.nextafter(lo_r, hi_r),
                         np.nextafter(hi_r, lo_r))
        origin[r], lo[r], hi[r] = o, lo_r, hi_r
        tau[r] = np.where(np.abs(inside - new)
                          <= 4.0 * np.spacing(np.abs(new)), inside, mid)
        r = r[~closed]
        if not r.size:
            return roots, overlaps, sweep + 1
    raise NonConvergence(f"{r.size} secular roots still open after "
                         f"{_MAX_PASSES} passes")


def _model_start(omega0, poles, coupling):
    """Origins and offsets tau from which to solve the one-step gaps.

    A gap (omega_{r-1}, omega_r) is one step wide when its end poles are
    neighbours on a lattice omega_0 + j h that holds every pole (to 1e-6
    h) and has at most twice as many sites as poles; without such a
    lattice no gap is, and the arrays come back empty.  On a one-step gap
    F is modelled from the offset x of E from the gap's middle: the 2
    ``_NEAR`` nearest poles are summed exactly, the farther ones as the
    series sum_n T_n x^n, T_n = sum_i c_i^2 / (omega_i - E_mid)^(n+1) for
    n <= ``_TAYLOR``.  The T_n of every gap are correlations of c^2 over
    the lattice with fixed kernels, taken at once by FFT in O(k log k);
    each model step costs O(k _NEAR).  The model's sign at the middle
    picks the origin, as an exact pass at the middle would, and
    ``_MODEL_STEPS`` middle-way steps on the model give tau, aimed at
    float resolution, so that one exact pass closes nearly every root.  A
    poor start costs exact passes and nothing else: those still bracket
    the whole gap.  Returns the rows r, their origins and their tau.
    """
    none = np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0)
    if poles.size < 2:
        return none
    h = np.min(np.diff(poles))
    if not np.rint((poles[-1] - poles[0]) / h) < 2 * poles.size:
        return none
    site = np.rint((poles - poles[0]) / h).astype(int)
    h = (poles[-1] - poles[0]) / site[-1]
    r = 1 + np.flatnonzero(np.diff(site) == 1)
    if np.max(np.abs(poles[0] + site * h - poles)) > 1e-6 * h or not r.size:
        return none
    # h^(n+1) T_n, left and right, at the gap whose right end is site q:
    # the sum over sites j of c_j^2 (j - q + 1/2)^-(n+1) with j - q <
    # -_NEAR or >= _NEAR, a correlation, circular over twice the lattice
    sites = site[-1] + 1
    m = np.arange(2 * sites)
    m = np.where(m < sites, m, m - 2 * sites)
    powers = np.cumprod(np.broadcast_to(1.0 / (m + 0.5),
                                        (_TAYLOR + 1, m.size)), axis=0)
    kernels = np.stack([np.where(m < -_NEAR, powers, 0.0),
                        np.where(m >= _NEAR, powers, 0.0)])
    weight = np.zeros(2 * sites)
    weight[site] = coupling**2
    coef = np.fft.irfft(np.fft.rfft(weight) * np.conj(np.fft.rfft(kernels)),
                        2 * sites)[..., 1:sites]
    # the model runs on every gap q = 1 .. sites - 1 of the lattice (a
    # column), padded with empty sites, and only the one-step gaps' tau
    # are kept; row j of a column is site q - _NEAR + j, the gap's ends
    # are rows _NEAR - 1 and _NEAR
    at = poles[0] + np.arange(-_NEAR, sites + _NEAR) * h
    c_at = np.zeros(at.size)
    at[site + _NEAR], c_at[site + _NEAR] = poles, coupling
    window = np.lib.stride_tricks.sliding_window_view
    near_at = window(at, sites - 1)[1:2 * _NEAR + 1]
    near_c = window(c_at, sites - 1)[1:2 * _NEAR + 1]
    left, right = near_at[_NEAR - 1], near_at[_NEAR]
    c_l, c_r = near_c[_NEAR - 1], near_c[_NEAR]
    base, t = left, 0.5 * (right - left)
    # written in place: fresh temporaries of this size cost page faults
    u, w = np.empty((2,) + near_at.shape)
    for step in range(_MODEL_STEPS):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.subtract(near_at, base, out=u)
            np.divide(near_c, np.subtract(u, t, out=u), out=u)
            xi = (base + t - 0.5 * (left + right)) / h
            val, slope = np.zeros((2, t.size)), np.zeros((2, t.size))
            for n in range(_TAYLOR, -1, -1):
                slope = slope * xi + val
                val = val * xi + coef[:, n]
            # the other poles' sums and slopes, left and right of the gap
            np.multiply(u, near_c, out=w)
            sums = np.stack([w[:_NEAR - 1].sum(axis=0),
                             w[_NEAR + 1:].sum(axis=0)]) + val / h
            np.multiply(u, u, out=w)
            slopes = np.stack([w[:_NEAR - 1].sum(axis=0),
                               w[_NEAR + 1:].sum(axis=0)]) + slope / h**2
            if step == 0:
                # at the middle, as in an exact pass: the root lies in the
                # right half, whose pole becomes its origin, when F < 0
                f = ((base - omega0) + t + sums[0] + sums[1]
                     - c_l * (c_l / t) + c_r * (c_r / t))
                move = f < 0.0
                base = np.where(move, right, left)
                t = np.where(move, -t, t)
            a, b = left - base, right - base
            new = _middle_way_root((base - omega0) + sums[0] + sums[1], t,
                                   a, b, c_l, c_r, *slopes)
        t = np.where((new > a) & (new < b), new, t)
    q = site[r] - 1
    return r, np.where(move[q], r, r - 1), t[q]


def _other_poles(poles, coupling, rows, base, tau):
    """For each root ``rows`` at E = base + tau: the sums of c_i^2/(omega_i
    - E) over the poles left and right of its gap, and of (c_i/(omega_i -
    E))^2 over the same two sides, leaving out the gap's two end poles.

    ``rows`` ascend; they go in blocks of about ``_SWEEP`` (root x pole)
    elements, each one array of the terms c_i/(omega_i - E), so memory
    stays flat in the number of poles.
    """
    k = poles.size
    out = np.empty((4, rows.size))
    step = max(1, _SWEEP // k)
    buffer = np.empty((min(step, rows.size), k))
    for s in range(0, rows.size, step):
        r = rows[s:s + step]
        u = buffer[:r.size]
        # copied first: subtracting columns in place runs faster than
        # from a broadcast row
        u[...] = poles
        np.subtract(u, base[s:s + step, None], out=u)
        np.subtract(u, tau[s:s + step, None], out=u)
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(coupling, u, out=u)
        # poles before column a lie left of every gap of the block, poles
        # from column b on right of it; in the band between, each row
        # drops its gap's end poles (columns r - 1 and r) and splits the
        # rest
        a, b = max(r[0] - 1, 0), min(r[-1] + 1, k)
        col = np.arange(a, b) - r[:, None]
        band = np.where(np.stack([col < -1, col > 0]), u[:, a:b], 0.0)
        left, right = u[:, :a], u[:, b:]
        out[:2, s:s + step] = (np.stack([left @ coupling[:a],
                                         right @ coupling[b:]])
                               + band @ coupling[a:b])
        out[2:, s:s + step] = (np.stack([_row_squares(left),
                                         _row_squares(right)])
                               + np.einsum("sij,sij->si", band, band))
    return out


def _row_squares(x):
    """Sum of squares of each row of a 2-D array, as batched dot products
    (faster here than ``einsum``)."""
    return np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]


def _middle_way_root(rho, tau, a, b, c_l, c_r, dpsi, dphi):
    """Root, measured from the origin, of a two-pole model of F per row.

    The iterate sits at ``tau`` in the gap between the poles at ``a`` <
    ``b``, measured from the origin (so one of them is 0, the near pole;
    the other, the far end p, is infinite beyond the outer poles), with
    couplings ``c_l``, ``c_r``.  F = rho + x + (the two end poles' terms)
    + (the other poles' terms), and ``dpsi``/``dphi`` are the slopes of
    the other poles left/right of the gap, n' on the near side and f' on
    the far side.  The "middle way" model c + s/(0 - x) + S/(p - x) of
    R.-C. Li (LAPACK Working Note 89, 1994; LAPACK's dlaed4) matches F
    and F' at tau with s = c_near^2 + tau^2 n' and S = c_far^2 + (p -
    tau)^2 (f' + 1): the slope 1 of F's linear term joins the far side.
    Its quadratic, c x^2 - (c p + s + S) x + s p = 0, is written with the
    linear term cancelled by hand,

        c = rho + 2 tau - p + tau n' - (p - tau) f'
        c p + s + S = p rho + c_near^2 + c_far^2 + tau^2 (1 + n')
                      + tau (p n' - (p - tau) f'),

    and solved for x/|tau| (over the smallest normal double once tau is
    subnormal), so that neither a root at float distance from its pole
    nor couplings whose squares underflow lose digits.  An end gap takes
    the far pole to infinity: x^2 + (rho + tau n') x - s = 0.  Of the
    quadratic's two roots the model's lies in (a, b).
    """
    near_left = a == 0.0
    p = np.where(near_left, b, a)
    c_near = np.where(near_left, c_l, c_r)
    c_far = np.where(near_left, c_r, c_l)
    n1 = np.where(near_left, dpsi, dphi)
    f1 = np.where(near_left, dphi, dpsi)
    inner = np.isfinite(p)
    m = np.maximum(np.abs(tau), _TINY)
    w = tau / m  # +-1 unless tau is subnormal
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d_far = p - tau
        s = (c_near / m) ** 2 + w * w * n1  # s / m^2
        q2 = np.where(inner, rho + 2.0 * tau - p + tau * n1 - d_far * f1, 1.0)
        q1 = np.where(
            inner,
            -(p * rho / m + c_near * (c_near / m) + c_far * (c_far / m)
              + tau * w * (1.0 + n1) + w * (p * n1 - d_far * f1)),
            rho / m + w * n1)
        q0 = np.where(inner, s * p, -s)
        # the discriminant, scaled against overflow
        g = np.maximum(np.abs(q1), 2.0 * np.sqrt(np.abs(q2))
                       * np.sqrt(np.abs(q0)))
        disc = g * np.sqrt(np.abs((q1 / g) ** 2 - 4.0 * (q2 / g) * (q0 / g)))
        q = -0.5 * q1 - 0.5 * np.copysign(disc, q1)
        first, second = m * (q / q2), m * (q0 / q)
    return np.where((first > a) & (first < b), first, second)
