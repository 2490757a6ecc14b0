"""Friedrichs model: a bound state coupled to a continuum.

A discrete level ``omega0`` embedded in the half-line continuum acquires a
finite lifetime once the coupling ``lam`` is switched on.  This module
locates the resulting resonance pole on the second Riemann sheet of the
reduced resolvent, evaluates the continuum overlap density, and provides a
brute-force finite-matrix diagonalization, solved through its secular
equation, that serves as an independent oracle for everything else.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .numerics import (
    _BLOCK,
    IntegrandError,
    NonConvergence,
    PiecewiseCubic,
    QuadratureSpec,
    RootSearchConfig,
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
    "FormFactor",
    "FlatCutoff",
    "RationalFormFactor",
    "TabulatedFormFactor",
    "FriedrichsModel",
    "ResonancePole",
    "DiscretizedSpectrum",
    "self_energy",
    "find_pole",
    "perturbative_pole",
    "newton_start",
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
    _spline: PiecewiseCubic = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_spline", _cubic_spline(grid, values))

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

    Accepts a scalar (giving a Python complex) or an array of z; all of
    them go through one call of the Cauchy kernel
    :func:`~gamow_thermo.numerics.principal_values`.  Sheet II needs the
    form factor's continuation ``f2_complex``; at a pole of it eta_II is
    infinite, and :class:`~gamow_thermo.numerics.IntegrandError` names z.
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
    eta = z - model.omega0 - lam2 * principal_values(
        ff.f2, lo, hi, z, spec, scale=ff.scale_hint)
    eta[rim] += 1j * np.pi * lam2 * np.asarray(ff.f2(z.real[rim]))
    if sheet == "II":
        # continuation through the cut: from above into Im z < 0, from
        # below into Im z > 0
        off = z[~rim]
        with np.errstate(divide="ignore", invalid="ignore"):
            jump = np.broadcast_to(2j * np.pi * lam2 * ff.f2_complex(off),
                                   off.shape)
        bad = off[~np.isfinite(jump)]
        if bad.size:
            raise IntegrandError(f"eta_II is infinite at z = "
                                 f"{complex(bad[0])!r}, a pole of f2_complex")
        eta[~rim] += np.where(off.imag < 0, jump, -jump)
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


def newton_start(cfg: RootSearchConfig,
                 seed: ResonancePole) -> RootSearchConfig:
    """``cfg`` with the pole search starting at ``seed`` (normally the
    :func:`perturbative_pole` estimate), nudged below the real axis when
    the seed has no width; a guess already in ``cfg`` wins."""
    if cfg.initial_guess is not None:
        return cfg
    guess = seed.z
    if guess.imag == 0.0:
        guess -= 1e-6j * max(1.0, abs(guess))
    return replace(cfg, initial_guess=guess)


def find_pole(model: FriedrichsModel, cfg: RootSearchConfig | None = None,
              spec: QuadratureSpec | None = None) -> ResonancePole:
    """Locate the resonance pole: the second-sheet zero below the cut.

    Newton-iterates eta_II from the guess in ``cfg``, or else from the
    perturbative estimate (see :func:`newton_start`).  A converged zero in
    the upper half-plane is reported as :class:`PoleInUpperHalfPlane`
    rather than silently conjugated.
    """
    cfg = cfg or RootSearchConfig()
    spec = spec or QuadratureSpec()
    if model.lam == 0.0:
        return ResonancePole(e_r=model.omega0, gamma=0.0)
    if cfg.initial_guess is None:
        cfg = newton_start(cfg, perturbative_pole(model, spec))

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

    ``eigenvalues`` (ascending) and ``overlaps`` describe the level's
    decomposition over the discretized eigenbasis; overlaps sum to one
    because the basis is orthonormal.  The survival amplitude reduces to
    an explicit eigen-sum, which makes this the brute-force oracle for the
    quadrature pipeline.  ``max_passes`` is a read-out of the solver: the
    most secular-function evaluations any one eigenvalue needed.
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
    each eigenvector follows in closed form.  A bin whose squared coupling
    is 0 is an eigenvalue omega_i with overlap 0.  Flags an omega_max that
    truncates visible coupling weight.
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


def _secular_roots(omega0: float, poles: np.ndarray, coupling: np.ndarray):
    """All roots of F(E) = E - omega0 + sum_i c_i^2 / (omega_i - E).

    ``poles`` omega_i ascend strictly and the couplings c_i are positive.
    F rises from -inf to +inf between neighbouring poles and beyond each
    end, so root r lies alone in the gap (omega_{r-1}, omega_r), with
    omega_{-1} = -inf and omega_k = +inf.  Returns the k+1 roots
    (ascending), the overlaps 1/F'(E) = 1/(1 + sum_i (c_i/(omega_i -
    E))^2) and the most evaluation passes any root needed.

    Each root is E = omega_o + tau with its origin o at the nearer end of
    its gap, chosen by the sign of F at the gap's middle, so that
    omega_i - E = (omega_i - omega_o) - tau carries no cancellation.  The
    terms of the gap's two end poles are kept apart from the sums over
    the other poles, and every term is formed from c_i/(omega_i - E), so
    that a tiny or underflowing c_i^2 next to the root loses nothing.
    The iterates are the roots of :func:`_middle_way_root`, kept inside
    the bracket that the signs of F have left (bisecting it otherwise,
    geometrically while its ends differ by more than a factor 4).
    A root closes once |F| <= 8 eps (|omega_o - omega0| + |tau| + sum_i
    |c_i^2/(omega_i - E)|), the float resolution of F as it is summed,
    once the model's next step falls below 4 ulps of tau (tau, not E,
    fixes the overlap of a root that hugs its pole), once no double is
    left inside its bracket, or once the bracket lies within the smallest
    normal double of the pole (E is then the pole's neighbour, and the
    overlap, below (tau/c_o)^2 with c_o^2 > 0, is under 1e-290).  Only
    open roots are evaluated, in blocks of about ``_BLOCK`` (root x pole)
    elements.  A root closer to a pole than float resolution is returned
    as the adjacent double, which keeps the roots strictly interlaced
    with the poles.
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
        # after the middle of an inner gap: move the origin to the right
        # pole when the root lies in the right half
        move = (sweep == 0) & (r > 0) & (r < k) & (f < 0.0)
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


def _other_poles(poles, coupling, rows, base, tau):
    """For each root ``rows`` at E = base + tau: the sums of c_i^2/(omega_i
    - E) over the poles left and right of its gap, and of (c_i/(omega_i -
    E))^2 over the same two sides, leaving out the gap's two end poles.

    ``rows`` ascend; they go in blocks of about ``_BLOCK`` (root x pole)
    elements, so memory stays flat in the number of poles.
    """
    k = poles.size
    out = np.zeros((4, rows.size))
    step = max(1, _BLOCK // k)
    for s in range(0, rows.size, step):
        r = rows[s:s + step]
        i = np.arange(r.size)
        delta = (poles - base[s:s + step, None]) - tau[s:s + step, None]
        with np.errstate(divide="ignore", over="ignore"):
            ratio = np.divide(coupling, delta, out=delta)
        # the gap's end poles are summed apart, exactly
        ratio[i[r > 0], r[r > 0] - 1] = 0.0
        ratio[i[r < k], r[r < k]] = 0.0
        # poles before column a lie left of every gap of the block, poles
        # from column b on right of it; the band between is split per row
        a, b = max(r[0] - 1, 0), min(r[-1] + 1, k)
        band = ratio[:, a:b]
        on_right = np.arange(a, b) >= r[:, None]
        for side, cols, mask in ((0, slice(None, a), ~on_right),
                                 (1, slice(b, None), on_right)):
            part = np.where(mask, band, 0.0)
            out[side, s:s + step] = (
                np.einsum("ij,j->i", ratio[:, cols], coupling[cols])
                + np.einsum("ij,j->i", part, coupling[a:b]))
            out[side + 2, s:s + step] = (
                np.einsum("ij,ij->i", ratio[:, cols], ratio[:, cols])
                + np.einsum("ij,ij->i", part, part))
    return out


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
