"""Survival dynamics of the coupled level.

The survival amplitude is the Fourier transform of the continuum overlap
density; its modulus squared interpolates between the quadratic short-time
regime (vanishing initial decay rate), the exponential window governed by
the resonance width, and a power-law long-time tail where the continuum
background outlives the pole contribution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .friedrichs import FriedrichsModel, ResonancePole, spectral_density
from .numerics import (NonConvergence, PiecewiseCubic, QuadratureSpec,
                       _cubic_spline, integrate)

__all__ = [
    "InsufficientSpan",
    "UnitarityViolation",
    "SurvivalSeries",
    "RegimeReport",
    "DensityTable",
    "density_table",
    "survival_amplitude",
    "survival_probability",
    "gamow_approximation",
    "zeno_check",
    "classify_regimes",
]

# accuracy of the tabulated density's principal values: each one within
# max(1e-12, 1e-10 |PV|) by its Kronrod-Gauss gauge (the spline fit has
# its own refinement threshold below)
_TABLE_SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10,
                             max_subdivisions=20000)
_NORM_SPEC = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11,
                            max_subdivisions=20000)
# noise floor of a synthesised P(t) in zeno_check: a typical value, not a
# derived bound.  The transform is exact for the spline, but the spline's
# refinement threshold is max(3e-10, 1e-9 |rho|) at each knot midpoint (the
# worst deviation is 6e-8 on the rational benchmark table), and the error
# of A(t) is bounded by the integral of |spline - rho|, not by 3e-10
_ZENO_NOISE = 4e-10

# M_j(theta) = integral of u^j exp(-i theta u) over [0, 1], j = 0..3, by the
# recurrence M_j = (j M_{j-1} - exp(-i theta)) / (i theta) from the switch up;
# below it the recurrence cancels like 1/theta^4, so the Taylor series
# sum_n (-i theta)^n / (n! (n + j + 1)) is used, 18 terms (remainder < 1/18!)
# with n! as the float product 1 * 2 * ... * n, exact up to 17! < 2^53
_MOMENT_SWITCH = 1.0
_TAYLOR = (np.array([1.0, -1j, -1.0, 1j])[np.arange(18) % 4, None]
           / (np.cumprod(np.maximum(np.arange(18.0), 1.0))[:, None]
              * (np.arange(18)[:, None] + np.arange(1, 5))))
# intervals per block of the moment recurrence, so that a single-time
# transform, result and phases included, stays below glibc's 128 KiB mmap
# threshold, past which every call would map and fault in fresh pages
_BLOCK = 2**9


class InsufficientSpan(ValueError):
    """The series does not reach far enough to separate decay regimes."""


class UnitarityViolation(ValueError):
    """Survival probabilities leave [0, 1], or P(0) misses 1, by more than
    1e-8: for a computed series, a defect of the route that made it."""


@dataclass(frozen=True)
class SurvivalSeries:
    """Amplitudes and probabilities on an ordered time grid."""

    times: np.ndarray
    amplitudes: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        a = np.asarray(self.amplitudes, dtype=complex)
        p = np.asarray(self.probabilities, dtype=float)
        if not (t.shape == a.shape == p.shape) or t.ndim != 1:
            raise ValueError("times, amplitudes, probabilities must be "
                             "1-d and equally shaped")
        if t.size and (t[0] < 0 or np.any(np.diff(t) <= 0)):
            raise ValueError("times must be nonnegative and increasing")
        if np.any(p < -1e-8) or np.any(p > 1.0 + 1e-8):
            raise UnitarityViolation(
                "probabilities escape [0, 1] beyond tolerance")
        if t.size and t[0] == 0.0 and abs(p[0] - 1.0) > 1e-8:
            raise UnitarityViolation(
                f"P(0) = {float(p[0])!r} is not 1 within 1e-8")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "probabilities", p)

    @property
    def span(self) -> float:
        return float(self.times[-1] - self.times[0])


@dataclass(frozen=True)
class RegimeReport:
    """Fitted short-time, exponential and tail regimes of a survival curve.

    Windows are (start, end) times, ordered and non-overlapping; a regime
    that could not be established is None.  ``gamma_fit`` is minus the
    log-linear slope on the exponential window.  The tail is fitted as a
    power law through the local maxima of the oscillating late-time curve,
    and is marked unresolved when those maxima drown in quadrature noise.
    """

    zeno_window: tuple[float, float] | None
    zeno_curvature: float | None
    exponential_window: tuple[float, float]
    gamma_fit: float
    tail_window: tuple[float, float] | None
    tail_exponent: float | None
    tail_resolved: bool
    tail_ratio_last: float | None
    tail_ratio_increasing: bool | None
    fit_residuals: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.gamma_fit <= 0:
            raise ValueError("exponential fit must have a negative slope")
        seq = []
        if self.zeno_window is not None:
            seq.append(self.zeno_window)
        seq.append(self.exponential_window)
        if self.tail_window is not None:
            seq.append(self.tail_window)
        for (a0, a1), (b0, b1) in zip(seq, seq[1:]):
            if not (a0 <= a1 <= b0 <= b1):
                raise ValueError(f"windows overlap or are unordered: {seq}")


def _moment_sums(theta: np.ndarray, weights: np.ndarray,
                 taylor: np.ndarray) -> np.ndarray:
    """sum_j w_jk M_j(theta_k) for ascending theta_k >= 0, from ``weights``
    (4, k) and their Taylor coefficients ``taylor`` = ``_TAYLOR @ weights``
    (18, k).

    Below the switch one Horner pass runs in the result itself; above it
    the recurrence runs on blocks of ``_BLOCK`` values.  Temporaries stay
    within one block, so a call holds little beyond its result.
    """
    acc = np.empty(theta.size, dtype=complex)
    m = int(np.searchsorted(theta, _MOMENT_SWITCH))
    # a complex factor: complex *= float would stage a cast copy per step
    head, factor = acc[:m], theta[:m].astype(complex)
    head[...] = taylor[-1, :m]
    for row in taylor[-2::-1]:
        head *= factor
        head += row[:m]
    for s in range(m, theta.size, _BLOCK):
        th, w, part = (theta[s:s + _BLOCK], weights[:, s:s + _BLOCK],
                       acc[s:s + _BLOCK])
        z = -1j * th
        np.exp(z, out=z)
        moment = (1.0 - z) * (-1j)
        moment /= th
        np.multiply(moment, w[0], out=part)
        for j in (1, 2, 3):
            moment *= j
            moment -= z
            moment *= -1j
            moment /= th
            part += w[j] * moment
    return acc


@dataclass(frozen=True, eq=False)
class DensityTable:
    """Spline surrogate of the overlap density, Fourier-transformed exactly.

    The spline interpolates fresh density evaluations at its knots and
    reproduces them at every knot midpoint within max(3e-10, 1e-9 |rho|);
    ``max_refine_dev`` is the worst midpoint deviation.  ``norm_direct``
    is the pure-quadrature normalization, kept alongside the spline's own
    integral as a build-quality record.  The table is zero outside its
    first and last knot, and :meth:`fourier` transforms it with no error
    beyond the spline's own.
    """

    spline: PiecewiseCubic = field(repr=False)
    norm_direct: float
    max_refine_dev: float

    @property
    def knots(self) -> np.ndarray:
        return self.spline.x

    @functools.cached_property
    def _ends(self) -> tuple[float, float]:
        # Python floats: with numpy-scalar bounds a scalar call, as the
        # QUADPACK references in the tests make, is about a third slower
        return float(self.knots[0]), float(self.knots[-1])

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        lo, hi = self._ends
        out = np.where((w >= lo) & (w <= hi),
                       self.spline(np.clip(w, lo, hi)), 0.0)
        return out if out.ndim else float(out)

    @property
    def norm(self) -> float:
        """The spline's integral over its knots, A(0)."""
        return float(self.fourier(0.0)[0].real)

    @functools.cached_property
    def _pieces(self):
        # starts x, widths h, weights a_j h^(j+1): sum_j w_j M_j(t h) e^{-ixt},
        # and the weights' Taylor coefficients, in order of width, so that
        # theta = t h is ascending for every t
        order = np.argsort(np.diff(self.spline.x), kind="stable")
        h = np.diff(self.spline.x)[order]
        weights = self.spline.c[::-1, order] * h ** np.arange(1, 5)[:, None]
        return self.spline.x[:-1][order], h, weights, _TAYLOR @ weights

    def fourier(self, times) -> np.ndarray:
        """Integral of rho(w) exp(-i w t) dw for each t >= 0, exactly.

        On every interval the cubic's transform is closed form in the
        moments M_j (Filon-type quadrature), so the result carries no
        quadrature or truncation error.  Times go one at a time, each in
        memory of a few values per interval.
        """
        t = np.atleast_1d(np.asarray(times, dtype=float))
        if np.any(t < 0):
            raise ValueError("the transform is evaluated for t >= 0")
        x, h, weights, taylor = self._pieces
        out = np.empty(t.shape, dtype=complex)
        for i, ti in enumerate(t.tolist()):
            acc = _moment_sums(ti * h, weights, taylor)
            # exp(-i t x) in one buffer: (-1j * t) * x would stage a complex
            # copy of x next to it
            phase = np.zeros(h.size, dtype=complex)
            np.multiply(x, -ti, out=phase.imag)
            out[i] = np.exp(phase, out=phase) @ acc
        return out


def _tail_cutoff(model: FriedrichsModel) -> float:
    """Truncation point for an unbounded coupling support."""
    lo, hi = model.form_factor.support
    if not np.isinf(hi):
        return hi
    f2 = model.form_factor.f2
    lam2 = model.lam**2
    w = 8.0 * max(model.omega0, model.form_factor.scale_hint)
    for _ in range(60):
        # crude density bound lam^2 f^2 / (w/2)^2 past the resonance region
        bound = 4.0 * lam2 * integrate(lambda x: f2(x) / x**2, w, np.inf,
                                       _NORM_SPEC).real
        if bound < 3e-10:
            return w
        w *= 2.0
    raise ValueError("coupling weight decays too slowly to truncate")


@functools.lru_cache(maxsize=8)
def density_table(model: FriedrichsModel) -> DensityTable:
    """Cached spline table of the model's overlap density.

    The knots start as the norm integral's nodes plus a ladder into each
    support edge where f^2 jumps.  Then one rule repeats: fit the spline
    through all knots, compare it at every knot midpoint with a fresh
    density, and make each midpoint that misses max(3e-10, 1e-9 |rho|) a
    knot.  Every midpoint is checked each round because a cubic spline is
    global: a new knot moves the fit on intervals accepted earlier.  Each
    density is evaluated once, and each set of new frequencies is one
    batched density call.  The cache is not single-flight: concurrent
    first callers for one model each build, and may each return, their
    own table.
    """
    hi = _tail_cutoff(model)
    lo = model.form_factor.support[0]
    density: dict[float, float] = {}

    def rho(ws):
        keys = np.asarray(ws, dtype=float).tolist()
        new = [w for w in keys if w not in density]
        if new:
            density.update(zip(new, spectral_density(
                model, np.array(new), _TABLE_SPEC).tolist()))
        return np.array([density[w] for w in keys])

    norm_direct = float(integrate(rho, lo, hi, _NORM_SPEC).real)

    # resolve the slow logarithmic walls at support edges where f^2 jumps
    scale = hi - lo
    ladder = scale * np.geomspace(1e-9, 1e-3, 19)
    edges = []
    if float(model.form_factor.f2(lo + 1e-9 * scale)) > 0:
        edges.append(lo + ladder)
    if not np.isinf(model.form_factor.support[1]) \
            and float(model.form_factor.f2(hi - 1e-9 * scale)) > 0:
        edges.append(hi - ladder)
    if edges:
        rho(np.concatenate(edges))

    knots = np.array(sorted(density))
    for _ in range(40):
        spline = _cubic_spline(knots, rho(knots))
        mids = 0.5 * (knots[:-1] + knots[1:])
        fresh = rho(mids)
        dev = np.abs(spline(mids) - fresh)
        bad = dev > np.maximum(3e-10, 1e-9 * np.abs(fresh))
        if not bad.any():
            break
        knots = np.sort(np.concatenate([knots, mids[bad]]))
    else:
        raise NonConvergence("density spline refinement did not settle")
    return DensityTable(spline=spline, norm_direct=norm_direct,
                        max_refine_dev=float(dev.max(initial=0.0)))


def survival_amplitude(model: FriedrichsModel, t: float) -> complex:
    """Overlap of the evolved level with itself at time t.

    The Fourier transform of the overlap density, taken exactly on the
    cached spline table (:meth:`DensityTable.fourier`).
    """
    if t < 0:
        raise ValueError("survival amplitude is evaluated for t >= 0")
    return complex(density_table(model).fourier(t)[0])


def survival_probability(model: FriedrichsModel, t_grid) -> SurvivalSeries:
    """Survival series |A(t)|^2 over an ordered nonnegative grid.

    The whole grid is one vectorised exact transform of the spline table.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("t_grid must be a non-empty 1-d sequence")
    amps = density_table(model).fourier(t)
    return SurvivalSeries(times=t, amplitudes=amps,
                          probabilities=np.abs(amps) ** 2)


def gamow_approximation(pole: ResonancePole, t):
    """Pure pole evolution exp(-i E_R t) exp(-Gamma t / 2).

    Defined for negative t as well, where it grows; that growth is the
    expected anti-causal behaviour of the pole term, not an error.
    """
    t_arr = np.asarray(t, dtype=float)
    out = np.exp(-1j * pole.z * t_arr)
    return out if out.ndim else complex(out)


def zeno_check(target, h: float = 0.01):
    """One-sided Richardson estimate of P'(0) with its error gauge.

    ``target`` is a model (survival probability is synthesized) or any
    callable P(t) such as an oracle series interpolant or an exponential
    control.  Two Richardson levels are compared, so the returned
    ``(slope, error_estimate)`` carries a defect of the extrapolation
    itself plus a noise floor; a value drowned in noise is visible rather
    than masked.  For a model the floor is ``_ZENO_NOISE`` (4e-10 per
    probability), a typical size of the spline table's error rather than
    a bound on it: the table matches fresh densities at its knot
    midpoints only within max(3e-10, 1e-9 |rho|).
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    if callable(target):
        p = target
        noise = 0.0
    else:
        model = target

        def p(tk: float) -> float:
            return abs(survival_amplitude(model, tk)) ** 2
        noise = _ZENO_NOISE

    p0 = float(p(0.0))
    diffs = [(float(p(h / 2**k)) - p0) / (h / 2**k) for k in range(3)]
    level_one = 2.0 * diffs[1] - diffs[0]
    level_two = 2.0 * diffs[2] - diffs[1]
    err = abs(level_two - level_one) + 3.0 * noise / h
    return level_two, err


def _window_points(t, lo, hi):
    mask = (t >= lo) & (t <= hi)
    return mask if int(mask.sum()) >= 6 else None


def _fit_exponential(t, log_p, lo, hi):
    mask = _window_points(t, lo, hi)
    if mask is None:
        return None
    slope, intercept = np.polyfit(t[mask], log_p[mask], 1)
    resid = log_p[mask] - (slope * t[mask] + intercept)
    return slope, float(np.sqrt(np.mean(resid**2))), (float(t[mask][0]),
                                                      float(t[mask][-1]))


def classify_regimes(series: SurvivalSeries, pole: ResonancePole,
                     noise_floor: float = 1e-13) -> RegimeReport:
    """Partition a survival curve into quadratic, exponential, tail windows.

    The exponential window is chosen by residual minimization over sliding
    log-linear fits seeded around [1/Gamma, 5/Gamma]; near-perfect fits
    are resolved in favour of the longest window so a synthetic
    exponential reports a single regime covering the whole span.
    """
    gamma = pole.gamma
    if gamma <= 0:
        raise ValueError("regime classification needs a decaying pole")
    t = series.times
    if series.span < 25.0 / gamma - 1e-9:
        raise InsufficientSpan(
            f"series spans {series.span:.3g}, need 25/Gamma = {25 / gamma:.3g}")

    positive = series.probabilities > 0
    tp = t[positive]
    log_p = np.log(series.probabilities[positive])

    # --- exponential window -------------------------------------------
    fits = []
    starts = np.linspace(0.3 / gamma, 3.0 / gamma, 10)
    lengths = np.array([2.0, 3.0, 4.0, 5.0, 6.0]) / gamma
    for s in starts:
        for ell in lengths:
            fit = _fit_exponential(tp, log_p, s, s + ell)
            if fit is not None:
                fits.append(fit)
    full = _fit_exponential(tp, log_p, tp[0], tp[-1])
    if full is not None:
        fits.append(full)
    if not fits:
        raise InsufficientSpan("too few points for an exponential fit")
    exact = [f for f in fits if f[1] < 1e-9]
    if exact:
        slope, exp_resid, exp_window = max(
            exact, key=lambda f: f[2][1] - f[2][0])
    else:
        slope, exp_resid, exp_window = min(fits, key=lambda f: f[1])
    gamma_fit = -slope

    # --- short-time quadratic window ----------------------------------
    zeno_window = None
    zeno_c = None
    zeno_resid = None
    limit = min(0.5 / gamma, exp_window[0])
    candidates = np.nonzero((t > 0) & (t <= limit))[0]
    for k in candidates[::-1]:
        tw = t[1:k + 1]
        drop = 1.0 - series.probabilities[1:k + 1]
        # drops at the noise floor cannot discriminate a power, skip them
        meaningful = drop > 1e-7
        if int(meaningful.sum()) < 4:
            continue
        c = float(np.dot(tw**2, drop) / np.dot(tw**2, tw**2))
        if c <= 0:
            continue
        rel = float(np.max(np.abs(drop[meaningful] - c * tw[meaningful]**2)
                           / drop[meaningful]))
        if rel <= 0.05:
            zeno_window = (float(t[0]), float(tw[-1]))
            zeno_c = c
            zeno_resid = rel
            break

    # --- long-time tail -------------------------------------------------
    tail_window = None
    tail_exponent = None
    tail_resolved = False
    tail_resid = None
    ratio_last = None
    ratio_increasing = None
    region = t > max(exp_window[1], 10.0 / gamma)
    tr = t[region]
    pr = series.probabilities[region]
    if tr.size >= 5:
        interior = np.nonzero((pr[1:-1] > pr[:-2]) & (pr[1:-1] > pr[2:]))[0] + 1
        peaks_t = tr[interior]
        peaks_p = pr[interior]
        if peaks_t.size >= 3 and np.max(peaks_p) > noise_floor:
            tail_resolved = True
            tail_window = (float(peaks_t[0]), float(tr[-1]))
            ratios = peaks_p / np.exp(-gamma * peaks_t)
            ratio_last = float(ratios[-1])
            ratio_increasing = bool(ratios[-1] > ratios[0])
            # fit the power law only once the background clearly outlives
            # the pole term; peaks with ratio below ~30 still interfere
            # with the exponential and fake a steep slope
            late = ratios > 30.0
            if int(late.sum()) >= 3:
                lt, lp = peaks_t[late], peaks_p[late]
                expo, icpt = np.polyfit(np.log(lt), np.log(lp), 1)
                tail_exponent = float(expo)
                resid = np.log(lp) - (expo * np.log(lt) + icpt)
                tail_resid = float(np.sqrt(np.mean(resid**2)))

    residuals = {"exponential": exp_resid}
    if zeno_resid is not None:
        residuals["zeno"] = zeno_resid
    if tail_resid is not None:
        residuals["tail"] = tail_resid

    if zeno_window is not None and zeno_window[1] > exp_window[0]:
        zeno_window = (zeno_window[0], exp_window[0])

    return RegimeReport(zeno_window=zeno_window, zeno_curvature=zeno_c,
                        exponential_window=exp_window, gamma_fit=gamma_fit,
                        tail_window=tail_window, tail_exponent=tail_exponent,
                        tail_resolved=tail_resolved,
                        tail_ratio_last=ratio_last,
                        tail_ratio_increasing=ratio_increasing,
                        fit_residuals=residuals)
