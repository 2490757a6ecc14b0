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
from .numerics import (NonConvergence, NumericalFailure, PiecewiseCubic,
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

# noise floor of a synthesised P(t) in zeno_check: a typical value, not a
# derived bound.  The transform is exact for the spline, but the spline's
# refinement threshold is max(3e-10, 1e-9 |rho|) at each knot midpoint (the
# worst deviation is 6e-8 on the rational benchmark table), and the error
# of A(t) is bounded by the integral of |spline - rho|, not by 3e-10
_ZENO_NOISE = 4e-10
# classify_regimes resolves no tail whose peaks all stay at or below this
# P(t), where the curve is roundoff of the synthesised amplitudes
_TAIL_FLOOR = 1e-13

# the transform of one spline piece, sum_j w_j M_j(theta) with weights
# w_j = a_j h^(j+1) and moments M_j(theta) = integral of u^j exp(-i theta u)
# over [0, 1], j = 0..3, at theta = t h.  Below the switch it is the Taylor
# series M_j = sum_n (-i theta)^n _TAYLOR[n, j], 18 terms (remainder
# < 1/18!), with n! as the float product 1 * 2 * ... * n, exact up to
# 17! < 2^53; from the switch up the closed form (integration by parts,
# exact for a cubic) takes over, whose terms cancel like 1/theta^4 below it
_MOMENT_SWITCH = 1.0
_TAYLOR = 1.0 / (np.cumprod(np.maximum(np.arange(18.0), 1.0))[:, None]
                 * (np.arange(18)[:, None] + np.arange(1, 5)))


class InsufficientSpan(ValueError):
    """The series does not reach far enough to separate decay regimes."""


class UnitarityViolation(NumericalFailure, ValueError):
    """Survival probabilities leave [0, 1], or P(0) misses 1, by more than
    1e-8 (a NaN misses both): for a computed series, a defect of the
    route that made it."""


def _check_start(p0: float) -> None:
    """Raise :class:`UnitarityViolation` unless P(0) is 1 within 1e-8."""
    if not abs(p0 - 1.0) <= 1e-8:
        raise UnitarityViolation(f"P(0) = {float(p0)!r} is not 1 within 1e-8")


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
        if not np.all(np.isfinite(t)):
            raise ValueError("times must be finite")
        if t.size and (t[0] < 0 or np.any(np.diff(t) <= 0)):
            raise ValueError("times must be nonnegative and increasing")
        if not np.all((p >= -1e-8) & (p <= 1.0 + 1e-8)):
            raise UnitarityViolation(
                "probabilities escape [0, 1] beyond tolerance")
        if t.size and t[0] == 0.0:
            _check_start(p[0])
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

    def __call__(self, omega):
        return self.spline(omega)

    @functools.cached_property
    def norm(self) -> float:
        """The spline's integral over its knots, A(0)."""
        return float(self.fourier(0.0)[0].real)

    @functools.cached_property
    def _pieces(self):
        """Per-interval coefficient matrices of the transform, with the
        intervals in ascending order of width h, so that for every t the
        Taylor ones (t h below the switch) come first.

        ``knots`` holds the intervals' left knots x_k in that order, then
        the last knot, and ``right`` places each right knot x_k + h_k in
        it, so that no phase is gathered but the right ones.  Row k of
        ``taylor`` holds sum_j w_j _TAYLOR[n, j] h^n for n = 0..17: below
        the switch the piece's transform is exp(-i t x_k) times
        sum_n (-i t)^n taylor[k, n].  Rows of ``first`` and ``last`` hold
        the piece's derivatives 0..3 at its left and right knot: integrated
        by parts four times, its transform is the sum over p of (i t)^-(p+1)
        (first[k, p] exp(-i t x_k) - last[k, p] exp(-i t (x_k + h_k))).
        """
        x, c = self.spline.x, self.spline.c
        order = np.argsort(np.diff(x), kind="stable")
        h = np.diff(x)[order]
        place = np.empty(x.size, dtype=np.intp)
        place[order], place[-1] = np.arange(h.size), h.size
        a = c[::-1, order]
        a0, a1, a2, a3 = a
        weights = a * h ** np.arange(1, 5)[:, None]
        powers = h[:, None] ** np.arange(len(_TAYLOR))
        taylor = (weights.T @ _TAYLOR.T) * powers
        first = np.column_stack([a0, a1, 2.0 * a2, 6.0 * a3])
        last = np.column_stack([((a3 * h + a2) * h + a1) * h + a0,
                                (3.0 * a3 * h + 2.0 * a2) * h + a1,
                                6.0 * a3 * h + 2.0 * a2, 6.0 * a3])
        return (np.append(x[order], x[-1]), h, place[order + 1], taylor,
                first, last)

    def fourier(self, times) -> np.ndarray:
        """Integral of rho(w) exp(-i w t) dw for each finite t >= 0, exactly.

        On every interval the cubic's transform is closed form (Filon-type
        quadrature), so the result carries no quadrature or truncation
        error.  Times go one at a time.  Each takes one cosine and one sine
        per knot for the phases exp(-i t x), then three small real matrix
        products of those phases with the cached :attr:`_pieces`: the
        Taylor sums of the narrow intervals (t h < 1) and the end-point
        sums of the wide ones at their left and right knots.  A Horner
        step in t over 18 scalars, and one in 1/(i t) over 4, finishes
        the time.  Memory stays at four values per knot.

        Large t: the phase t x is rounded by about u t |x| (u the unit
        roundoff), and a late A(t) cancels end-point terms of size rho/t,
        so accuracy falls as t grows: on the flat benchmark table t = 1e12
        gives no correct digit, and nothing warns.  A phase t x that
        overflows raises :class:`NumericalFailure`.
        """
        t = np.atleast_1d(np.asarray(times, dtype=float))
        if t.ndim != 1:
            raise ValueError("times are a scalar or 1-d")
        t = t.tolist()
        if not all(0.0 <= ti < np.inf for ti in t):
            raise ValueError("the transform is evaluated at finite t >= 0")
        knots, h, right, taylor, first, last = self._pieces
        # the last knot is the largest, and no knot is negative
        if max(t, default=0.0) * float(knots[-1]) == np.inf:
            raise NumericalFailure("the phase t * omega overflows at "
                                   f"t = {max(t)!r}")
        out = np.empty(len(t), dtype=complex)
        for i, ti in enumerate(t):
            # cos(t x) and -sin(t x) in the two rows of one buffer
            phase = np.empty((2, knots.size))
            np.multiply(knots, -ti, out=phase[1])
            np.cos(phase[1], out=phase[0])
            np.sin(phase[1], out=phase[1])
            m = (h.size if ti == 0.0
                 else int(np.searchsorted(h, _MOMENT_SWITCH / ti)))
            re = im = 0.0
            if m:
                # Horner in z = -i t: (re + i im) z = t im - i t re
                sums = phase[:, :m] @ taylor[:m]
                for cos_sum, sin_sum in zip(*sums[:, ::-1].tolist()):
                    re, im = ti * im + cos_sum, sin_sum - ti * re
            if m < h.size:
                sums = phase[:, m:-1] @ first[m:]
                sums -= phase.take(right[m:], axis=1) @ last[m:]
                # Horner in v = 1/(i t): (a + i b) v = (b - i a) / t
                a = b = 0.0
                for cos_sum, sin_sum in zip(*sums[:, ::-1].tolist()):
                    a, b = (b + sin_sum) / ti, -(a + cos_sum) / ti
                re, im = re + a, im + b
            out[i] = complex(re, im)
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
        if w == np.inf:
            break
        # crude density bound lam^2 f^2 / (w/2)^2 past the resonance region
        bound = 4.0 * lam2 * integrate(lambda x: f2(x) / x**2, w,
                                       np.inf).real
        if bound < 3e-10:
            return w
        w *= 2.0
    raise NonConvergence("coupling weight decays too slowly to truncate")


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
    batched density call.  A density, normalization or fit that is not
    finite raises :class:`NumericalFailure`: a NaN would pass every
    refinement test.  The cache is not single-flight: concurrent first
    callers for one model each build, and may each return, their own
    table.
    """
    hi = _tail_cutoff(model)
    lo = model.form_factor.support[0]
    density: dict[float, float] = {}

    def rho(ws):
        keys = np.asarray(ws, dtype=float).tolist()
        new = [w for w in keys if w not in density]
        if new:
            fresh = spectral_density(model, np.array(new))
            if not np.isfinite(fresh).all():
                raise NumericalFailure("the overlap density is not finite")
            density.update(zip(new, fresh.tolist()))
        return np.array([density[w] for w in keys])

    norm_direct = float(integrate(rho, lo, hi).real)
    if not np.isfinite(norm_direct):
        raise NumericalFailure("the overlap density's norm is not finite")

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
        if not np.isfinite(spline.c).all():
            raise NumericalFailure("the density spline is not finite")
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


def survival_amplitude(model: FriedrichsModel, t):
    """A(t) of the model's level: a Python complex for a scalar t, an array
    for a 1-d array, the exact transform of the cached spline table
    (:meth:`DensityTable.fourier`, which checks the times).  Whatever the
    times, P(0) = A(0)^2, the table's :attr:`~DensityTable.norm` squared,
    must be 1 within 1e-8: a table that misses weight (a bound state it
    leaves out) raises :class:`UnitarityViolation`."""
    table = density_table(model)
    _check_start(table.norm ** 2)
    amps = table.fourier(t)
    return amps if np.ndim(t) else complex(amps[0])


def survival_probability(model: FriedrichsModel, t_grid) -> SurvivalSeries:
    """Survival series |A(t)|^2 over an ordered nonnegative grid, from one
    :func:`survival_amplitude` call."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("t_grid must be a non-empty 1-d sequence")
    amps = survival_amplitude(model, t)
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


def zeno_check(target):
    """One-sided Richardson estimate of P'(0) with its error gauge, from
    P at t = 0, h, h/2 and h/4 with h = 0.01.

    ``target`` is a model, whose four P(t) come from one P(0)-checked
    :func:`survival_amplitude` call, or any callable P(t) such as an
    oracle series interpolant or an exponential control.  Two Richardson
    levels are compared, so the returned ``(slope, error_estimate)``
    carries a defect of the extrapolation itself plus a noise floor; a
    value drowned in noise is visible rather than masked.  For a model
    the floor is ``_ZENO_NOISE`` (4e-10 per probability), a typical size
    of the spline table's error rather than a bound on it: the table
    matches fresh densities at its knot midpoints only within
    max(3e-10, 1e-9 |rho|).
    """
    h = 0.01
    times = [0.0, h, h / 2, h / 4]
    if callable(target):
        p = [float(target(tk)) for tk in times]
        noise = 0.0
    else:
        p = (np.abs(survival_amplitude(target, times)) ** 2).tolist()
        noise = _ZENO_NOISE
    diffs = [(pk - p[0]) / tk for pk, tk in zip(p[1:], times[1:])]
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


def classify_regimes(series: SurvivalSeries,
                     pole: ResonancePole) -> RegimeReport:
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
    # ending at or before exp_window[0], the window never overlaps it
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
        if peaks_t.size >= 3 and np.max(peaks_p) > _TAIL_FLOOR:
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

    return RegimeReport(zeno_window=zeno_window, zeno_curvature=zeno_c,
                        exponential_window=exp_window, gamma_fit=gamma_fit,
                        tail_window=tail_window, tail_exponent=tail_exponent,
                        tail_resolved=tail_resolved,
                        tail_ratio_last=ratio_last,
                        tail_ratio_increasing=ratio_increasing,
                        fit_residuals=residuals)
