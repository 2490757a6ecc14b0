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
        error.  Times go one at a time.  Each takes one tangent per knot,
        U = tan(-t x / 2), and forms the phases exp(-i t x) from it in
        place, in the one (2, knots) buffer: cos(t x) = 2 / (1 + U^2) - 1
        and -sin(t x) = U 2 / (1 + U^2).  numpy has a SIMD loop for
        float64 tan on AVX-512 hardware but calls libm point by point for
        sin and cos; on the rational benchmark table the tangent and five
        array passes cost a quarter to a half of the cosine and sine, and
        less than them without that loop too.  The argument x (-t/2) is
        exactly half the rounded t x, so the phases keep its rounding,
        and the formulas add at most 5 u to each part (u the unit
        roundoff); t = 0 gives the phases (1, 0) exactly.  Three small
        real matrix products of the phases with the cached
        :attr:`_pieces` follow: the Taylor sums of the narrow intervals
        (t h < 1) and the end-point sums of the wide ones at their left
        and right knots.  A Horner step in t over 18 scalars, and one in
        1/(i t) over 4, finishes the time.  Memory stays at four values
        per knot.

        Large t: the phase t x is rounded by about u t |x|, and a late
        A(t) cancels end-point terms of size rho/t, so accuracy falls as
        t grows: on the flat benchmark table t = 1e12 gives no correct
        digit, and nothing warns.  A phase t x that overflows raises
        :class:`NumericalFailure`.
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
            # cos(t x) and -sin(t x) in the two rows of one buffer, from
            # U = tan(-t x / 2): 2 / (1 + U^2) - 1 and U 2 / (1 + U^2)
            phase = np.empty((2, knots.size))
            np.multiply(knots, -0.5 * ti, out=phase[1])
            np.tan(phase[1], out=phase[1])
            np.square(phase[1], out=phase[0])
            phase[0] += 1.0
            np.divide(2.0, phase[0], out=phase[0])
            phase[1] *= phase[0]
            phase[0] -= 1.0
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
    ff = model.form_factor
    if ff.support[1] < np.inf:
        return ff.support[1]
    w = 8.0 * max(model.omega0, ff.scale_hint)
    for _ in range(60):
        if w == np.inf:
            break
        # crude density bound lam^2 f^2 / (w/2)^2 past the resonance region
        if 4.0 * model.lam**2 * ff.tail_weight(w) < 3e-10:
            return w
        w *= 2.0
    raise NonConvergence("coupling weight decays too slowly to truncate")


@functools.lru_cache(maxsize=8)
def density_table(model: FriedrichsModel) -> DensityTable:
    """Cached spline table of the model's overlap density.

    The knots start as the norm integral's nodes plus a ladder into the
    lower end and any finite upper end of the support, with the densities
    evaluated there.
    Then one rule repeats: fit the spline through all knots, compare it at
    every knot midpoint with the density there, and make each midpoint
    that misses max(3e-10, 1e-9 |rho|) a knot, with that density.  Every
    midpoint is checked each round because a cubic spline is global: a
    new knot moves the fit on intervals accepted earlier.  The loop holds
    sorted arrays of knots and midpoints with their densities; only the
    two halves of each split interval are new, so no frequency is
    evaluated twice and each round is one batched density call.  A
    density, normalization or fit that is not finite raises
    :class:`NumericalFailure`: a NaN would pass every refinement test.
    The cache is not single-flight: concurrent first callers for one
    model each build, and may each return, their own table.
    """
    hi = _tail_cutoff(model)
    lo = model.form_factor.support[0]
    nodes, densities = [], []

    def rho(ws):
        fresh = spectral_density(model, ws)
        if not np.isfinite(fresh).all():
            raise NumericalFailure("the overlap density is not finite")
        nodes.append(ws)
        densities.append(fresh)
        return fresh

    norm_direct = float(integrate(rho, lo, hi).real)

    # ladders into the lower end and a finite upper end resolve what the
    # norm's nodes leave coarse there: the slow logarithmic wall where f^2
    # jumps, and the steep rise where it starts from 0 (the rational
    # profile's first knot is the lower ladder's first rung)
    ladder = (hi - lo) * np.geomspace(1e-9, 1e-3, 19)
    edges = lo + ladder
    if np.isfinite(model.form_factor.support[1]):
        edges = np.concatenate([edges, hi - ladder])
    rho(edges[~np.isin(edges, np.concatenate(nodes))])

    knots, first = np.unique(np.concatenate(nodes), return_index=True)
    values = np.concatenate(densities)[first]
    # the midpoints still to evaluate: all of them in the first round
    new, at_mids = np.ones(knots.size - 1, bool), np.empty(knots.size - 1)
    for _ in range(40):
        spline = _cubic_spline(knots, values)
        if not np.isfinite(spline.c).all():
            raise NumericalFailure("the density spline is not finite")
        mids = 0.5 * (knots[:-1] + knots[1:])
        at_mids[new] = rho(mids[new])
        dev = np.abs(spline(mids) - at_mids)
        bad = dev > np.maximum(3e-10, 1e-9 * np.abs(at_mids))
        if not bad.any():
            break
        # each failing midpoint becomes a knot; the halves of its interval
        # are the next round's new midpoints
        at = np.flatnonzero(bad) + 1
        knots = np.insert(knots, at, mids[bad])
        values = np.insert(values, at, at_mids[bad])
        new = np.repeat(bad, 1 + bad)
        at_mids = np.repeat(at_mids, 1 + bad)
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


def _line_fits(x, y, mask):
    """Least-squares lines y ~ slope x + intercept through the points
    (x, y), one line per row of the boolean ``mask`` (rows x points), each
    row selecting at least two distinct x: arrays of the rows' slopes,
    intercepts and RMS residuals.  Centred closed form, one array pass for
    all rows."""
    n = mask.sum(axis=1)
    x_mean, y_mean = (mask @ x) / n, (mask @ y) / n
    dx = np.where(mask, x - x_mean[:, None], 0.0)
    dy = np.where(mask, y - y_mean[:, None], 0.0)
    slope = np.einsum("ij,ij->i", dx, dy) / np.einsum("ij,ij->i", dx, dx)
    dy -= slope[:, None] * dx
    rms = np.sqrt(np.einsum("ij,ij->i", dy, dy) / n)
    return slope, y_mean - slope * x_mean, rms


def classify_regimes(series: SurvivalSeries,
                     pole: ResonancePole) -> RegimeReport:
    """Partition a survival curve into quadratic, exponential, tail windows.

    Exponential: a least-squares line through log P (the points with
    P > 0) on each of 51 candidate windows, [s, s + l] for s in
    linspace(0.3, 3, 10)/Gamma and l in (2, 3, 4, 5, 6)/Gamma, then the
    whole span; candidates with fewer than 6 points are dropped.  The
    longest fit with RMS residual below 1e-9 wins (a synthetic
    exponential is one regime over the whole span), else the least RMS,
    ties to the earlier candidate; ``gamma_fit`` is minus its slope.
    Zeno: (t_0, t_k) for the largest k with t_k <= min(0.5/Gamma, the
    exponential start) whose drops 1 - P(t_j), j = 1..k, fit c t^2 with
    c > 0 and leave each of at least 4 drops above 1e-7 within 5%.
    Tail: resolved by at least 3 local maxima of P past max(the
    exponential end, 10/Gamma), the largest above ``_TAIL_FLOOR``; a power
    law is fitted through those whose ratio to exp(-Gamma t) exceeds 30,
    once there are 3.  A span under 25/Gamma, or no candidate left, raises
    :class:`InsufficientSpan`.  Each window's candidates are one array
    pass.
    """
    gamma = pole.gamma
    if gamma <= 0:
        raise ValueError("regime classification needs a decaying pole")
    t, p = series.times, series.probabilities
    if series.span < 25.0 / gamma - 1e-9:
        raise InsufficientSpan(
            f"series spans {series.span:.3g}, need 25/Gamma = {25 / gamma:.3g}")

    # --- exponential window -------------------------------------------
    tp, log_p = t[p > 0], np.log(p[p > 0])
    starts = np.linspace(0.3 / gamma, 3.0 / gamma, 10)
    lengths = np.array([2.0, 3.0, 4.0, 5.0, 6.0]) / gamma
    lo = np.append(np.repeat(starts, lengths.size), -np.inf)
    hi = np.append(starts[:, None] + lengths, np.inf)
    mask = (tp >= lo[:, None]) & (tp <= hi[:, None])
    mask = mask[mask.sum(axis=1) >= 6]
    if not mask.size:
        raise InsufficientSpan("too few points for an exponential fit")
    slope, _, rms = _line_fits(tp, log_p, mask)
    # each window is a run of points from its first to its last
    first = mask.argmax(axis=1)
    last = mask.shape[1] - 1 - mask[:, ::-1].argmax(axis=1)
    exact = rms < 1e-9
    best = (np.argmax(np.where(exact, tp[last] - tp[first], -np.inf))
            if exact.any() else np.argmin(rms))
    exp_window = (float(tp[first[best]]), float(tp[last[best]]))
    residuals = {"exponential": float(rms[best])}

    # --- short-time quadratic window ----------------------------------
    zeno_window = zeno_c = None
    # the ends t_1..t_{k-1}, at or before exp_window[0] so that the window
    # never overlaps it; entry r of ``c`` and ``n`` is the end t_{r+1}
    k = int(np.searchsorted(t, min(0.5 / gamma, exp_window[0]), "right"))
    tw2 = t[1:k]**2
    drop = 1.0 - p[1:k]
    c = np.cumsum(tw2 * drop) / np.cumsum(tw2 * tw2)
    # drops at the noise floor cannot discriminate a power, skip them
    used = drop > 1e-7
    n = np.cumsum(used)
    ends = np.nonzero((n >= 4) & (c > 0))[0]
    # the misfit |1 - c q| of a drop with q = t^2 / drop is convex in q, so
    # an end's worst is at the least or the largest q up to it
    q = tw2[used] / drop[used]
    q_lo = np.minimum.accumulate(q)[n[ends] - 1]
    q_hi = np.maximum.accumulate(q)[n[ends] - 1]
    rel = np.maximum(abs(1.0 - c[ends] * q_lo), abs(1.0 - c[ends] * q_hi))
    if (rel <= 0.05).any():
        end = np.nonzero(rel <= 0.05)[0][-1]
        zeno_window = (float(t[0]), float(t[ends[end] + 1]))
        zeno_c = float(c[ends[end]])
        residuals["zeno"] = float(rel[end])

    # --- long-time tail -------------------------------------------------
    tail_window = tail_exponent = ratio_last = ratio_increasing = None
    tail_resolved = False
    region = t > max(exp_window[1], 10.0 / gamma)
    tr, pr = t[region], p[region]
    if tr.size >= 5:
        interior = np.nonzero((pr[1:-1] > pr[:-2]) & (pr[1:-1] > pr[2:]))[0] + 1
        peaks_t, peaks_p = tr[interior], pr[interior]
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
                expo, _, rms = _line_fits(
                    np.log(peaks_t[late]), np.log(peaks_p[late]),
                    np.ones((1, int(late.sum())), dtype=bool))
                tail_exponent = float(expo[0])
                residuals["tail"] = float(rms[0])

    return RegimeReport(zeno_window=zeno_window, zeno_curvature=zeno_c,
                        exponential_window=exp_window,
                        gamma_fit=-float(slope[best]),
                        tail_window=tail_window, tail_exponent=tail_exponent,
                        tail_resolved=tail_resolved,
                        tail_ratio_last=ratio_last,
                        tail_ratio_increasing=ratio_increasing,
                        fit_residuals=residuals)
