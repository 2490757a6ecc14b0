import math
import tracemalloc
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import BSpline, CubicSpline, PPoly
from scipy.optimize import brentq

import gamow_thermo as gt
from gamow_thermo import decay, friedrichs
from gamow_thermo.decay import (
    DensityTable,
    InsufficientSpan,
    RegimeReport,
    SurvivalSeries,
    _MOMENT_SWITCH,
)
from gamow_thermo.numerics import PiecewiseCubic

_U = np.finfo(float).eps / 2


def _quadpack_fourier(density, edges, t):
    """Independent reference for the integral of density(w) exp(-i w t):
    QUADPACK's cosine- and sine-weighted rules (QAWO) on the scalar
    callable, piece by piece between consecutive edges."""
    def part(weight):
        return sum(quad(density, a, b, weight=weight, wvar=t, epsabs=1e-13,
                        limit=500)[0] for a, b in zip(edges[:-1], edges[1:]))

    return part("cos") - 1j * part("sin")


def _table_from_spline(spline):
    """A DensityTable around a given spline, zero outside its knots."""
    x = spline.x
    return DensityTable(spline=spline,
                        norm_direct=float(spline.integrate(x[0], x[-1])),
                        max_refine_dev=0.0)


# the random nonnegative splines of the transform's properties: knot gaps
# and cubic B-spline coefficients
_GAPS = st.lists(st.floats(0.05, 2.0), min_size=2, max_size=10)
_COEFFICIENTS = st.lists(st.floats(0.0, 1.0), min_size=13, max_size=13)


def _nonnegative_table(gaps, coef):
    """Cubic B-splines with nonnegative coefficients are nonnegative C^2
    splines: the one on knots at the cumulative ``gaps`` from 0, with the
    first and last coefficient zeroed so that it drops continuously to
    zero outside them, as a DensityTable.  Returns the knots and the
    table."""
    inner = np.concatenate([[0.0], np.cumsum(gaps)])
    knots = np.concatenate([[inner[0]] * 3, inner, [inner[-1]] * 3])
    c = np.array(coef[:knots.size - 4])
    c[0] = c[-1] = 0.0
    bspline = BSpline(knots, c, 3)
    deriv = bspline.derivative()
    spline = CubicSpline(inner, bspline(inner),
                         bc_type=((1, float(deriv(inner[0]))),
                                  (1, float(deriv(inner[-1])))))
    return inner, _table_from_spline(spline)


def _regimes_by_polyfit(series, pole):
    """The regime rule written plainly, one ``np.polyfit`` per candidate
    window and one loop over the Zeno ends: the reference that
    :func:`classify_regimes` must reproduce.  Returns the report's
    fields as a dict."""
    gamma = pole.gamma
    t, p = series.times, series.probabilities
    tp, log_p = t[p > 0], np.log(p[p > 0])

    def fit(x, y):
        slope, icpt = np.polyfit(x, y, 1)
        return slope, float(np.sqrt(np.mean((y - (slope * x + icpt))**2)))

    fits = []
    windows = [(s, s + ell) for s in np.linspace(0.3 / gamma, 3.0 / gamma, 10)
               for ell in np.array([2.0, 3.0, 4.0, 5.0, 6.0]) / gamma]
    for lo, hi in windows + [(tp[0], tp[-1])]:
        mask = (tp >= lo) & (tp <= hi)
        if mask.sum() >= 6:
            fits.append(fit(tp[mask], log_p[mask])
                        + ((float(tp[mask][0]), float(tp[mask][-1])),))
    exact = [f for f in fits if f[1] < 1e-9]
    slope, exp_resid, exp_window = (
        max(exact, key=lambda f: f[2][1] - f[2][0]) if exact
        else min(fits, key=lambda f: f[1]))
    out = {"exponential_window": exp_window, "gamma_fit": -slope,
           "zeno_window": None, "zeno_curvature": None,
           "tail_window": None, "tail_exponent": None,
           "tail_resolved": False, "tail_ratio_last": None,
           "tail_ratio_increasing": None,
           "fit_residuals": {"exponential": exp_resid}}

    limit = min(0.5 / gamma, exp_window[0])
    for k in np.nonzero((t > 0) & (t <= limit))[0][::-1]:
        tw, drop = t[1:k + 1], 1.0 - p[1:k + 1]
        meaningful = drop > 1e-7
        if meaningful.sum() < 4:
            continue
        c = float(np.dot(tw**2, drop) / np.dot(tw**2, tw**2))
        if c <= 0:
            continue
        rel = float(np.max(np.abs(drop[meaningful] - c * tw[meaningful]**2)
                           / drop[meaningful]))
        if rel <= 0.05:
            out.update(zeno_window=(float(t[0]), float(tw[-1])),
                       zeno_curvature=c)
            out["fit_residuals"]["zeno"] = rel
            break

    region = t > max(exp_window[1], 10.0 / gamma)
    tr, pr = t[region], p[region]
    if tr.size >= 5:
        interior = np.nonzero((pr[1:-1] > pr[:-2])
                              & (pr[1:-1] > pr[2:]))[0] + 1
        peaks_t, peaks_p = tr[interior], pr[interior]
        if peaks_t.size >= 3 and np.max(peaks_p) > decay._TAIL_FLOOR:
            ratios = peaks_p / np.exp(-gamma * peaks_t)
            out.update(tail_resolved=True,
                       tail_window=(float(peaks_t[0]), float(tr[-1])),
                       tail_ratio_last=float(ratios[-1]),
                       tail_ratio_increasing=bool(ratios[-1] > ratios[0]))
            late = ratios > 30.0
            if late.sum() >= 3:
                expo, resid = fit(np.log(peaks_t[late]),
                                  np.log(peaks_p[late]))
                out["tail_exponent"] = float(expo)
                out["fit_residuals"]["tail"] = resid
    return out


@pytest.fixture(scope="module")
def rational_series(rational_model):
    """The rational model on a grid shaped like the benchmark's: a
    log-dense head to 0.9/Gamma, then a linear body to 27/Gamma."""
    gamma = gt.find_pole(rational_model).gamma
    grid = np.concatenate([[0.0], np.geomspace(0.005, 0.9 / gamma, 30),
                           np.linspace(1.0 / gamma, 27.0 / gamma, 115)])
    return gt.survival_probability(rational_model, grid)


@pytest.fixture(scope="module")
def synthetic_series(flat_pole):
    ts = np.linspace(0.0, 26.0 / flat_pole.gamma, 400)
    amps = np.exp(-1j * flat_pole.z * ts)
    return SurvivalSeries(times=ts, amplitudes=amps,
                          probabilities=np.abs(amps) ** 2)


@pytest.fixture(scope="module")
def dense_head_series(flat_pole):
    """P = exp(-Gamma (sqrt(t^2 + 1) - 1)): quadratic for t << 1, then
    exponential, on a log grid of 4000 points to 27/Gamma, 2770 of them
    below 0.5/Gamma where the Zeno window may end."""
    gamma = flat_pole.gamma
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 27.0 / gamma, 4000)])
    probs = np.exp(-gamma * (np.sqrt(ts**2 + 1.0) - 1.0))
    return SurvivalSeries(times=ts, amplitudes=np.sqrt(probs) + 0j,
                          probabilities=probs)


class TestDensityTable:
    def test_norm_agreement(self, flat_table):
        # spline integral against the pure-quadrature normalization
        assert abs(flat_table.norm - flat_table.norm_direct) < 5e-9

    def test_table_tracks_direct_density(self, flat_model, flat_table):
        rng = np.random.default_rng(2)
        probes = rng.uniform(0.2, 9.8, size=12)
        direct = gt.spectral_density(flat_model, probes)
        assert np.max(np.abs(flat_table(probes) - direct)) < 5e-9

    @pytest.mark.parametrize("form_factor", [
        gt.FlatCutoff(cutoff=10.0), gt.RationalFormFactor(scale=1.0),
        gt.TabulatedFormFactor(
            grid=np.linspace(0.0, 10.0, 41),
            values=gt.RationalFormFactor(scale=1.0).f2(
                np.linspace(0.0, 10.0, 41)))],
        ids=["flat", "rational", "tabulated"])
    def test_knots_hold_the_public_densities(self, form_factor):
        """The spline passes through spectral_density itself at every knot
        (the last one is evaluated from the piece on its left)."""
        model = gt.FriedrichsModel(omega0=1.0, lam=0.1,
                                   form_factor=form_factor)
        table = gt.density_table(model)
        knots = table.knots[:-1]
        np.testing.assert_array_equal(table(knots),
                                      gt.spectral_density(model, knots))

    @pytest.mark.parametrize("form_factor", [
        gt.FlatCutoff(cutoff=10.0), gt.RationalFormFactor(scale=1.0),
        gt.TabulatedFormFactor(
            grid=np.linspace(0.0, 10.0, 41),
            values=gt.RationalFormFactor(scale=1.0).f2(
                np.linspace(0.0, 10.0, 41)))],
        ids=["flat", "rational", "tabulated"])
    def test_refinement_evaluates_each_frequency_once(self, form_factor,
                                                      monkeypatch):
        """No frequency reaches the density twice.  Each round fits the
        spline and then evaluates its new midpoints in one call: every
        midpoint in the first round, and after it exactly the two halves
        of each interval split by a new knot."""
        events, evaluated = [], []
        density, fit = decay.spectral_density, decay._cubic_spline

        def counted_density(model, omega):
            evaluated.append(np.array(omega, dtype=float))
            events.append(("density", np.size(omega)))
            return density(model, omega)

        def counted_fit(x, y):
            events.append(("fit", np.size(x)))
            return fit(x, y)

        monkeypatch.setattr(decay, "spectral_density", counted_density)
        monkeypatch.setattr(decay, "_cubic_spline", counted_fit)
        model = gt.FriedrichsModel(omega0=1.0, lam=0.1,
                                   form_factor=form_factor)
        table = gt.density_table.__wrapped__(model)
        seen = np.concatenate(evaluated)
        assert np.unique(seen).size == seen.size
        rounds = events[[kind for kind, _ in events].index("fit"):]
        assert [kind for kind, _ in rounds] == ["fit", "density"] * (
            len(rounds) // 2)
        knots = [n for _, n in rounds[::2]]
        assert knots[-1] == table.knots.size and len(knots) > 1
        assert [n for _, n in rounds[1::2]] == [knots[0] - 1] + [
            2 * (new - old) for old, new in zip(knots, knots[1:])]

    def test_cache_returns_same_object(self, flat_model, flat_table):
        assert gt.density_table(flat_model) is flat_table

    @pytest.mark.parametrize("cutoff", [1e-300, 1e308])
    def test_non_finite_build_is_numerical(self, cutoff):
        """Knots closer than float resolution, or a density that
        overflows, give no finite fit: the build stops, where a NaN would
        pass every refinement test."""
        model = gt.FriedrichsModel(omega0=1.0, lam=0.1,
                                   form_factor=gt.FlatCutoff(cutoff=cutoff))
        with pytest.raises(gt.NumericalFailure, match="not finite"):
            gt.density_table(model)

    @pytest.mark.parametrize("density,match", [
        (np.nan, "overlap density is not finite"),
        (1e307, "the integral overflows")],
        ids=["nan-density", "norm-overflow"])
    def test_non_finite_density_or_norm_is_numerical(self, flat_model,
                                                     monkeypatch, density,
                                                     match):
        """A NaN density, or finite densities whose norm integral
        overflows, stop the build before any fit."""
        monkeypatch.setattr(decay, "spectral_density",
                            lambda model, omega: np.full(np.shape(omega),
                                                         density))
        with pytest.raises(gt.NumericalFailure, match=match):
            gt.density_table.__wrapped__(flat_model)

    def test_untruncatable_tail_is_numerical(self):
        """8 max(omega0, scale) overflows: no truncation point exists."""
        model = gt.FriedrichsModel(
            omega0=1e308, lam=0.1,
            form_factor=gt.RationalFormFactor(scale=1.0))
        with pytest.raises(gt.NonConvergence, match="too slowly"):
            gt.density_table(model)

    def test_build_batches_the_boundary_self_energy(self, rational_model,
                                                    monkeypatch):
        """A build makes one boundary evaluation per density batch (tens),
        never one per frequency (thousands)."""
        batches, boundary = [], []
        density = decay.spectral_density
        eta = friedrichs.self_energy

        def counted_density(model, omega):
            batches.append(np.size(omega))
            return density(model, omega)

        def counted_eta(model, z, sheet="I"):
            boundary.append(len(batches))
            return eta(model, z, sheet)

        monkeypatch.setattr(decay, "spectral_density", counted_density)
        monkeypatch.setattr(friedrichs, "self_energy", counted_eta)
        table = gt.density_table.__wrapped__(rational_model)
        assert sum(batches) >= 2000 and table.knots.size >= 1000
        assert len(boundary) <= 100
        # no per-point loop: at most one boundary call per density batch
        assert max(Counter(boundary).values()) == 1

    @settings(max_examples=10, deadline=None)
    @given(omega0=st.floats(0.5, 2.0), lam=st.floats(0.05, 0.2),
           form=st.one_of(
               st.builds(gt.FlatCutoff, cutoff=st.floats(5.0, 20.0)),
               st.builds(gt.RationalFormFactor, scale=st.floats(0.5, 2.0))))
    def test_every_midpoint_meets_the_contract(self, omega0, lam, form):
        """The returned spline reproduces a fresh density at every knot
        midpoint, and ``max_refine_dev`` is the worst of those deviations."""
        model = gt.FriedrichsModel(omega0=omega0, lam=lam, form_factor=form)
        table = gt.density_table.__wrapped__(model)
        mids = 0.5 * (table.knots[:-1] + table.knots[1:])
        fresh = gt.spectral_density(model, mids)
        dev = np.abs(table(mids) - fresh)
        assert np.all(dev <= np.maximum(3e-10, 1e-9 * np.abs(fresh)))
        assert table.max_refine_dev == dev.max()
        assert abs(table.norm - table.norm_direct) < 5e-9


def _flat_bound_weight(omega0, lam, cutoff):
    """Weight 1/eta'(E_b) of the flat model's bound state below threshold,
    from the closed form eta(E) = E - omega0 - lam^2 ln(-E / (c - E)),
    its root bracketed in u = ln(-E); 0 for a root below 1e-304."""
    lam2 = lam * lam

    def eta(u):
        return -np.exp(u) - omega0 - lam2 * (u - np.log(cutoff + np.exp(u)))

    if eta(-700.0) < 0:
        return 0.0
    e_b = -np.exp(brentq(eta, -700.0, 10.0, xtol=1e-14))
    return 1.0 / (1.0 + lam2 / -e_b - lam2 / (cutoff - e_b))


def _flat(omega0, lam, cutoff):
    return gt.FriedrichsModel(omega0=omega0, lam=lam,
                              form_factor=gt.FlatCutoff(cutoff=cutoff))


def _rational(omega0, lam, scale):
    return gt.FriedrichsModel(omega0=omega0, lam=lam,
                              form_factor=gt.RationalFormFactor(scale=scale))


class TestSurvivalAmplitude:
    @settings(max_examples=25, deadline=None)
    @given(model=st.one_of(
        st.builds(_flat, omega0=st.floats(0.5, 2.0), lam=st.floats(0.05, 0.5),
                  cutoff=st.floats(5.0, 20.0)),
        st.builds(_rational, omega0=st.floats(0.5, 2.0),
                  lam=st.floats(0.05, 0.5), scale=st.floats(0.5, 2.0))))
    @example(model=_flat(1.0, 0.3, 10.0))
    @example(model=_flat(0.5, 0.22, 5.0))
    def test_unitarity_over_the_parameter_space(self, model):
        """Amplitudes on a fixed grid either raise UnitarityViolation or
        keep P(0) = 1 and P <= 1 within 1e-8.  A flat model whose bound
        state (closed form) takes more than 1e-6 of P(0) must raise:
        the table leaves that weight out."""
        ts = np.linspace(0.0, 200.0, 81)
        form = model.form_factor
        missed = 0.0
        if isinstance(form, gt.FlatCutoff):
            missed = 1.0 - (1.0 - _flat_bound_weight(
                model.omega0, model.lam, form.cutoff)) ** 2
        try:
            p = np.abs(gt.survival_amplitude(model, ts)) ** 2
        except gt.UnitarityViolation:
            return
        assert missed <= 1e-6
        assert abs(p[0] - 1.0) <= 1e-8
        assert np.all(p <= 1.0 + 1e-8)

    def test_normalization_at_zero(self, flat_model, flat_table):
        amp = gt.survival_amplitude(flat_model, 0.0)
        assert abs(amp - 1.0) < 1e-8

    def test_modulus_bounded(self, flat_model, flat_pole, flat_table):
        ts = np.linspace(0.0, 10.0 / flat_pole.gamma, 40)
        for t in ts:
            assert abs(gt.survival_amplitude(flat_model, float(t))) \
                <= 1.0 + 1e-8

    def test_matches_direct_density_route(self, flat_model, flat_table):
        """Spline-cached synthesis against QUADPACK on the raw quadrature
        density, between every 64th knot of the table."""
        def direct(w):
            return gt.spectral_density(flat_model, w)

        edges = np.append(flat_table.knots[::64], flat_table.knots[-1])
        for t in (0.5, 5.0, 20.0):
            cached = gt.survival_amplitude(flat_model, t)
            raw = _quadpack_fourier(direct, edges, t)
            assert abs(cached - raw) < 1e-7

    def test_mid_window_against_oracle(self, flat_model, flat_pole,
                                       oracle_4000, flat_table):
        t = 2.0 / flat_pole.gamma
        p = abs(gt.survival_amplitude(flat_model, t)) ** 2
        p_oracle = float(oracle_4000.survival_probability(t))
        assert abs(p - p_oracle) / p_oracle < 0.03

    def test_negative_time_rejected(self, flat_model):
        with pytest.raises(ValueError):
            gt.survival_amplitude(flat_model, -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, flat_model, flat_table, bad):
        with pytest.raises(ValueError, match="finite"):
            gt.survival_amplitude(flat_model, bad)
        with pytest.raises(ValueError, match="finite"):
            gt.survival_probability(flat_model, [0.0, 1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            flat_table.fourier([bad])

    def test_two_dimensional_times_rejected(self, flat_model, flat_table):
        with pytest.raises(ValueError, match="scalar or 1-d"):
            flat_table.fourier([[0.0, 1.0]])
        with pytest.raises(ValueError, match="scalar or 1-d"):
            gt.survival_amplitude(flat_model, np.zeros((2, 2)))


class TestExactSynthesis:
    """The spline table's closed-form Fourier transform."""

    @staticmethod
    def _moments_closed_form(theta, mp):
        # M_j = j!/(i theta)^(j+1) [1 - exp(-i theta) sum_m<=j (i theta)^m/m!]
        it = 1j * mp.mpf(theta)
        return [mp.factorial(j) / it**(j + 1)
                * (1 - mp.exp(-it) * sum(it**m / mp.factorial(m)
                                         for m in range(j + 1)))
                for j in range(4)]

    def test_moments_on_both_sides_of_the_switch(self):
        """The transform of u^j on [0, 1] at t = theta is the moment
        M_j(theta), on both sides of the Taylor switch."""
        mp = pytest.importorskip("mpmath")
        below = np.nextafter(_MOMENT_SWITCH, 0.0)
        thetas = np.array([1e-3, 0.3, 0.9, below, _MOMENT_SWITCH,
                           np.nextafter(_MOMENT_SWITCH, 2.0), 1.7, 12.0,
                           400.0])
        # one-interval tables whose cubic is u^j: got[k, j] = M_j(thetas[k])
        tables = [DensityTable(spline=PiecewiseCubic(
            x=np.array([0.0, 1.0]), c=e[::-1, None]),
            norm_direct=1.0 / (j + 1), max_refine_dev=0.0)
            for j, e in enumerate(np.eye(4))]
        got = np.column_stack([table.fourier(thetas) for table in tables])
        with mp.workdps(60):
            for theta, row in zip(thetas, got):
                exact = np.array([complex(m) for m in
                                  self._moments_closed_form(theta, mp)])
                assert np.max(np.abs(row - exact) / np.abs(exact)) <= 1e-13
        # one ulp across the switch moves every moment by ~1e-16 at most
        jump = np.abs(got[3] - got[4]) / np.abs(got[4])
        assert np.max(jump) <= 1e-14

    @pytest.mark.parametrize("seed", range(4))
    def test_wide_range_of_widths_against_mpmath(self, seed):
        """A random nonnegative spline whose widths span 1e-6 to 1e2,
        against the sum of its pieces' closed-form moments in mpmath,
        exact to 40 digits, at t = 0, at times that put intervals on both
        sides of the switch, and at t = 1e6, where every interval is wide.

        The bound is derived from rounding.  The knots lie on a 2^-24
        grid below 2^10, so t x and its half are exact for these times.
        Each phase is then off by the rounding of U = tan(-t x / 2),
        within 1 ulp (2 u), and of the half-angle formulas: with
        s = 1/(1 + U^2), the cosine 2s - 1 and the sine 2Us.  A relative
        error of U moves each of them by at most as much in absolute
        terms; the computed 2s carries at most (3 - s) u from its square,
        sum and quotient, and subtracting 1 is exact for 2s >= 1/2.  To
        first order the cosine is off by at most (14 s - 10 s^2) u
        <= 4.9 u and the sine by at most 4.2 u, the phase by at most
        6.2 u.  Let
        W = sum_k sum_j |a_jk| h_k^(j+1), which bounds the sum of
        integral |piece|.  An interval's terms add up to at most 22
        times its share of W: below the switch sum_n theta^n/(n! (n+j+1))
        <= e - 1 per weight, above it the end-point sums carry the
        factorials (p-1)! and j!/(j+1-p)!, at most 6 and 16 per weight.
        Each term is off by at most (K + 64) u: about 10 u in the cached
        coefficients, 8 u in the phase (6.2 u above), K u in the sums
        over the K intervals and 36 u in the Horner steps, which leaves
        10 u spare.  So |error| <= 22 (K + 64) u W."""
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(seed)
        widths = rng.permutation(10.0 ** np.linspace(-6.0, 2.0, 9))
        inner = np.concatenate([[0.0], np.cumsum(
            np.round(widths * 2.0**24) / 2.0**24)])
        knots = np.concatenate([[inner[0]] * 3, inner, [inner[-1]] * 3])
        pieces = PPoly.from_spline(BSpline(
            knots, rng.uniform(0.0, 1.0, inner.size + 2), 3))
        keep = np.diff(pieces.x) > 0
        table = DensityTable(spline=PiecewiseCubic(x=inner,
                                                   c=pieces.c[:, keep]),
                             norm_direct=0.0, max_refine_dev=0.0)
        h, a = np.diff(inner), table.spline.c[::-1]
        bound = (22 * (h.size + 64) * np.finfo(float).eps / 2
                 * np.sum(np.abs(a) * h ** np.arange(1, 5)[:, None]))
        times = [0.0, 0.5, 3.0, 40.0, 4096.0, 1e6]
        got = table.fourier(times)
        with mp.workdps(80):  # theta >= 5e-7: at most 26 digits cancel
            for t, value in zip(times, got):
                exact = mp.mpc(0)
                for k in range(h.size):
                    x0, hk = mp.mpf(inner[k]), mp.mpf(inner[k + 1]) - \
                        mp.mpf(inner[k])
                    moments = (self._moments_closed_form(t * hk, mp) if t
                               else [1 / mp.mpf(j + 1) for j in range(4)])
                    exact += mp.exp(-1j * t * x0) * mp.fsum(
                        mp.mpf(a[j, k]) * hk ** (j + 1) * moments[j]
                        for j in range(4))
                assert abs(value - complex(exact)) <= bound, (t, bound)
                if t == 1e6:  # the end terms, ~1e-6, stand far above it
                    assert abs(exact) > 1e3 * bound

    def test_one_cubic_piece_against_closed_form(self):
        mp = pytest.importorskip("mpmath")
        # a genuine cubic: clamped end slopes on a single interval
        x0, h = 0.25, 0.5
        spline = CubicSpline([x0, x0 + h], [0.7, 0.2],
                             bc_type=((1, -1.3), (1, 0.4)))
        table = _table_from_spline(spline)
        coef = spline.c[::-1, 0]
        below = np.nextafter(_MOMENT_SWITCH, 0.0)
        for theta in (0.05, 0.6, below, _MOMENT_SWITCH, 1.0 + 1e-9, 3.0,
                      50.0):
            t = theta / h
            with mp.workdps(60):
                moments = self._moments_closed_form(mp.mpf(t) * h, mp)
                exact = complex(mp.exp(-1j * mp.mpf(x0) * t) * sum(
                    mp.mpf(coef[j]) * mp.mpf(h)**(j + 1) * moments[j]
                    for j in range(4)))
            got = table.fourier(t)[0]
            assert abs(got - exact) / abs(exact) <= 1e-13

    def test_single_time_holds_little_memory(self, rational_model):
        """One time point on the rational benchmark table (2559 intervals)
        peaks below 128 KiB, glibc's default threshold for serving an
        allocation by mmap: a few values per interval, not a stacked
        (time x interval x moment) array.  From t = 1e5 on every interval
        is wide, so both of its end knots are gathered."""
        table = gt.density_table(rational_model)
        table.fourier(1.0)  # the cached pieces are built once, not per call
        for t in (0.0, 3.7, 2700.0, 1e5, 1e6):
            tracemalloc.start()
            try:
                table.fourier(t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 128 * 1024, (t, peak)

    def test_zero_time_is_table_norm(self, flat_table, rational_model):
        # the norm is A(0); SciPy integrates the same pieces independently
        for table in (flat_table, gt.density_table(rational_model)):
            pieces = PPoly(table.spline.c, table.spline.x)
            assert table.norm == table.fourier(0.0)[0].real
            assert abs(table.fourier(0.0)[0]
                       - pieces.integrate(*table.knots[[0, -1]])) <= 1e-14

    @pytest.mark.slow
    def test_matches_generic_route_flat(self, flat_model, flat_pole,
                                        flat_table):
        """Exact transform against QUADPACK on the same spline, knot to
        knot, out to 27/Gamma."""
        for t in np.linspace(0.0, 27.0 / flat_pole.gamma, 7):
            exact = gt.survival_amplitude(flat_model, t)
            reference = _quadpack_fourier(flat_table, flat_table.knots, t)
            assert abs(exact - reference) < 1e-9

    @pytest.mark.slow
    def test_matches_generic_route_rational(self, rational_model):
        """The same on the whole unbounded-support table, out to 27/Gamma
        (about 1.3 s of QUADPACK per time point)."""
        pole = gt.find_pole(rational_model)
        table = gt.density_table(rational_model)
        for t in np.linspace(0.0, 27.0 / pole.gamma, 3):
            exact = gt.survival_amplitude(rational_model, t)
            reference = _quadpack_fourier(table, table.knots, t)
            assert abs(exact - reference) < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(gaps=_GAPS, coef=_COEFFICIENTS, t=st.floats(0.0, 40.0))
    def test_random_nonnegative_splines(self, gaps, coef, t):
        """On random nonnegative splines the exact transform must match
        quadrature of the same spline, and no amplitude can exceed the
        total weight A(0)."""
        inner, table = _nonnegative_table(gaps, coef)
        exact = table.fourier(t)[0]
        assert abs(exact - _quadpack_fourier(table, inner, t)) < 1e-9
        assert abs(exact) <= table.fourier(0.0)[0].real + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(gaps=_GAPS, coef=_COEFFICIENTS, tx=st.floats(0.0, 1e13))
    @example(gaps=[0.3, 1.7], coef=[0.5] * 13, tx=1e13)
    @example(gaps=[0.05] * 10, coef=[1.0] * 13, tx=9.99)
    def test_half_angle_phases_match_cos_sin(self, gaps, coef, tx):
        """The transform against a sum of the same cached pieces whose
        phases are np.cos and np.sin of -t x, for t max x up to 1e13.

        The reference takes the same Taylor/end-point split and weights
        each piece by explicit powers, (-i t)^n and (i t)^-(p+1), where
        :meth:`DensityTable.fourier` runs Horner's rule.  Both sides
        phase the same rounded argument fl(-t x) (the route halves it
        exactly), so they differ by rounding only, bounded term by term.
        Let S be the sum of the terms' moduli, every phase having modulus
        1: t^n |taylor[k, n]| over the Taylor intervals and
        t^-(p+1) (|first[k, p]| + |last[k, p]|) over the others.  Each side
        is within (8 + sqrt(2) (K + 36)) u S of the exact sum with exact
        phases: at most 8 u in each phase (6.2 u from the half-angle
        formulas, see test_wide_range_of_widths_against_mpmath; 2 sqrt(2) u
        from a cosine and a sine within 1 ulp each), K u in each real sum
        over the K intervals, and 36 u in the 18 Horner steps (the
        reference: 3 u in each power, 18 u in its sum over them), sqrt(2)
        turning each bound on a real and an imaginary part into one on the
        modulus.  At t x ~ 1e13 both sides lose the amplitude to the
        argument's rounding alike: the bound checks the phases, not A(t).
        """
        _, table = _nonnegative_table(gaps, coef)
        knots, h, right, taylor, first, last = table._pieces
        t = tx / knots[-1]
        # a Python float quotient: inf, not a numpy overflow warning, at a
        # subnormal t
        m = (h.size if t == 0.0
             else int(np.searchsorted(h, _MOMENT_SWITCH / float(t))))
        arg = knots * -t
        phase = np.cos(arg) + 1j * np.sin(arg)
        n, p = np.arange(taylor.shape[1]), np.arange(4)
        taylor_w = np.array([1, -1j, -1, 1j])[n % 4] * t**n
        end_w = (np.array([-1j, -1, 1j, 1])[p] * t ** -(p + 1.0)
                 if m < h.size else 0.0 * p)
        ends = phase[m:-1] @ first[m:] - phase[right[m:]] @ last[m:]
        reference = np.sum((phase[:m] @ taylor[:m]) * taylor_w) \
            + np.sum(ends * end_w)
        size = np.sum(np.abs(taylor[:m]) @ t**n) + np.sum(
            (np.abs(first[m:]) + np.abs(last[m:])) @ np.abs(end_w))
        bound = 2 * (8 + np.sqrt(2) * (h.size + 36)) * _U * size
        assert abs(table.fourier(t)[0] - reference) <= bound

    def test_flat_model_against_closed_form_density(self, flat_model,
                                                    flat_table):
        """Independent oracle: the flat-cutoff density in closed form,
        integrated by QUADPACK's cosine/sine-weighted rules."""
        lam2, w0, c = 0.01, 1.0, 10.0

        def rho(w):
            if w <= 0.0 or w >= c:
                return 0.0  # log-divergent walls: the density limit is zero
            eta = w - w0 - lam2 * np.log(w / (c - w)) + 1j * np.pi * lam2
            return lam2 / abs(eta) ** 2

        for t in (0.0, 0.7, 6.0, 40.0, 150.0):
            exact = _quadpack_fourier(rho, [0.0, c], t)
            assert abs(gt.survival_amplitude(flat_model, t) - exact) < 1e-8

    def test_series_is_one_call_matching_single_points(self, flat_model,
                                                       flat_series):
        """An array of times gives the scalar calls' amplitudes bit for
        bit, in a series and from ``survival_amplitude`` itself."""
        ts = flat_series.times[::40]
        singles = [gt.survival_amplitude(flat_model, float(t)) for t in ts]
        assert all(type(a) is complex for a in singles)
        assert gt.survival_amplitude(flat_model, ts).tolist() == singles
        assert flat_series.amplitudes[::40].tolist() == singles

    def test_negative_time_rejected(self, flat_table):
        with pytest.raises(ValueError):
            flat_table.fourier([1.0, -1.0])

    def test_overflowing_phase_is_numerical(self, flat_table):
        """t x past the float range has no phase: a numerical failure,
        raised before numpy would warn."""
        with pytest.raises(gt.NumericalFailure, match="overflows"):
            flat_table.fourier([1.0, 1e308])


class TestSurvivalSeries:
    def test_first_point_normalized(self, flat_series):
        assert flat_series.probabilities[0] == pytest.approx(1.0, abs=1e-8)

    def test_probabilities_in_range(self, flat_series):
        p = flat_series.probabilities
        assert np.all(p >= 0.0) and np.all(p <= 1.0 + 1e-8)

    def test_monotone_on_exponential_window(self, flat_series, flat_pole):
        gamma = flat_pole.gamma
        mask = (flat_series.times >= 1.0 / gamma) \
            & (flat_series.times <= 5.0 / gamma)
        diffs = np.diff(flat_series.probabilities[mask])
        assert np.all(diffs < 0.0)

    def test_mid_window_tracks_pure_exponential(self, flat_series,
                                                flat_pole):
        """On the fitted exponential window the curve stays within 5% of
        exp(-Gamma t) pointwise, not just in slope."""
        report = gt.classify_regimes(flat_series, flat_pole)
        lo, hi = report.exponential_window
        mask = (flat_series.times >= lo) & (flat_series.times <= hi)
        ratio = flat_series.probabilities[mask] \
            / np.exp(-flat_pole.gamma * flat_series.times[mask])
        assert np.max(np.abs(ratio - 1.0)) <= 0.05

    def test_agrees_with_oracle_below_five_lifetimes(self, flat_series,
                                                     flat_pole, oracle_4000):
        gamma = flat_pole.gamma
        mask = flat_series.times <= 5.0 / gamma
        ts = flat_series.times[mask]
        p_oracle = oracle_4000.survival_probability(ts)
        dev = np.max(np.abs(flat_series.probabilities[mask] - p_oracle))
        assert dev < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError, match="P\\(0\\)"):
            SurvivalSeries(times=np.array([0.0, 1.0]),
                           amplitudes=np.array([0.9 + 0j, 0.5 + 0j]),
                           probabilities=np.array([0.81, 0.25]))
        with pytest.raises(ValueError, match="increasing"):
            SurvivalSeries(times=np.array([1.0, 0.5]),
                           amplitudes=np.ones(2, dtype=complex),
                           probabilities=np.ones(2))
        with pytest.raises(ValueError, match="escape"):
            SurvivalSeries(times=np.array([0.0, 1.0]),
                           amplitudes=np.array([1.0 + 0j, 1.2 + 0j]),
                           probabilities=np.array([1.0, 1.44]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="times must be finite"):
                SurvivalSeries(times=np.array([0.0, 1.0, bad]),
                               amplitudes=np.ones(3, dtype=complex),
                               probabilities=np.ones(3))

    @pytest.mark.parametrize("start", [0.0, 0.5])
    def test_nan_probability_fails_unitarity(self, start):
        """A NaN is no probability: it fails the range check, and at
        t = 0 the P(0) check too, instead of passing both."""
        nan = np.full(2, np.nan)
        with pytest.raises(gt.UnitarityViolation):
            SurvivalSeries(times=np.array([start, 1.0]),
                           amplitudes=nan.astype(complex), probabilities=nan)
        with pytest.raises(gt.UnitarityViolation, match="P\\(0\\) = nan"):
            decay._check_start(np.nan)

    @pytest.mark.parametrize("route", [
        lambda m: gt.survival_probability(m, [0.0, 0.5, 1.0]),
        lambda m: gt.survival_probability(m, [0.5, 1.0]),
        lambda m: gt.survival_amplitude(m, 0.5),
        lambda m: gt.survival_amplitude(m, np.array([0.5, 1.0])),
        gt.zeno_check],
        ids=["with-zero", "without-zero", "amplitude-scalar",
             "amplitude-array", "zeno"])
    def test_missing_weight_fails_on_any_grid(self, route):
        """At lambda = 0.3 the flat model's bound state below threshold
        carries weight the table leaves out: P(0) = A(0)^2 of the table
        misses 1 whether or not the times hold t = 0, on every route that
        computes an amplitude."""
        model = gt.FriedrichsModel(omega0=1.0, lam=0.3,
                                   form_factor=gt.FlatCutoff(cutoff=10.0))
        with pytest.raises(gt.UnitarityViolation, match="P\\(0\\) = 0.99669"):
            route(model)


class TestGamowApproximation:
    def test_unity_at_zero(self, flat_pole):
        assert gt.gamow_approximation(flat_pole, 0.0) == 1.0 + 0.0j

    def test_modulus_is_pure_width_decay(self, flat_pole):
        for t in (0.0, 1.0, 2.0 / flat_pole.gamma, 100.0):
            val = gt.gamow_approximation(flat_pole, t)
            assert abs(val) == pytest.approx(
                np.exp(-0.5 * flat_pole.gamma * t), rel=1e-13)

    def test_phase_flips_at_half_period(self, flat_pole):
        val = gt.gamow_approximation(flat_pole, np.pi / flat_pole.e_r)
        assert val.real < 0.0
        assert abs(val.imag) < 1e-12

    def test_negative_time_grows(self, flat_pole):
        assert abs(gt.gamow_approximation(flat_pole, -10.0)) > 1.0

    def test_vectorized(self, flat_pole):
        ts = np.array([0.0, 1.0, 2.0])
        vals = gt.gamow_approximation(flat_pole, ts)
        assert vals.shape == (3,)


class TestZenoCheck:
    def test_model_has_flat_start(self, flat_model, flat_pole, flat_table):
        slope, err = gt.zeno_check(flat_model)
        tol = 1e-4 * flat_pole.gamma
        assert abs(slope) < tol
        assert err < tol
        # one array call gives the slope of four scalar probabilities
        assert slope == gt.zeno_check(
            lambda t: np.abs(gt.survival_amplitude(flat_model, t)) ** 2)[0]

    def test_exponential_control_is_flagged(self, flat_pole):
        gamma = flat_pole.gamma
        slope, err = gt.zeno_check(lambda t: np.exp(-gamma * t))
        assert slope == pytest.approx(-gamma, rel=1e-6)
        assert abs(slope) > 1e-4 * gamma  # clearly non-flat start

    def test_oracle_spectra_stay_flat(self, flat_model):
        # eigen-sum survival has an exactly flat start at any resolution
        for n_bins in (500, 2000):
            ds = gt.discretize(flat_model, n_bins, 10.0)
            slope, _ = gt.zeno_check(lambda t: ds.survival_probability(t))
            assert abs(slope) < 1e-4 * 0.0636


class TestClassifyRegimes:
    def test_synthetic_exponential_is_one_regime(self, flat_pole,
                                                 synthetic_series):
        gamma = flat_pole.gamma
        ts = synthetic_series.times
        report = gt.classify_regimes(synthetic_series, flat_pole)
        assert report.zeno_window is None
        assert report.exponential_window == (ts[0], ts[-1])
        assert report.gamma_fit == pytest.approx(gamma, abs=1e-6)
        # a pure exponential has no late-time envelope to resolve
        assert not report.tail_resolved
        assert report.tail_exponent is None

    def test_noise_floor_marks_tail_unresolved(self, flat_pole):
        """P = exp(-rate Gamma t) (1 + cos(t) / 2) / 1.5 has ~40 peaks
        past 10/Gamma; at rate 4 they all lie below the 1e-13 floor
        (1e-18 at most), at rate 2 above it (up to 1e-9)."""
        gamma = flat_pole.gamma
        ts = np.linspace(0.0, 27.0 / gamma, 430)
        for rate, resolved in [(4.0, False), (2.0, True)]:
            probs = (np.exp(-rate * gamma * ts) * (1.0 + 0.5 * np.cos(ts))
                     / 1.5)
            series = SurvivalSeries(times=ts, amplitudes=np.sqrt(probs) + 0j,
                                    probabilities=probs)
            report = gt.classify_regimes(series, flat_pole)
            assert report.tail_resolved is resolved
            assert (report.tail_window is not None) is resolved

    def test_flat_model_regimes(self, flat_series, flat_pole):
        report = gt.classify_regimes(flat_series, flat_pole)
        # quadratic start with positive curvature
        assert report.zeno_window is not None
        assert report.zeno_window[0] == 0.0
        assert report.zeno_curvature > 0.0
        # exponential window reproduces the pole width
        assert abs(report.gamma_fit - flat_pole.gamma) / flat_pole.gamma < 0.05
        # late-time envelope escapes the exponential from above
        assert report.tail_resolved
        assert report.tail_ratio_last > 1.0
        assert report.tail_ratio_increasing

    def test_windows_ordered(self, flat_series, flat_pole):
        report = gt.classify_regimes(flat_series, flat_pole)
        assert report.zeno_window[1] <= report.exponential_window[0]
        if report.tail_window is not None:
            assert report.exponential_window[1] <= report.tail_window[0]

    def test_insufficient_span(self, flat_pole):
        gamma = flat_pole.gamma
        ts = np.linspace(0.0, 10.0 / gamma, 50)
        p = np.exp(-gamma * ts)
        series = SurvivalSeries(times=ts,
                                amplitudes=np.sqrt(p).astype(complex),
                                probabilities=p)
        with pytest.raises(InsufficientSpan):
            gt.classify_regimes(series, flat_pole)

    def test_no_positive_probability(self):
        """A series that never leaves P = 0 has no point to fit: it is
        too short for an exponential fit, not an indexing error."""
        ts = np.linspace(1.0, 300.0, 50)
        series = SurvivalSeries(times=ts, amplitudes=np.zeros(50, complex),
                                probabilities=np.zeros(50))
        with pytest.raises(InsufficientSpan, match="too few points"):
            gt.classify_regimes(series, gt.ResonancePole(1.0, 0.1))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_line_fits_match_polyfit(self, data):
        """Every row's least-squares line, in one array pass, is
        np.polyfit's on that row's window of at least 6 points: slopes and
        intercepts within 1e-12 relative, RMS residuals within
        1e-12 max|y|.  The lines lie within 1e-3 of a slope over the
        narrowest gap, so neither slope nor intercept comes near zero.
        On such lines np.polyfit's slopes miss the exact ones by up to
        about 1e-13 relative, the closed form's by a few units of
        roundoff."""
        gaps = np.array(data.draw(st.lists(st.floats(0.1, 2.0), min_size=6,
                                           max_size=40)))
        x = data.draw(st.floats(0.0, 10.0)) + np.cumsum(gaps)
        slope = data.draw(st.floats(0.1, 1.0)) * data.draw(
            st.sampled_from([-1.0, 1.0]))
        icpt = data.draw(st.floats(1.0, 10.0)) * data.draw(
            st.sampled_from([-1.0, 1.0]))
        noise = np.array(data.draw(st.lists(
            st.floats(-1.0, 1.0), min_size=x.size, max_size=x.size)))
        y = icpt + slope * x + 1e-3 * abs(slope) * gaps.min() * noise
        windows = data.draw(st.lists(
            st.tuples(st.integers(0, x.size - 6), st.integers(6, x.size)),
            min_size=1, max_size=8))
        mask = np.zeros((len(windows), x.size), dtype=bool)
        for row, (first, size) in zip(mask, windows):
            row[first:first + size] = True
        slopes, icpts, rms = decay._line_fits(x, y, mask)
        for row, s_fit, i_fit, r_fit in zip(mask, slopes, icpts, rms):
            s_ref, i_ref = np.polyfit(x[row], y[row], 1)
            r_ref = np.sqrt(np.mean((y[row] - (s_ref * x[row] + i_ref))**2))
            assert abs(s_fit - s_ref) <= 1e-12 * abs(s_ref)
            assert abs(i_fit - i_ref) <= 1e-12 * abs(i_ref)
            assert abs(r_fit - r_ref) <= 1e-12 * np.max(np.abs(y))

    @pytest.mark.parametrize("name", ["flat_series", "rational_series",
                                      "synthetic_series",
                                      "dense_head_series"])
    def test_matches_polyfit_reference(self, name, request, flat_pole,
                                       rational_model):
        """The array passes choose the windows and flags of one
        np.polyfit per candidate, with the fitted numbers within 1e-12
        relative and the RMS residuals within 1e-12 max|log P|."""
        series = request.getfixturevalue(name)
        pole = (gt.find_pole(rational_model) if name == "rational_series"
                else flat_pole)
        report = asdict(gt.classify_regimes(series, pole))
        reference = _regimes_by_polyfit(series, pole)
        p = series.probabilities
        scale = np.max(np.abs(np.log(p[p > 0])))
        assert report.keys() == reference.keys()
        for key, want in reference.items():
            got = report[key]
            if key in ("gamma_fit", "zeno_curvature", "tail_exponent"):
                assert (got is None) == (want is None), key
                if want is not None:
                    assert abs(got - want) <= 1e-12 * abs(want), key
            elif key == "fit_residuals":
                assert got.keys() == want.keys()
                for part in want:
                    assert abs(got[part] - want[part]) <= 1e-12 * scale, part
            else:
                assert got == want, key
        if name in ("flat_series", "dense_head_series"):
            assert report["zeno_window"] is not None
        if name == "flat_series":
            assert report["tail_exponent"] is not None

    def test_dense_head_holds_little_memory(self, flat_pole,
                                            dense_head_series):
        """With 2770 points below 0.5/Gamma the Zeno search holds a few
        arrays over those points, not an (end x drop) matrix of them
        (61 MB each); the exponential candidates hold 51 rows over the
        4001 points (1.6 MB a float array)."""
        tracemalloc.start()
        try:
            gt.classify_regimes(dense_head_series, flat_pole)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    def test_stable_pole_rejected(self, flat_series):
        with pytest.raises(ValueError):
            gt.classify_regimes(flat_series, gt.ResonancePole(1.0, 0.0))

    def test_report_validation(self):
        with pytest.raises(ValueError, match="overlap"):
            RegimeReport(zeno_window=(0.0, 2.0), zeno_curvature=0.1,
                         exponential_window=(1.0, 3.0), gamma_fit=0.1,
                         tail_window=None, tail_exponent=None,
                         tail_resolved=False, tail_ratio_last=None,
                         tail_ratio_increasing=None)
        with pytest.raises(ValueError, match="negative slope"):
            RegimeReport(zeno_window=None, zeno_curvature=None,
                         exponential_window=(1.0, 3.0), gamma_fit=-0.1,
                         tail_window=None, tail_exponent=None,
                         tail_resolved=False, tail_ratio_last=None,
                         tail_ratio_increasing=None)


class TestUnboundedSupport:
    """End-to-end checks for a coupling profile with no upper cutoff."""

    def test_pole_near_golden_rule(self, rational_model):
        pole = gt.find_pole(rational_model)
        fgr = 2.0 * np.pi * 0.01 * rational_model.form_factor.f2(1.0)
        assert abs(pole.gamma - fgr) / fgr <= 10.0 * 0.01

    def test_table_norm_and_normalized_start(self, rational_model):
        table = gt.density_table(rational_model)
        assert abs(table.norm_direct - 1.0) < 1e-6
        amp = gt.survival_amplitude(rational_model, 0.0)
        assert abs(amp - 1.0) < 1e-8

    def test_survival_matches_resolved_oracle(self, rational_model,
                                              rational_oracle):
        pole = gt.find_pole(rational_model)
        for frac in (0.5, 1.0):
            t = frac / pole.gamma
            p_quad = abs(gt.survival_amplitude(rational_model, t)) ** 2
            p_oracle = float(rational_oracle.survival_probability(t))
            assert abs(p_quad - p_oracle) / p_oracle < 0.01

    @settings(max_examples=100, deadline=None)
    @given(omega0=st.floats(-2.0, 2.0), lam=st.floats(-3.0, math.log10(5.0)),
           scale=st.floats(-320.0, 300.0))
    # the cut at 65536 would leave the bound at 5.9e-10
    @example(omega0=0.0, lam=math.log10(2.0), scale=0.0)
    def test_tail_cut_is_the_first_doubling_within_the_bound(
            self, omega0, lam, scale):
        """The truncation point is the first w = 8 max(omega0, s) 2^k whose
        exact density bound 4 lam^2 ln(1 + s^2/w^2) / (2 pi s^2) is below
        3e-10, from a subnormal scale to 1e300 (exponents drawn)."""
        mp = pytest.importorskip("mpmath")
        omega0, lam, scale = 10.0**omega0, 10.0**lam, 10.0**scale
        model = gt.FriedrichsModel(
            omega0=omega0, lam=lam,
            form_factor=gt.RationalFormFactor(scale=scale))
        cut = decay._tail_cutoff(model)
        start = 8.0 * max(omega0, scale)
        k = round(np.log2(cut / start))
        assert k >= 0 and cut == start * 2.0**k

        def bound(w):
            with mp.workdps(50):
                q2 = (mp.mpf(scale) / w) ** 2
                return (4 * mp.mpf(lam) ** 2 * mp.log1p(q2)
                        / (2 * mp.pi * mp.mpf(scale) ** 2))

        assert bound(cut) < 3e-10
        assert k == 0 or bound(cut / 2.0) >= 3e-10

    @settings(max_examples=100, deadline=None)
    @given(scale=st.floats(-320.0, 300.0), frac=st.floats(0.0, 1.0))
    def test_tail_weight_against_mpmath(self, scale, frac):
        """The rational tail weight at w from 8 s to 1e308, to 1e-15
        relative wherever it is a normal double (below 2^-1022 a double
        has no relative precision), and inf above the float range."""
        mp = pytest.importorskip("mpmath")
        low = scale + math.log10(8.0)
        w = 10.0 ** (low + frac * (308.0 - low))
        scale = 10.0**scale
        got = gt.RationalFormFactor(scale=scale).tail_weight(w)
        with mp.workdps(50):
            exact = (mp.log1p((mp.mpf(scale) / w) ** 2)
                     / (2 * mp.pi * mp.mpf(scale) ** 2))
            if exact > np.finfo(float).max:
                assert got == np.inf
            else:
                assert abs(got - exact) <= 1e-15 * exact + 2.0**-1022


@pytest.mark.slow
class TestLongTail:
    def test_power_law_once_background_dominates(self, flat_model, flat_pole,
                                                 flat_table):
        """Out at 45 lifetimes the envelope follows the continuum-edge
        power law; the exponent lands near -2."""
        gamma = flat_pole.gamma
        ts = np.unique(np.concatenate([
            np.linspace(0.0, 30.0 / gamma, 150),
            np.arange(30.0 / gamma, 45.0 / gamma, 1.7),
        ]))
        series = gt.survival_probability(flat_model, ts)
        report = gt.classify_regimes(series, flat_pole)
        assert report.tail_resolved
        assert report.tail_exponent is not None
        assert -3.0 < report.tail_exponent < -1.2
