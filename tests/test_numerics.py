import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import gamow_thermo as gt
from gamow_thermo import numerics
from gamow_thermo.decay import DensityTable
from gamow_thermo.numerics import (
    IntegrandError,
    MaxIterExceeded,
    NonConvergence,
    SingularStep,
    _cubic_spline,
    complex_newton,
    derivative,
    integrate,
    ode_evolve,
    principal_values,
)

_U = np.finfo(float).eps / 2
# the smallest subnormal: under gradual underflow every operation may add
# an absolute error of at most half of it
_ETA = np.nextafter(0.0, 1.0)

# integrand points per row in the first pass, by piece: four Kronrod-15
# panels a piece, on and off the axis; a Cauchy window sees both sides of
# Re z
_WINDOW, _PIECE = 2 * 4 * 15, 4 * 15


def _recording(g):
    """``g``, and the list of the point arrays of its calls."""
    seen = []

    def recorded(w):
        seen.append(np.array(w))
        return g(w)

    return recorded, seen


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda w: np.ones_like(w), 0.0, 1.0) == \
            pytest.approx(1.0, abs=1e-12)

    def test_complex_pole_closed_form(self):
        # oracle: antiderivative log(w - c) never crosses the branch cut
        # because Im(w - c) = -1 all along the path
        c = 2.0 + 1.0j
        exact = cmath.log(10.0 - c) - cmath.log(-c)
        val = integrate(lambda w: 1.0 / (w - c), 0.0, 10.0)
        assert abs(val - exact) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a1, b1 = rng.normal(size=2)
            f = lambda w: np.sin(3.0 * w) + w**2
            g = lambda w: np.exp(-w) * np.cos(5.0 * w)
            combined = integrate(lambda w: a1 * f(w) + b1 * g(w), 0.0, 1.0)
            separate = (a1 * integrate(f, 0.0, 1.0)
                        + b1 * integrate(g, 0.0, 1.0))
            assert abs(combined - separate) < 5e-10

    def test_scalar_only_integrand_rejected(self):
        # integrands map arrays to arrays of the same shape
        with pytest.raises(TypeError, match="same shape"):
            integrate(math.exp, 0.0, 1.0)
        with pytest.raises(TypeError, match="same shape"):
            integrate(lambda w: 1.0, 0.0, 1.0)

    def test_exhausted_subdivisions(self):
        # far more oscillations than the 20000-panel budget can resolve
        with pytest.raises(NonConvergence, match="20000 subdivisions"):
            integrate(lambda w: np.sin(1e9 * w), 0.0, 1.0)

    def test_non_finite_integrand(self):
        with pytest.raises(IntegrandError):
            integrate(lambda w: np.full_like(w, np.nan), 0.0, 1.0)
        # the first node past the NaN edge, printed as a plain number
        with pytest.raises(IntegrandError) as info:
            integrate(lambda w: np.where(w > 0.5, np.nan, 1.0), 0.0, 1.0)
        assert str(info.value) == (
            "integrand is not finite near quadrature coordinate "
            "s = 0.5010680786098984 (not omega)")

    @pytest.mark.parametrize("value", [1e307, 2e307])
    def test_overflowing_integral_is_named(self, value):
        """Every value is finite, but the integral over [0, 10] is not:
        10 * 1e307 overflows in the panel sums, 10 * 2e307 in the map's
        scaling already.  Neither is the integrand's fault."""
        with pytest.raises(gt.NumericalFailure,
                           match="the integral overflows") as info:
            integrate(lambda w: np.full(np.shape(w), value), 0.0, 10.0)
        assert not isinstance(info.value, IntegrandError)

    def test_bad_range(self):
        """The range is finite with a < b, for plain and Cauchy
        integrals alike."""
        for a, b in [(1.0, 0.0), (0.0, np.inf), (-np.inf, 0.0),
                     (np.nan, 1.0), (0.0, np.nan)]:
            with pytest.raises(ValueError, match="finite with a < b"):
                integrate(lambda w: w, a, b)
            with pytest.raises(ValueError, match="finite with a < b"):
                principal_values(lambda w: w, a, b, [0.5])

    @pytest.mark.parametrize("b", [3.0], ids=["finite"])
    def test_smooth_integrand_is_one_first_pass_call(self, b):
        # one piece of four Kronrod-15 panels, and no bisection
        f, seen = _recording(lambda w: 1.0 / (1.0 + w * w))
        assert abs(integrate(f, 0.0, b) - math.atan(b)) < 1e-10
        assert [w.size for w in seen] == [_PIECE]

    @pytest.mark.parametrize("b", [4.0], ids=["finite"])
    def test_narrow_bump_is_bisected(self, b):
        # 1/((w - c)^2 + s^2) integrates to (atan((b - c)/s) + atan(c/s))/s
        c, s = 1.3, 0.01
        f, seen = _recording(lambda w: 1.0 / ((w - c) ** 2 + s * s))
        exact = (math.atan((b - c) / s) + math.atan(c / s)) / s
        assert abs(integrate(f, 0.0, b) - exact) <= 1e-12 * exact
        assert len(seen) > 1
        assert all(w.size % 15 == 0 for w in seen[1:])


# a tabulated spline vanishing at both ends of [0, 5], so that every real
# point, ends included, has a finite integral
_BATCH_GRID = np.linspace(0.0, 5.0, 41)
_BATCH_PROFILE = gt.TabulatedFormFactor(
    grid=_BATCH_GRID, values=_BATCH_GRID * (5.0 - _BATCH_GRID)
    * (1.0 + np.sin(3.0 * _BATCH_GRID) ** 2))
_BATCH_X = st.one_of(st.floats(-1.0, 6.0),
                     st.sampled_from([0.0, 5.0, 2.5, -1.0, 6.0]))
_BATCH_Y = st.one_of(
    st.just(0.0), st.sampled_from([1e-310, -1e-310, 5e-324, -5e-324]),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]),
              st.floats(-14.0, 0.5)))


class TestPrincipalValue:
    """PV of g(w) / (c - w): g = -1 gives the PV of 1/(w - c)."""

    def test_symmetric_interval_vanishes(self):
        val = principal_values(lambda w: -np.ones_like(w), 0.0, 2.0, [1.0])
        assert abs(val[0]) < 1e-10

    def test_log_two(self):
        val = principal_values(lambda w: -np.ones_like(w), 0.0, 3.0, [1.0])
        assert val[0] == pytest.approx(math.log(2.0), abs=1e-10)

    def test_linear_numerator(self):
        val = principal_values(lambda w: -w, 0.0, 2.0, [1.0])
        assert val[0] == pytest.approx(2.0, abs=1e-9)

    def test_antisymmetry_random_poles(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            c = rng.uniform(0.5, 5.0)
            half = rng.uniform(0.1, 0.4) * c
            val = principal_values(lambda w: -np.ones_like(w), c - half,
                                   c + half, [c])
            assert abs(val[0]) < 1e-9

    def test_pole_at_endpoint(self):
        with pytest.raises(ValueError):
            principal_values(lambda w: -np.ones_like(w), 0.0, 1.0, [0.0])
        # a g vanishing at the end keeps the integral finite:
        # -atan(10) here
        val = principal_values(lambda w: w / (1.0 + w * w), 0.0, 10.0,
                               [0.0])
        assert val[0] == pytest.approx(-math.atan(10.0), abs=1e-10)

    def test_infinite_range_closed_form(self):
        # PV of 1 / ((1 + w^2)(c - w)) over [0, 500], partial fractions
        c = np.array([1e-6, 0.3, 1.0, 4.0, 250.0])
        exact = _bump_cauchy(c, 500.0, 0.0, 1.0).real
        val = principal_values(lambda w: 1.0 / (1.0 + w * w), 0.0, 500.0,
                               c)
        assert np.max(np.abs(val - exact)) < 1e-10

    def test_complex_points_closed_form(self):
        # integral of 1 / ((1 + w^2)(z - w)) over [0, 500] by partial
        # fractions off the positive axis: points a hair off the cut, on
        # the end, outside and far away
        z = np.array([0.3 + 1e-12j, 0.3 - 1e-12j, 1e-6j, 0.5j, -2.0 - 1.0j,
                      -2.0, 4.0 + 3.0j, 1e3 - 1e-3j])
        exact = _bump_cauchy(z, 500.0, 0.0, 1.0)
        val = principal_values(lambda w: 1.0 / (1.0 + w * w), 0.0, 500.0,
                               z)
        assert np.max(np.abs(val - exact)) < 1e-10

    def test_jump_inside_window_is_refined(self):
        # g = 1 on (0.3, 1]: the fold around c = 0.5 straddles the jump,
        # which only bisection resolves; PV = ln(0.4)
        val = principal_values(lambda w: np.where(w > 0.3, 1.0, 0.0), 0.0,
                               1.0, [0.5])
        assert val[0] == pytest.approx(math.log(0.4), abs=1e-9)

    def test_exhausted_subdivisions(self):
        # far more oscillations than the 20000-panel budget can resolve
        with pytest.raises(NonConvergence, match="20000 subdivisions"):
            principal_values(lambda w: np.sin(1e9 * w), 0.0, 1.0, [0.5])

    def test_non_finite_integrand(self):
        with pytest.raises(IntegrandError):
            principal_values(lambda w: np.full_like(w, np.nan), 0.0, 1.0,
                             [0.5])
        # a NaN past w = 100 lies in the one-sided piece, s in [1, 2)
        with pytest.raises(IntegrandError) as info:
            principal_values(lambda w: np.where(w > 100.0, np.nan, 1.0 / w),
                             0.0, 1000.0, [0.5])
        assert "np.float64" not in str(info.value)
        s = float(str(info.value).split("s = ")[1].split(" ")[0])
        assert 1.0 <= s < 2.0

    @pytest.mark.parametrize("bad", [np.nan, complex(np.nan, -1.0),
                                     np.inf], ids=["nan", "nan-1j", "inf"])
    def test_non_finite_point_is_named(self, bad):
        """A point that is not finite is the caller's, not the
        integrand's: it raises ValueError naming the point, alone or in a
        batch of finite ones."""
        for poles in ([bad], [0.5, bad, 0.25 - 1e-3j]):
            with pytest.raises(ValueError, match="not finite: z = ") as info:
                principal_values(lambda w: np.ones_like(w), 0.0, 1.0, poles)
            assert not isinstance(info.value, IntegrandError)
            assert repr(complex(bad)) in str(info.value)

    @pytest.mark.parametrize("y", [1e-307, 3e-308, 1e-310, 5e-324])
    def test_point_beside_the_axis_takes_its_limit(self, y):
        """Below 2^-1000 of the farthest distance, |y| would overflow the
        sinh map; the point takes the rim value PV - i pi sign(y) g(x),
        for both signs and with the batch's other points untouched."""
        g = gt.FlatCutoff(cutoff=10.0).f2
        pv, far = principal_values(g, 0.0, 10.0, [1.0, 2.0 - 0.5j])
        got = principal_values(g, 0.0, 10.0,
                               [1.0 - 1j * y, 1.0 + 1j * y, 2.0 - 0.5j])
        assert got[0] == pv + 1j * np.pi
        assert got[1] == pv - 1j * np.pi
        assert got[2] == far

    def test_point_beside_the_axis_outside_and_on_an_end(self):
        """Outside the support the limit is the plain integral; on an end
        where g does not vanish it diverges, as on the axis."""
        g = gt.FlatCutoff(cutoff=10.0).f2
        plain = principal_values(g, 0.0, 10.0, [11.0])[0]
        assert principal_values(g, 0.0, 10.0, [11.0 - 1e-310j])[0] == plain
        with pytest.raises(IntegrandError, match="diverges"):
            principal_values(g, 0.0, 10.0, [10.0 - 1e-310j])

    @pytest.mark.parametrize("x", [2.2e-309, 5e-324, -5e-324])
    def test_real_point_a_subnormal_distance_from_an_end(self, x):
        """end / |x - a| overflows there; the one-sided piece still
        gives the flat profile's ln|x| - ln(10 - x)."""
        g = gt.FlatCutoff(cutoff=10.0).f2
        got = principal_values(g, 0.0, 10.0, [x])[0]
        assert got == pytest.approx(np.log(abs(x)) - np.log(10.0 - x),
                                    rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.builds(complex, _BATCH_X, _BATCH_Y), min_size=2,
                    max_size=6))
    @example([0.3, 1.7 - 1e-13j, 5.0, -1.0 + 0.5j, 2.0 + 1e-310j,
              0.0 - 2.0j])
    @example([0.0, 2.225073858507203e-309, 5e-324 - 1e-310j])
    @example([2.0 + 1e-310j, 7.5 - 1e-310j])
    def test_batch_is_its_single_points(self, points):
        """Rows never interact: a batch on a tabulated spline returns, bit
        for bit, each point's single-point result, on and off the axis,
        with empty windows (Re z on an end or outside) and beside the
        axis (|y| < 2^-1000 of the sinh map's reach), also when every
        point lies beside it."""
        ff = _BATCH_PROFILE
        lo, hi = ff.support
        batch = principal_values(ff.f2, lo, hi, points)
        single = [principal_values(ff.f2, lo, hi, [z])[0] for z in points]
        assert batch.astype(complex).tobytes() == \
            np.array(single, dtype=complex).tobytes()


def _bump_cauchy(z, top, c, s):
    """Integral of g(w) / (z - w) over [0, top] for the bump
    g = 1/((w - c)^2 + s^2), by partial fractions over its poles
    p, q = c +- is; its real part is the principal value for real z
    inside the range."""
    z, p, q = np.asarray(z, dtype=complex), c + 1j * s, c - 1j * s
    a = 1.0 / ((z - p) * (z - q))
    b, d = 1.0 / ((p - q) * (z - p)), 1.0 / ((q - p) * (z - q))
    out = a * np.log(z) - b * np.log(-p) - d * np.log(-q)
    return out - a * np.log(z - top) + b * np.log(top - p) \
        + d * np.log(top - q)


class TestFirstPass:
    """Work counts of the Cauchy kernel: its static first pass calls g
    once per piece, on every point's nodes at once."""

    @pytest.mark.parametrize("z", [3.0, 3.0 - 0.5j], ids=["rim", "off"])
    def test_four_panels_a_piece_on_and_off_the_axis(self, z):
        """The first pass is four panels on each piece, whether z lies on
        the axis or off it: the window's first call evaluates g on
        2 * 4 * 15 = 120 nodes, the one-sided piece's on 60."""
        g, seen = _recording(lambda w: 1.0 / (1.0 + w * w))
        val = principal_values(g, 0.0, 10.0, [z])[0]
        exact = _bump_cauchy(z, 10.0, 0.0, 1.0)
        assert abs(val - (exact if np.iscomplex(z) else exact.real)) < 1e-10
        assert [w.size for w in seen[:2]] == [_WINDOW, _PIECE]

    def test_empty_window_calls_no_g(self):
        # Re z at or outside the support's end: the window is empty, and
        # only the live point of the off-axis batch reaches the window's g
        z = np.array([0.3 - 0.2j, -2.0 - 1.0j, 0.5j, -2.0])
        g, seen = _recording(lambda w: 1.0 / (1.0 + w * w))
        val = principal_values(g, 0.0, 500.0, z)
        assert np.max(np.abs(val - _bump_cauchy(z, 500.0, 0.0, 1.0))) \
            < 1e-10
        # off the axis, then z = -2 on it; the off-axis points may take
        # bisection rounds after their first pass
        sizes = [w.size for w in seen]
        assert sizes[:2] == [_WINDOW, 3 * _PIECE]
        assert sizes[-1] == _PIECE
        # no point of an empty window (Re z itself, or below the support)
        # reaches g
        assert all(np.all(w > 0.0) for w in seen)

    def test_dead_panels_count_in_a_rows_share(self):
        """A row splits each panel whose gauge is above half its share of
        the tolerance, the share taken over every first-pass panel, the
        four of a dead piece included: of the eight, gauges 0.95 and 0.1
        against a tolerance 1 both split, where with the four live ones
        the 0.1 would not."""
        t = numerics._NODES
        # Kronrod-15 integrates t^14 over a panel exactly, Gauss-7 misses
        miss = abs((numerics._WKG[0] - numerics._WKG[1]) @ t**14)
        half = 0.125  # two pieces of four panels on s in [0, 2)

        def second(u):
            # gauge 0.95 and 0.1 on the piece's first two panels; in the
            # halves of a split panel t^14 gauges 2^-15 as much
            k = np.floor(4.0 * u)
            amp = np.select([k == 0, k == 1], [0.95, 0.1]) / (half * miss)
            return amp * ((u - (k + 0.5) / 4.0) / half) ** 14

        g, seen = _recording(second)
        numerics._composite(
            [lambda j, u: pytest.fail("a dead piece is evaluated"),
             lambda j, u: g(u)],
            1, (1.0, 0.0), float, live=[np.array([False])])
        assert [w.size for w in seen] == [_PIECE, 2 * 2 * 15]

    @pytest.mark.parametrize("top", [4.0], ids=["finite"])
    @pytest.mark.parametrize("z", [0.3, 0.3 - 0.2j], ids=["rim", "off"])
    def test_forced_bisection_reaches_every_piece(self, z, top):
        # one narrow bump in each piece around Re z = 0.3: the window
        # [0, 0.6] and the one-sided piece up to the far end
        bumps = [(0.15, 0.02), (2.0, 0.05)]
        g, seen = _recording(lambda w: sum(1.0 / ((w - c) ** 2 + s * s)
                                           for c, s in bumps))
        val = principal_values(g, 0.0, top, [z])[0]
        exact = sum(_bump_cauchy(z, top, c, s) for c, s in bumps)
        if not np.iscomplex(z):
            exact = exact.real
        assert abs(val - exact) <= 1e-12 * abs(exact)
        # after one first-pass call per piece, every call is one bisection
        # round of one piece, told apart by where its points lie
        rounds = seen[2:]
        window = [w for w in rounds if w.max() <= 0.6]
        one_sided = [w for w in rounds if 0.6 <= w.min()]
        assert len(window) + len(one_sided) == len(rounds)
        assert window and one_sided


class TestComplexNewton:
    CASES = [
        (lambda z: z * z + 1.0, 0.1 + 0.9j, 1j),
        (lambda z: z - (1.0 - 0.5j), 0.0 + 0.0j, 1.0 - 0.5j),
        (lambda z: np.exp(z) - 2.0, 1.0 + 0.0j, math.log(2.0)),
    ]

    @pytest.mark.parametrize("g,guess,root", CASES)
    def test_known_roots(self, g, guess, root):
        found, residual, step, _ = complex_newton(g, guess)
        assert abs(found - root) < 1e-10
        assert residual <= numerics._RESIDUAL_TOL
        assert step <= numerics._STEP_TOL
        assert abs(g(found)) <= numerics._RESIDUAL_TOL

    def test_max_iter(self):
        """exp has no zero: each Newton step moves z one unit left, and
        the search gives up after its 60 stencils."""
        stencils = []

        def g(z):
            stencils.append(z)
            return np.exp(z)

        with pytest.raises(MaxIterExceeded, match="no root after 60 "):
            complex_newton(g, 1.0 + 0.0j)
        assert len(stencils) == numerics._MAX_STENCILS

    def test_singular_derivative(self):
        with pytest.raises(SingularStep):
            complex_newton(lambda z: 1.0 + 0.0j * z, 1.0 + 0.0j)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("side", [1, 2])
    def test_non_finite_side_value_is_the_integrand(self, bad, side):
        """A value of g that is not finite at z + h or z - h is g's fault,
        not a vanishing derivative: the error names that stencil point."""
        def g(z):
            out = z - 0.5
            out[side] = bad
            return out

        point = complex((0.5 + 1e-6, 0.5 - 1e-6)[side - 1])
        message = re.escape(f"g({point!r}) is not finite")
        with pytest.raises(IntegrandError, match=f"^{message}$"):
            complex_newton(g, 0.5 + 0.0j)

    def test_non_finite_centre_is_the_integrand(self):
        with pytest.raises(IntegrandError,
                           match=re.escape("g((0.5+0j)) is not finite")):
            complex_newton(lambda z: np.where(z == 0.5, np.inf, z),
                           0.5 + 0.0j)

    def test_one_stencil_call_per_iteration(self):
        # each call is the stencil [z, z + h, z - h]; the search stops at
        # a stencil whose residual and correction are within tolerance and
        # returns the corrected point, which it never evaluates, with the
        # residual and correction of that stencil and the stencil count
        stencils = []

        def g(z):
            stencils.append(z.copy())
            return z * z + 1.0

        found, residual, step, count = complex_newton(g, 0.1 + 0.9j)
        assert abs(found - 1j) < 1e-10
        assert count == len(stencils)
        assert all(s.shape == (3,) for s in stencils)
        for s in stencils:
            h = 1e-6 * max(1.0, abs(s[0]))
            assert (s[1], s[2]) == (s[0] + h, s[0] - h)
        centres = [s[0] for s in stencils]
        assert len(set(centres)) == len(centres)
        z, up, down = (complex(v) for v in stencils[-1])
        h = 1e-6 * max(1.0, abs(z))
        gz, g_up, g_down = map(complex, g(np.array([z, up, down])))
        slope = (g_up - g_down) / (2.0 * h)
        newton = gz / slope
        bend = newton * ((g_up + g_down - 2.0 * gz) / (h * h)) / (2.0 * slope)
        assert abs(bend) < 0.1  # Halley's step at the last stencil
        assert found == z - newton / (1.0 - bend)
        assert residual == abs(gz) <= numerics._RESIDUAL_TOL
        assert step == abs(newton / (1.0 - bend)) <= numerics._STEP_TOL

    def test_scalar_only_g_rejected(self):
        with pytest.raises(TypeError, match="complex array to an array of "
                                            "the same shape"):
            complex_newton(lambda z: cmath.exp(z) - 2.0, 1.0 + 0.0j)
        with pytest.raises(TypeError, match="same shape"):
            complex_newton(lambda z: 1.0 + 0.0j, 1.0 + 0.0j)


class TestOdeEvolve:
    def test_zero_rate(self):
        out = ode_evolve(0.0, 1.0, np.linspace(0.0, 3.0, 7))
        assert np.allclose(out, 1.0, rtol=0, atol=1e-14)

    def test_real_decay(self):
        out = ode_evolve(-1.0, 1.0, np.array([0.0, 1.0]))
        assert abs(out[-1] - math.exp(-1.0)) < 1e-11

    def test_complex_rate(self):
        out = ode_evolve(1.0 - 0.5j, 1.0, np.array([0.0, 2.0]))
        assert abs(out[-1] - cmath.exp(2.0 * (1.0 - 0.5j))) < 1e-9

    def test_relative_accuracy_over_rate_range(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 10.0, 21)
        for _ in range(6):
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            z *= min(1.0, 10.0 / abs(z))
            out = ode_evolve(z, 1.0, grid)
            exact = np.exp(z * grid)
            rel = np.max(np.abs(out - exact) / np.maximum(np.abs(exact),
                                                          1e-300))
            assert rel < 1e-8

    def test_unreachable_tolerance(self):
        # a phase of 1e4 radians: the roundoff of the power R^n stays
        # above the fixed 1e-10, so the refinement stalls
        with pytest.raises(NonConvergence, match="stalled"):
            ode_evolve(1e4j, 1.0, np.array([0.0, 1.0]))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ode_evolve(1.0, 1.0, np.array([0.0, 0.0, 1.0]))

    def test_step_below_float_resolution(self):
        """A step of 1e-9 at tau = 1e6 halves below float resolution of
        tau before the refinement settles."""
        with pytest.raises(gt.StepUnderflow, match="float resolution"):
            ode_evolve(1.0 - 0.5j, 1.0, np.array([1e6, 1e6 + 1e-9]))


class TestDerivative:
    def test_square(self):
        val, err = derivative(lambda x: x * x, 3.0, 0.1)
        assert val == pytest.approx(6.0, abs=1e-10)
        assert err < 1e-9

    def test_log(self):
        val, _ = derivative(math.log, 2.0, 0.05)
        assert val == pytest.approx(0.5, abs=1e-7)

    def test_exponential(self):
        val, _ = derivative(lambda x: math.exp(-x), 0.0, 0.05)
        assert val == pytest.approx(-1.0, abs=1e-7)

    def test_error_estimate_brackets_truth(self):
        val, err = derivative(math.sin, 1.0, 0.2)
        assert abs(val - math.cos(1.0)) <= 10 * err

    def test_complex_valued(self):
        val, _ = derivative(lambda x: cmath.exp(1j * x), 0.0, 0.01)
        assert abs(val - 1j) < 1e-10

    def test_bad_step(self):
        with pytest.raises(ValueError):
            derivative(lambda x: x, 1.0, 0.0)

    def test_non_finite_samples(self):
        with pytest.raises(ValueError):
            derivative(math.log, 0.05, 0.1)


def _not_a_knot_system(x, y):
    """Dense slope equations A s = b of the not-a-knot cubic through
    (x, y): C^2 at each inner knot, and a continuous third derivative
    across x_1 and x_(n-2)."""
    n, h = x.size, np.diff(x)
    m = np.diff(y) / h
    a, b = np.zeros((n, n)), np.zeros(n)
    i = np.arange(1, n - 1)
    a[i, i - 1], a[i, i], a[i, i + 1] = h[1:], 2.0 * (h[:-1] + h[1:]), h[:-1]
    b[i] = 3.0 * (h[1:] * m[:-1] + h[:-1] * m[1:])
    d = x[2] - x[0]
    a[0, :2] = h[1], d
    b[0] = ((h[0] + 2.0 * d) * h[1] * m[0] + h[0] ** 2 * m[1]) / d
    d = x[-1] - x[-3]
    a[-1, -2:] = d, h[-2]
    b[-1] = (h[-1] ** 2 * m[-2] + (2.0 * d + h[-1]) * h[-2] * m[-1]) / d
    return a, b


@st.composite
def _knot_sets(draw):
    """n >= 4 knots on [0, L] with nonnegative values, optionally with
    the density table's geometric ladders (1e-9 L to 1e-3 L) into one or
    both ends."""
    gaps = draw(st.lists(st.floats(0.05, 2.0), min_size=3, max_size=30))
    x = np.concatenate([[0.0], np.cumsum(gaps)])
    ladder = x[-1] * np.geomspace(1e-9, 1e-3, 19)
    ends = draw(st.sampled_from(["none", "lo", "hi", "both"]))
    parts = [x]
    if ends in ("lo", "both"):
        parts.append(x[0] + ladder)
    if ends in ("hi", "both"):
        parts.append(x[-1] - ladder)
    x = np.unique(np.concatenate(parts))
    y = draw(st.lists(st.floats(0.0, 100.0), min_size=x.size,
                      max_size=x.size))
    return x, np.array(y)


class TestCubicSpline:
    @settings(max_examples=100, deadline=None)
    @given(knots=_knot_sets(),
           where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    @example(knots=(np.array([0.0, 1.0, 2.0, 3.0]),
                    np.array([0.0, 0.0, 0.0, 2.22507386e-311])),
             where=[0.0])
    def test_matches_scipy_not_a_knot(self, knots, where):
        """Against SciPy's CubicSpline (default not-a-knot) within a bound
        from rounding.  Each fit is backward stable: its slopes solve
        (A + dA) s = b + db with |dA| <= 16u|A|, |db| <= 16u|b| (every
        entry is formed in a few roundings, and elimination on the
        diagonally dominant system grows no entry past twice its size),
        so by Skeel's bound each slope is off by at most
        E = 16u |A^-1| (|A| |s| + |b|).  In Hermite form a value on
        [x_k, x_k+1] is y_k H00 + y_k+1 H01 + h s_k H10 + h s_k+1 H11
        with every |H| <= 1: the pieces and Horner's rule add at most
        16u (|y_k| + |y_k+1| + h (|s_k| + |s_k+1|)), the slopes
        h (E_k + E_k+1).  Under gradual underflow each of those 16
        operations may also add half the smallest subnormal, an absolute
        8 eta that the relative terms miss when the values are subnormal.
        Two fits carry it twice."""
        x, y = knots
        spline, ref = _cubic_spline(x, y), CubicSpline(x, y)
        a, b = _not_a_knot_system(x, y)
        s = np.abs(ref(x, 1))
        slope_err = 16 * _U * np.abs(np.linalg.inv(a)) @ (np.abs(a) @ s
                                                          + np.abs(b))
        h = np.diff(x)
        scale = y[:-1] + y[1:] + h * (s[:-1] + s[1:])
        bound = 2.0 * (16 * _U * scale + h * (slope_err[:-1] + slope_err[1:])
                       + 8 * _ETA)
        w = np.concatenate([x[0] + np.array(where) * (x[-1] - x[0]),
                            0.5 * (x[:-1] + x[1:])])
        k = np.clip(np.searchsorted(x, w, side="right") - 1, 0, h.size - 1)
        assert np.all(np.abs(spline(w) - ref(w)) <= bound[k])
        assert np.array_equal(spline(x[:-1]), y[:-1])
        # the whole-range integral, as the density table takes it
        table = DensityTable(spline=spline, norm_direct=0.0,
                             max_refine_dev=0.0)
        assert abs(table.norm - ref.integrate(x[0], x[-1])) \
            <= np.sum(h * bound) + 2 * x.size * _U * np.sum(h * scale)
        # a tabulated profile is the same spline, clipped at zero inside
        profile = gt.TabulatedFormFactor(grid=x, values=y)
        assert np.all(np.abs(profile.f2(w) - np.clip(ref(w), 0.0, None))
                      <= bound[k])
        assert np.array_equal(profile.f2(x[:-1]), y[:-1])

    def test_zero_outside_knots(self):
        x = np.linspace(1.0, 3.0, 9)
        spline = _cubic_spline(x, np.exp(x))
        below = [np.nextafter(1.0, 0.0), 0.5, -1e300, -np.inf]
        above = [np.nextafter(3.0, 4.0), 7.0, 1e300, np.inf]
        # far-out points are clipped before Horner's rule: no overflow
        with np.errstate(all="raise"):
            out = spline(np.array(below + above))
        assert np.array_equal(out, np.zeros(8))
        assert spline(x[0]) == math.exp(1.0)
        assert type(spline(2.0)) is float and type(spline(5.0)) is float
        assert spline(5.0) == 0.0

    def test_nan_point_is_nan(self):
        """A NaN point has no value, not the zero outside the knots; so
        the density table and a tabulated profile read NaN there too."""
        x = np.linspace(1.0, 3.0, 9)
        spline = _cubic_spline(x, np.exp(x))
        w = np.array([np.nan, 0.5, 2.0, np.nan, 7.0])
        with np.errstate(all="raise"):
            out = spline(w)
        assert np.isnan(out[[0, 3]]).all()
        assert np.array_equal(out[[1, 2, 4]], spline(w[[1, 2, 4]]))
        assert out[2] == spline(2.0) and out[1] == out[4] == 0.0
        assert type(spline(np.nan)) is float and math.isnan(spline(np.nan))
        table = DensityTable(spline=spline, norm_direct=0.0,
                             max_refine_dev=0.0)
        profile = gt.TabulatedFormFactor(grid=x, values=np.exp(x))
        for f in (table, profile.f2):
            assert math.isnan(f(np.nan))
            assert np.isnan(f(w)).tolist() == [True, False, False, True,
                                               False]
