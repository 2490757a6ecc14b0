import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import gamow_thermo as gt
from gamow_thermo.decay import DensityTable
from gamow_thermo.numerics import (
    IntegrandError,
    MaxIterExceeded,
    NonConvergence,
    QuadratureSpec,
    RootSearchConfig,
    SingularStep,
    _cubic_spline,
    complex_newton,
    derivative,
    integrate,
    ode_evolve,
    principal_values,
)

SPEC = QuadratureSpec()
_U = np.finfo(float).eps / 2


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda w: np.ones_like(w), 0.0, 1.0, SPEC) == \
            pytest.approx(1.0, abs=1e-12)

    def test_decaying_exponential_semi_infinite(self):
        val = integrate(lambda w: np.exp(-w), 0.0, np.inf, SPEC)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_complex_pole_closed_form(self):
        # oracle: antiderivative log(w - c) never crosses the branch cut
        # because Im(w - c) = -1 all along the path
        c = 2.0 + 1.0j
        exact = cmath.log(10.0 - c) - cmath.log(-c)
        val = integrate(lambda w: 1.0 / (w - c), 0.0, 10.0, SPEC)
        assert abs(val - exact) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a1, b1 = rng.normal(size=2)
            f = lambda w: np.sin(3.0 * w) + w**2
            g = lambda w: np.exp(-w) * np.cos(5.0 * w)
            combined = integrate(lambda w: a1 * f(w) + b1 * g(w), 0.0, 1.0,
                                 SPEC)
            separate = (a1 * integrate(f, 0.0, 1.0, SPEC)
                        + b1 * integrate(g, 0.0, 1.0, SPEC))
            assert abs(combined - separate) < 5e-10

    def test_scalar_only_integrand_rejected(self):
        # integrands map arrays to arrays of the same shape
        with pytest.raises(TypeError, match="same shape"):
            integrate(math.exp, 0.0, 1.0, SPEC)
        with pytest.raises(TypeError, match="same shape"):
            integrate(lambda w: 1.0, 0.0, 1.0, SPEC)

    def test_exhausted_subdivisions(self):
        tight = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15,
                               max_subdivisions=4)
        with pytest.raises(NonConvergence):
            integrate(lambda w: np.sin(40.0 * w) / (1e-4 + w), 0.0, 10.0,
                      tight)

    def test_non_finite_integrand(self):
        with pytest.raises(IntegrandError):
            integrate(lambda w: np.full_like(w, np.nan), 0.0, 1.0, SPEC)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            integrate(lambda w: w, 1.0, 0.0, SPEC)


class TestPrincipalValue:
    """PV of g(w) / (c - w): g = -1 gives the PV of 1/(w - c)."""

    def test_symmetric_interval_vanishes(self):
        val = principal_values(lambda w: -np.ones_like(w), 0.0, 2.0, [1.0],
                               SPEC)
        assert abs(val[0]) < 1e-10

    def test_log_two(self):
        val = principal_values(lambda w: -np.ones_like(w), 0.0, 3.0, [1.0],
                               SPEC)
        assert val[0] == pytest.approx(math.log(2.0), abs=1e-10)

    def test_linear_numerator(self):
        val = principal_values(lambda w: -w, 0.0, 2.0, [1.0], SPEC)
        assert val[0] == pytest.approx(2.0, abs=1e-9)

    def test_antisymmetry_random_poles(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            c = rng.uniform(0.5, 5.0)
            half = rng.uniform(0.1, 0.4) * c
            val = principal_values(lambda w: -np.ones_like(w), c - half,
                                   c + half, [c], SPEC)
            assert abs(val[0]) < SPEC.abs_tol * 10

    def test_pole_at_endpoint(self):
        with pytest.raises(ValueError):
            principal_values(lambda w: -np.ones_like(w), 0.0, 1.0, [0.0],
                             SPEC)
        # a g vanishing at the end keeps the integral finite: -pi/2 here
        val = principal_values(lambda w: w / (1.0 + w * w), 0.0, np.inf,
                               [0.0], SPEC)
        assert val[0] == pytest.approx(-0.5 * np.pi, abs=1e-10)

    def test_infinite_range_closed_form(self):
        # PV of 1 / ((1 + w^2)(c - w)) over [0, inf), partial fractions
        c = np.array([1e-6, 0.3, 1.0, 4.0, 250.0])
        exact = (0.5 * np.pi * c + np.log(c)) / (1.0 + c * c)
        val = principal_values(lambda w: 1.0 / (1.0 + w * w), 0.0, np.inf,
                               c, SPEC)
        assert np.max(np.abs(val - exact)) < 1e-10

    def test_complex_points_closed_form(self):
        # integral of 1 / ((1 + w^2)(z - w)) over [0, inf) is
        # (log(-z) + pi z / 2) / (1 + z^2) off the positive axis: points a
        # hair off the cut, on the end, outside and far away
        z = np.array([0.3 + 1e-12j, 0.3 - 1e-12j, 1e-6j, 0.5j, -2.0 - 1.0j,
                      -2.0, 4.0 + 3.0j, 1e3 - 1e-3j])
        exact = (np.log(-z) + 0.5 * np.pi * z) / (1.0 + z * z)
        val = principal_values(lambda w: 1.0 / (1.0 + w * w), 0.0, np.inf,
                               z, SPEC)
        assert np.max(np.abs(val - exact)) < 1e-10

    def test_jump_inside_window_is_refined(self):
        # g = 1 on (0.3, 1]: the fold around c = 0.5 straddles the jump,
        # which only bisection resolves; PV = ln(0.4)
        val = principal_values(lambda w: np.where(w > 0.3, 1.0, 0.0), 0.0,
                               1.0, [0.5], SPEC)
        assert val[0] == pytest.approx(math.log(0.4), abs=1e-9)

    def test_exhausted_subdivisions(self):
        tight = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15,
                               max_subdivisions=12)
        with pytest.raises(NonConvergence):
            principal_values(lambda w: np.where(w > 0.3, 1.0, 0.0), 0.0,
                             1.0, [0.5], tight)

    def test_non_finite_integrand(self):
        with pytest.raises(IntegrandError):
            principal_values(lambda w: np.full_like(w, np.nan), 0.0, 1.0,
                             [0.5], SPEC)


class TestComplexNewton:
    CASES = [
        (lambda z: z * z + 1.0, 0.1 + 0.9j, 1j),
        (lambda z: z - (1.0 - 0.5j), 0.0 + 0.0j, 1.0 - 0.5j),
        (lambda z: np.exp(z) - 2.0, 1.0 + 0.0j, math.log(2.0)),
    ]

    @pytest.mark.parametrize("g,guess,root", CASES)
    def test_known_roots(self, g, guess, root):
        cfg = RootSearchConfig(initial_guess=guess)
        found = complex_newton(g, cfg)
        assert abs(found - root) < 1e-10
        assert abs(g(found)) <= cfg.residual_tol

    def test_max_iter(self):
        cfg = RootSearchConfig(initial_guess=50.0 + 50.0j, max_iter=2)
        with pytest.raises(MaxIterExceeded):
            complex_newton(lambda z: z * z + 1.0, cfg)

    def test_singular_derivative(self):
        cfg = RootSearchConfig(initial_guess=1.0 + 0.0j)
        with pytest.raises(SingularStep):
            complex_newton(lambda z: 1.0 + 0.0j * z, cfg)

    def test_guess_required(self):
        with pytest.raises(ValueError):
            complex_newton(lambda z: z, RootSearchConfig())

    def test_one_stencil_call_per_iteration(self):
        # each call is the stencil [z, z + h, z - h]; the residual at the
        # new iterate is read from the next stencil, never from a 4th call
        stencils = []

        def g(z):
            stencils.append(z.copy())
            return z * z + 1.0

        found = complex_newton(g, RootSearchConfig(initial_guess=0.1 + 0.9j))
        assert abs(found - 1j) < 1e-10
        assert all(s.shape == (3,) for s in stencils)
        for s in stencils:
            h = 1e-6 * max(1.0, abs(s[0]))
            assert (s[1], s[2]) == (s[0] + h, s[0] - h)
        centres = [s[0] for s in stencils]
        assert len(set(centres)) == len(centres)
        assert centres[-1] == found

    def test_scalar_only_g_rejected(self):
        cfg = RootSearchConfig(initial_guess=1.0 + 0.0j)
        with pytest.raises(TypeError, match="complex array to an array of "
                                            "the same shape"):
            complex_newton(lambda z: cmath.exp(z) - 2.0, cfg)
        with pytest.raises(TypeError, match="same shape"):
            complex_newton(lambda z: 1.0 + 0.0j, cfg)


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
        with pytest.raises(NonConvergence):
            ode_evolve(1.0, 1.0, np.array([0.0, 1.0]), rel_tol=1e-30)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ode_evolve(1.0, 1.0, np.array([0.0, 0.0, 1.0]))


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


class TestSpecValidation:
    def test_quadrature_spec(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)

    def test_root_config(self):
        with pytest.raises(ValueError):
            RootSearchConfig(step_tol=-1.0)
        with pytest.raises(ValueError):
            RootSearchConfig(max_iter=0)


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
        h (E_k + E_k+1).  Two fits carry it twice."""
        x, y = knots
        spline, ref = _cubic_spline(x, y), CubicSpline(x, y)
        a, b = _not_a_knot_system(x, y)
        s = np.abs(ref(x, 1))
        slope_err = 16 * _U * np.abs(np.linalg.inv(a)) @ (np.abs(a) @ s
                                                          + np.abs(b))
        h = np.diff(x)
        scale = y[:-1] + y[1:] + h * (s[:-1] + s[1:])
        bound = 2.0 * (16 * _U * scale + h * (slope_err[:-1] + slope_err[1:]))
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
