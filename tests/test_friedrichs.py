import cmath
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.optimize import brentq

import gamow_thermo as gt
from gamow_thermo import friedrichs, numerics
from gamow_thermo.friedrichs import (
    ContinuationUnavailable,
    PoleInUpperHalfPlane,
    PoleOutsideSupport,
)
from gamow_thermo.numerics import (
    IntegrandError,
    principal_values,
)


def closed_eta(model, z, sheet="I"):
    """Closed-form eta(z) off the cut, for the two analytic profiles: a
    scalar ``cmath`` reference, apart from the package's own closed forms.

    Flat cutoff c: the integral of 1/(z - w) over [0, c] is the complex
    log(z) - log(z - c), see :func:`_flat_integral`.  Rational scale s:
    partial fractions give (z log(-z/s) / pi - s/2) / (z^2 + s^2), see
    :func:`_rational_integral`.
    """
    ff = model.form_factor
    if isinstance(ff, gt.FlatCutoff):
        integral = _flat_integral(z, ff.cutoff)
    else:
        integral = _rational_integral(z, ff.scale)
    return _eta(model, z, integral, sheet)


def kernel_eta(model, z, sheet="I"):
    """eta(z) off the axis with its integral from the adaptive Cauchy
    kernel: the quadrature oracle of the closed forms."""
    return _eta(model, z, kernel_cauchy(model.form_factor, [z])[0], sheet)


def kernel_cauchy(ff, z):
    """The adaptive kernel's Cauchy integrals of ``ff``'s f^2 at the
    points ``z``: the quadrature oracle of the closed forms.

    The kernel serves finite ranges, so the rational profile's half-line
    maps onto [0, 1] by w = s u/(1 - u): f^2(w) dw / (z - w) becomes
    g(u) du / ((z + s)(zeta - u)) with zeta = z/(z + s) and
    g(u) = u / (pi (u^2 + (1 - u)^2)), bounded and free of s.  Im zeta
    has the sign of Im z; where it underflows to 0 off the axis, it is
    set to +-5e-324 on z's side, so that the kernel's rule beside the
    axis applies.
    """
    if not isinstance(ff, gt.RationalFormFactor):
        return principal_values(ff.f2, *ff.support, z)
    z, s = np.asarray(z, dtype=complex), ff.scale
    zeta = z / (z + s)
    beside = (zeta.imag == 0.0) & (z.imag != 0.0)
    zeta.imag[beside] = np.copysign(5e-324, z.imag[beside])
    return principal_values(lambda u: u / (np.pi * (u * u + (1.0 - u) ** 2)),
                            0.0, 1.0, zeta) / (z + s)


def _eta(model, z, integral, sheet):
    """z - omega0 - lam^2 * integral on sheet I; sheet II adds
    2 pi i lam^2 f^2(z) below the axis and subtracts it above."""
    eta = z - model.omega0 - model.lam**2 * integral
    if sheet == "II":
        jump = 2j * np.pi * model.lam**2 * model.form_factor.f2_complex(z)
        eta += jump if z.imag < 0 else -jump
    return eta


def _flat_integral(z, c):
    """log(z) - log(z - c); past |z| = 4c, where the two logs cancel, the
    series -log(1 - u) = sum_k u^k / k in u = c/z, |u| < 1/4, summed to
    k = 60."""
    if abs(z) <= 4.0 * c:
        return cmath.log(z) - cmath.log(z - c)
    u = c / z
    return sum(u**k / k for k in range(60, 0, -1))


def _rational_integral(z, s):
    """N(z) / (z^2 + s^2) with N(z) = z log(-z/s) / pi - s/2.

    N vanishes at both zeros p = +-i s of the denominator, so within
    |z - p| < s/10 the quotient is taken from N's Taylor series about p,
    N'(p) = (log(-p/s) + 1) / pi and N^(k)(p) = (-1)^k (k-2)! / (pi p^(k-1))
    for k >= 2, divided by z - p term by term.
    """
    for p in (1j * s, -1j * s):
        ratio = (z - p) / p
        if abs(ratio) < 0.1:
            series = sum((-ratio) ** (k - 1) / (k * (k - 1))
                         for k in range(2, 24))
            return (cmath.log(-p / s) + 1.0 - series) / (np.pi * (z + p))
    return (z * cmath.log(-z / s) / np.pi - 0.5 * s) / (z * z + s * s)


def closed_root(model):
    """The resonance: Newton on the closed-form eta_II from the golden
    rule, with central-difference slopes, run to rounding level."""
    f2 = float(model.form_factor.f2(model.omega0))
    z = complex(model.omega0, -np.pi * model.lam**2 * f2)
    for _ in range(100):
        h = 1e-7 * max(1.0, abs(z))
        slope = (closed_eta(model, z + h, "II")
                 - closed_eta(model, z - h, "II")) / (2 * h)
        step = closed_eta(model, z, "II") / slope
        z -= step
        if abs(step) <= 4.0 * np.finfo(float).eps * abs(z):
            return z
    raise AssertionError(f"closed-form Newton did not settle at {z!r}")


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


class TestFormFactors:
    def test_factory(self):
        ff = gt.FlatCutoff(cutoff=5.0)
        assert ff.f2(2.0) == 1.0 and ff.f2(6.0) == 0.0

    def test_flat_validation(self):
        with pytest.raises(ValueError):
            gt.FlatCutoff(cutoff=-1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_parameters_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="cutoff must be positive and"):
            gt.FlatCutoff(cutoff=bad)
        with pytest.raises(ValueError, match="scale must be positive and"):
            gt.RationalFormFactor(scale=bad)
        with pytest.raises(ValueError, match="omega0 must be positive and"):
            gt.FriedrichsModel(omega0=bad, lam=0.1,
                               form_factor=gt.FlatCutoff(cutoff=10.0))

    def test_rational_profile(self):
        ff = gt.RationalFormFactor(scale=2.0)
        w = 3.0
        assert ff.f2(w) == pytest.approx(w / (np.pi * (w * w + 4.0)))
        assert ff.f2(-1.0) == 0.0
        assert ff.f2_complex(1.0 - 0.5j) == pytest.approx(
            (1.0 - 0.5j) / (np.pi * ((1.0 - 0.5j) ** 2 + 4.0)))

    def test_rational_profile_past_the_float_range(self):
        """At omega = inf (not inf/inf = NaN) the profile is its limit, 0,
        at omega = 1e308, where pi omega overflows, it rounds to 0, and
        where its value 1/(2 pi scale) passes the float range it is inf:
        no numpy warning."""
        ff = gt.RationalFormFactor(scale=1.0)
        assert ff.f2(1e308) == 0.0 and ff.f2(np.inf) == 0.0
        assert np.array_equal(ff.f2(np.array([np.inf, 1e308])), [0.0, 0.0])
        assert gt.RationalFormFactor(scale=1e-320).f2(1e-320) == np.inf

    @pytest.mark.parametrize("z", [1e200, 1e300 - 1e300j])
    def test_rational_continuation_far_out_is_its_limit(self, z):
        """Past |z| = 1e150 scales, where w^2 overflows, the continuation
        of a scalar is its limit 1/(pi (z + s^2/z)), a Python complex."""
        value = gt.RationalFormFactor(scale=1.0).f2_complex(z)
        assert type(value) is complex
        assert value == pytest.approx(1.0 / (np.pi * z), rel=1e-15)

    def test_rational_continuation_runs_no_cauchy_pass(self, monkeypatch):
        """The continuation alone is z / (pi (z^2 + s^2)), and its limit
        far out: f2_complex forms it without the Cauchy transform's logs,
        so it stands with that pass broken, and keeps the shape."""
        monkeypatch.setattr(gt.RationalFormFactor, "_cauchy_and_f2",
                            lambda *args: pytest.fail("the Cauchy pass runs"))
        ff = gt.RationalFormFactor(scale=2.0)
        z = np.array([[1.0 - 0.5j, 3.0, 1e200 - 1e199j]])
        got = ff.f2_complex(z)
        assert got.shape == z.shape
        assert got[0, :2] == pytest.approx(
            z[0, :2] / (np.pi * (z[0, :2] ** 2 + 4.0)), rel=1e-15)
        assert got[0, 2] == pytest.approx(1.0 / (np.pi * z[0, 2]), rel=1e-15)
        assert type(ff.f2_complex(1.0 - 0.5j)) is complex

    def test_flat_continuation_keeps_the_shape(self):
        """The continuation maps an array to an array of its shape, and a
        scalar to a Python complex."""
        ff = gt.FlatCutoff(cutoff=10.0)
        got = ff.f2_complex(np.array([1 - 1j, 2.0]))
        assert got.shape == (2,) and np.all(got == 1.0)
        assert type(ff.f2_complex(1 - 1j)) is complex

    @settings(max_examples=60, deadline=None)
    @given(scale_exp=st.floats(-300.0, 300.0))
    @example(scale_exp=154.0)
    def test_rational_profile_at_extreme_scales(self, scale_exp):
        """From scale 1e-300 to 1e300, where omega^2 + scale^2 overflows
        or underflows, f^2 is finite, non-negative and warning-free over
        the whole half-line, within 1e-15 of the exact quotient wherever
        that is at least 1e-300, and the rim self-energy stays finite."""
        scale = 10.0**scale_exp
        ff = gt.RationalFormFactor(scale=scale)
        omega = np.concatenate([
            [0.0, 5e-324, scale, 0.5 * scale, 3.0 * scale, 1.7e308],
            10.0 ** np.linspace(-323.0, 308.0, 120)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ff.f2(omega)
            eta = gt.self_energy(
                gt.FriedrichsModel(omega0=scale, lam=0.1 * math.sqrt(scale),
                                   form_factor=ff),
                [0.5 * scale, 2.0 * scale])
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
        assert np.all(np.isfinite(eta))
        for w, value in zip(omega.tolist(), got.tolist()):
            exact = Fraction(w) / (Fraction(w) ** 2 + Fraction(scale) ** 2)
            exact = float(exact) / math.pi if exact else 0.0
            if exact >= 1e-300:
                assert abs(value - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("lam", [1e200, -1.4e154, np.nan, 1j])
    def test_coupling_square_must_be_finite(self, lam):
        with pytest.raises(ValueError, match="finite square"):
            gt.FriedrichsModel(omega0=1.0, lam=lam,
                               form_factor=gt.FlatCutoff(cutoff=10.0))

    def test_tabulated_spline_must_be_finite(self):
        """A grid out to 1e308 overflows the spline fit: the samples are
        rejected, as a non-finite sample is."""
        with pytest.raises(ValueError, match="spline .* is not finite"):
            gt.TabulatedFormFactor(grid=np.linspace(0.0, 1e308, 11),
                                   values=np.ones(11))

    def test_tabulated_matches_samples_and_clips(self):
        grid = np.linspace(0.0, 4.0, 41)
        ff = gt.TabulatedFormFactor(grid=grid, values=np.sin(grid) ** 2)
        assert ff.f2(grid[7]) == pytest.approx(np.sin(grid[7]) ** 2)
        assert ff.f2(5.0) == 0.0
        assert np.all(np.asarray(ff.f2(np.linspace(0, 5, 333))) >= 0.0)

    def test_tabulated_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            gt.TabulatedFormFactor(grid=np.array([0.0, 1.0, 1.0, 2.0]),
                                   values=np.ones(4))
        with pytest.raises(ValueError, match="nonnegative"):
            gt.TabulatedFormFactor(grid=np.linspace(0, 1, 5),
                                   values=np.array([1, 1, -1, 1, 1.0]))
        for grid, values, match in [
                (np.linspace(0.0, 1.0, 3), np.ones(3), ">= 4 grid points"),
                (np.linspace(0.0, 1.0, 8).reshape(2, 4), np.ones((2, 4)),
                 ">= 4 grid points"),
                (np.linspace(-1.0, 1.0, 5), np.ones(5), "below 0"),
                (np.linspace(0.0, 1.0, 5), np.ones(4), "matching shapes")]:
            with pytest.raises(ValueError, match=match):
                gt.TabulatedFormFactor(grid=grid, values=values)

    @pytest.mark.parametrize("where,bad", [("values", np.nan),
                                           ("values", np.inf),
                                           ("grid", np.nan)],
                             ids=["nan-value", "inf-value", "nan-grid"])
    def test_tabulated_rejects_non_finite_samples(self, where, bad):
        table = {"grid": np.linspace(0.0, 4.0, 9), "values": np.ones(9)}
        table[where][5] = bad
        with pytest.raises(ValueError, match="must be finite"):
            gt.TabulatedFormFactor(**table)

    @pytest.mark.parametrize("ff", [
        gt.FlatCutoff(cutoff=10.0), gt.RationalFormFactor(scale=1.0),
        gt.TabulatedFormFactor(grid=np.linspace(0.0, 4.0, 9),
                               values=np.ones(9))],
        ids=["flat", "rational", "tabulated"])
    def test_scalar_in_float_out(self, ff):
        model = gt.FriedrichsModel(omega0=1.0, lam=0.1, form_factor=ff)
        for w in (2.0, 20.0):
            assert type(ff.f2(w)) is float
            assert type(gt.spectral_density(model, w)) is float
        assert ff.f2(np.array([2.0])).shape == (1,)
        assert gt.spectral_density(model, np.array([2.0])).shape == (1,)

    def test_tabulated_from_file(self, tmp_path):
        grid = np.linspace(0.0, 10.0, 200)
        path = tmp_path / "ff.txt"
        np.savetxt(path, np.column_stack([grid, np.ones_like(grid)]))
        ff = gt.TabulatedFormFactor.from_file(path)
        assert ff.f2(3.0) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ContinuationUnavailable):
            ff.f2_complex(1 - 1j)
        np.savetxt(path, grid)
        with pytest.raises(ValueError, match="expected two columns"):
            gt.TabulatedFormFactor.from_file(path)

    def test_model_validation(self):
        ff = gt.FlatCutoff(cutoff=10.0)
        with pytest.raises(ValueError):
            gt.FriedrichsModel(omega0=-1.0, lam=0.1, form_factor=ff)
        with pytest.raises(ValueError):
            gt.FriedrichsModel(omega0=1.0, lam=np.nan, form_factor=ff)


class TestResonancePole:
    def test_z_accessor(self):
        pole = gt.ResonancePole(e_r=2.0, gamma=0.5)
        assert pole.z == 2.0 - 0.25j

    def test_validation(self):
        with pytest.raises(ValueError):
            gt.ResonancePole(e_r=0.0, gamma=0.1)
        with pytest.raises(ValueError):
            gt.ResonancePole(e_r=1.0, gamma=-0.1)


# every kind of point of the batch sampler in one batch, threshold twice:
# z = 0 and 5e-324, which the rational w = z/s rounds to zero at size 3
_MIXED_BATCH = [("rim", 0.3, 0.01), ("threshold", 0.2, 0.1),
                ("near", 0.3, 0.5), ("upper", 0.4, 1e-3), ("far", 0.5, 0.2),
                ("negative zero", 0.1, 0.3), ("below", 0.5, 0.1),
                ("right", 0.25, 0.1), ("edge", 0.6, 0.2),
                ("threshold", 0.7, 0.1), ("lower", 0.6, 0.02)]


def _batch_point(where, x, y, size, ends):
    """A point of ``where``'s kind for the batch sampler, placed by ``x``
    in (0, 1) and the height ``y``, for a flat cutoff 10 * size or a
    rational scale ``size``: on the rim, off the axis inside the support,
    on the axis left of threshold, at the support ``ends`` off the axis
    (above for x < 0.5), at threshold (z = 0, or 5e-324, which z/s
    rounds to zero for size 3), within size/10 of +-i * size, past
    |z/size| = 1e150, on the axis right of the flat cutoff, and real
    with imaginary part -0.0, left of, inside or right of the support."""
    top = 10.0 * size
    if where == "rim":
        return complex(top * x, 0.0)
    if where in ("upper", "lower"):
        return complex(top * x, y if where == "upper" else -y)
    if where == "below":
        return complex(-y * size, 0.0)
    if where == "edge":
        return complex(ends[int(4 * x) % len(ends)], y if x < 0.5 else -y)
    if where == "threshold":
        return complex(0.0 if x < 0.5 else 5e-324, 0.0)
    if where == "near":
        return size * ((1j if x < 0.5 else -1j)
                       + 0.1 * min(y, 0.999) * cmath.exp(2j * np.pi * x))
    if where == "far":
        return top * 10.0 ** (150.0 + 150.0 * x) * cmath.exp(
            1j * math.log(y))
    if where == "right":
        return complex(top / x, 0.0)
    return complex(top * (2.0 * x - 0.5), -0.0)  # "negative zero"


class TestSelfEnergy:
    def test_free_model(self):
        free = gt.FriedrichsModel(omega0=1.0, lam=0.0,
                                  form_factor=gt.FlatCutoff(cutoff=10.0))
        z = 2.0 + 3.0j
        assert gt.self_energy(free, z, "I") == z - 1.0
        assert gt.self_energy(free, z, "II") == z - 1.0

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["flat", "rational"]),
           sheet=st.sampled_from(["I", "II"]), size=st.floats(0.5, 2.0),
           where=st.sampled_from(["inside", "low end", "high end",
                                  "outside"]),
           frac=st.floats(1e-9, 1.0 - 1e-9), height=_log_uniform(-13.0, 0.5),
           below=st.booleans())
    def test_off_cut_against_closed_form(self, kind, sheet, size, where,
                                         frac, height, below):
        """Every z off the axis, however close to it, with Re z inside
        the support, on either end of it or outside it, against the
        quadrature oracle and the scalar closed form: lam = 1, so the
        bound is the one on the integral itself."""
        model = _profile_model(kind, 1.0, 1.0, size)
        top = 10.0 * size
        x = {"inside": frac * top, "low end": 0.0,
             "high end": top if kind == "flat" else 0.0,
             "outside": -frac * top if kind == "rational" or frac < 0.5
             else top * (1.0 + frac)}[where]
        z = complex(x, -height if below else height)
        # the jump 2 pi i f^2(z) of sheet II has poles at +-i * scale
        # for the rational profile: eta_II is infinite there, and its
        # rounding alone exceeds the bound within 1e-5 * scale of them
        assume(sheet == "I" or kind == "flat"
               or abs(abs(z.real) + 1j * (abs(z.imag) - size)) > 1e-5 * size)
        val = gt.self_energy(model, z, sheet)
        assert abs(val - kernel_eta(model, z, sheet)) < 1e-9
        assert abs(val - closed_eta(model, z, sheet)) < 1e-9

    def test_sheet_difference_lower_half(self, flat_model):
        # continuation through the cut from above: eta_II - eta_I equals
        # +2*pi*i*lam^2*f^2 below the axis
        rng = np.random.default_rng(5)
        jump = 2j * np.pi * flat_model.lam**2
        for _ in range(100):
            z = complex(rng.uniform(0.05, 9.95), -rng.uniform(0.01, 3.0))
            d = gt.self_energy(flat_model, z, "II") \
                - gt.self_energy(flat_model, z, "I")
            assert abs(d - jump) < 1e-12

    def test_sheet_difference_upper_half(self, flat_model):
        z = 1.5 + 0.7j
        d = gt.self_energy(flat_model, z, "II") \
            - gt.self_energy(flat_model, z, "I")
        assert abs(d + 2j * np.pi * flat_model.lam**2) < 1e-12

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    def test_pole_of_the_continuation_is_a_typed_error(self, scale):
        """At +-i * scale the rational f^2 has the poles that sheet II
        carries: eta_II is infinite there and raises, naming z, alone or
        in a batch, while sheet I stays finite and matches the quadrature
        oracle and the scalar closed form."""
        model = _profile_model("rational", 1.0, 0.1, scale)
        for z in (1j * scale, -1j * scale):
            with pytest.raises(IntegrandError, match=re.escape(f"z = {z!r}")):
                gt.self_energy(model, z, "II")
            with pytest.raises(IntegrandError):
                gt.self_energy(model, np.array([0.5 - 0.1j, z]), "II")
            val = gt.self_energy(model, z, "I")
            assert abs(val - kernel_eta(model, z)) < 1e-9
            assert abs(val - closed_eta(model, z)) < 1e-9

    def test_boundary_value_matches_nudged_quadrature(self, flat_model):
        omega = 1.3
        eps = 1e-7
        nudged = gt.self_energy(flat_model, omega + 1j * eps, "I")
        boundary = gt.self_energy(flat_model, omega)
        assert abs(boundary - nudged) < 1e-5

    def test_on_cut_resolves_to_upper_rim(self, flat_model):
        # the explicit split: principal value plus i*pi*lam^2*f^2, the
        # principal value the profile's real one, within the kernel's
        # bound of the quadrature oracle
        val = gt.self_energy(flat_model, 1.3 + 0.0j, "I")
        lam2 = flat_model.lam**2
        pv = flat_model.form_factor.cauchy([1.3 + 0.0j])
        assert pv.imag[0] == 0.0
        assert _within_table_contract(pv, principal_values(
            flat_model.form_factor.f2, 0.0, 10.0, [1.3]))
        split = 1.3 - 1.0 - lam2 * pv + 1j * np.pi * lam2 * 1.0
        assert val == split[0]
        assert val.imag > 0

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["flat", "rational"]),
           sheet=st.sampled_from(["I", "II"]),
           size=st.sampled_from([1.0, 3.0]),
           points=st.lists(st.tuples(
               st.sampled_from(["rim", "upper", "lower", "below", "edge",
                                "threshold", "near", "far", "right",
                                "negative zero"]),
               st.floats(1e-3, 1.0 - 1e-3), _log_uniform(-13.0, 0.5)),
               min_size=2, max_size=8))
    @example(kind="flat", sheet="II", size=3.0, points=_MIXED_BATCH)
    @example(kind="flat", sheet="I", size=1.0, points=_MIXED_BATCH)
    @example(kind="rational", sheet="II", size=3.0, points=_MIXED_BATCH)
    @example(kind="rational", sheet="I", size=1.0, points=_MIXED_BATCH)
    def test_array_call_is_the_single_point_calls(self, kind, sheet, size,
                                                  points):
        """Ordinary points and the special ones that the closed forms take
        apart, in one batch, each get their single-point value bit for
        bit.  A point whose single call raises (a real z on an end of the
        flat support, where the integral diverges, or on sheet II a pole
        +-i * scale of the rational continuation) makes the batch raise
        the same error, and the other points are compared."""
        model = _profile_model(kind, 1.0, 0.1, size)
        ends = (0.0,) if kind == "rational" else (0.0, 10.0 * size)
        z = np.array([_batch_point(where, x, y, size, ends)
                      for where, x, y in points], dtype=complex)
        single, errors = [], []
        for v in z:
            try:
                single.append(gt.self_energy(model, v, sheet))
            except IntegrandError as exc:
                errors.append(str(exc))
                single.append(None)
        if errors:
            with pytest.raises(IntegrandError, match=re.escape(errors[0])):
                gt.self_energy(model, z, sheet)
            z = z[[v is not None for v in single]]
        batch = gt.self_energy(model, z, sheet)
        assert batch.shape == z.shape
        assert batch.tobytes() == np.array(
            [v for v in single if v is not None], dtype=complex).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["flat", "rational"]),
           omega0=st.floats(0.5, 2.0), lam=st.floats(0.03, 0.25),
           size=st.floats(0.5, 2.0), frac=st.floats(0.01, 0.99))
    def test_sheet_two_continues_across_the_cut(self, kind, omega0, lam,
                                                size, frac):
        # eta_II just below the cut and eta_I just above both approach
        # the upper rim value
        model = _profile_model(kind, omega0, lam, size)
        omega = frac * (10.0 * size if kind == "flat" else 20.0 * size)
        eps = 1e-7
        rim = gt.self_energy(model, omega)
        below = gt.self_energy(model, omega - 1j * eps, "II")
        above = gt.self_energy(model, omega + 1j * eps, "I")
        assert abs(below - rim) < 1e-5
        assert abs(above - rim) < 1e-5

    def test_sheet_two_needs_continuation(self):
        grid = np.linspace(0.0, 10.0, 400)
        ff = gt.TabulatedFormFactor(grid=grid, values=np.ones_like(grid))
        model = gt.FriedrichsModel(omega0=1.0, lam=0.1, form_factor=ff)
        with pytest.raises(ContinuationUnavailable):
            gt.self_energy(model, 1.0 - 0.1j, "II")

    def test_sheet_name_validation(self, flat_model):
        with pytest.raises(ValueError):
            gt.self_energy(flat_model, 1.0 + 1.0j, "III")


def _profile_model(kind, omega0, lam, size):
    """Flat cutoff 10 * size or rational profile of scale ``size``."""
    ff = (gt.FlatCutoff(cutoff=10.0 * size) if kind == "flat"
          else gt.RationalFormFactor(scale=size))
    return gt.FriedrichsModel(omega0=omega0, lam=lam, form_factor=ff)


def _cauchy_point(size, where, frac, height, below, angle, reach=12,
                  far=150):
    """A point of the region where the closed-form Cauchy transforms are
    checked: off the axis inside the support (both sides of the cut) and
    anywhere else, on the rim, on the real axis left of threshold and
    right of the flat cutoff (up to 10^``reach`` support widths away),
    far out to |z| = 10^``far`` widths and within scale/10 of the
    rational profile's +-i * scale.  ``frac`` places the point,
    ``height`` (in (0, 1]) sets |Im z| or a distance, ``angle`` a
    direction."""
    top = 10.0 * size
    sign = -1.0 if below else 1.0
    if where == "near the cut":
        return complex(frac * top, sign * height**8 * top)
    if where == "off the axis":
        return complex((3.0 * frac - 1.0) * top, sign * height * top)
    if where == "rim":
        return complex(frac * top, 0.0)
    if where == "left":
        return complex(-frac * top * 10.0 ** (reach * height), 0.0)
    if where == "right":
        return complex(top * (1.0 + frac * 10.0 ** (reach * height)), 0.0)
    if where == "far":
        return top * 10.0 ** (far * frac) * cmath.exp(1j * angle)
    return (sign * 1j * size
            + 0.1 * size * height * cmath.exp(1j * angle))  # "pole"


_CAUCHY_REGIONS = st.sampled_from(["near the cut", "off the axis", "rim",
                                   "left", "right", "far", "pole"])


class TestClosedForms:
    """The flat and rational profiles' Cauchy transforms are closed forms,
    and the adaptive kernel is their oracle."""

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["flat", "rational"]),
           size=_log_uniform(-1.0, 1.0), where=_CAUCHY_REGIONS,
           frac=st.floats(1e-6, 1.0 - 1e-6), height=st.floats(1e-6, 1.0),
           below=st.booleans(), angle=st.floats(-np.pi, np.pi))
    # z = 7e10, 7e9 scales out on the axis, where the integral (1.139e-11)
    # is near the kernel's 1e-12 floor and zeta = z/(z + s) lies 1.4e-10
    # below the end of the mapped range
    @example(kind="rational", size=10.0, where="far", frac=0.984375,
             height=0.5, below=False, angle=0.0)
    def test_against_the_kernel(self, kind, size, where, frac, height,
                                below, angle):
        ff = _profile_model(kind, 1.0, 0.1, size).form_factor
        # the rational profile's oracle, on its half-line mapped onto
        # [0, 1], reaches out to 1e10 widths, 1e11 scales, where the
        # integral is still above its 1e-12 floor; test_relative_accuracy
        # goes on to 1e150
        z = _cauchy_point(size, where, frac, height, below, angle, reach=6,
                          far=150 if kind == "flat" else 10)
        value = ff.cauchy([z])
        oracle = kernel_cauchy(ff, [z])
        assert _within_table_contract(value, oracle)
        if z.imag == 0.0:
            assert value.imag[0] == 0.0

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["flat", "rational"]),
           size=_log_uniform(-3.0, 3.0), where=_CAUCHY_REGIONS,
           frac=st.floats(1e-6, 1.0 - 1e-6), height=st.floats(1e-6, 1.0),
           below=st.booleans(), angle=st.floats(-np.pi, np.pi),
           tiny=st.booleans())
    def test_relative_accuracy(self, kind, size, where, frac, height, below,
                               angle, tiny):
        """Relative to the scalar closed forms, out to |z| = 1e150 where
        the kernel's absolute bound says nothing, and down to 1e-300."""
        ff = _profile_model(kind, 1.0, 0.1, size).form_factor
        z = _cauchy_point(size, where, frac, height, below, angle)
        if tiny:
            z = cmath.rect(1e-300, cmath.phase(z))
        exact = (_flat_integral(z, ff.cutoff) if kind == "flat"
                 else _rational_integral(z, ff.scale))
        if z.imag == 0.0:
            exact = exact.real
        assert abs(ff.cauchy([z])[0] - exact) <= 1e-13 * abs(exact)

    def test_threshold(self):
        """At z = 0 the rational integral is its limit -1/(2s), the
        kernel's plain integral, also where z/s underflows; the flat one
        diverges on either end of its support, and a real z there raises,
        naming it, alone or in a batch."""
        for s in (0.5, 1e10):
            ff = gt.RationalFormFactor(scale=s)
            assert _within_table_contract(ff.cauchy([0.0]),
                                          kernel_cauchy(ff, [0.0]))
            for z in (0j, -0j, 5e-324 + 0j):
                assert ff.cauchy([z])[0] == pytest.approx(-0.5 / s,
                                                          rel=1e-15)
        flat = gt.FlatCutoff(cutoff=10.0)
        for z in (0.0, 10.0):
            with pytest.raises(IntegrandError,
                               match=re.escape(f"z = {complex(z)!r}")):
                flat.cauchy([1.0 - 1j, z])

    @pytest.mark.parametrize("kind", ["flat", "rational"])
    def test_analytic_profiles_make_no_kernel_call(self, kind, monkeypatch):
        """With a kernel that raises, the pole search, the density and the
        density table still run on the flat and rational profiles; the
        tabulated one, whose route is the kernel, raises."""
        def kernel(*args, **kwargs):
            raise AssertionError("the Cauchy kernel was called")

        monkeypatch.setattr(numerics, "_cauchy", kernel)
        model = _profile_model(kind, 1.0, 0.1, 1.0)
        assert gt.find_pole(model).gamma > 0.0
        assert gt.spectral_density(model, np.array([0.5, 1.0, 2.0])).all()
        table = gt.density_table.__wrapped__(model)
        assert abs(table.norm_direct - 1.0) < 1e-6
        grid = np.linspace(0.0, 10.0, 40)
        tabulated = gt.FriedrichsModel(
            omega0=1.0, lam=0.1,
            form_factor=gt.TabulatedFormFactor(grid=grid,
                                               values=np.ones_like(grid)))
        with pytest.raises(AssertionError, match="kernel was called"):
            gt.self_energy(tabulated, 1.0 - 0.1j)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["flat", "rational"]),
           sheet=st.sampled_from(["I", "II"]),
           size=_log_uniform(-100.0, 100.0),
           omega0=_log_uniform(-1.0, 1.0), lam=_log_uniform(-2.0, 0.5),
           radius=_log_uniform(-300.0, 300.0),
           angle=st.one_of(st.sampled_from([0.0, np.pi, 0.5 * np.pi,
                                            -0.5 * np.pi]),
                           st.floats(-np.pi, np.pi)),
           at_pole=st.sampled_from([None, 1j, -1j]))
    def test_self_energy_never_warns(self, kind, sheet, size, omega0, lam,
                                     radius, angle, at_pole):
        """Anywhere from |z| = 1e-300 to 1e300, and exactly at +-i * scale,
        on either sheet: a finite value or a typed error, and no numpy
        warning."""
        model = _profile_model(kind, omega0, lam, size)
        z = (at_pole * size if at_pole is not None
             else radius * cmath.exp(1j * angle))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = gt.self_energy(model, z, sheet)
            except (numerics.NumericalFailure, ValueError):
                return
        assert cmath.isfinite(value)


def _check_pole(model, pole):
    """The closed-form root to 1e-9 in z and in Gamma, and the golden-rule
    width to relative 10 lam^2."""
    root = closed_root(model)
    assert abs(pole.z - root) <= 1e-9 * abs(root)
    assert abs(pole.gamma + 2.0 * root.imag) <= -2e-9 * root.imag
    golden = 2.0 * np.pi * model.lam**2 * model.form_factor.f2(model.omega0)
    assert abs(pole.gamma - golden) <= 10.0 * model.lam**2 * golden


def _within_table_contract(pv, exact):
    """The density table's accuracy contract on the principal value, the
    Cauchy kernel's bound max(1e-12, 1e-10 |PV|)."""
    return np.all(np.abs(pv - exact)
                  <= np.maximum(1e-12, 1e-10 * np.abs(exact)))


class TestBatchedBoundary:
    """The batched principal value behind eta(omega + i0)."""

    @settings(max_examples=40, deadline=None)
    @given(cutoff=_log_uniform(-2.0, 3.0), frac=st.floats(1e-9, 1.0 - 1e-9))
    def test_flat_against_log(self, cutoff, frac):
        # points 1e-9 * cutoff from either edge in every example
        model = gt.FriedrichsModel(omega0=1.0, lam=0.1,
                                   form_factor=gt.FlatCutoff(cutoff=cutoff))
        omega = cutoff * np.array([1e-9, frac, 1.0 - 1e-9])
        pv = kernel_cauchy(model.form_factor, omega)
        assert _within_table_contract(pv, np.log(omega / (cutoff - omega)))

    @settings(max_examples=40, deadline=None)
    @given(scale=_log_uniform(-1.0, 1.0),
           ratios=st.lists(_log_uniform(-6.0, 3.0), min_size=1, max_size=5))
    def test_rational_against_closed_form(self, scale, ratios):
        model = gt.FriedrichsModel(
            omega0=1.0, lam=0.1,
            form_factor=gt.RationalFormFactor(scale=scale))
        omega = scale * np.array(ratios)
        exact = ((omega * np.log(omega / scale) / np.pi - 0.5 * scale)
                 / (omega**2 + scale**2))
        pv = kernel_cauchy(model.form_factor, omega)
        assert _within_table_contract(pv, exact)

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["flat", "rational"]),
           fracs=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=2,
                          max_size=12))
    def test_array_call_matches_single_points(self, kind, fracs):
        ff = (gt.FlatCutoff(cutoff=10.0) if kind == "flat"
              else gt.RationalFormFactor(scale=1.0))
        model = gt.FriedrichsModel(omega0=1.0, lam=0.1, form_factor=ff)
        omega = 10.0 * np.array(fracs)
        batch = gt.self_energy(model, omega)
        single = np.array([gt.self_energy(model, w) for w in omega])
        assert np.all(np.abs(batch - single)
                      <= 1e-15 * np.maximum(1.0, np.abs(single)))

    def test_tabulated_profile_starting_inside(self):
        # f^2 = 1 on [0.5, 10] only: the support starts at the first
        # sample, so no fold straddles the jump there
        grid = np.linspace(0.5, 10.0, 400)
        model = gt.FriedrichsModel(
            omega0=1.0, lam=0.1,
            form_factor=gt.TabulatedFormFactor(grid=grid,
                                               values=np.ones_like(grid)))
        omega = np.array([0.5 + 1e-9, 0.7, 5.0, 10.0 - 1e-9])
        pv = kernel_cauchy(model.form_factor, omega)
        assert _within_table_contract(pv,
                                      np.log((omega - 0.5) / (10.0 - omega)))
        assert abs(gt.density_table(model).norm_direct - 1.0) < 1e-6

    def test_edge_of_support_rejected(self, flat_model):
        with pytest.raises(ValueError):
            gt.self_energy(flat_model, np.array([1.0, 10.0]))


class TestPerturbativePole:
    """The estimate is the complex omega0 - eta(omega0 + i0): real part
    the shifted level, -2 Im the golden-rule width."""

    def test_free_model(self):
        free = gt.FriedrichsModel(omega0=1.0, lam=0.0,
                                  form_factor=gt.FlatCutoff(cutoff=10.0))
        assert gt.perturbative_pole(free) == 1.0

    def test_golden_rule_width(self, flat_model):
        estimate = gt.perturbative_pole(flat_model)
        assert isinstance(estimate, complex)
        assert -2.0 * estimate.imag == pytest.approx(2.0 * np.pi * 0.01,
                                                     rel=1e-10)

    def test_symmetric_cutoff_kills_shift(self):
        # level centered in [0, 2]: the principal value vanishes by symmetry
        model = gt.FriedrichsModel(omega0=1.0, lam=0.1,
                                   form_factor=gt.FlatCutoff(cutoff=2.0))
        estimate = gt.perturbative_pole(model)
        assert estimate.real == pytest.approx(1.0, abs=1e-9)

    def test_rational_form_factor(self):
        model = gt.FriedrichsModel(omega0=1.0, lam=0.1,
                                   form_factor=gt.RationalFormFactor(scale=1.0))
        estimate = gt.perturbative_pole(model)
        assert -2.0 * estimate.imag == pytest.approx(
            2.0 * np.pi * 0.01 * 1.0 / (np.pi * 2.0), rel=1e-9)

    def test_level_above_support(self):
        # omega0 outside [0, c]: no width, shift lam^2 ln(omega0/(omega0 - c))
        model = gt.FriedrichsModel(omega0=1.0, lam=0.1,
                                   form_factor=gt.FlatCutoff(cutoff=0.5))
        estimate = gt.perturbative_pole(model)
        assert estimate.imag == 0.0
        assert estimate.real == pytest.approx(1.0 + 0.01 * np.log(2.0),
                                              abs=1e-14)

    def test_strong_coupling_estimate_is_not_checked(self):
        # flat cutoff 10 at lambda = 1: the shift ln 9 carries the estimate
        # below threshold, which a resonance may not be but an estimate may
        model = _profile_model("flat", 1.0, 1.0, 1.0)
        estimate = gt.perturbative_pole(model)
        assert estimate == pytest.approx(1.0 - np.log(9.0) - 1j * np.pi,
                                         rel=1e-12)

    def test_infinite_profile_at_the_level_is_numerical(self):
        model = gt.FriedrichsModel(
            omega0=1e-320, lam=0.1,
            form_factor=gt.RationalFormFactor(scale=1e-320))
        with pytest.raises(gt.IntegrandError, match="f\\^2\\(omega0\\)"):
            gt.perturbative_pole(model)

    def test_overflowing_width_is_numerical(self):
        """lam^2 near the float limit: pi lam^2 f^2(omega0) overflows
        although f^2(omega0) is finite, and the estimate says so rather
        than return an infinite width."""
        model = _profile_model("flat", 1.0, 1e154, 1.0)
        with pytest.raises(gt.IntegrandError, match="overflows"):
            gt.perturbative_pole(model)

    @pytest.mark.parametrize("kind", ["flat", "rational"])
    def test_reads_f2_at_the_level_once(self, kind, monkeypatch):
        """The golden-rule width and its finiteness check come from the
        rim term of the one self_energy call: f^2(omega0) is read once."""
        model = _profile_model(kind, 1.0, 0.1, 1.0)
        profile = type(model.form_factor)
        f2, seen = profile.f2, []

        def recorded(self, omega):
            seen.append(np.atleast_1d(omega).copy())
            return f2(self, omega)

        monkeypatch.setattr(profile, "f2", recorded)
        gt.perturbative_pole(model)
        assert np.count_nonzero(np.concatenate(seen) == 1.0) == 1


class TestFindPole:
    @pytest.mark.parametrize("lam", [1e-155, 1e-158])
    @pytest.mark.parametrize("kind", ["flat", "rational"])
    def test_subnormal_width_resolves(self, kind, lam):
        """lambda^2 subnormal puts the stencil's points closer to the axis
        than the sinh map resolves; they take the rim value, and the pole
        is the golden rule's, 2 pi lambda^2 f^2(omega0)."""
        ff = (gt.FlatCutoff(cutoff=10.0) if kind == "flat"
              else gt.RationalFormFactor(scale=1.0))
        pole = gt.find_pole(gt.FriedrichsModel(omega0=1.0, lam=lam,
                                               form_factor=ff))
        assert pole.e_r == 1.0
        assert pole.gamma == pytest.approx(
            2.0 * np.pi * lam**2 * ff.f2(1.0), rel=1e-6)

    def test_estimate_is_the_default_start(self, flat_model, monkeypatch):
        """A search started at the perturbative estimate is the default
        search, bit for bit; a real guess is nudged 1e-6 max(1, |z|)
        below the axis before Newton sees it."""
        estimate = gt.perturbative_pole(flat_model)
        assert gt.find_pole(flat_model, estimate) == gt.find_pole(flat_model)
        starts = []
        newton = friedrichs.complex_newton

        def recorded(g, start):
            starts.append(start)
            return newton(g, start)

        monkeypatch.setattr(friedrichs, "complex_newton", recorded)
        gt.find_pole(flat_model, 2.0)
        gt.find_pole(flat_model, 0.5 + 0j)
        assert starts == [2.0 - 2e-6j, 0.5 - 1e-6j]

    def test_non_finite_point_is_named(self, flat_model):
        """A NaN start or point is the caller's error, not the
        integrand's: the search and the self-energy raise ValueError
        naming it, not IntegrandError, on sheet II before the
        continuation is asked for, with or without one."""
        for call, z in ((gt.find_pole, complex(np.nan, -1.0)),
                        (gt.self_energy, np.nan)):
            with pytest.raises(ValueError, match="not finite: z = ") as info:
                call(flat_model, z)
            assert not isinstance(info.value, gt.NumericalFailure)
            assert repr(complex(z)) in str(info.value)
        grid = np.linspace(0.0, 10.0, 41)
        for ff in (gt.RationalFormFactor(scale=1.0), gt.TabulatedFormFactor(
                grid=grid, values=np.ones_like(grid))):
            model = gt.FriedrichsModel(omega0=1.0, lam=0.1, form_factor=ff)
            with pytest.raises(ValueError, match="not finite: z = ") as info:
                gt.self_energy(model, [0.5 - 0.1j, np.nan], "II")
            assert not isinstance(info.value, gt.NumericalFailure)

    @pytest.mark.parametrize("sheet", ["I", "II"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, -np.inf)],
                             ids=["nan", "inf", "inf-imag"])
    def test_uncoupled_model_checks_its_points(self, sheet, bad):
        """lambda^2 = 0 leaves out the integral, not the point check: a
        point that is not finite raises ValueError naming it, alone or
        among finite ones, as it does for a coupled model."""
        free = gt.FriedrichsModel(omega0=1.0, lam=0.0,
                                  form_factor=gt.FlatCutoff(cutoff=10.0))
        for z in (bad, [0.5 - 0.1j, bad]):
            with pytest.raises(ValueError, match="not finite: z = ") as info:
                gt.self_energy(free, z, sheet)
            assert repr(complex(bad)) in str(info.value)

    def test_free_model_is_stable(self):
        free = gt.FriedrichsModel(omega0=1.0, lam=0.0,
                                  form_factor=gt.FlatCutoff(cutoff=10.0))
        pole = gt.find_pole(free)
        assert (pole.e_r, pole.gamma) == (1.0, 0.0)
        assert (pole.estimate, pole.residual, pole.step, pole.stencils) == \
            (1.0, 0.0, 0.0, 0)

    @pytest.mark.parametrize("kind,lam", [("flat", 0.1), ("flat", 1.0),
                                          ("rational", 0.1)])
    def test_reports_its_estimate_and_search(self, kind, lam):
        """The pole carries the perturbative estimate bit for bit, and the
        residual, step and stencil count of the search that found it, all
        within the search's tolerances, from one estimate and one
        self-energy call per stencil."""
        model = _profile_model(kind, 1.0, lam, 1.0)
        calls = []
        eta = friedrichs.self_energy

        def counted(*args, **kwargs):
            calls.append(args[1])
            return eta(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(friedrichs, "self_energy", counted)
            pole = gt.find_pole(model)
        assert isinstance(pole, gt.ResolvedPole)
        assert pole.estimate == gt.perturbative_pole(model)
        assert pole.residual <= numerics._RESIDUAL_TOL
        assert pole.step <= numerics._STEP_TOL
        assert 1 <= pole.stencils <= numerics._MAX_STENCILS
        assert len(calls) == pole.stencils + 1
        # the step runs from the last stencil's centre to the pole
        centre = complex(calls[-1][0])
        assert abs(abs(pole.z - centre) - pole.step) <= \
            4.0 * np.finfo(float).eps * abs(centre)

    def test_width_near_golden_rule(self, flat_model, flat_pole):
        fgr = 2.0 * np.pi * flat_model.lam**2
        assert abs(flat_pole.gamma - fgr) / fgr <= 10.0 * flat_model.lam**2

    def test_residual_at_root(self, flat_model, flat_pole):
        residual = abs(gt.self_energy(flat_model, flat_pole.z, "II"))
        assert residual <= numerics._RESIDUAL_TOL
        assert flat_pole.z.imag < 0

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["flat", "rational"]),
           omega0=st.floats(0.5, 2.0), lam=_log_uniform(-7.0, -0.6),
           size=st.floats(0.5, 2.0))
    def test_against_closed_form_root_and_golden_rule(self, kind, omega0,
                                                      lam, size):
        model = _profile_model(kind, omega0, lam, size)
        _check_pole(model, gt.find_pole(model))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["flat", "rational"]),
           omega0=st.floats(0.5, 2.0), lam=st.floats(0.25, 1.5),
           size=st.floats(0.5, 30.0))
    def test_strong_coupling_root_or_typed_failure(self, kind, omega0, lam,
                                                   size):
        """Where Halley's endgame starts far from the zero, or the zero
        leaves the support, the search either fails with a typed error or
        returns a zero of the closed-form eta_II; ``size`` is the cutoff
        or the scale."""
        ff = (gt.FlatCutoff(cutoff=size) if kind == "flat"
              else gt.RationalFormFactor(scale=size))
        model = gt.FriedrichsModel(omega0=omega0, lam=lam, form_factor=ff)
        try:
            z = gt.find_pole(model).z
        except gt.NumericalFailure:
            return
        assert abs(closed_eta(model, z, "II")) <= 1e-12 * max(1.0, abs(z))

    @pytest.mark.parametrize("lam", [1e-4, 1e-7])
    @pytest.mark.parametrize("kind", ["flat", "rational"])
    def test_weak_coupling(self, kind, lam, run_cli):
        """A width of order lam^2 puts the pole ~1e-14 below the cut at
        lam = 1e-7; the search and the CLI job still resolve it."""
        model = _profile_model(kind, 1.0, lam, 1.0)
        _check_pole(model, gt.find_pole(model))
        profile = ("flat_cutoff\nmodel.cutoff = 10.0" if kind == "flat"
                   else "rational\nmodel.scale = 1.0")
        code, out, _ = run_cli("pole", f"model.omega0 = 1.0\n"
                               f"model.lambda = {lam!r}\n"
                               f"model.form_factor = {profile}\n")
        assert code == 0 and out.exists()

    def test_width_scales_with_coupling_squared(self):
        ratios = []
        for lam in (0.05, 0.1, 0.2):
            model = gt.FriedrichsModel(omega0=1.0, lam=lam,
                                       form_factor=gt.FlatCutoff(cutoff=10.0))
            ratios.append(gt.find_pole(model).gamma / lam**2)
        spread = (max(ratios) - min(ratios)) / ratios[1]
        assert spread <= 10.0 * 0.2**2

    def test_halving_coupling_quarters_width(self, flat_pole):
        model = gt.FriedrichsModel(omega0=1.0, lam=0.05,
                                   form_factor=gt.FlatCutoff(cutoff=10.0))
        quarter = gt.find_pole(model).gamma
        assert quarter == pytest.approx(flat_pole.gamma / 4.0, rel=0.05)

    def test_one_self_energy_call_per_newton_iteration(self, flat_model,
                                                       monkeypatch):
        # the seed is eta(omega0 + i0); every Newton iteration is one call
        # on its 3-point stencil (the parent made 10 scalar calls here)
        shapes = []
        eta = friedrichs.self_energy

        def counted(model, z, sheet="I"):
            shapes.append(np.shape(z))
            return eta(model, z, sheet)

        monkeypatch.setattr(friedrichs, "self_energy", counted)
        gt.find_pole(flat_model)
        iterations = shapes.count((3,))  # no stencil only confirms a root
        assert shapes.count(()) == 1 and iterations == len(shapes) - 1
        assert len(shapes) <= iterations + 1 < 10

    def test_upper_half_root_is_reported(self, flat_model):
        estimate = gt.perturbative_pole(flat_model)
        with pytest.raises(PoleInUpperHalfPlane):
            gt.find_pole(flat_model, estimate.conjugate())

    def test_tabulated_has_no_second_sheet(self, monkeypatch):
        """The estimate's rim point omega0 is the kernel's one call: sheet
        II's continuation is taken before its integral, so the first
        Newton stencil raises without one."""
        calls = []
        kernel = friedrichs.principal_values

        def recorded(g, a, b, poles, **kwargs):
            calls.append(np.array(poles))
            return kernel(g, a, b, poles, **kwargs)

        monkeypatch.setattr(friedrichs, "principal_values", recorded)
        grid = np.linspace(0.0, 10.0, 400)
        ff = gt.TabulatedFormFactor(grid=grid, values=np.ones_like(grid))
        model = gt.FriedrichsModel(omega0=1.0, lam=0.1, form_factor=ff)
        with pytest.raises(ContinuationUnavailable):
            gt.find_pole(model)
        assert [z.tolist() for z in calls] == [[1.0]]

    @pytest.mark.parametrize("lam,zero", [
        (0.7, 0.29801734126 - 2.36479324074j),
        (0.8, 0.25013173689 - 3.16645184943j),
        (1.0, 0.23914319157 - 5.15162872582j),
        (1.5, 0.49452253322 - 12.59415761842j)])
    def test_strong_coupling_resolves(self, lam, zero):
        """Flat cutoff 10, omega0 = 1: the estimate lies left of threshold
        from lambda ~ 0.7 on, and Newton still reaches the sheet-II zero
        of the closed-form eta_II."""
        model = _profile_model("flat", 1.0, lam, 1.0)
        z = gt.find_pole(model).z
        assert abs(z - zero) <= 1e-9 * abs(zero)
        assert abs(closed_eta(model, z, "II")) <= 1e-12 * abs(z)

    def test_halley_step_reaches_the_zero_in_the_support(self):
        """Rational scale 0.47186545153005094, omega0 = 0.2906019233207565,
        lambda = 1.2895074986906807: from the estimate -1.2296 - 1.5735i,
        left of threshold, the search closes on the resonance inside the
        support, a zero of the closed-form eta_II."""
        model = gt.FriedrichsModel(
            omega0=0.2906019233207565, lam=1.2895074986906807,
            form_factor=gt.RationalFormFactor(scale=0.47186545153005094))
        pole = gt.find_pole(model)
        zero = 1.2480463663 - 0.9702059893j
        assert abs(pole.z - zero) <= 1e-10 * abs(zero)
        assert abs(closed_eta(model, pole.z, "II")) <= 1e-12

    @pytest.mark.parametrize("omega0,lam,cutoff,zero", [
        (0.05, 0.3, 10.0, -0.2188 - 0.4676j),
        (1.0, 0.1, 0.5, 1.0068 - 0.0622j)],
        ids=["below-threshold", "above-cutoff"])
    def test_zero_outside_support_is_no_resonance(self, omega0, lam, cutoff,
                                                  zero):
        """A converged zero left of threshold, or right of a flat cutoff
        (the sheet-II shadow of a level above the continuum), is swept by
        no decay contour: it is raised with z and the support named."""
        model = gt.FriedrichsModel(omega0=omega0, lam=lam,
                                   form_factor=gt.FlatCutoff(cutoff=cutoff))
        with pytest.raises(PoleOutsideSupport,
                           match=rf"support \(0, {cutoff:g}\)") as info:
            gt.find_pole(model)
        z = complex(re.search(r"converged to \((.*?)\)",
                              str(info.value)).group(1))
        assert abs(z - zero) < 1e-4
        assert abs(closed_eta(model, z, "II")) <= 1e-12


class TestSpectralDensity:
    def test_nonnegative_sweep(self, flat_model):
        omegas = np.linspace(0.0, 10.0, 1000)
        rho = gt.spectral_density(flat_model, omegas)
        assert np.all(rho >= 0.0)

    def test_normalization(self, flat_table):
        assert abs(flat_table.norm_direct - 1.0) < 1e-6

    def test_peak_sits_on_resonance(self, flat_model, flat_pole):
        # peak from the sign change of the numerically smooth derivative
        def drho(w, h=1e-5):
            return (gt.spectral_density(flat_model, w + h)
                    - gt.spectral_density(flat_model, w - h))

        peak = brentq(drho, flat_pole.e_r - flat_pole.gamma,
                      flat_pole.e_r + flat_pole.gamma, xtol=1e-10)
        assert abs(peak - flat_pole.e_r) < flat_pole.gamma

    def test_lorentzian_shape_near_peak(self, flat_model, flat_pole):
        # full width at half maximum against the pole width
        e_r, gamma = flat_pole.e_r, flat_pole.gamma
        top = float(gt.spectral_density(flat_model, e_r))

        def half(w):
            return float(gt.spectral_density(flat_model, w)) - top / 2.0

        left = brentq(half, e_r - 2.0 * gamma, e_r, xtol=1e-12)
        right = brentq(half, e_r, e_r + 2.0 * gamma, xtol=1e-12)
        assert abs((right - left) - gamma) / gamma < 0.05
        assert abs(0.5 * (right + left) - e_r) / e_r < 0.05

    def test_boundary_and_outside_support(self, flat_model):
        assert gt.spectral_density(flat_model, 0.0) == 0.0
        assert gt.spectral_density(flat_model, 11.0) == 0.0

    def test_negative_frequency_rejected(self, flat_model):
        with pytest.raises(ValueError):
            gt.spectral_density(flat_model, -0.5)

    @pytest.mark.parametrize("omega", [np.nan, [1.0, np.nan]],
                             ids=["scalar", "array"])
    def test_nan_frequency_rejected(self, flat_model, rational_model, omega):
        """NaN is no frequency: it raises like a negative one, on either
        profile, instead of passing every comparison as a density 0."""
        for model in (flat_model, rational_model):
            with pytest.raises(ValueError, match="omega >= 0"):
                gt.spectral_density(model, omega)

    def test_needs_coupling(self):
        """The continuum density needs a coupling: where lambda^2 is 0 it
        is zero everywhere, also at omega = omega0, where eta vanishes."""
        omega = np.array([0.0, 0.5, 1.0, 10.0, 11.0])
        for lam in (0.0, 1e-170):
            free = gt.FriedrichsModel(omega0=1.0, lam=lam,
                                      form_factor=gt.FlatCutoff(cutoff=10.0))
            assert gt.spectral_density(free, 1.0) == 0.0
            rho = gt.spectral_density(free, omega)
            assert np.array_equal(rho, np.zeros(5))
            assert not np.signbit(rho).any()

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["flat", "rational", "tabulated"]),
           lam=st.floats(0.01, 1.0), size=_log_uniform(-1.0, 1.0),
           fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
           gap=st.floats(0.0, 1e-12), reach=st.floats(0.0, 12.0))
    # a subnormal f^2 next to threshold, where |eta| is 0.04
    @example(kind="rational", lam=0.4375, size=0.1, fracs=[2.2250738585e-313],
             gap=0.0, reach=0.0)
    def test_density_is_the_spectral_function(self, kind, lam, size, fracs,
                                              gap, reach):
        """rho = -Im(1/eta_I)/pi is lam^2 f^2 / |eta_I|^2 across the
        support, within 1e-12 widths of its ends and, on the rational
        profile, out to 1e12 scales; it is 0 at and past the ends.  Both
        sides round: that formula carries at most 7 units of 2^-53 of
        relative error (hypot within one ulp), -Im(1/eta)/pi at most 8
        (Im eta = pi lam^2 f^2 two, Smith's division five, the 1/pi one),
        so they agree within 8 eps.  Where f^2 is subnormal its products
        round to the smallest subnormal, not relatively, and rho scales
        those errors by up to 1/|eta|^2 (1/|eta| in Smith's quotient):
        they add at most (2 + 1/|eta| + 1/|eta|^2) subnormals."""
        width = 10.0 * size
        if kind == "tabulated":
            grid = np.linspace(0.0, width, 41)
            ff = gt.TabulatedFormFactor(
                grid=grid, values=1.0 + 0.5 * np.sin(grid / size))
            model = gt.FriedrichsModel(omega0=1.0, lam=lam, form_factor=ff)
        else:
            model = _profile_model(kind, 1.0, lam, size)
            ff = model.form_factor
        lo, hi = ff.support
        far = (size * 10.0**reach if hi == np.inf
               else [hi - gap * width, hi, hi + width])
        omega = np.hstack([np.multiply(fracs, width), lo + gap * width, lo,
                           far])
        rho = gt.spectral_density(model, omega)
        inside = (lo < omega) & (omega < hi)
        assert not rho[~inside].any()
        eta = gt.self_energy(model, omega[inside], "I")
        ref = lam**2 * ff.f2(omega[inside]) / np.abs(eta) ** 2
        tiny = np.nextafter(0.0, 1.0) * (1.0 + 1.0 / np.abs(eta)) ** 2
        assert np.all(np.abs(rho[inside] - ref)
                      <= 8.0 * np.finfo(float).eps * ref + 2.0 * tiny)

    def test_zero_samples_give_zero_density_at_a_zero_of_eta(self):
        """Samples that vanish on [2, 18] make f^2 exactly 0 on a stretch
        inside it, where the spline's ringing has underflowed.  With
        omega0 placing a real zero of eta_I at omega = 10 there, rho is
        exactly +0 across the stretch, at the zero, where 1/eta is not
        finite, and at the doubles on either side, and nothing warns."""
        grid = np.linspace(0.0, 20.0, 1601)
        values = np.where(grid < 2.0, 1.0, np.where(grid > 18.0, 0.25, 0.0))
        ff = gt.TabulatedFormFactor(grid=grid, values=values)
        stretch = np.linspace(9.5, 10.5, 101)
        assert not ff.f2(stretch).any()
        # eta_I(10) = (10 - omega0) - lam^2 PV(10) is exactly 0 when
        # lam^2 PV(10) is a double in [8, 10): 10 - omega0 is then exact
        pv = ff.cauchy([10.0])[0].real
        lam = math.sqrt(9.0 / pv)
        shift = lam**2 * pv
        assert 8.0 <= shift < 10.0
        model = gt.FriedrichsModel(omega0=10.0 - shift, lam=lam,
                                   form_factor=ff)
        omega = np.hstack([stretch, np.nextafter(10.0, [0.0, 20.0]), 10.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gt.self_energy(model, 10.0) == 0.0
            rho = gt.spectral_density(model, omega)
        assert np.array_equal(rho, np.zeros(omega.size))
        assert not np.signbit(rho).any()

    @pytest.mark.parametrize("kind", ["flat", "rational"])
    def test_each_frequency_reaches_f2_once(self, kind, monkeypatch):
        """The density reads f^2 off the rim of its one self_energy call
        (whose integral is closed form here) and evaluates it no more."""
        model = _profile_model(kind, 1.0, 0.1, 1.0)
        profile = type(model.form_factor)
        f2, seen = profile.f2, []

        def recorded(self, omega):
            seen.append(np.atleast_1d(omega).copy())
            return f2(self, omega)

        monkeypatch.setattr(profile, "f2", recorded)
        omega = np.array([0.5, 1.0, 2.0, 7.5])
        assert gt.spectral_density(model, omega).all()
        calls = np.concatenate(seen)
        assert [np.count_nonzero(calls == w) for w in omega] == [1, 1, 1, 1]

    def test_tabulated_profile_reproduces_flat_density(self, flat_model,
                                                       flat_pole):
        """A dense table of the flat profile must give the same density
        through the interpolated route."""
        grid = np.linspace(0.0, 10.0, 2001)
        tab = gt.FriedrichsModel(
            omega0=1.0, lam=0.1,
            form_factor=gt.TabulatedFormFactor(grid=grid,
                                               values=np.ones_like(grid)))
        probes = np.array([0.5, flat_pole.e_r, 3.0, 8.0])
        rho_flat = gt.spectral_density(flat_model, probes)
        rho_tab = gt.spectral_density(tab, probes)
        assert np.max(np.abs(rho_tab - rho_flat) / rho_flat) < 1e-6


def dense_oracle(model, n_bins, omega_max):
    """Dense ``eigh`` of the arrowhead matrix that ``discretize`` solves.

    Returns the bin energies, the squared couplings z_i, and what
    :func:`dense_eigh` returns for them.
    """
    dw = omega_max / n_bins
    grid = (np.arange(n_bins) + 0.5) * dw
    coupling = model.lam * np.sqrt(model.form_factor.f2(grid) * dw)
    return (grid, coupling**2) + dense_eigh(model.omega0, grid, coupling)


def dense_eigh(omega0, poles, coupling):
    """Dense ``eigh`` of the arrowhead matrix with ``omega0`` and ``poles``
    on the diagonal and ``coupling`` in the first row and column.

    Returns the eigenvalues, the level's overlaps and each overlap's own
    uncertainty: the a-posteriori bound 2 |r_j| / gap_j on the eigenvector
    of pair j, with r_j its residual and gap_j its distance to every other
    computed eigenvalue less that one's residual (infinite where eigh
    cannot tell the two apart, as for a bin on the level with a coupling
    below eps * |H|).
    """
    ham = np.diag(np.concatenate([[omega0], poles]))
    ham[0, 1:] = ham[1:, 0] = coupling
    vals, vecs = eigh(ham)
    resid = np.linalg.norm(ham @ vecs - vecs * vals, axis=0)
    gap = np.abs(vals[:, None] - vals[None, :]) - resid[None, :]
    np.fill_diagonal(gap, np.inf)
    gap = gap.min(axis=1)
    spread = np.where(resid == 0.0, 0.0, np.inf)
    bounded = (resid != 0.0) & (gap > 0.0)
    spread[bounded] = 2.0 * resid[bounded] / gap[bounded]
    return vals, vecs[0] ** 2, spread


def _rows_to_other_poles(monkeypatch):
    """Record the number of roots of each exact pass of the secular
    solver: the list of the row counts that reach ``_other_poles``."""
    seen = []
    exact = friedrichs._other_poles

    def recorded(poles, coupling, rows, base, tau):
        seen.append(rows.size)
        return exact(poles, coupling, rows, base, tau)

    monkeypatch.setattr(friedrichs, "_other_poles", recorded)
    return seen


class TestDiscretize:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["flat", "rational"]),
           omega0=st.floats(0.5, 2.0), lam=st.floats(0.0, 0.25),
           n_bins=st.integers(1, 300), omega_max=st.floats(2.5, 20.0))
    def test_matches_dense_eigh(self, kind, omega0, lam, n_bins, omega_max):
        """The secular-equation solver against dense eigh: a flat cutoff
        10 (omega_max inside it, or beyond it with zero couplings) or a
        rational profile of scale 1.  Energies within 1e-12 (1 + |E|),
        overlaps within 1e-11 (plus eigh's own uncertainty), eigenvalues
        strictly interlaced with the bins of nonzero coupling, and the
        overlaps complete to 1e-12."""
        ff = (gt.FlatCutoff(cutoff=10.0) if kind == "flat"
              else gt.RationalFormFactor(scale=1.0))
        model = gt.FriedrichsModel(omega0=omega0, lam=lam, form_factor=ff)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # truncation flag
            ds = gt.discretize(model, n_bins, omega_max)
        grid, z, vals, overlaps, spread = dense_oracle(model, n_bins,
                                                       omega_max)
        assert np.all(np.abs(ds.eigenvalues - vals)
                      <= 1e-12 * (1.0 + np.abs(vals)))
        assert np.all(np.abs(ds.overlaps - overlaps) <= 1e-11 + spread)
        assert abs(ds.overlaps.sum() - 1.0) <= 1e-12
        live = z > 0.0
        rest = np.delete(ds.eigenvalues,
                         np.searchsorted(ds.eigenvalues, grid[~live]))
        chain = np.empty(2 * np.count_nonzero(live) + 1)
        chain[0::2], chain[1::2] = rest, grid[live]
        assert np.all(np.diff(chain) > 0.0)

    @pytest.mark.parametrize("form_factor,omega_max", [
        (gt.FlatCutoff(cutoff=10.0), 10.0),
        (gt.RationalFormFactor(scale=1.0), 20.0),
    ], ids=["flat", "rational"])
    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.2])
    def test_roots_need_few_passes(self, form_factor, omega_max, lam):
        """At the benchmark models every eigenvalue closes within 10
        passes over the secular function (6-8).  Bracketed Newton on F
        itself needs about 55; the solver's step, on F cleared of its near
        pole, needs the same 6-8 when every root starts at the middle of
        its gap."""
        model = gt.FriedrichsModel(omega0=1.0, lam=lam,
                                   form_factor=form_factor)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # truncation flag
            ds = gt.discretize(model, 2000, omega_max)
        assert 1 <= ds.max_passes <= 10

    @pytest.mark.parametrize("form_factor,omega_max", [
        (gt.FlatCutoff(cutoff=10.0), 10.0),
        (gt.RationalFormFactor(scale=1.0), 20.0),
    ], ids=["flat", "rational"])
    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.2])
    def test_roots_close_in_one_exact_pass(self, monkeypatch, form_factor,
                                           omega_max, lam):
        """At the benchmark models the model start, aimed at float
        resolution, leaves one exact pass per root, bar a few: at most
        1.1 (n + 1) rows reach the O(n^2) sums in all (2.00 (n + 1) with
        a start aimed at 1e-7, 4.00 - 4.56 (n + 1) when every root
        started at the middle of its gap)."""
        seen = _rows_to_other_poles(monkeypatch)
        model = gt.FriedrichsModel(omega0=1.0, lam=lam,
                                   form_factor=form_factor)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # truncation flag
            gt.discretize(model, 2000, omega_max)
        assert seen[0] == 2001
        assert sum(seen) <= 1.1 * 2001

    def test_matches_dense_eigh_beyond_cutoff(self, flat_model):
        """n = 2000 bins out to 1.5 cutoffs: the third of the bins above
        the cutoff have zero coupling and are left to the grid; the rest
        are solved from the model start."""
        ds = gt.discretize(flat_model, 2000, 15.0)
        grid, z, vals, overlaps, spread = dense_oracle(flat_model, 2000,
                                                       15.0)
        assert np.count_nonzero(z == 0.0) == 667
        assert np.all(np.abs(ds.eigenvalues - vals)
                      <= 1e-12 * (1.0 + np.abs(vals)))
        assert np.all(np.abs(ds.overlaps - overlaps) <= 1e-11 + spread)
        assert abs(ds.overlaps.sum() - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), k=st.integers(2, 80),
           omega0=st.floats(-1.0, 3.0), step=st.floats(1e-3, 0.5),
           decades=st.floats(0.0, 16.0))
    def test_secular_roots_match_dense_eigh(self, data, k, omega0, step,
                                            decades):
        """``_secular_roots`` against dense eigh on poles that are a
        lattice with holes (one-step gaps, which start from the model,
        mixed with wider ones, which start at their middle), with
        couplings spread over up to 16 decades of c^2.  Energies within
        1e-12 (1 + |E|) of eigh, overlaps within 1e-11 plus eigh's own
        uncertainty, roots strictly interlaced with the poles, overlaps
        complete to 1e-12."""
        gaps = data.draw(st.lists(st.sampled_from([1, 1, 1, 2, 3]),
                                  min_size=k - 2, max_size=k - 2))
        gaps.insert(data.draw(st.integers(0, k - 2)), 1)  # the step
        site = np.concatenate([[0], np.cumsum(gaps, dtype=int)])
        poles = 0.5 + step * site
        log_z = data.draw(st.lists(st.floats(-decades, 0.0), min_size=k,
                                   max_size=k))
        coupling = np.sqrt(step * 10.0 ** np.array(log_z))
        starts, _, _ = friedrichs._model_start(omega0, poles, coupling, site)
        assert np.array_equal(starts, 1 + np.flatnonzero(np.diff(site) == 1))
        roots, overlaps, passes = friedrichs._secular_roots(omega0, poles,
                                                            coupling, site)
        vals, dense, spread = dense_eigh(omega0, poles, coupling)
        assert np.all(np.abs(roots - vals) <= 1e-12 * (1.0 + np.abs(vals)))
        assert np.all(np.abs(overlaps - dense) <= 1e-11 + spread)
        assert abs(overlaps.sum() - 1.0) <= 1e-12
        chain = np.empty(2 * k + 1)
        chain[0::2], chain[1::2] = roots, poles
        assert np.all(np.diff(chain) > 0.0)

    @pytest.mark.parametrize("sweep", [2**16, 12], ids=["one", "blocks"])
    def test_other_poles_against_mpmath(self, monkeypatch, sweep):
        """The sum of c_i^2/(omega_i - E) over the poles other than the
        gap's two ends, the sum of its terms' moduli and the slope, the
        sum of (c_i/(omega_i - E))^2, against a 50-digit sum: on a lattice
        with a hole, for the outer gaps, and for two roots at float
        distance from an end pole, whose left-out term is about 1e300.
        The sum agrees within a few ulps of the moduli sum, the other two
        in relative terms; in one block of rows, or in blocks of two."""
        mp = pytest.importorskip("mpmath")
        monkeypatch.setattr(friedrichs, "_SWEEP", sweep)
        poles = 0.5 + 0.1 * np.array([0, 1, 2, 4, 5, 6])
        coupling = np.sqrt(0.1 * np.array([1.0, 0.5, 2.0, 1e-3, 0.7, 1.3]))
        k = poles.size
        rows = np.array([0, 1, 2, 3, 4, 6])
        base = poles[[0, 0, 2, 2, 3, 5]]
        tau = np.array([-0.3, 0.04, -1e-301, 0.13, 1e-301, 0.2])
        got = friedrichs._other_poles(poles, coupling, rows, base, tau)
        with mp.workdps(50):
            for j, r in enumerate(rows):
                energy = mp.mpf(base[j]) + mp.mpf(tau[j])
                other = [i for i in range(k) if i not in (r - 1, r)]
                c = [mp.mpf(coupling[i]) for i in other]
                u = [ci / (mp.mpf(poles[i]) - energy)
                     for ci, i in zip(c, other)]
                moduli = float(sum(abs(ci * ui) for ci, ui in zip(c, u)))
                assert abs(got[0, j] - float(mp.fdot(c, u))) \
                    <= 4 * np.finfo(float).eps * moduli
                assert got[1, j] == pytest.approx(moduli, rel=1e-15)
                assert got[2, j] == pytest.approx(float(mp.fdot(u, u)),
                                                  rel=1e-15)

    def test_free_model_is_diagonal(self):
        free = gt.FriedrichsModel(omega0=1.0, lam=0.0,
                                  form_factor=gt.FlatCutoff(cutoff=10.0))
        ds = gt.discretize(free, 200, 10.0)
        dw = 10.0 / 200
        grid = np.sort(np.append((np.arange(200) + 0.5) * dw, 1.0))
        assert np.allclose(np.sort(ds.eigenvalues), grid, atol=1e-12)
        top = np.argmax(ds.overlaps)
        assert ds.overlaps[top] == pytest.approx(1.0, abs=1e-12)
        assert ds.eigenvalues[top] == pytest.approx(1.0, abs=1e-12)

    def test_overlap_completeness(self, oracle_2000):
        assert abs(oracle_2000.overlaps.sum() - 1.0) < 1e-10

    def test_truncation_warning(self, flat_model):
        with pytest.warns(UserWarning, match="cuts off"):
            gt.discretize(flat_model, 300, 5.0)

    def test_validation(self, flat_model):
        with pytest.raises(ValueError):
            gt.discretize(flat_model, 0, 10.0)
        with pytest.raises(ValueError):
            gt.discretize(flat_model, 100, 0.5)

    @pytest.mark.parametrize("n_bins,omega_max,match", [
        (100, float("nan"), "omega_max must be finite"),
        (100, float("inf"), "omega_max must be finite"),
        (2.5, 12.0, "n_bins must be an integer"),
        (True, 12.0, "n_bins must be an integer"),
    ], ids=["nan", "inf", "fractional-bins", "bool-bins"])
    def test_rejects_non_finite_range_and_non_integer_bins(
            self, flat_model, n_bins, omega_max, match):
        # NaN used to give NaN eigenvalues with overlaps summing to 1, inf
        # inf eigenvalues, and 2.5 bins a 3-bin grid of step 4
        with pytest.raises(ValueError, match=match):
            gt.discretize(flat_model, n_bins, omega_max)

    def test_survival_amplitude_shapes(self, oracle_2000):
        scalar = oracle_2000.survival_amplitude(1.0)
        assert isinstance(scalar, complex)
        arr = oracle_2000.survival_amplitude(np.array([0.0, 1.0]))
        assert arr.shape == (2,)
        assert arr[0] == pytest.approx(1.0, abs=1e-12)


class TestPoleDensityConsistency:
    def test_width_from_oracle_survival(self, flat_pole, oracle_2000):
        """The eigen-sum survival curve decays at the second-sheet width."""
        gamma = flat_pole.gamma
        ts = np.linspace(1.0 / gamma, 5.0 / gamma, 80)
        logp = np.log(oracle_2000.survival_probability(ts))
        slope = np.polyfit(ts, logp, 1)[0]
        assert abs(-slope - gamma) / gamma < 0.05
