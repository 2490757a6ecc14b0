import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gamow_thermo as gt


def entropy(e_r, gamma, beta, k=1.0):
    return gt.complex_entropy(gt.ResonancePole(e_r=e_r, gamma=gamma),
                              gt.ThermoPoint(beta=beta, k=k))


class TestThermoPoint:
    def test_temperature(self):
        point = gt.ThermoPoint(beta=2.0, k=0.5)
        assert point.temperature == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            gt.ThermoPoint(beta=0.0)
        with pytest.raises(ValueError):
            gt.ThermoPoint(beta=1.0, k=-1.0)


class TestComplexEntropy:
    def test_oscillator_point(self):
        # stable limit at beta * E_R = 1: entropy is exactly k
        s = entropy(1.0, 0.0, 1.0)
        assert s.value == pytest.approx(1.0 + 0.0j, abs=1e-14)

    def test_right_angle_pole(self):
        s = entropy(1.0, 2.0, 1.0)
        assert s.real_part == pytest.approx(1.0 - math.log(math.sqrt(2.0)),
                                            rel=1e-14)
        assert s.imag_part == pytest.approx(-math.pi / 4.0, rel=1e-14)

    def test_three_four_five_pole(self):
        s = entropy(3.0, 8.0, 1.0)
        assert s.real_part == pytest.approx(1.0 - math.log(5.0), rel=1e-13)
        assert s.imag_part == pytest.approx(-math.atan(4.0 / 3.0), rel=1e-14)

    def test_entropy_unit_scales_both_parts(self):
        s1 = entropy(1.0, 2.0, 1.0, k=1.0)
        s3 = entropy(1.0, 2.0, 1.0, k=3.0)
        assert s3.value == pytest.approx(3.0 * s1.value, rel=1e-14)

    def test_imag_stays_in_quarter_turn(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            e_r, gamma, beta = rng.uniform(1e-3, 10.0, size=3)
            s = entropy(e_r, gamma, beta)
            assert -0.5 * np.pi < s.imag_part <= 0.0

    def test_oscillator_limit_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            e_r = rng.uniform(0.1, 10.0)
            beta = rng.uniform(0.1, 10.0)
            gamma = rng.uniform(0.0, 1e-3) * e_r
            s = entropy(e_r, gamma, beta)
            limit = 1.0 - math.log(beta * e_r)
            assert abs(s.value - limit) <= gamma / e_r + 1e-14


class TestLogIdentity:
    def test_matches_at_right_angle(self):
        pole = gt.ResonancePole(1.0, 2.0)
        point = gt.ThermoPoint(beta=1.0)
        a = gt.complex_entropy(pole, point).value
        b = gt.entropy_via_log_identity(pole, point).value
        assert abs(a - b) < 1e-12

    def test_stable_limit_is_real(self):
        pole = gt.ResonancePole(2.0, 0.0)
        s = gt.entropy_via_log_identity(pole, gt.ThermoPoint(beta=1.0))
        assert s.imag_part == 0.0
        assert s.real_part == pytest.approx(1.0 - math.log(2.0), rel=1e-14)

    def test_thousand_point_sweep(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            e_r, gamma, beta = rng.uniform(1e-12, 10.0, size=3)
            pole = gt.ResonancePole(e_r=e_r, gamma=gamma)
            point = gt.ThermoPoint(beta=beta)
            a = gt.complex_entropy(pole, point).value
            b = gt.entropy_via_log_identity(pole, point).value
            worst = max(worst, abs(a - b))
        assert worst < 1e-12


    @pytest.mark.parametrize("ratio", [2e16, 1e300])
    @pytest.mark.parametrize("k", [1.0, 2.5])
    def test_extreme_width_reaches_closed_bound(self, ratio, k):
        # arctan(Gamma / (2 E_R)) rounds to pi/2: Im S sits on -k*pi/2
        pole = gt.ResonancePole(e_r=1.0, gamma=ratio)
        point = gt.ThermoPoint(beta=1.0, k=k)
        a = gt.complex_entropy(pole, point)
        b = gt.entropy_via_log_identity(pole, point)
        assert a.imag_part == b.imag_part == -0.5 * k * np.pi
        assert abs(a.value - b.value) <= 1e-12 * k


class TestCanonicalEntropy:
    def test_oscillator_log_z(self):
        s = gt.canonical_entropy(lambda b: -np.log(2.0 * b),
                                 gt.ThermoPoint(beta=1.0))
        assert s == pytest.approx(1.0 - math.log(2.0), abs=1e-9)

    def test_matches_closed_form_through_derivative(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            e_r, gamma, beta = rng.uniform(0.05, 10.0, size=3)
            pole = gt.ResonancePole(e_r=e_r, gamma=gamma)
            point = gt.ThermoPoint(beta=beta)
            z_conj = np.conjugate(pole.z)
            via_functional = gt.canonical_entropy(
                lambda b: -np.log(b * z_conj), point)
            closed = gt.complex_entropy(pole, point).value
            assert abs(via_functional - closed) < 1e-8

    def test_constant_log_z_has_no_derivative_term(self):
        point = gt.ThermoPoint(beta=2.0, k=1.5)
        assert gt.canonical_entropy(lambda b: 1.0, point) == \
            pytest.approx(1.5, abs=1e-9)
        assert gt.canonical_entropy(lambda b: 0.0, point) == \
            pytest.approx(0.0, abs=1e-12)


class TestEntropyScan:
    """The closed forms over arrays of width and inverse temperature."""

    def test_width_scan_imag_monotone(self):
        pole = gt.ResonancePole(e_r=1.0, gamma=np.linspace(0.0, 4.0, 17))
        s = gt.complex_entropy(pole, gt.ThermoPoint(beta=1.0))
        assert np.all(np.diff(s.imag_part) < 0)
        assert s.imag_part[0] == 0.0

    def test_width_scan_hits_quarter_pi(self):
        pole = gt.ResonancePole(e_r=1.0, gamma=np.array([1.0, 2.0, 3.0]))
        s = gt.complex_entropy(pole, gt.ThermoPoint(beta=1.0))
        assert s.imag_part[1] == -np.arctan(1.0)

    def test_beta_scan_real_decreasing_imag_constant(self):
        pole = gt.ResonancePole(e_r=1.0, gamma=0.5)
        s = gt.complex_entropy(
            pole, gt.ThermoPoint(beta=np.geomspace(0.1, 10.0, 25)))
        assert s.real_part.shape == s.imag_part.shape == (25,)
        assert np.all(np.diff(s.real_part) < 0)
        assert np.all(s.imag_part == s.imag_part[0])

    def test_scalar_inputs_give_python_numbers(self):
        s = entropy(1.0, 2.0, 1.0)
        assert type(s.real_part) is float and type(s.imag_part) is float
        assert type(s.value) is complex
        assert type(gt.ResonancePole(1.0, 2.0).z) is complex

    def test_checks_mark_failing_elements(self):
        with pytest.raises(gt.InvalidElements) as info:
            gt.ThermoPoint(beta=np.array([1.0, -1.0, 0.0, np.nan]))
        assert info.value.mask.tolist() == [False, True, True, True]
        with pytest.raises(gt.InvalidElements, match="width") as info:
            gt.ResonancePole(e_r=1.0, gamma=np.array([0.0, -1e-300]))
        assert info.value.mask.tolist() == [False, True]
        with pytest.raises(gt.InvalidElements, match="finite") as info:
            gt.complex_entropy(gt.ResonancePole(1.0, 0.5),
                               gt.ThermoPoint(beta=np.array([1.0, np.inf])))
        assert info.value.mask.tolist() == [False, True]

    def test_overflowing_entropy_is_numerical(self):
        """k (1 - ln(beta |z_R|)) past the float range is a numerical
        failure that still marks its elements, so a scan keeps the other
        rows."""
        point = gt.ThermoPoint(beta=np.array([1.0, 1e-300]), k=1e308)
        with pytest.raises(gt.NonFiniteEntropy) as info:
            gt.complex_entropy(gt.ResonancePole(1.0, 0.2), point)
        assert isinstance(info.value, gt.NumericalFailure)
        assert info.value.mask.tolist() == [False, True]
        with pytest.raises(gt.NonFiniteEntropy):
            gt.entropy_via_log_identity(gt.ResonancePole(1.0, 0.2), point)
        # k arctan(Gamma / (2 E_R)) past the float range
        with pytest.raises(gt.NonFiniteEntropy):
            entropy(1.0, np.array([8.0]), 1.0, k=1.7e308)

    def test_subnormal_level_sits_on_the_bound(self):
        """Gamma / (2 E_R) overflows for a subnormal E_R; the angle of
        conj(z_R) does not."""
        s = entropy(1e-320, np.array([0.0, 2.0]), 1.0)
        assert s.imag_part.tolist() == [0.0, -0.5 * np.pi]


@pytest.mark.parametrize("e_r,gamma,beta", [
    (0.97778, 0.063552, 1e-320), (1e10, 1.0, 1e300)],
    ids=["subnormal-beta", "overflowing-product"])
def test_extreme_beta_matches_mpmath(e_r, gamma, beta):
    """beta |z_R| underflows to a subnormal, or overflows, for these
    points; both routes still match 1 - Log(beta conj(z_R)) in 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        exact = complex(1 - mp.log(mp.mpf(beta) * mp.mpc(e_r, gamma / 2)))
    pole = gt.ResonancePole(e_r=e_r, gamma=gamma)
    point = gt.ThermoPoint(beta=beta)
    for route in (gt.complex_entropy, gt.entropy_via_log_identity):
        assert abs(route(pole, point).value - exact) <= 4e-16 * abs(exact)
    assert entropy(1e10, 1.0, 1e300).real_part == pytest.approx(
        -712.8013788281542, rel=1e-15)


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda x: 10.0**x)


_E_R = _log_uniform(-6.0, 6.0)
_RATIO = st.one_of(st.just(0.0), _log_uniform(-12.0, 6.0))  # Gamma / E_R
_BETA = _log_uniform(-6.0, 6.0)
_K = st.floats(0.1, 10.0)


class TestProperties:
    """Over E_R and beta in [1e-6, 1e6], Gamma/E_R = 0 or in
    [1e-12, 1e6] and k in [0.1, 10]; the two routes agree for every
    positive finite beta, subnormals included."""

    @settings(max_examples=300, deadline=None)
    @given(e_r=_E_R, ratio=_RATIO, k=_K,
           beta=st.floats(min_value=0.0, exclude_min=True,
                          allow_infinity=False, allow_subnormal=True))
    def test_closed_form_matches_log_identity(self, e_r, ratio, beta, k):
        pole = gt.ResonancePole(e_r=e_r, gamma=ratio * e_r)
        point = gt.ThermoPoint(beta=beta, k=k)
        closed = gt.complex_entropy(pole, point).value
        via_log = gt.entropy_via_log_identity(pole, point).value
        assert abs(closed - via_log) <= 1e-12 * k

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(_E_R, _RATIO, _BETA), min_size=1,
                         max_size=20), k=_K)
    def test_array_call_is_the_scalar_calls(self, rows, k):
        e_r, ratio, beta = map(np.array, zip(*rows))
        pole = gt.ResonancePole(e_r=e_r, gamma=ratio * e_r)
        point = gt.ThermoPoint(beta=beta, k=k)
        for route in (gt.complex_entropy, gt.entropy_via_log_identity):
            array = route(pole, point).value
            scalar = np.array([
                route(gt.ResonancePole(e_r=e, gamma=r * e),
                      gt.ThermoPoint(beta=b, k=k)).value
                for e, r, b in rows])
            assert array.view(np.uint64).tolist() == \
                scalar.view(np.uint64).tolist()
