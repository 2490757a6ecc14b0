import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gamow_thermo as gt
from gamow_thermo.evolution import Mode, _evolve


@pytest.fixture
def pole():
    return gt.ResonancePole(e_r=1.0, gamma=1.0)  # z_R = 1 - 0.5j


def coeff(mode=Mode.IN_CREATION, value=1.0 + 0.0j):
    return gt.LadderCoefficient(mode=mode, value=value)


class TestThermalEvolve:
    def test_identity_at_zero(self, pole):
        c = gt.thermal_evolve(coeff(), pole, 0.0)
        assert c.value == 1.0 + 0.0j
        assert c.tau == 0.0

    def test_creation_closed_form(self, pole):
        c = gt.thermal_evolve(coeff(), pole, 1.0)
        assert c.value == pytest.approx(cmath.exp(1.0 - 0.5j), rel=1e-14)

    def test_annihilation_reciprocal(self, pole):
        c = gt.thermal_evolve(coeff(Mode.OUT_ANNIHILATION), pole, 1.0)
        assert c.value == pytest.approx(cmath.exp(-(1.0 - 0.5j)), rel=1e-14)

    def test_modulus_product_invariant(self, pole):
        for tau in (0.0, 0.3, 1.7, 4.0):
            c_in = gt.thermal_evolve(coeff(value=2.0 + 1.0j), pole, tau)
            c_out = gt.thermal_evolve(
                coeff(Mode.OUT_ANNIHILATION, value=0.5 - 0.25j), pole, tau)
            product = abs(c_in.value) * abs(c_out.value)
            assert product == pytest.approx(abs(2.0 + 1.0j) * abs(0.5 - 0.25j),
                                            rel=1e-12)

    def test_negative_tau_rejected(self, pole):
        with pytest.raises(ValueError):
            gt.thermal_evolve(coeff(), pole, -0.5)


class TestTimeEvolve:
    def test_identity_at_zero(self, pole):
        assert gt.time_evolve(coeff(), pole, 0.0).value == 1.0 + 0.0j

    def test_creation_decays(self, pole):
        t = 2.0 / pole.gamma
        c = gt.time_evolve(coeff(), pole, t)
        assert abs(c.value) == pytest.approx(np.exp(-1.0), rel=1e-13)

    def test_annihilation_grows(self, pole):
        t = 2.0 / pole.gamma
        c = gt.time_evolve(coeff(Mode.OUT_ANNIHILATION), pole, t)
        assert abs(c.value) == pytest.approx(np.exp(1.0), rel=1e-13)

    def test_wick_rotation_single_code_path(self, pole):
        for t in (0.1, 1.0, 7.5):
            assert gt.time_evolve(coeff(), pole, t) == \
                _evolve(coeff(), pole, -1j * t)

    def test_modulus_laws(self, pole):
        value = 1.5 - 0.75j
        for t in (0.2, 3.0, 11.0):
            c_in = gt.time_evolve(coeff(value=value), pole, t)
            c_out = gt.time_evolve(coeff(Mode.OUT_ANNIHILATION, value=value),
                                   pole, t)
            decay = np.exp(-0.5 * pole.gamma * t)
            assert abs(c_in.value) == pytest.approx(abs(value) * decay,
                                                    rel=1e-13)
            assert abs(c_out.value) == pytest.approx(abs(value) / decay,
                                                     rel=1e-13)

    def test_overflow_guard_reports(self, pole):
        with pytest.raises(OverflowError, match="overflows"):
            gt.time_evolve(coeff(Mode.OUT_ANNIHILATION), pole, 1e5)

    def test_decay_guard_reports_underflow(self):
        """exp(-Gamma t / 2) past the guard is named by its signed
        exponent as an underflow, not an overflow."""
        pole = gt.ResonancePole(e_r=1.0, gamma=0.2)
        with pytest.raises(OverflowError,
                           match=r"exp\(-800\.0\) underflows float64"):
            gt.time_evolve(coeff(), pole, np.array([0.0, 8000.0]))

    def test_overflowing_phase_reports(self):
        """t E_R past the float range leaves no phase: an OverflowError,
        raised before numpy would warn."""
        far = gt.ResonancePole(e_r=1e308, gamma=0.2)
        with pytest.raises(OverflowError, match="phase"):
            gt.time_evolve(coeff(), far, np.array([0.0, 40.0]))

    def test_overflowing_coefficient_reports(self, pole):
        with pytest.raises(OverflowError, match="coefficient"):
            gt.thermal_evolve(coeff(value=1e308), pole, 10.0)


class TestSemigroup:
    def test_composition_is_exact(self, pole):
        rng = np.random.default_rng(17)
        for mode in Mode:
            for _ in range(50):
                tau1, tau2 = rng.uniform(0.0, 5.0, size=2)
                stepped = gt.thermal_evolve(
                    gt.thermal_evolve(coeff(mode), pole, tau1), pole, tau2)
                direct = gt.thermal_evolve(coeff(mode), pole, tau1 + tau2)
                denom = max(abs(direct.value), 1e-300)
                assert abs(stepped.value - direct.value) / denom < 1e-12

    def test_reverse_composition_is_identity(self, pole):
        for tau in (0.4, 2.0, 5.0):
            forward = _evolve(coeff(), pole, tau)
            back = _evolve(forward, pole, -tau)
            assert abs(back.value - 1.0) < 1e-12
            assert back.tau == 0.0


class TestTemperatureMonotonicity:
    def test_reference_grid(self):
        pole = gt.ResonancePole(e_r=1.0, gamma=0.5)
        table = gt.temperature_monotonicity(pole, np.array([0.5, 1.0, 2.0]))
        assert np.allclose(table.in_factors,
                           [np.exp(2.0), np.exp(1.0), np.exp(0.5)],
                           rtol=1e-14)
        assert table.in_strictly_decreasing
        assert table.out_strictly_increasing

    def test_products_are_unity(self):
        pole = gt.ResonancePole(e_r=2.0, gamma=0.1)
        table = gt.temperature_monotonicity(pole,
                                            np.geomspace(0.2, 50.0, 12))
        assert np.allclose(table.in_factors * table.out_factors, 1.0,
                           rtol=1e-13)

    def test_high_temperature_limit(self):
        pole = gt.ResonancePole(e_r=1.0, gamma=0.5)
        table = gt.temperature_monotonicity(pole, np.array([1e5, 1e6]))
        assert np.allclose(table.in_factors, 1.0, atol=2e-5)
        assert np.allclose(table.out_factors, 1.0, atol=2e-5)

    def test_grid_validation(self):
        pole = gt.ResonancePole(e_r=1.0, gamma=0.5)
        with pytest.raises(ValueError):
            gt.temperature_monotonicity(pole, np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            gt.temperature_monotonicity(pole, np.array([2.0, 1.0]))

    def test_cold_grid_overflows(self):
        pole = gt.ResonancePole(e_r=1.0, gamma=0.5)
        with pytest.raises(OverflowError):
            gt.temperature_monotonicity(pole, np.array([1e-4, 1.0]))

    def test_extreme_entropy_unit(self):
        """k T below the float range makes beta infinite, an overflow;
        above it beta is 0 and every factor is 1."""
        pole = gt.ResonancePole(e_r=1.0, gamma=0.5)
        temps = np.array([0.5, 1.0])
        with pytest.raises(OverflowError):
            gt.temperature_monotonicity(pole, temps, k=1e-320)
        table = gt.temperature_monotonicity(pole, temps, k=1e308)
        assert np.all(table.in_factors == 1.0)
        assert np.all(table.out_factors == 1.0)


class TestVerifyOdeSolutions:
    def test_stable_pole_reduces_to_real_exponential(self):
        dev = gt.verify_ode_solutions(gt.ResonancePole(e_r=0.5, gamma=0.0),
                                      np.linspace(0.0, 3.0, 13))
        assert dev < 1e-9

    def test_reference_pole(self):
        dev = gt.verify_ode_solutions(gt.ResonancePole(e_r=1.0, gamma=0.1),
                                      np.linspace(0.0, 5.0, 26))
        assert dev <= 1e-8


class TestLadderCoefficient:
    def test_value_must_be_finite(self):
        with pytest.raises(ValueError):
            gt.LadderCoefficient(mode=Mode.IN_CREATION, value=np.inf)

    def test_tau_accumulates(self, pole):
        c = gt.thermal_evolve(gt.thermal_evolve(coeff(), pole, 1.0), pole,
                              0.5)
        assert c.tau == 1.5


_BRANCHES = {"thermal": gt.thermal_evolve, "time": gt.time_evolve}


class TestArrayEvolution:
    """One call evolves a whole grid of tau."""

    @settings(max_examples=60, deadline=None)
    @given(e_r=st.floats(0.1, 10.0), gamma=st.floats(0.0, 10.0),
           mode=st.sampled_from(list(Mode)),
           branch=st.sampled_from(sorted(_BRANCHES)),
           taus=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=20))
    def test_array_call_is_the_scalar_calls(self, e_r, gamma, mode, branch,
                                            taus):
        pole = gt.ResonancePole(e_r=e_r, gamma=gamma)
        evolve = _BRANCHES[branch]
        start = coeff(mode, value=0.5 - 2.0j)
        array = evolve(start, pole, np.array(taus))
        scalar = [evolve(start, pole, tau) for tau in taus]
        assert array.value.view(np.uint64).tolist() == np.array(
            [c.value for c in scalar]).view(np.uint64).tolist()
        assert array.tau.tolist() == [c.tau for c in scalar]

    def test_one_overflowing_element_stops_the_call(self, pole):
        with pytest.raises(OverflowError, match="overflows"):
            gt.time_evolve(coeff(Mode.OUT_ANNIHILATION), pole,
                           np.array([0.0, 1.0, 1e5]))

    def test_negative_tau_anywhere_rejected(self, pole):
        with pytest.raises(ValueError):
            gt.thermal_evolve(coeff(), pole, np.array([0.0, -0.5]))


class TestLadderAgainstRk4:
    """The closed-form factors exp(+-tau z_R) against RK4 integration of
    their rate equations, on both branches (the time branch integrates
    the rate -i(+-z_R) over t), for E_R in [0.1, 10], Gamma in [0, 2 E_R]
    and grids reaching |z_R| tau_max in [0.1, 20]: the relative
    deviation stays below 1e-9 at every grid point."""

    @settings(max_examples=60, deadline=None)
    @given(e_r=st.floats(0.1, 10.0), width=st.floats(0.0, 2.0),
           reach=st.floats(0.1, 20.0), points=st.integers(2, 40),
           mode=st.sampled_from(list(Mode)),
           branch=st.sampled_from(sorted(_BRANCHES)))
    def test_relative_deviation(self, e_r, width, reach, points, mode,
                                branch):
        pole = gt.ResonancePole(e_r=e_r, gamma=width * e_r)
        grid = np.linspace(0.0, reach / abs(pole.z), points)
        rate = pole.z if mode is Mode.IN_CREATION else -pole.z
        if branch == "time":
            rate *= -1j
        numeric = gt.ode_evolve(rate, 1.0 + 0.0j, grid)
        exact = _BRANCHES[branch](coeff(mode), pole, grid).value
        assert np.max(np.abs(numeric - exact) / np.abs(exact)) <= 1e-9
