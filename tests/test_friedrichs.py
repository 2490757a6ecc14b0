import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import gamow_thermo as gt
from gamow_thermo import friedrichs
from gamow_thermo.decay import _TABLE_SPEC
from gamow_thermo.friedrichs import (
    ContinuationUnavailable,
    PoleInUpperHalfPlane,
)
from gamow_thermo.numerics import RootSearchConfig, principal_values


def flat_eta_one(model, z):
    """Closed-form sheet-I self-energy for the flat cutoff: elementary log."""
    lam2 = model.lam**2
    cut = model.form_factor.cutoff
    return z - model.omega0 - lam2 * (cmath.log(z) - cmath.log(z - cut))


class TestFormFactors:
    def test_factory(self):
        ff = gt.FlatCutoff(cutoff=5.0)
        assert ff.f2(2.0) == 1.0 and ff.f2(6.0) == 0.0

    def test_flat_validation(self):
        with pytest.raises(ValueError):
            gt.FlatCutoff(cutoff=-1.0)

    def test_rational_profile(self):
        ff = gt.RationalFormFactor(scale=2.0)
        w = 3.0
        assert ff.f2(w) == pytest.approx(w / (np.pi * (w * w + 4.0)))
        assert ff.f2(-1.0) == 0.0
        assert ff.f2_complex(1.0 - 0.5j) == pytest.approx(
            (1.0 - 0.5j) / (np.pi * ((1.0 - 0.5j) ** 2 + 4.0)))

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

    def test_tabulated_from_file(self, tmp_path):
        grid = np.linspace(0.0, 10.0, 200)
        path = tmp_path / "ff.txt"
        np.savetxt(path, np.column_stack([grid, np.ones_like(grid)]))
        ff = gt.TabulatedFormFactor.from_file(path)
        assert ff.f2(3.0) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ContinuationUnavailable):
            ff.f2_complex(1 - 1j)

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


class TestSelfEnergy:
    def test_free_model(self):
        free = gt.FriedrichsModel(omega0=1.0, lam=0.0,
                                  form_factor=gt.FlatCutoff(cutoff=10.0))
        z = 2.0 + 3.0j
        assert gt.self_energy(free, z, "I") == z - 1.0
        assert gt.self_energy(free, z, "II") == z - 1.0

    def test_sheet_one_against_closed_form(self, flat_model):
        # oracle: elementary complex logarithm, valid off the cut
        for z in (1.0 + 0.5j, 3.0 - 2.0j, -1.0 + 0.2j, 0.5 - 0.8j):
            val = gt.self_energy(flat_model, z, "I")
            assert abs(val - flat_eta_one(flat_model, z)) < 1e-9

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

    def test_boundary_value_matches_nudged_quadrature(self, flat_model):
        omega = 1.3
        eps = 1e-7
        nudged = gt.self_energy(flat_model, omega + 1j * eps, "I")
        boundary = gt.self_energy(flat_model, omega)
        assert abs(boundary - nudged) < 1e-5

    def test_on_cut_resolves_to_upper_rim(self, flat_model):
        # the explicit split: principal value plus i*pi*lam^2*f^2
        val = gt.self_energy(flat_model, 1.3 + 0.0j, "I")
        lam2 = flat_model.lam**2
        pv = principal_values(flat_model.form_factor.f2, 0.0, 10.0, [1.3],
                              scale=10.0)
        split = 1.3 - 1.0 - lam2 * pv + 1j * np.pi * lam2 * 1.0
        assert val == split[0]
        assert val.imag > 0

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["flat", "rational"]),
           sheet=st.sampled_from(["I", "II"]),
           points=st.lists(st.tuples(
               st.sampled_from(["rim", "upper", "lower", "below"]),
               st.floats(1e-3, 1.0 - 1e-3), st.floats(1e-3, 3.0)),
               min_size=2, max_size=8))
    def test_array_call_is_the_single_point_calls(self, kind, sheet, points):
        model = _profile_model(kind, 1.0, 0.1, 1.0)
        z = np.array([{"rim": 10.0 * x, "upper": 10.0 * x + 1j * y,
                       "lower": 10.0 * x - 1j * y, "below": -y}[where]
                      for where, x, y in points], dtype=complex)
        batch = gt.self_energy(model, z, sheet)
        single = np.array([gt.self_energy(model, v, sheet) for v in z])
        assert batch.shape == z.shape
        assert batch.tobytes() == single.tobytes()

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


def _within_table_contract(pv, exact):
    """The density table's accuracy contract on the principal value."""
    return np.all(np.abs(pv - exact)
                  <= np.maximum(1e-12, 1e-10 * np.abs(exact)))


def _pv(model, omega):
    """The principal value inside eta(omega + i0), as self_energy takes it."""
    ff = model.form_factor
    lo, hi = ff.support
    return principal_values(ff.f2, lo, hi, omega, _TABLE_SPEC,
                            scale=ff.scale_hint)


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


class TestBatchedBoundary:
    """The batched principal value behind eta(omega + i0)."""

    @settings(max_examples=40, deadline=None)
    @given(cutoff=_log_uniform(-2.0, 3.0), frac=st.floats(1e-9, 1.0 - 1e-9))
    def test_flat_against_log(self, cutoff, frac):
        # points 1e-9 * cutoff from either edge in every example
        model = gt.FriedrichsModel(omega0=1.0, lam=0.1,
                                   form_factor=gt.FlatCutoff(cutoff=cutoff))
        omega = cutoff * np.array([1e-9, frac, 1.0 - 1e-9])
        pv = _pv(model, omega)
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
        pv = _pv(model, omega)
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
        pv = _pv(model, omega)
        assert _within_table_contract(pv,
                                      np.log((omega - 0.5) / (10.0 - omega)))
        assert abs(gt.density_table(model).norm_direct - 1.0) < 1e-6

    def test_edge_of_support_rejected(self, flat_model):
        with pytest.raises(ValueError):
            gt.self_energy(flat_model, np.array([1.0, 10.0]))


class TestPerturbativePole:
    def test_free_model(self):
        free = gt.FriedrichsModel(omega0=1.0, lam=0.0,
                                  form_factor=gt.FlatCutoff(cutoff=10.0))
        pole = gt.perturbative_pole(free)
        assert (pole.e_r, pole.gamma) == (1.0, 0.0)

    def test_golden_rule_width(self, flat_model):
        pole = gt.perturbative_pole(flat_model)
        assert pole.gamma == pytest.approx(2.0 * np.pi * 0.01, rel=1e-10)

    def test_symmetric_cutoff_kills_shift(self):
        # level centered in [0, 2]: the principal value vanishes by symmetry
        model = gt.FriedrichsModel(omega0=1.0, lam=0.1,
                                   form_factor=gt.FlatCutoff(cutoff=2.0))
        pole = gt.perturbative_pole(model)
        assert pole.e_r == pytest.approx(1.0, abs=1e-9)

    def test_rational_form_factor(self):
        model = gt.FriedrichsModel(omega0=1.0, lam=0.1,
                                   form_factor=gt.RationalFormFactor(scale=1.0))
        pole = gt.perturbative_pole(model)
        assert pole.gamma == pytest.approx(
            2.0 * np.pi * 0.01 * 1.0 / (np.pi * 2.0), rel=1e-9)

    def test_level_above_support(self):
        # omega0 outside [0, c]: no width, shift lam^2 ln(omega0/(omega0 - c))
        model = gt.FriedrichsModel(omega0=1.0, lam=0.1,
                                   form_factor=gt.FlatCutoff(cutoff=0.5))
        pole = gt.perturbative_pole(model)
        assert pole.gamma == 0.0
        assert pole.e_r == pytest.approx(1.0 + 0.01 * np.log(2.0), abs=1e-14)


class TestFindPole:
    def test_free_model_is_stable(self):
        free = gt.FriedrichsModel(omega0=1.0, lam=0.0,
                                  form_factor=gt.FlatCutoff(cutoff=10.0))
        pole = gt.find_pole(free)
        assert (pole.e_r, pole.gamma) == (1.0, 0.0)

    def test_width_near_golden_rule(self, flat_model, flat_pole):
        fgr = 2.0 * np.pi * flat_model.lam**2
        assert abs(flat_pole.gamma - fgr) / fgr <= 10.0 * flat_model.lam**2

    def test_residual_at_root(self, flat_model, flat_pole):
        residual = abs(gt.self_energy(flat_model, flat_pole.z, "II"))
        assert residual <= RootSearchConfig().residual_tol
        assert flat_pole.z.imag < 0

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

        def counted(model, z, sheet="I", spec=None):
            shapes.append(np.shape(z))
            return eta(model, z, sheet, spec)

        monkeypatch.setattr(friedrichs, "self_energy", counted)
        gt.find_pole(flat_model)
        stencils = shapes.count((3,))
        iterations = stencils - 1  # the last stencil confirms the residual
        assert shapes.count(()) == 1 and stencils == len(shapes) - 1
        assert len(shapes) <= iterations + 2 < 10

    def test_upper_half_root_is_reported(self, flat_model):
        seed = gt.perturbative_pole(flat_model)
        cfg = RootSearchConfig(initial_guess=np.conjugate(seed.z))
        with pytest.raises(PoleInUpperHalfPlane):
            gt.find_pole(flat_model, cfg)

    def test_tabulated_has_no_second_sheet(self):
        grid = np.linspace(0.0, 10.0, 400)
        ff = gt.TabulatedFormFactor(grid=grid, values=np.ones_like(grid))
        model = gt.FriedrichsModel(omega0=1.0, lam=0.1, form_factor=ff)
        with pytest.raises(ContinuationUnavailable):
            gt.find_pole(model)


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

    def test_needs_coupling(self):
        free = gt.FriedrichsModel(omega0=1.0, lam=0.0,
                                  form_factor=gt.FlatCutoff(cutoff=10.0))
        with pytest.raises(ValueError):
            gt.spectral_density(free, 1.0)

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


class TestDiscretize:
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
