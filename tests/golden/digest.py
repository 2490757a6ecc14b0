#!/usr/bin/env python3
"""Print one sha256 over the production outputs the golden fixtures do
not pin, to show that a change leaves them bitwise as they were.

Run with the package importable, at two trees in turn, and compare the
two lines: PYTHONPATH=src python tests/golden/digest.py

It hashes, in this order and as raw float64 or complex128 bytes:

- on the flat cutoff (10) and the rational profile (scale 1), level 1,
  at lambda 0.05, 0.1 and 0.2: the density table (knots, spline
  coefficients, ``norm_direct``, ``max_refine_dev``), the complex
  ``integrate`` value whose real part is ``norm_direct``, and
  ``survival_amplitude`` at 146 times (0, 30 log-spaced up to
  0.9/Gamma, 115 linear from 1/Gamma to 27/Gamma);
- ``find_pole`` reports (z, estimate, residual, step, stencils) at 40
  lambda from 0.03 to 0.25 on both profiles;
- a tabulated profile on [0, 5], level 1.5, lambda 0.1: its density
  table, the ``integrate`` value behind its norm and sheet-I
  ``self_energy`` at 100 real points, the Cauchy kernel's route on the
  axis;
- ``discretize(2000)`` eigenvalues and overlaps of the flat (omega_max
  10) and rational (omega_max 20) models at lambda 0.1.

A mismatch says only that something moved; the golden ``refresh.py
--check`` and the tests say where.
"""

import hashlib
import warnings

import numpy as np

import gamow_thermo as gt
from gamow_thermo.decay import _tail_cutoff
from gamow_thermo.numerics import integrate

FLAT = gt.FlatCutoff(cutoff=10.0)
RATIONAL = gt.RationalFormFactor(scale=1.0)
_GRID = np.linspace(0.0, 5.0, 41)
TABULATED = gt.TabulatedFormFactor(
    grid=_GRID,
    values=_GRID * (5.0 - _GRID) * (1.0 + np.sin(3.0 * _GRID) ** 2))


def _feed(digest, *values) -> None:
    """Add each value's shape and raw bytes to ``digest``."""
    for value in values:
        value = np.ascontiguousarray(value)
        digest.update(repr((value.dtype.str, value.shape)).encode())
        digest.update(value.tobytes())


def _table(digest, model) -> None:
    """The model's density table and the norm integral behind it."""
    table = gt.density_table(model)
    norm = integrate(lambda w: gt.spectral_density(model, w),
                     model.form_factor.support[0], _tail_cutoff(model))
    _feed(digest, table.knots, table.spline.c, table.norm_direct,
          table.max_refine_dev, norm)


def main() -> None:
    digest = hashlib.sha256()
    for ff in (FLAT, RATIONAL):
        for lam in (0.05, 0.1, 0.2):
            model = gt.FriedrichsModel(omega0=1.0, lam=lam, form_factor=ff)
            _table(digest, model)
            gamma = gt.find_pole(model).gamma
            times = np.concatenate([[0.0],
                                    np.geomspace(0.005, 0.9 / gamma, 30),
                                    np.linspace(1.0 / gamma, 27.0 / gamma,
                                                115)])
            _feed(digest, gt.survival_amplitude(model, times))
    for ff in (FLAT, RATIONAL):
        for lam in np.linspace(0.03, 0.25, 40):
            pole = gt.find_pole(gt.FriedrichsModel(omega0=1.0, lam=lam,
                                                   form_factor=ff))
            _feed(digest, pole.z, pole.estimate, pole.residual, pole.step,
                  pole.stencils)
    model = gt.FriedrichsModel(omega0=1.5, lam=0.1, form_factor=TABULATED)
    _table(digest, model)
    _feed(digest, gt.self_energy(model, np.linspace(-1.0, 6.0, 100)))
    with warnings.catch_warnings():
        # the rational model's oracle warns that omega_max 20 cuts off
        # coupling weight
        warnings.simplefilter("ignore", UserWarning)
        for ff, omega_max in ((FLAT, 10.0), (RATIONAL, 20.0)):
            spectrum = gt.discretize(
                gt.FriedrichsModel(omega0=1.0, lam=0.1, form_factor=ff),
                2000, omega_max)
            _feed(digest, spectrum.eigenvalues, spectrum.overlaps)
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
