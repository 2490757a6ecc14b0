"""Independent reference values for the benchmark's correctness gate.

Nothing here imports the package.  The Friedrichs self-energy of both
benchmark form factors is an elementary function, so the overlap density,
the boundary value on the cut and the second-sheet denominator are written
in closed form, and the survival amplitude is their Fourier transform taken
with scipy's QUADPACK (``quad`` with ``weight='cos'/'sin'``).  The rational
principal value is also cross-checked against ``quad(weight='cauchy')``.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

_QUAD = {"epsabs": 1e-13, "epsrel": 1e-12, "limit": 2000}


class ReferenceFailure(RuntimeError):
    """QUADPACK reported that a reference integral did not converge."""


def golden_rule_width(model):
    """Fermi golden-rule width 2 pi lam^2 f^2(omega0)."""
    w0, lam = model["omega0"], model["lam"]
    if model["kind"] == "flat_cutoff":
        return 2.0 * np.pi * lam**2
    return 2.0 * lam**2 * w0 / (w0**2 + model["scale"] ** 2)


def rational_pv(w, scale):
    """PV of int_0^inf f^2(x) / (w - x) dx for f^2 = x / (pi (x^2 + s^2))."""
    return (w * np.log(w / scale) / np.pi - 0.5 * scale) / (w * w + scale**2)


def rational_pv_quad(w, scale):
    """The same principal value by QUADPACK's Cauchy weight plus a tail."""
    f2 = lambda x: x / (np.pi * (x * x + scale**2))
    split = 2.0 * w + 4.0 * scale
    head = _quad(f2, 0.0, split, weight="cauchy", wvar=w)
    tail = _quad(lambda x: f2(x) / (w - x), split, np.inf)
    return -head + tail


def cross_check_pv(model, tol=1e-12):
    """Confirm the closed-form rational PV against QUADPACK near the level."""
    for w in (0.5, 1.0, 3.0):
        w *= model["omega0"]
        dev = abs(rational_pv(w, model["scale"])
                  - rational_pv_quad(w, model["scale"]))
        if not dev <= tol:
            raise ReferenceFailure(f"closed-form PV off by {dev:.3g} at {w}")


def boundary_pv(model, w):
    """Principal part int f^2(x) / (w - x) dx for w inside the support."""
    if model["kind"] == "flat_cutoff":
        return np.log(w / (model["cutoff"] - w))
    return rational_pv(w, model["scale"])


def f2(model, w):
    if model["kind"] == "flat_cutoff":
        return 1.0
    return w / (np.pi * (w * w + model["scale"] ** 2))


def density(model, w):
    """Overlap density lam^2 f^2 / |eta(w + i0)|^2, zero at the edges."""
    hi = model["cutoff"] if model["kind"] == "flat_cutoff" else np.inf
    if not 0.0 < w < hi:
        return 0.0
    lam2 = model["lam"] ** 2
    g = f2(model, w)
    eta = complex(w - model["omega0"] - lam2 * boundary_pv(model, w),
                  np.pi * lam2 * g)
    return lam2 * g / abs(eta) ** 2


def eta_second_sheet(model, z):
    """Reduced-resolvent denominator continued below the cut (Im z < 0)."""
    lam2 = model["lam"] ** 2
    if model["kind"] == "flat_cutoff":
        c = model["cutoff"]
        return (z - model["omega0"] - lam2 * (np.log(z) - np.log(z - c))
                + 2j * np.pi * lam2)
    s = model["scale"]
    a = z / (z * z + s * s)
    b = -s * s / (z * z + s * s)
    return (z - model["omega0"] - lam2 / np.pi * (a * np.log(z / s)
                                                  + 0.5 * np.pi * b / s)
            + 1j * lam2 * a)


def pole(model, guess):
    """Root of the closed-form second-sheet denominator near ``guess``."""
    z = complex(guess)
    for _ in range(50):
        h = 1e-7 * max(1.0, abs(z))
        slope = (eta_second_sheet(model, z + h)
                 - eta_second_sheet(model, z - h)) / (2.0 * h)
        step = eta_second_sheet(model, z) / slope
        z -= step
        if abs(step) < 1e-15 * max(1.0, abs(z)):
            return z
    raise ReferenceFailure(f"closed-form pole search did not settle at {z!r}")


def perturbative_energy(model):
    """Golden-rule level shift omega0 + lam^2 PV(omega0)."""
    return model["omega0"] + model["lam"] ** 2 * boundary_pv(
        model, model["omega0"])


def _quad(f, a, b, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            return quad(f, a, b, **_QUAD, **kw)[0]
        except IntegrationWarning as exc:
            raise ReferenceFailure(f"QUADPACK on [{a}, {b}]: {exc}") from exc


def _breaks(model):
    """Split points that isolate the resonance peak and the support edges."""
    w0 = model["omega0"]
    pts = [0.0, 0.5 * w0, 0.9 * w0, 0.98 * w0, 1.02 * w0, 1.1 * w0,
           2.0 * w0, 10.0 * max(w0, model.get("scale", 0.0))]
    if model["kind"] == "flat_cutoff":
        c = model["cutoff"]
        pts = [p for p in pts if p < c] + [c]
    return sorted(set(pts))


def survival_amplitude(model, t):
    """A(t) = int rho(w) exp(-i w t) dw by QUADPACK's Fourier weights."""
    rho = lambda w: density(model, w)
    edges = _breaks(model)
    pieces = list(zip(edges[:-1], edges[1:]))
    if model["kind"] != "flat_cutoff":
        pieces.append((edges[-1], np.inf))
    re = im = 0.0
    for a, b in pieces:
        if t == 0.0:
            re += _quad(rho, a, b)
            continue
        if np.isinf(b):
            # QAWF takes no limit/epsrel; the tail is small and smooth
            with warnings.catch_warnings():
                warnings.simplefilter("error", IntegrationWarning)
                try:
                    re += quad(rho, a, b, weight="cos", wvar=t,
                               epsabs=1e-13, limlst=200)[0]
                    im -= quad(rho, a, b, weight="sin", wvar=t,
                               epsabs=1e-13, limlst=200)[0]
                except IntegrationWarning as exc:
                    raise ReferenceFailure(f"QUADPACK tail: {exc}") from exc
            continue
        re += _quad(rho, a, b, weight="cos", wvar=t)
        im -= _quad(rho, a, b, weight="sin", wvar=t)
    return complex(re, im)


def zeno_slope(model, h):
    """The Richardson estimate of P'(0) that ``zeno_check`` forms, here
    from reference amplitudes at t = 0, h, h/2, h/4."""
    prob = lambda t: abs(survival_amplitude(model, t)) ** 2
    p0 = prob(0.0)
    diffs = [(prob(h / 2**k) - p0) / (h / 2**k) for k in range(3)]
    return 2.0 * diffs[2] - diffs[1]


def entropy(e_r, gamma, beta, k):
    """Complex entropy through S = k (1 - Log(beta conj(z_R)))."""
    return k * (1.0 - np.log(beta * complex(e_r, 0.5 * gamma)))


def ladder_time(value, e_r, gamma, t):
    """Creation coefficient after real time t: value * exp(-i t z_R)."""
    return value * np.exp(-1j * t * complex(e_r, -0.5 * gamma))


def eigen_sum_width(eigenvalues, overlaps, gamma):
    """Decay width fitted to the eigen-sum survival on [1, 5] lifetimes."""
    ts = np.linspace(1.0 / gamma, 5.0 / gamma, 80)
    amp = np.exp(-1j * np.outer(ts, eigenvalues)) @ overlaps
    return -np.polyfit(ts, np.log(np.abs(amp) ** 2), 1)[0]
