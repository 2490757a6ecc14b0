"""Shared numerical kernel.

Adaptive complex quadrature (Gauss-Kronrod 7-15 with bulk bisection) and,
on the same kernel, Cauchy principal values for a whole array of poles at
once by singularity subtraction; complex Newton iteration with
difference-quotient slopes from one array call per step, fixed-step RK4
evolution of linear complex rates, and Richardson-extrapolated finite
differences.  Everything here is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "RootSearchConfig",
    "NonConvergence",
    "IntegrandError",
    "MaxIterExceeded",
    "SingularStep",
    "StepUnderflow",
    "InvalidElements",
    "integrate",
    "principal_values",
    "complex_newton",
    "ode_evolve",
    "derivative",
]


class NonConvergence(RuntimeError):
    """Subdivision or refinement budget exhausted before reaching tolerance."""


class IntegrandError(ValueError):
    """Integrand produced a NaN or infinity inside the integration range."""


class MaxIterExceeded(RuntimeError):
    """Root search did not converge within the iteration budget."""


class SingularStep(RuntimeError):
    """Numerical derivative vanished; Newton step is undefined."""


class StepUnderflow(RuntimeError):
    """ODE step halving hit the resolution floor without converging."""


class InvalidElements(ValueError):
    """An elementwise check failed; ``mask`` marks the failing elements
    (broadcastable against the checked array)."""

    def __init__(self, message: str, mask):
        super().__init__(message)
        self.mask = mask


def _require(ok, message: str) -> None:
    """Raise :class:`InvalidElements` unless every element of ``ok`` holds."""
    ok = np.asarray(ok)
    if not ok.all():
        raise InvalidElements(message, ~ok)


def _unbox(x):
    """A 0-d array as its Python scalar, any other array unchanged."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def _complex(re, im):
    """re + i*im elementwise, exactly (no 0*inf products, signed zeros
    kept); a Python complex for scalar parts."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return _unbox(out)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and the per-integral panel budget of the adaptive kernel."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 4000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class RootSearchConfig:
    """Complex Newton search parameters.

    ``initial_guess`` may be left as None by callers that derive a
    problem-specific default before invoking :func:`complex_newton`.
    """

    initial_guess: complex | None = None
    step_tol: float = 1e-12
    residual_tol: float = 1e-12
    max_iter: int = 60

    def __post_init__(self):
        if not (self.step_tol > 0 and self.residual_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


# 15-point Kronrod extension of 7-point Gauss on [-1, 1]; the Gauss nodes
# are the odd-indexed Kronrod abscissae.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full symmetric node/weight tables (negative side first, centre last)
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG_FULL = np.zeros_like(_WK)
_WG_FULL[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])

# first-pass panels of an integral (per piece of a principal value)
_PV_PANELS = 4
# (panel x node) points per integrand call of the batched quadrature
_BLOCK = 2**15


def _panel_eval(fvec, lo: np.ndarray, hi: np.ndarray):
    """Kronrod and Gauss sums over a batch of panels.

    ``lo``/``hi`` are equal-length arrays of panel edges.  Returns the
    Kronrod estimates (real for a real ``fvec``) and |K - G| error gauges,
    both shaped like ``lo``.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    pts = c[:, None] + h[:, None] * _NODES[None, :]
    # a value that is not finite raises below; numpy's warnings would
    # only repeat it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = np.asarray(fvec(pts.ravel())).reshape(pts.shape)
    if not np.all(np.isfinite(vals)):
        bad = pts.ravel()[~np.isfinite(vals.ravel())][0]
        raise IntegrandError(f"integrand is not finite near x = {bad!r}")
    kron = h * (vals * _WK[None, :]).sum(axis=1)
    gauss = h * (vals * _WG_FULL[None, :]).sum(axis=1)
    return kron, np.abs(kron - gauss)


def _composite(f, edges: np.ndarray, spec: QuadratureSpec) -> np.ndarray:
    """Integrals over the rows of ``edges``, bisecting offending panels in bulk.

    Row i integrates ``f(i, x)`` from ``edges[i, 0]`` to ``edges[i, -1]``,
    starting from the panels between consecutive entries.  Every panel gets
    Gauss-Kronrod 7-15 and the gauge |K - G|.  A row whose summed gauge
    exceeds max(abs_tol, rel_tol * |I_i|) bisects each panel holding more
    than half its share, and the new panels of all such rows are evaluated
    together; a panel at float resolution is accepted as it stands.  Rows
    never interact, so a row's result does not depend on its batch.
    """
    n, m = edges.shape[0], edges.shape[1] - 1
    row = np.repeat(np.arange(n), m)
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    count = np.full(n, m)
    step = _BLOCK // _NODES.size

    def evaluate(row, lo, hi):
        kron, err = [], []
        for s in range(0, lo.size, step):
            owner = np.repeat(row[s:s + step], _NODES.size)
            k, e = _panel_eval(lambda x: f(owner, x), lo[s:s + step],
                               hi[s:s + step])
            kron.append(k)
            err.append(e)
        return np.concatenate(kron), np.concatenate(err)

    val, err = evaluate(row, lo, hi)
    while True:
        total = np.zeros(n, dtype=val.dtype)
        np.add.at(total, row, val)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
        open_rows = np.bincount(row, err, n) > tol
        if not open_rows.any():
            return total
        if count[open_rows].max() > spec.max_subdivisions:
            raise NonConvergence(
                f"{spec.max_subdivisions} subdivisions exhausted on "
                f"{int(open_rows.sum())} of {n} integrals")
        split = np.flatnonzero(open_rows[row]
                               & (err > 0.5 * tol[row] / count[row]))
        mid = 0.5 * (lo[split] + hi[split])
        whole = (mid > lo[split]) & (mid < hi[split])
        err[split[~whole]] = 0.0
        split, mid = split[whole], mid[whole]
        if not split.size:
            continue
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        new_row = np.tile(row[split], 2)
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_val, new_err = evaluate(new_row, new_lo, new_hi)
        count += np.bincount(row[split], minlength=n)
        row = np.concatenate([row[keep], new_row])
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])


def _rows(f, a: float, b: float, n: int, spec: QuadratureSpec) -> np.ndarray:
    """Integrals of ``f(i, x)`` over [a, b] for the rows i < n of the bulk
    kernel, each starting from the equal panels of a principal-value piece.

    ``b`` may be +inf: [a, inf) is then folded onto [0, 1) through
    w = a + u/(1-u).
    """
    if np.isinf(b):
        def folded(i, us):
            one_minus = 1.0 - us
            return f(i, a + us / one_minus) / one_minus**2

        edges = np.linspace(0.0, 1.0, _PV_PANELS + 1)
        return _composite(folded, np.tile(edges, (n, 1)), spec)
    edges = np.linspace(a, b, _PV_PANELS + 1)
    return _composite(f, np.tile(edges, (n, 1)), spec)


def _on_array(f, x: np.ndarray, contract: str) -> np.ndarray:
    """``f(x)`` as a complex array, or :class:`TypeError` naming
    ``contract`` when ``f`` does not map ``x`` to an array of its shape."""
    try:
        out = np.asarray(f(x), dtype=complex)
    except TypeError as exc:
        raise TypeError(f"{contract}: {exc}") from exc
    if out.shape != x.shape:
        raise TypeError(f"{contract}, got {out.shape} for {x.shape}")
    return out


def integrate(f, a: float, b: float,
              spec: QuadratureSpec | None = None) -> complex:
    """Integrate a complex-valued ``f`` over [a, b], b possibly +inf.

    ``f`` maps a float array to an array of the same shape.  The range
    is one row of the bulk kernel, as in :func:`_rows`.  The
    Kronrod-Gauss gauge only sees the integrand at its nodes, so the range
    should end where the integrand's support ends: a drop to zero between
    a panel's outermost node and its edge goes unnoticed.

    Returns the integral estimate; raises :class:`NonConvergence` when the
    subdivision budget runs out, :class:`IntegrandError` on NaN/inf and
    :class:`TypeError` when ``f`` breaks the array contract.
    """
    spec = spec or QuadratureSpec()
    if not a < b:
        raise ValueError("integration range must satisfy a < b")
    contract = ("the integrand must map a float array to an array of the "
                "same shape")
    return complex(_rows(lambda i, x: _on_array(f, x, contract), a, b, 1,
                         spec)[0])


def principal_values(g, a: float, b: float, poles,
                     spec: QuadratureSpec | None = None, *,
                     scale: float = 1.0) -> np.ndarray:
    """Cauchy principal values of the integral of g(w) / (c - w) over [a, b].

    One value for each c in ``poles``, all strictly inside [a, b]; ``b``
    may be +inf.  ``g`` maps float arrays to real arrays and must be
    smooth around every pole; a jump elsewhere only costs bisection
    rounds.  Around each c the window [c - r, c + r], with
    r the distance to the nearer end, is folded onto itself: there
    1/(c - w) integrates to zero, which leaves the smooth
    -int_0^1 (g(c + r x) - g(c - r x)) / x dx.  The rest of the range lies
    on one side of c, at distances d from r up to the far end, and is
    integrated in u = ln d, where g du is smooth however close the pole
    sits to an end.  On an infinite range the distances past
    T = r + 4 * ``scale`` go in q = T/d instead, smooth for g decaying
    like 1/w or faster; ``scale`` is where g varies and only steers the
    first panels.  Window, log and inverse pieces are concatenated into one
    integral per pole on shared nodes, refined by bisection where a pole's
    Kronrod-Gauss gauge exceeds max(abs_tol, rel_tol * |PV|).
    """
    spec = spec or QuadratureSpec()
    c = np.asarray(poles, dtype=float).ravel()
    if not np.all((a < c) & (c < b)):
        raise ValueError(f"poles must lie strictly inside [{a!r}, {b!r}]")
    near, far = c - a, b - c
    r = np.minimum(near, far)
    pieces = 2
    if np.isinf(b):
        pieces = 3
        far = r + 4.0 * scale
    side = np.where(near <= far, 1.0, -1.0)
    span = np.log(np.maximum(near, far) / r)

    def integrand(i, s):
        out = np.empty(s.shape)
        win, log, tail = s < 1.0, (s >= 1.0) & (s < 2.0), s >= 2.0
        j, x = i[win], s[win]
        out[win] = (g(c[j] - r[j] * x) - g(c[j] + r[j] * x)) / x
        j = i[log]
        d = r[j] * np.exp((s[log] - 1.0) * span[j])
        out[log] = -side[j] * span[j] * g(c[j] + side[j] * d)
        j, q = i[tail], s[tail] - 2.0
        out[tail] = -g(c[j] + far[j] / q) / q
        return out

    edges = np.linspace(0.0, pieces, pieces * _PV_PANELS + 1)
    return _composite(integrand, np.tile(edges, (c.size, 1)), spec)


def complex_newton(g, cfg: RootSearchConfig) -> complex:
    """Newton iteration for analytic ``g`` with central-difference slopes.

    ``g`` maps a complex array to an array of the same shape; each
    iteration is one call on the stencil [z, z + h, z - h], with
    h = 1e-6 * max(1, |z|), so numerically supplied functions (tabulated
    form factors, quadrature-backed maps) work unchanged.  The step itself
    is Python complex arithmetic.  Converged means the last step is below
    ``step_tol`` and the residual, read from the next stencil, below
    ``residual_tol``.
    """
    if cfg.initial_guess is None:
        raise ValueError("RootSearchConfig.initial_guess is required")
    contract = "g must map a complex array to an array of the same shape"
    z = complex(cfg.initial_guess)
    step = np.inf
    for it in range(cfg.max_iter + 1):
        h = 1e-6 * max(1.0, abs(z))
        gz, g_up, g_down = map(complex, _on_array(
            g, np.array([z, z + h, z - h]), contract))
        if abs(step) <= cfg.step_tol and abs(gz) <= cfg.residual_tol:
            return z
        if it == cfg.max_iter:
            break
        if not np.isfinite(gz.real) or not np.isfinite(gz.imag):
            raise IntegrandError(f"g({z!r}) is not finite")
        dg = (g_up - g_down) / (2.0 * h)
        if abs(dg) < 1e-300 or not np.isfinite(abs(dg)):
            raise SingularStep(f"derivative vanished at z = {z!r}")
        step = gz / dg
        z = z - step
    raise MaxIterExceeded(
        f"no root after {cfg.max_iter} iterations (last z = {z!r})")


def _rk4_linear(z: complex, y0: complex, tau_grid: np.ndarray,
                steps_per_interval: np.ndarray) -> np.ndarray:
    out = np.empty(tau_grid.size, dtype=complex)
    out[0] = y = complex(y0)
    for i in range(tau_grid.size - 1):
        n = int(steps_per_interval[i])
        h = (tau_grid[i + 1] - tau_grid[i]) / n
        for _ in range(n):
            k1 = z * y
            k2 = z * (y + 0.5 * h * k1)
            k3 = z * (y + 0.5 * h * k2)
            k4 = z * (y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = y
    return out


def ode_evolve(z: complex, y0: complex, tau_grid,
               rel_tol: float = 1e-10) -> np.ndarray:
    """Evolve dy/dtau = z*y through the given grid points.

    Classic fixed-step RK4, with the step count doubled until two
    successive refinements agree to ``rel_tol`` in relative terms at every
    grid point.  The first grid point carries ``y0`` unchanged.
    """
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1 or tau.size < 1:
        raise ValueError("tau_grid must be a non-empty 1-d sequence")
    if np.any(np.diff(tau) <= 0):
        raise ValueError("tau_grid must be strictly increasing")
    if tau.size == 1:
        return np.array([complex(y0)])

    dt = np.diff(tau)
    steps = np.maximum(1, np.ceil(abs(z) * dt / 0.5)).astype(int)
    prev = _rk4_linear(z, y0, tau, steps)
    prev_diff = None
    for _ in range(40):
        if np.any(dt / (2 * steps) < 1e-15 * np.abs(tau[1:]).clip(min=1.0)):
            raise StepUnderflow("step halving reached float resolution")
        steps = steps * 2
        cur = _rk4_linear(z, y0, tau, steps)
        scale = np.maximum(np.abs(cur), 1e-300)
        diff = float(np.max(np.abs(cur - prev) / scale))
        if diff <= rel_tol:
            return cur
        # a halving should shrink the defect ~16x; a stall means the
        # requested tolerance sits below the roundoff plateau
        if prev_diff is not None and diff > 0.25 * prev_diff:
            raise NonConvergence(
                f"RK4 refinement stalled at relative defect {diff:.3e}")
        prev, prev_diff = cur, diff
    raise NonConvergence("RK4 refinement did not settle")


def derivative(f, x: float, h: float):
    """Central difference with one Richardson step.

    Returns ``(value, error_estimate)``; the estimate is the difference
    between the extrapolated value and the finer plain difference.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    samples = [f(x + h), f(x - h), f(x + h / 2), f(x - h / 2)]
    samples = [complex(s) for s in samples]
    if not all(np.isfinite(s.real) and np.isfinite(s.imag) for s in samples):
        raise ValueError(f"f is not finite near x = {x!r}")
    d_h = (samples[0] - samples[1]) / (2.0 * h)
    d_h2 = (samples[2] - samples[3]) / h
    value = (4.0 * d_h2 - d_h) / 3.0
    err = abs(value - d_h2)
    if abs(value.imag) == 0.0:
        return value.real, err
    return value, err
