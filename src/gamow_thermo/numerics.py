"""Shared numerical kernel.

Adaptive complex quadrature (Gauss-Kronrod 7-15 with bulk bisection on
one flat list of panels, whose first round is four equal panels a
piece) and, on the same kernel, the Cauchy integrals of g(w) / (z - w)
for a whole array of z at once: principal values on the axis, a
sinh-mapped window off it.  Those are the self-energy route of a
tabulated form factor, which the commands run on the axis, and the
oracle of the flat and rational profiles' closed forms, which are the
route there.  Also here: complex Newton iteration with
difference-quotient slopes from one array call per step, fixed-step RK4
evolution of linear complex rates, Richardson-extrapolated finite
differences, and the not-a-knot cubic spline.  Everything here is a pure
function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PiecewiseCubic",
    "NumericalFailure",
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


class NumericalFailure(Exception):
    """A numerical route could not deliver a trustworthy number: exit 2."""


class NonConvergence(NumericalFailure, RuntimeError):
    """Subdivision or refinement budget exhausted before reaching tolerance."""


class IntegrandError(NumericalFailure, ValueError):
    """Integrand produced a NaN or infinity inside the integration range."""


class MaxIterExceeded(NumericalFailure, RuntimeError):
    """Root search did not converge within the iteration budget."""


class SingularStep(NumericalFailure, RuntimeError):
    """Numerical derivative vanished; Newton step is undefined."""


class StepUnderflow(NumericalFailure, RuntimeError):
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


def _finite_points(z) -> np.ndarray:
    """The points ``z`` of a Cauchy integral as a flat array; one that is
    not finite is the caller's error, a :class:`ValueError` naming it."""
    z = np.asarray(z).ravel()
    finite = np.isfinite(z)
    if np.count_nonzero(finite) < z.size:
        raise ValueError("Cauchy integral at a point that is not finite: "
                         f"z = {complex(z[~finite][0])!r}")
    return z


def _complex(re, im):
    """re + i*im elementwise, exactly (no 0*inf products, signed zeros
    kept); a Python complex for scalar parts."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return _unbox(out)


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

# full symmetric node table (negative side first, centre last) and its
# Kronrod and Gauss weights
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WKG = np.zeros((2, _NODES.size))
_WKG[0] = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WKG[1, 1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])

# first-pass panels per piece of an integral
_PANELS = 4
# (panel x node) points per integrand call of the batched quadrature
_BLOCK = 2**15
# the two sides x - d and x + d of a Cauchy window, as one array
_SIDES = np.array([-1.0, 1.0])[:, None, None]

# the kernel's two accuracies (abs_tol, rel_tol): an integral is done once
# its summed Kronrod-Gauss gauge is within max(abs_tol, rel_tol * |I|), and
# fails past _MAX_PANELS panels.  Principal values run at the density
# table's, plain integrals at that of the table's norm
_CAUCHY_TOL = (1e-12, 1e-10)
_INTEGRAL_TOL = (1e-11, 1e-11)
_MAX_PANELS = 20000
# relative defect at which ode_evolve's step doubling stops
_ODE_REL_TOL = 1e-10


def _kronrod(vals, half, centre):
    """Kronrod sums and |K - G| gauges of the panels centre +- half in s
    whose node values run along the last axis of ``vals``; both shaped
    like ``vals`` without that axis."""
    finite = np.isfinite(vals)
    if not finite.all():
        nodes = centre[:, None] + half[:, None] * _NODES
        bad = float(np.broadcast_to(nodes, vals.shape)[~finite][0])
        raise IntegrandError(f"integrand is not finite near quadrature "
                             f"coordinate s = {bad!r} (not omega)")
    sums = half[:, None] * (vals[..., None, :] * _WKG).sum(axis=-1)
    kron = sums[..., 0]
    return kron, np.abs(kron - sums[..., 1])


def _composite(pieces, n: int, tol, dtype, live=()) -> np.ndarray:
    """The integrals of ``n`` rows over s in [0, len(pieces)), bisecting
    offending panels in bulk.

    Piece p covers s in [p, p + 1): ``pieces[p](j, u)`` is its integrand
    at the rows j (an index array, as a column) and the nodes u = s - p
    (the rows of an array), shaped like their broadcast.  ``live`` holds,
    for the leading pieces, a mask of the rows where the piece can be
    nonzero; the other rows get no panel there, and so no call.

    The state is one flat list of panels, (row, lo, hi) with each
    panel's Kronrod sum and gauge; round 0, the first pass, holds
    ``_PANELS`` equal panels on each live piece of every row, row by
    row.  Each round evaluates its new panels together, each with the
    integrand of its piece, by blocks of ``_BLOCK`` points.  With ``tol``
    = (abs_tol, rel_tol), a row whose summed gauge exceeds
    max(abs_tol, rel_tol * |I_i|) bisects each panel holding more than
    half its share, its count of panels starting at every first-pass
    panel, live or not; a panel at float resolution is accepted as it
    stands.  The sums run panel by panel in order.  Rows never interact,
    so a row's result does not depend on its batch.  Every value is
    finite (:func:`_kronrod` checks), so a sum that is not overflows:
    :class:`NumericalFailure`.
    """
    abs_tol, rel_tol = tol
    alive = np.ones((n, len(pieces)), dtype=bool)
    alive[:, :len(live)] = np.transpose(live)
    row, panel = np.nonzero(np.repeat(alive, _PANELS, axis=1))
    lo, hi = panel / _PANELS, (panel + 1) / _PANELS
    count = np.full(n, len(pieces) * _PANELS)
    step = _BLOCK // _NODES.size

    def evaluate(row, lo, hi):
        # a panel lies inside one piece: its centre names it
        val, err = np.empty(lo.size, dtype=dtype), np.empty(lo.size)
        for c in range(0, lo.size, step):
            centre = 0.5 * (lo[c:c + step] + hi[c:c + step])
            half = 0.5 * (hi[c:c + step] - lo[c:c + step])
            s = centre[:, None] + half[:, None] * _NODES
            j, piece = row[c:c + step, None], centre.astype(int)
            vals = np.empty(s.shape, dtype=dtype)
            for p, f in enumerate(pieces):
                sel = piece == p
                if sel.any():
                    vals[sel] = f(j[sel], s[sel] - p)
            val[c:c + step], err[c:c + step] = _kronrod(vals, half, centre)
        return val, err

    val, err = evaluate(row, lo, hi)
    out = np.empty(n, dtype=dtype)
    # the rows that still hold panels
    todo = np.ones(n, dtype=bool)
    while True:
        total = np.zeros(n, dtype=dtype)
        np.add.at(total, row, val)
        if not np.isfinite(total).all():
            raise NumericalFailure("the integral overflows: its panel sums "
                                   "are not finite")
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        open_rows = np.bincount(row, err, n) > tol
        # a row within its tolerance is done, and its panels leave
        done = todo & ~open_rows
        out[done] = total[done]
        todo = open_rows
        if not open_rows.any():
            return out
        if count[open_rows].max() > _MAX_PANELS:
            raise NonConvergence(
                f"{_MAX_PANELS} subdivisions exhausted on "
                f"{int(open_rows.sum())} of {n} integrals")
        split = np.flatnonzero(open_rows[row]
                               & (err > 0.5 * tol[row] / count[row]))
        mid = 0.5 * (lo[split] + hi[split])
        whole = (mid > lo[split]) & (mid < hi[split])
        err[split[~whole]] = 0.0
        split, mid = split[whole], mid[whole]
        keep = open_rows[row]
        keep[split] = False
        halves = (np.tile(row[split], 2), np.concatenate([lo[split], mid]),
                  np.concatenate([mid, hi[split]]))
        halves += evaluate(*halves)
        count += np.bincount(row[split], minlength=n)
        # each panel array keeps its open rows' unsplit panels, then halves
        row, lo, hi, val, err = (np.concatenate([old[keep], new]) for old, new
                                 in zip((row, lo, hi, val, err), halves))


@dataclass(frozen=True, eq=False)
class PiecewiseCubic:
    """A cubic on each interval [x_k, x_k+1]: at x_k + d its value is
    c[0, k] d^3 + c[1, k] d^2 + c[2, k] d + c[3, k].  It is zero outside
    [x_0, x_n], NaN at a NaN point; a scalar point gives a float."""

    x: np.ndarray
    c: np.ndarray

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        lo, hi = self.x[0], self.x[-1]
        # clipped first, so that far-out points stay clear of overflow
        inner = np.clip(w, lo, hi)
        # the inner knots at or below w number the interval, end ones kept
        k = np.searchsorted(self.x[1:-1], inner, side="right")
        d = inner - self.x[k]
        c0, c1, c2, c3 = self.c[:, k]
        # NaN is neither below nor above the knots: it propagates
        return _unbox(np.where(~((w < lo) | (w > hi)),
                               ((c0 * d + c1) * d + c2) * d + c3, 0.0))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _cubic_spline(x, y) -> PiecewiseCubic:
    """The not-a-knot cubic spline through n >= 4 points (x, y).

    The knot slopes s solve, at each inner knot,
    h_i s_(i-1) + 2 (h_(i-1) + h_i) s_i + h_(i-1) s_(i+1)
    = 3 (h_i m_(i-1) + h_(i-1) m_i), with widths h and secants m; one
    end row each asks the third derivative to be continuous across x_1
    and x_(n-2).  Subtracting those rows from their neighbours leaves a
    diagonally dominant system in s_1..s_(n-2), solved in one Thomas
    sweep; each piece is then the cubic Hermite one of its end slopes.
    Points too close or too far apart for float arithmetic give
    coefficients that are not finite, without a numpy warning; callers
    check them.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.diff(x)
    m = np.diff(y) / h
    # end rows: h_1 s_0 + d0 s_1 = r0 and d1 s_(n-2) + h_(n-3) s_(n-1) = r1
    d0, d1 = h[0] + h[1], h[-2] + h[-1]
    r0 = ((h[0] + 2.0 * d0) * h[1] * m[0] + h[0] ** 2 * m[1]) / d0
    r1 = (h[-1] ** 2 * m[-2] + (2.0 * d1 + h[-1]) * h[-2] * m[-1]) / d1
    diag = 2.0 * (h[:-1] + h[1:])
    rhs = 3.0 * (h[1:] * m[:-1] + h[:-1] * m[1:])
    diag[0] -= d0
    rhs[0] -= r0
    diag[-1] -= d1
    rhs[-1] -= r1
    # Thomas: forward elimination, then back substitution, on Python floats
    lower, upper = h[1:].tolist(), h[:-1].tolist()
    d, r = float(diag[0]), float(rhs[0])
    ds, rs = [d], [r]
    for lo, up, dg, rh in zip(lower[1:], upper, diag[1:].tolist(),
                              rhs[1:].tolist()):
        f = lo / d
        d, r = dg - f * up, rh - f * r
        ds.append(d)
        rs.append(r)
    s = [r / d]  # s_(n-2) down to s_1, then the end rows give s_(n-1), s_0
    for up, d, r in zip(upper[-2::-1], ds[-2::-1], rs[-2::-1]):
        s.append((r - up * s[-1]) / d)
    s = np.array([(r1 - d1 * s[0]) / h[-2], *s,
                  (r0 - d0 * s[-1]) / h[1]])[::-1]
    t = (s[:-1] + s[1:] - 2.0 * m) / h
    return PiecewiseCubic(x=x, c=np.stack([t / h, (m - s[:-1]) / h - t,
                                           s[:-1], y[:-1]]))


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


def integrate(f, a: float, b: float) -> complex:
    """Integrate a complex-valued ``f`` over the finite range [a, b].

    ``f`` maps a float array to an array of the same shape.  The range
    is one row and one piece of the bulk kernel, on u in [0, 1), as
    w = a + (b - a) u.  The Kronrod-Gauss gauge only sees the integrand at
    its nodes, so the range should end where the integrand's support
    ends: a drop to zero between a panel's outermost node and its edge
    goes unnoticed.  The accuracy is fixed, that of the density table's
    norm: bisection stops once the gauge is within
    max(1e-11, 1e-11 |integral|), with at most 20000 panels.

    Returns the integral estimate.  Raises :class:`ValueError` unless
    -inf < a < b < inf, :class:`NonConvergence` when the subdivision
    budget runs out, :class:`IntegrandError` on NaN/inf values,
    :class:`NumericalFailure` when finite values overflow the integral,
    and :class:`TypeError` when ``f`` breaks the array contract.
    """
    if not -np.inf < a < b < np.inf:
        raise ValueError("integration range must be finite with a < b")
    contract = ("the integrand must map a float array to an array of the "
                "same shape")

    def piece(rows, u):
        vals = _on_array(f, a + (b - a) * u.ravel(), contract)
        scaled = (b - a) * vals
        if np.any(np.isfinite(vals) & ~np.isfinite(scaled)):
            raise NumericalFailure(f"the integral overflows: (b - a) f(w) "
                                   f"is not finite on [{a!r}, {b!r}]")
        return scaled.reshape(u.shape)

    # a value that is not finite raises; numpy's warnings would only
    # repeat it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return complex(_composite([piece], 1, _INTEGRAL_TOL, complex)[0])


def principal_values(g, a: float, b: float, poles) -> np.ndarray:
    """The Cauchy integrals of g(w) / (z - w) over the finite range
    [a, b], one per z in ``poles``: principal values for real z, plain
    integrals otherwise.  A range that is not finite with a < b, or a z
    that is not finite, raises :class:`ValueError`.  It is the
    self-energy route of a tabulated form factor and the quadrature
    oracle of the closed forms of the flat and rational profiles.

    ``g`` maps a float array of any shape to a real array of that shape
    and must be smooth around every Re z inside the support; a jump
    elsewhere only costs bisection rounds.  Each z = x + iy splits
    [a, b] into two pieces, concatenated into one integral per point on
    shared nodes and refined by bisection where a point's Kronrod-Gauss
    gauge exceeds max(1e-12, 1e-10 |integral|), the density table's
    accuracy, with at most 20000 panels per point:

    - the window [x - r, x + r], r the distance from x to the nearer end
      (r = 0 when x lies at or outside an end), folded onto itself;
    - the rest of the range, on one side of x at distances d from
      ``|min(x - a, b - x)|`` up to the far end.

    For real z, 1/(x - w) integrates to zero over the window, which
    leaves the smooth -int_0^1 (g(x + r s) - g(x - r s)) / s ds, and the
    one-sided piece goes in u = ln d, where g du is smooth however close x
    sits to an end.  For y != 0, 1/(z - w) is kept exact, and the window
    and the one-sided piece go in v = asinh(d/|y|): w = x +- |y| sinh v
    turns g dw / (z - w) into g cosh v dv / (-+sinh v + i sign y), whose
    factor has modulus one, and the peak of width |y| at w = x into a
    smooth run of v, so a point 1e-13 off the cut needs only a few rounds
    of bisection.

    Ends of the support: off the axis, x may lie anywhere; on an end or
    outside, the window is empty and the one-sided piece starts at the
    distance from x to the support (v = 0 on an end).  On the axis, x
    outside the support is a plain integral in u = ln d.  On an end the
    integral diverges unless g vanishes there: a g that does not raises
    :class:`IntegrandError`, and for one that does, g(x + d)/d is bounded
    and the piece goes in d itself.  Real z give real results.

    Each point's batch is set once: off the axis, or on it, which also
    takes the points with |y| below 2^-1000 of the far end's distance,
    where asinh(d/|y|) would overflow.  Their limit on the axis is exact
    in double precision: the plain integral outside the support, the
    divergence rule on an end, and inside it the principal value less
    i pi sign(y) g(x), subtracted after the batch.  Rows of the bulk
    kernel never interact, so each result is that of its single call.

    The first pass is static: four equal panels in s on each piece, on
    and off the axis.  That pass is the kernel's first bisection round:
    each piece's integrand is evaluated once, on every point's nodes at
    once, and a point with an empty window (r = 0) gets no panel there,
    so g is not called for it.  A call therefore costs about the same
    for one point as for a few: its cost is per call, not per point.
    That suits what it serves: a tabulated profile's self-energy, which
    the commands take on the axis only (its sheet II raises), one batch
    of frequencies per round of the density table; and the closed forms'
    oracle, which takes whole arrays of z on and off the axis.  Only
    points that miss their tolerance go on to further rounds, which
    evaluate each new panel with the integrand of its piece.
    """
    if not -np.inf < a < b < np.inf:
        raise ValueError("integration range must be finite with a < b")
    z = _finite_points(poles)
    x, y = np.real(z).astype(float), np.imag(z).astype(float)
    # off the axis unless asinh(end/|y|) would overflow
    off = np.abs(y) >= 2.0**-1000 * np.maximum(x - a, b - x)
    out = np.empty(z.shape, dtype=complex if y.any() else float)
    # a value that is not finite raises; numpy's warnings would only
    # repeat it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for rows, kind in ((off, True), (~off, False)):
            if rows.any():
                out[rows] = _cauchy(g, a, b, x[rows], y[rows], kind)
        beside = ~off & (y != 0.0) & (a < x) & (x < b)
        if beside.any():
            out[beside] -= 1j * np.pi * np.sign(y[beside]) * g(x[beside])
    return out


def _cauchy(g, a: float, b: float, x: np.ndarray, y: np.ndarray,
            off: bool) -> np.ndarray:
    """The Cauchy integrals of :func:`principal_values` for one non-empty
    batch kind: every z = x + iy off the axis, or on it, where y is not
    read (the real points' integrals)."""
    if not off:
        at_end = (x == a) | (x == b)
        if np.count_nonzero(at_end) and np.any(g(x[at_end]) != 0.0):
            raise IntegrandError(f"the integral diverges at a support end "
                                 f"of [{a!r}, {b!r}] where g does not "
                                 f"vanish")
    near, far = x - a, b - x
    nearer = np.minimum(near, far)
    r, start = np.maximum(nearer, 0.0), np.abs(nearer)
    side = np.where(near <= far, 1.0, -1.0)
    end = np.maximum(near, far)

    # the integrand of each piece in its own coordinate u = s - p in
    # [0, 1): j picks the rows, as a column
    if not off:
        # d = exp(ln start + u span), not start * exp(u ln(end / start)):
        # end / start overflows for a subnormal start
        lead = np.log(start)
        span = np.log(end) - lead

        def window(j, u):
            down, up = g(x[j] + _SIDES * (r[j] * u))
            return (down - up) / u

        def one_sided(j, u):
            # an end point (start = 0, g vanishing there) goes in d itself
            linear = start[j] == 0.0
            d = np.where(linear, u * end[j], np.exp(lead[j] + u * span[j]))
            rate = np.where(linear, end[j] / d, span[j])
            return -side[j] * rate * g(x[j] + side[j] * d)
    else:
        ay, i_sign = np.abs(y), 1j * np.sign(y)
        v_win, v_lo, v_hi = np.arcsinh(np.array([r, start, end]) / ay)
        width, lever = v_hi - v_lo, side * ay

        # cosh v / (i sign y - side sinh v)
        #     = -(side tanh v + i sign y / cosh v), summed over both sides
        #       on the window
        def window(j, u):
            v = u * v_win[j]
            down, up = g(x[j] + _SIDES * (ay[j] * np.sinh(v)))
            return v_win[j] * (np.tanh(v) * (down - up)
                               - i_sign[j] * ((up + down) / np.cosh(v)))

        def one_sided(j, u):
            v = v_lo[j] + u * width[j]
            return -width[j] * g(x[j] + lever[j] * np.sinh(v)) * (
                side[j] * np.tanh(v) + i_sign[j] / np.cosh(v))

    # a point with an empty window (r = 0) gets no panel there
    return _composite([window, one_sided], x.size, _CAUCHY_TOL,
                      complex if off else float, live=[r > 0.0])


_STEP_TOL = 1e-12
_RESIDUAL_TOL = 1e-12
_MAX_STENCILS = 60


def complex_newton(g, start: complex) -> tuple[complex, float, float, int]:
    """Newton iteration for analytic ``g`` from ``start`` with
    central-difference slopes.

    ``g`` maps a complex array to an array of the same shape; each
    iteration is one call on the stencil [z, z + h, z - h], with
    h = 1e-6 * max(1, |z|), so a g known only numerically, a
    quadrature-backed map say, works unchanged.  The stencil
    gives g, g' and g'' = (g(z + h) + g(z - h) - 2 g(z)) / h^2.  The step
    is Halley's, s/(1 - b) with s = g/g' and b = s g''/(2 g'), wherever
    |b| < 0.1, which holds near a simple root (b -> 0 there), and Newton's
    s elsewhere; it is Python complex arithmetic.  Converged means the
    step and the residual |g(z)| at the same stencil are both within
    1e-12: the search then returns ``(root, residual, step, stencils)``:
    the corrected point (g is not evaluated there), that residual, |step|
    and the number of stencils, one per iteration and at most 60.  A
    stencil value that is not finite raises :class:`IntegrandError`
    naming the first such point.
    """
    contract = "g must map a complex array to an array of the same shape"
    z = complex(start)
    for stencils in range(1, _MAX_STENCILS + 1):
        h = 1e-6 * max(1.0, abs(z))
        stencil = np.array([z, z + h, z - h])
        values = _on_array(g, stencil, contract)
        finite = np.isfinite(values)
        if np.count_nonzero(finite) < finite.size:
            raise IntegrandError(
                f"g({complex(stencil[~finite][0])!r}) is not finite")
        gz, g_up, g_down = values.tolist()
        dg = (g_up - g_down) / (2.0 * h)
        if abs(dg) < 1e-300 or not math.isfinite(abs(dg)):
            raise SingularStep(f"derivative vanished at z = {z!r}")
        step = gz / dg
        bend = step * ((g_up + g_down - 2.0 * gz) / (h * h)) / (2.0 * dg)
        if abs(bend) < 0.1:
            step /= 1.0 - bend
        z = z - step
        if abs(step) <= _STEP_TOL and abs(gz) <= _RESIDUAL_TOL:
            return z, abs(gz), abs(step), stencils
    raise MaxIterExceeded(
        f"no root after {_MAX_STENCILS} iterations (last z = {z!r})")


def ode_evolve(z: complex, y0: complex, tau_grid) -> np.ndarray:
    """Evolve dy/dtau = z*y through the given grid points.

    Classic fixed-step RK4, with the step count doubled until two
    successive refinements agree to 1e-10 in relative terms at every
    grid point; a refinement that stalls above that raises
    :class:`NonConvergence`.  The first grid point carries ``y0``
    unchanged.  For this linear rate one step of size h multiplies y by
    R(hz), with R(w) = 1 + w + w^2/2 + w^3/6 + w^4/24, so n steps across
    an interval are R(z dt/n)^n and the grid is their running product.
    """
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1 or tau.size < 1:
        raise ValueError("tau_grid must be a non-empty 1-d sequence")
    if np.any(np.diff(tau) <= 0):
        raise ValueError("tau_grid must be strictly increasing")
    if tau.size == 1:
        return np.array([complex(y0)])

    dt = np.diff(tau)

    def rk4(steps):
        w = z * dt / steps
        r = 1.0 + w * (1.0 + w * (0.5 + w * (1.0 / 6.0 + w / 24.0)))
        return complex(y0) * np.cumprod(np.concatenate([[1.0], r**steps]))

    steps = np.maximum(1, np.ceil(abs(z) * dt / 0.5)).astype(int)
    prev = rk4(steps)
    prev_diff = None
    for _ in range(40):
        if np.any(dt / (2 * steps) < 1e-15 * np.abs(tau[1:]).clip(min=1.0)):
            raise StepUnderflow("step halving reached float resolution")
        steps = steps * 2
        cur = rk4(steps)
        scale = np.maximum(np.abs(cur), 1e-300)
        diff = float(np.max(np.abs(cur - prev) / scale))
        if diff <= _ODE_REL_TOL:
            return cur
        # a halving should shrink the defect ~16x; a stall means the
        # tolerance sits below the roundoff plateau
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
