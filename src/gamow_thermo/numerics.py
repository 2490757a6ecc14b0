"""Shared numerical kernel.

Adaptive complex quadrature (Gauss-Kronrod 7-15 with bulk bisection) and,
on the same kernel, the Cauchy integrals of g(w) / (z - w) for a whole
array of z at once, from a static first pass: principal values on the
axis, a sinh-mapped window off it; complex Newton iteration with
difference-quotient slopes from one array call per step, fixed-step RK4
evolution of linear complex rates, Richardson-extrapolated finite
differences, and the not-a-knot cubic spline.  Everything here is a pure
function of its arguments.
"""

from __future__ import annotations

import functools
import itertools
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
# table's, which the pole search inherits; plain integrals at that of the
# table's norm and tail bound
_CAUCHY_TOL = (1e-12, 1e-10)
_INTEGRAL_TOL = (1e-11, 1e-11)
_MAX_PANELS = 20000
# relative defect at which ode_evolve's step doubling stops
_ODE_REL_TOL = 1e-10


@functools.cache
def _first_pass(pieces: int, off: bool):
    """The static first pass of an integral with ``pieces`` pieces, s in
    [p, p + 1) for piece p, each split into ``_PANELS`` equal panels;
    off the axis the window piece of a Cauchy integral also splits at
    s = 1/16, 1/8, 7/8 and 15/16.

    Returns the panel edges, every node, the half-width of every panel and
    the slice of each piece's nodes, the nodes given in the piece's own
    coordinate s - p.
    """
    edges = np.linspace(0.0, pieces, pieces * _PANELS + 1)
    if off:
        edges = np.insert(edges, [1, 1, _PANELS, _PANELS],
                          [0.0625, 0.125, 0.875, 0.9375])
    lo, hi = edges[:-1], edges[1:]
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = centre[:, None] + half[:, None] * _NODES
    first = np.searchsorted(centre, np.arange(pieces + 1)) * _NODES.size
    nodes = nodes.ravel() - np.repeat(np.arange(pieces), np.diff(first))
    return edges, nodes, half, [slice(*first[p:p + 2])
                                for p in range(pieces)]


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


def _composite(pieces, table, n: int, tol, dtype, live=()) -> np.ndarray:
    """The integrals of ``n`` rows over s in [0, len(pieces)) from the
    first pass ``table`` of :func:`_first_pass`, bisecting offending
    panels in bulk.

    Piece p covers s in [p, p + 1): ``pieces[p](j, u)`` is its integrand
    at the rows j (an index that picks them as a column) and the nodes
    u = s - p (the rows of an array), shaped like their broadcast.
    ``live`` holds, for the leading pieces, a mask of the rows where the
    piece can be nonzero; the other rows take zero there without a call.

    The first pass goes by blocks of rows, each piece's nodes one
    broadcast over the block.  With ``tol`` = (abs_tol, rel_tol), a row
    whose summed gauge exceeds max(abs_tol, rel_tol * |I_i|) bisects each
    panel holding more than half its share, and the new panels of all
    such rows are evaluated together, each with the integrand of its
    piece; a panel at float resolution is accepted as it stands.  The
    sums run panel by panel in order.  Rows never interact, so a row's
    result does not depend on its batch.
    """
    edges, nodes, half, cut = table
    abs_tol, rel_tol = tol
    centre = 0.5 * (edges[:-1] + edges[1:])
    out, owner, val, err = [], [], [], []
    step = max(1, _BLOCK // nodes.size)
    for s in range(0, n, step):
        rows = slice(s, min(s + step, n))
        vals = np.empty((rows.stop - s, nodes.size), dtype=dtype)
        for f, part, mask in itertools.zip_longest(pieces, cut, live):
            if mask is None or np.count_nonzero(mask[rows]) == len(vals):
                vals[:, part] = f((rows, None), nodes[part])
                continue
            hit = np.flatnonzero(mask[rows])
            vals[:, part] = 0.0
            if hit.size:
                vals[hit, part] = f(s + hit[:, None], nodes[part])
        block_val, block_err = _kronrod(
            vals.reshape(len(vals), half.size, _NODES.size), half, centre)
        total = np.cumsum(block_val, axis=1)[:, -1]
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        miss = np.flatnonzero(np.cumsum(block_err, axis=1)[:, -1] > tol)
        if miss.size:
            owner.append(s + miss)
            val.append(block_val[miss])
            err.append(block_err[miss])
        out.append(total)
    out = np.concatenate(out)
    if not owner:
        return out
    # the rows that miss go on, numbered 0..k-1 among themselves
    owner = np.concatenate(owner)
    k, m = owner.size, edges.size - 1
    row = np.repeat(np.arange(k), m)
    lo, hi = np.tile(edges[:-1], k), np.tile(edges[1:], k)
    val, err = np.concatenate(val).ravel(), np.concatenate(err).ravel()
    count = np.full(k, m)
    step = _BLOCK // _NODES.size

    def evaluate(row, lo, hi):
        # a bisected panel lies inside one piece: its centre names it
        parts = []
        for c in range(0, lo.size, step):
            centre = 0.5 * (lo[c:c + step] + hi[c:c + step])
            half = 0.5 * (hi[c:c + step] - lo[c:c + step])
            s = centre[:, None] + half[:, None] * _NODES
            j, piece = owner[row[c:c + step]][:, None], centre.astype(int)
            vals = np.empty(s.shape, dtype=dtype)
            for p, f in enumerate(pieces):
                sel = piece == p
                if sel.any():
                    vals[sel] = f(j[sel], s[sel] - p)
            parts.append(_kronrod(vals, half, centre))
        return tuple(np.concatenate(part) for part in zip(*parts))

    while True:
        total = np.zeros(k, dtype=val.dtype)
        np.add.at(total, row, val)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        open_rows = np.bincount(row, err, k) > tol
        if not open_rows.any():
            out[owner] = total
            return out
        if count[open_rows].max() > _MAX_PANELS:
            raise NonConvergence(
                f"{_MAX_PANELS} subdivisions exhausted on "
                f"{int(open_rows.sum())} of {out.size} integrals")
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
        count += np.bincount(row[split], minlength=k)
        row = np.concatenate([row[keep], new_row])
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])


@dataclass(frozen=True, eq=False)
class PiecewiseCubic:
    """A cubic on each interval [x_k, x_k+1]: at x_k + d its value is
    c[0, k] d^3 + c[1, k] d^2 + c[2, k] d + c[3, k].  It is zero outside
    [x_0, x_n]; a scalar point gives a float."""

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
        return _unbox(np.where((w >= lo) & (w <= hi),
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
    """Integrate a complex-valued ``f`` over [a, b], b possibly +inf.

    ``f`` maps a float array to an array of the same shape.  The range
    is one row and one piece of the bulk kernel, on u in [0, 1): a finite
    range maps as w = a + (b - a) u, and [a, inf) folds through
    w = a + u/(1-u).  The Kronrod-Gauss gauge only sees the integrand at
    its nodes, so the range should end where the integrand's support
    ends: a drop to zero between a panel's outermost node and its edge
    goes unnoticed.  The accuracy is fixed, that of the density table's
    norm: bisection stops once the gauge is within
    max(1e-11, 1e-11 |integral|), with at most 20000 panels.

    Returns the integral estimate; raises :class:`NonConvergence` when the
    subdivision budget runs out, :class:`IntegrandError` on NaN/inf and
    :class:`TypeError` when ``f`` breaks the array contract.
    """
    if not a < b:
        raise ValueError("integration range must satisfy a < b")
    contract = ("the integrand must map a float array to an array of the "
                "same shape")

    def piece(rows, u):
        w = u.ravel()
        if b < np.inf:
            vals = (b - a) * _on_array(f, a + (b - a) * w, contract)
        else:
            one_minus = 1.0 - w
            vals = _on_array(f, a + w / one_minus, contract) / one_minus**2
        return vals.reshape(u.shape)

    # a value that is not finite raises; numpy's warnings would only
    # repeat it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return complex(_composite([piece], _first_pass(1, False), 1,
                                  _INTEGRAL_TOL, complex)[0])


def principal_values(g, a: float, b: float, poles, *,
                     scale: float = 1.0) -> np.ndarray:
    """The Cauchy integrals of g(w) / (z - w) over [a, b], one per z in
    ``poles``: principal values for real z, plain integrals otherwise.

    ``b`` may be +inf.  ``g`` maps a float array of any shape to a real
    array of that shape and must be smooth around every Re z inside the
    support; a jump elsewhere only costs bisection rounds.  Each
    z = x + iy splits [a, b] into three pieces, concatenated into one
    integral per point on shared nodes and refined by bisection where a
    point's Kronrod-Gauss gauge exceeds max(1e-12, 1e-10 |integral|), the
    density table's accuracy, with at most 20000 panels per point:

    - the window [x - r, x + r], r the distance from x to the nearer end
      (r = 0 when x lies at or outside an end), folded onto itself;
    - the rest of the range, on one side of x at distances d from
      ``|min(x - a, b - x)|`` up to the far end;
    - on an infinite range, the distances past
      T = ``|x - a|`` + 4 * ``scale`` in q = T/d, smooth for g decaying like
      1/w or faster (``scale`` is where g varies and only steers the first
      panels).

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
    and the piece goes in d itself.  Real z give real results.  Real and
    off-axis points are two batches of the bulk kernel, so each result is
    that of its single-point call.

    A point with |y| below 2^-1000 of the farthest distance its sinh map
    reaches (the far end, or T on an infinite range), where asinh(d/|y|)
    would overflow, takes its limit on the axis, exact in double
    precision there: the real point's integral less i pi sign(y) g(x)
    inside the support, the plain integral outside it, and the
    divergence rule on an end.

    The first pass is static: each batch kind (on or off the axis, two or
    three pieces) starts from one table of panels in s, four per piece,
    and off the axis the window also splits at v/v_win = 1/16, 1/8, 7/8
    and 15/16, its two ends, where a narrow resonance's integrand varies
    fastest in v.  Each piece's integrand is evaluated once, as one
    (points x nodes) broadcast, and a point with an empty window (r = 0)
    takes zero there without calling g.  So a call costs about the same
    for one point as for a few: its cost is per call, not per point.
    Only points that miss their tolerance go on to bisection, which
    evaluates each new panel with the integrand of its piece.
    """
    z = np.asarray(poles).ravel()
    x, y = np.real(z).astype(float), np.imag(z).astype(float)
    off = y != 0.0
    n_off = np.count_nonzero(off)
    # a value that is not finite raises; numpy's warnings would only
    # repeat it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if n_off in (0, z.size):
            return _cauchy(g, a, b, x, y, n_off > 0, scale)
        out = np.empty(z.shape, dtype=complex)
        for rows, kind in ((off, True), (~off, False)):
            out[rows] = _cauchy(g, a, b, x[rows], y[rows], kind, scale)
    return out


def _cauchy(g, a: float, b: float, x: np.ndarray, y: np.ndarray, off: bool,
            scale: float) -> np.ndarray:
    """The Cauchy integrals of :func:`principal_values` for one batch
    kind: every z = x + iy on the axis, or every one off it."""
    if not x.size:
        return np.empty(0, dtype=complex if off else float)
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
    infinite = b == np.inf
    end = start + 4.0 * scale if infinite else np.maximum(near, far)
    if off:
        ay = np.abs(y)
        rim = ay < 2.0**-1000 * end
        if np.count_nonzero(rim):
            # asinh(end/|y|) would overflow: the limit on the axis
            out = np.empty(x.size, dtype=complex)
            out[~rim] = _cauchy(g, a, b, x[~rim], y[~rim], True, scale)
            out[rim] = _cauchy(g, a, b, x[rim], y[rim], False, scale)
            rim &= (a < x) & (x < b)
            out[rim] -= 1j * np.pi * np.sign(y[rim]) * g(x[rim])
            return out

    # the integrand of each piece in its own coordinate u = s - p in
    # [0, 1): j picks the rows, as a column
    if not off:
        span = np.log(end / start)

        def window(j, u):
            down, up = g(x[j] + _SIDES * (r[j] * u))
            return (down - up) / u

        def one_sided(j, u):
            # an end point (start = 0, g vanishing there) goes in d itself
            linear = start[j] == 0.0
            d = np.where(linear, u * end[j], start[j] * np.exp(u * span[j]))
            rate = np.where(linear, end[j] / d, span[j])
            return -side[j] * rate * g(x[j] + side[j] * d)

        def tail(j, q):
            return -g(x[j] + end[j] / q) / q
    else:
        i_sign = 1j * np.sign(y)
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

        def tail(j, q):
            return -g(x[j] + end[j] / q) / (q - 1j * y[j] * q * q / end[j])

    pieces = [window, one_sided, tail][:2 + infinite]
    # a point with an empty window (r = 0) takes zero there
    return _composite(pieces, _first_pass(len(pieces), off), x.size,
                      _CAUCHY_TOL, complex if off else float, live=[r > 0.0])


_STEP_TOL = 1e-12
_RESIDUAL_TOL = 1e-12
_MAX_STENCILS = 60


def complex_newton(g, start: complex) -> tuple[complex, float, float, int]:
    """Newton iteration for analytic ``g`` from ``start`` with
    central-difference slopes.

    ``g`` maps a complex array to an array of the same shape; each
    iteration is one call on the stencil [z, z + h, z - h], with
    h = 1e-6 * max(1, |z|), so numerically supplied functions (tabulated
    form factors, quadrature-backed maps) work unchanged.  The stencil
    gives g, g' and g'' = (g(z + h) + g(z - h) - 2 g(z)) / h^2.  The step
    is Halley's, s/(1 - b) with s = g/g' and b = s g''/(2 g'), wherever
    |b| < 0.1, which holds near a simple root (b -> 0 there), and Newton's
    s elsewhere; it is Python complex arithmetic.  Converged means the
    step and the residual |g(z)| at the same stencil are both within
    1e-12: the search then returns ``(root, residual, step, stencils)``:
    the corrected point (g is not evaluated there), that residual, |step|
    and the number of stencils, one per iteration and at most 60.
    """
    contract = "g must map a complex array to an array of the same shape"
    z = complex(start)
    for stencils in range(1, _MAX_STENCILS + 1):
        h = 1e-6 * max(1.0, abs(z))
        gz, g_up, g_down = map(complex, _on_array(
            g, np.array([z, z + h, z - h]), contract))
        if not np.isfinite(gz.real) or not np.isfinite(gz.imag):
            raise IntegrandError(f"g({z!r}) is not finite")
        dg = (g_up - g_down) / (2.0 * h)
        if abs(dg) < 1e-300 or not np.isfinite(abs(dg)):
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
