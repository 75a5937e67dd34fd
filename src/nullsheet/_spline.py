"""Cubic interpolating splines in numpy: periodic or not-a-knot ends.

The slopes at the knots solve the usual C2 tridiagonal system (de Boor,
A Practical Guide to Splines, ch. IV) by the Thomas algorithm: its LU
factors are scalars, and both substitutions run over all value columns at
once.  The cyclic system of a periodic spline takes a Sherman-Morrison
correction, whose vector rides along as one more column.  The one evaluator,
``gather``, follows ``scipy.interpolate.CubicSpline``: a periodic spline
wraps points into its period, a not-a-knot spline extends its end cubics.
"""

from __future__ import annotations

import copy

import numpy as np

from .errors import DegenerateDataError


def _scan(a, b):
    """y[0] = b[0], y[i] = b[i] + a[i] y[i-1], by recursive doubling.

    ``a`` is (n,), ``b`` is (n, k); log2(n) array passes instead of n row steps.
    """
    a, y = a[:, None].copy(), np.array(b, dtype=float)
    step = 1
    while step < len(y):
        y[step:] += a[step:] * y[:-step]
        a[step:] *= a[:-step]
        step *= 2
    return y


def _thomas(lower, diag, upper, rhs):
    """Solve the tridiagonal system with rows lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1].

    ``rhs`` is (n, k); lower[0] and upper[-1] are not read.  The LU factors
    are scalars; both substitutions run over all columns at once.
    """
    lower, diag, upper = lower.tolist(), diag.tolist(), upper.tolist()
    n = len(diag)
    # row i loses w[i] times row i-1 and is left with pivot den[i]
    w, den = [0.0] * n, [diag[0]] * n
    for i in range(1, n):
        w[i] = lower[i] / den[i - 1]
        den[i] = diag[i] - w[i] * upper[i - 1]
    den = np.array(den)
    y = _scan(-np.array(w), rhs) / den[:, None]
    return _scan((-np.array(upper) / den)[::-1], y[::-1])[::-1]


def _slopes_not_a_knot(h, m):
    """Knot slopes with a continuous third derivative at the second and second-last knots."""
    hr = h[:, None]
    lower = np.concatenate([[0.0], h[1:], [h[-1] + h[-2]]])
    diag = np.concatenate([[h[1]], 2.0 * (h[:-1] + h[1:]), [h[-2]]])
    upper = np.concatenate([[h[0] + h[1]], h[:-1], [0.0]])
    d0, d1 = h[0] + h[1], h[-1] + h[-2]
    rhs = np.vstack([
        ((hr[0] + 2.0 * d0) * hr[1] * m[0] + hr[0] ** 2 * m[1]) / d0,
        3.0 * (hr[1:] * m[:-1] + hr[:-1] * m[1:]),
        (hr[-1] ** 2 * m[-2] + (2.0 * d1 + hr[-1]) * hr[-2] * m[-1]) / d1,
    ])
    return _thomas(lower, diag, upper, rhs)


def _slopes_periodic(h, m):
    """Knot slopes of the periodic spline; the last knot repeats the first."""
    hp = np.roll(h, 1)  # h[i-1], cyclically
    rhs = 3.0 * (h[:, None] * np.roll(m, 1, axis=0) + hp[:, None] * m)
    # the cyclic matrix is T + u v^T with T tridiagonal,
    # u = (g, 0, .., hp[-1]) and v = (1, 0, .., h[0] / g)
    diag = 2.0 * (hp + h)
    g = -diag[0]
    u = np.zeros((len(h), 1))
    u[0], u[-1] = g, hp[-1]
    diag[0] -= g
    diag[-1] -= hp[-1] * h[0] / g
    x = _thomas(h, diag, hp, np.hstack([rhs, u]))  # T^-1 [rhs | u]
    v_x = x[0] + h[0] / g * x[-1]
    s = x[:, :-1] - x[:, -1:] * (v_x[:-1] / (1.0 + v_x[-1]))
    return np.vstack([s, s[:1]])


class CubicSpline:
    """C2 cubic spline through (x[i], y[i]); y is (n,) or (n, k), n >= 4.

    ``periodic=True`` needs y[-1] == y[0]; otherwise the ends are not-a-knot.
    A call takes a scalar or an array and returns x.shape + y.shape[1:].
    """

    def __init__(self, x, y, periodic: bool = False):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(x) < 4 or len(y) != len(x):
            raise ValueError(f"need at least 4 knots and one value per knot, got {len(x)}")
        yy = y.reshape(len(x), -1)
        self.x, self.periodic, self._shape = x, periodic, y.shape[1:]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            h = np.diff(x)
            m = np.diff(yy, axis=0) / h[:, None]
            s = (_slopes_periodic if periodic else _slopes_not_a_knot)(h, m)
            hr = h[:, None]
            t = (s[:-1] + s[1:] - 2.0 * m) / hr
            # coeffs[j, col, i]: the (x - x[i])^(3-j) coefficient on interval i; the
            # interval axis is last, so (col, i) is flat index col * (n - 1) + i
            coeffs = np.stack([t / hr, (m - s[:-1]) / hr - t, s[:-1], yy[:-1]])
        self.coeffs = self._finite(np.ascontiguousarray(coeffs.transpose(0, 2, 1)))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = self.gather(x.ravel(), np.zeros(x.size, dtype=np.intp), self.coeffs.shape[1])
        return out.reshape(x.shape + self._shape)

    def gather(self, z, slot, width: int) -> np.ndarray:
        """(len(z), width): each point z[j] on its own block slot[j] of ``width`` columns."""
        knots = self.x
        if self.periodic:
            z = knots[0] + (z - knots[0]) % (knots[-1] - knots[0])
        # interval of each point; the end intervals extend outwards
        i = np.searchsorted(knots[1:-1], z, side="right")
        # c[j, point, column of its block] in one flat take of coeffs[j, column, interval]
        n = len(knots) - 1
        flat = (slot * (width * n) + i)[:, None] + np.arange(0, width * n, n)
        c = self.coeffs.reshape(len(self.coeffs), -1).take(flat, axis=1)
        z = (z - knots.take(i))[:, None]
        out = c[0]
        for cj in c[1:]:
            out = out * z + cj
        return out

    def derivative(self) -> CubicSpline:
        """The derivative as a piecewise polynomial of one degree less."""
        deg = len(self.coeffs) - 1
        new = copy.copy(self)
        with np.errstate(over="ignore"):
            new.coeffs = self._finite(self.coeffs[:-1] * np.arange(deg, 0, -1)[:, None, None])
        return new

    def _finite(self, coeffs: np.ndarray) -> np.ndarray:
        """``coeffs``, unless knots too far apart or too close overflowed them."""
        if not np.isfinite(coeffs).all():
            lo, hi = float(self.x[0]), float(self.x[-1])
            raise DegenerateDataError(f"cubic spline on [{lo!r}, {hi!r}] overflows the float range")
        return coeffs
