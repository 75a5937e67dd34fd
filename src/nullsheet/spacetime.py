"""Ambient Lorentzian metrics: components, connection coefficients, induced metrics.

The package works in geometric units (G = c = 1).  The Schwarzschild chart
uses coordinates (tau, r, alpha, beta) with indices 0..3, line element

    ds^2 = -(1 - 2m/r) dtau^2 + (1 - 2m/r)^(-1) dr^2
           + r^2 (dalpha^2 + sin(alpha)^2 dbeta^2),

valid outside the horizon r > 2m.  Its geodesics are stepped in ingoing
Eddington-Finkelstein time v = tau + r + 2m ln(r/2m - 1) (Misner, Thorne &
Wheeler, Gravitation, 31.4), in which the line element

    ds^2 = -(1 - 2m/r) dv^2 + 2 dv dr + r^2 (dalpha^2 + sin(alpha)^2 dbeta^2)

and the geodesic acceleration are regular at r = 2m.  A surface x(t, theta)
embedded in the ambient spacetime carries the induced metric
g_ab = g~(x_a, x_b); its
degeneracy indicator is delta = g01^2 - g00*g11 (zero on light-like
surfaces, positive on time-like ones, negative on space-like ones).

The connection Gamma^mu_{nu rho} is derived from ``metric_at`` alone
(``christoffel_from_metric``), by the complex-step derivative, so every
``metric_at`` must accept complex points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError

# Horizon margin for chart validity: (1 - 2m/r)^(-1) blows up at r = 2m.
HORIZON_MARGIN = 1e-10


@dataclass(frozen=True)
class SchwarzschildParams:
    """Mass of the central body, geometric units (carries length units)."""

    m: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and self.m > 0):
            raise ValueError(f"mass must be finite and positive, got {self.m}")


@dataclass(frozen=True)
class InducedMetric:
    """Components of the metric induced on a 2-surface by tangents (x_t, x_theta).

    Each component is a float for one tangent pair, an array for rows of them.
    """

    g00: float | np.ndarray
    g01: float | np.ndarray
    g11: float | np.ndarray
    delta: float | np.ndarray

    @classmethod
    def from_components(cls, g00, g01, g11) -> "InducedMetric":
        return cls(g00=g00, g01=g01, g11=g11, delta=g01 * g01 - g00 * g11)


@dataclass(frozen=True)
class StepChart:
    """A second chart, regular where ``metric_at``'s is not, that geodesics are stepped in.

    ``into`` maps rows [y, v] (..., 2*dim) of the spacetime's own chart into
    it and ``back`` maps its rows back; each returns new rows, v mapped as a
    tangent at y.
    """

    into: Callable[[np.ndarray], np.ndarray]
    back: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Spacetime:
    """An ambient metric: its components and its geodesic acceleration.

    ``metric_at`` returns the symmetric dim x dim matrix of components at a
    point, or a stack of them (..., dim, dim) for rows of points (..., dim);
    a metric that does not depend on the point may return one matrix for all.
    It is also the chart: it raises DomainError at a real point outside it.
    It must accept complex points and carry their imaginary parts through
    its arithmetic: ``christoffel_from_metric`` derives the connection from
    it by the complex step.
    ``acceleration_at(y, v, out)`` is the closed-form geodesic acceleration
    -Gamma^mu_{nu rho} v^nu v^rho, row by row, in the chart the integrator
    steps in: ``step_chart``'s if there is one, else ``metric_at``'s.  The
    integrator calls it once per stage with the positions y and velocities
    v of all the characteristics it advances and ``out``, (N, dim) float
    arrays that are strided views into its stage buffer; it writes the rows
    into ``out`` and returns ``out``.  It does not raise for a row outside
    its chart: it fills the row with nan, and the integrator rejects only
    that row's step.  Each row's result depends on that row alone, with the
    bits a call on that row by itself gives.  It must agree with the
    contraction of ``christoffel_from_metric`` of the metric in that chart,
    against which the tests check it.
    """

    name: str
    dim: int
    metric_at: Callable[[np.ndarray], np.ndarray]
    acceleration_at: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    meta: Mapping[str, float] = field(default_factory=dict)
    step_chart: StepChart | None = None


def _diagonal(*entries) -> np.ndarray:
    """Diagonal metrics (..., n, n), of the entries' dtype, from n entries broadcast over rows."""
    entries = np.broadcast_arrays(*entries)
    n = len(entries)
    g = np.zeros(entries[0].shape + (n, n), dtype=np.result_type(*entries))
    for k, entry in enumerate(entries):
        g[..., k, k] = entry
    return g


# constants of the accelerations as 0-d arrays: numpy takes them as they
# are, where it would convert a Python float on every call
_TWO, _NEG_TWO = np.array(2.0), np.array(-2.0)


def _angular(out, r, v1, v2, v3, sin_a, cos_a) -> None:
    """alpha'' and beta'' of the spherical charts into ``out`` (N, 2).

    beta'' takes its 2 cot(alpha) v2 v3 term only on rows whose beta and
    alpha motions are both active, where its pole matters.
    """
    neg2_r_v1 = _NEG_TWO / r * v1
    np.add(neg2_r_v1 * v2, sin_a * cos_a * v3 * v3, out[:, 0])
    a3 = np.multiply(neg2_r_v1, v3, out[:, 1])
    if np.count_nonzero(v3):
        spin = (v2 != 0.0) & (v3 != 0.0)
        if np.count_nonzero(spin):
            np.copyto(a3, a3 - _TWO * cos_a / sin_a * v2 * v3, where=spin)


def _eddington_finkelstein(m: float) -> StepChart:
    """Ingoing Eddington-Finkelstein time v for Schwarzschild's rows [tau, r, alpha, beta, ...].

    v = tau + r + 2m ln(r/2m - 1) and v' = tau' + r'/f, f = 1 - 2m/r, and
    back tau = v - r - 2m ln(r/2m - 1), tau' = v' - r'/f.  The chart holds
    for r > 0; a point at or inside r = 2m has no tau, and maps back to a
    tau of nan or inf.
    """
    two_m = np.array(2.0 * m)

    def shifts(w):
        """r + 2m ln(r/2m - 1) and r'/f; r - 2m is exact near the horizon."""
        r, r_t = w[..., 1], w[..., 5]
        rm = r - two_m
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return r + two_m * np.log(rm / two_m), r_t * r / rm

    def into(w):
        w = np.array(w, dtype=float)
        tortoise, r_t_f = shifts(w)
        w[..., 0] += tortoise
        w[..., 4] += r_t_f
        return w

    def back(w):
        w = np.array(w, dtype=float)
        tortoise, r_t_f = shifts(w)
        w[..., 0] -= tortoise
        w[..., 4] -= r_t_f
        return w

    return StepChart(into=into, back=back)


def schwarzschild(params: SchwarzschildParams) -> Spacetime:
    """Schwarzschild exterior in (tau, r, alpha, beta), stepped in (v, r, alpha, beta)."""
    m = float(params.m)
    r_min = 2.0 * m * (1.0 + HORIZON_MARGIN)
    m_, two_m = np.array(m), np.array(2.0 * m)

    def metric(x):
        r, alpha = x[..., 1], x[..., 2]
        if not np.all(r >= r_min):
            bad = float(np.min(r))
            raise DomainError(f"schwarzschild: r = {bad!r} violates r > 2m")
        f = 1.0 - 2.0 * m / r
        return _diagonal(-f, 1.0 / f, r * r, r * r * np.sin(alpha) ** 2)

    # in Eddington-Finkelstein rows [v, r, alpha, beta]: no term has a pole
    # at r = 2m; a zero divisor occurs only on rows flagged below, or in the
    # cot term of rows that drop it (errstate as a decorator costs half the
    # block)
    @np.errstate(divide="ignore", invalid="ignore")
    def acceleration(y, v, out):
        r, alpha = y[:, 1], y[:, 2]
        # columns by index: unpacking v.T makes the same views at twice the cost
        v0, v1, v2, v3 = v[:, 0], v[:, 1], v[:, 2], v[:, 3]
        sin_a, cos_a = np.sin(alpha), np.cos(alpha)
        m_r2 = m_ / (r * r)
        # v'' = -(m/r^2) v'^2 + r (alpha'^2 + sin^2 alpha beta'^2)
        a0 = np.subtract(r * (v2 * v2 + sin_a * sin_a * v3 * v3), m_r2 * v0 * v0, out[:, 0])
        # r'' = f v'' + (2m/r^2) r' v'
        np.add((r - two_m) / r * a0, _TWO * m_r2 * v1 * v0, out[:, 1])
        _angular(out[:, 2:], r, v1, v2, v3, sin_a, cos_a)
        # rows outside the chart; a nan r makes its row nan by itself
        if np.count_nonzero(outside := r <= 0.0):
            out[outside] = np.nan
        return out

    return Spacetime(
        name="schwarzschild",
        dim=4,
        metric_at=metric,
        acceleration_at=acceleration,
        meta={"mass": m, "spherical": True},
        step_chart=_eddington_finkelstein(m),
    )


def minkowski(dim: int = 4) -> Spacetime:
    """Flat spacetime in Cartesian coordinates; all connections vanish."""
    eta = np.diag([-1.0] + [1.0] * (dim - 1))

    def acceleration(y, v, out):
        out[...] = 0.0
        return out

    return Spacetime(
        name="minkowski",
        dim=dim,
        metric_at=lambda x: eta.copy(),
        acceleration_at=acceleration,
        meta={},
    )


def minkowski_spherical() -> Spacetime:
    """Flat spacetime in spherical coordinates (tau, r, alpha, beta); m -> 0 limit."""

    def metric(x):
        r, alpha = x[..., 1], x[..., 2]
        if not np.all(r > 0):
            bad = float(np.min(r))
            raise DomainError(f"minkowski_spherical: r = {bad!r} must be positive")
        return _diagonal(-1.0, 1.0, r * r, (r * np.sin(alpha)) ** 2)

    @np.errstate(divide="ignore", invalid="ignore")  # as in schwarzschild
    def acceleration(y, v, out):
        r, alpha = y[:, 1], y[:, 2]
        v1, v2, v3 = v[:, 1], v[:, 2], v[:, 3]
        sin_a, cos_a = np.sin(alpha), np.cos(alpha)
        out[:, 0] = 0.0
        np.add(r * v2 * v2, r * sin_a * sin_a * v3 * v3, out[:, 1])
        _angular(out[:, 2:], r, v1, v2, v3, sin_a, cos_a)
        if np.count_nonzero(outside := r <= 0.0):
            out[outside] = np.nan
        return out

    return Spacetime(
        name="minkowski_spherical",
        dim=4,
        metric_at=metric,
        acceleration_at=acceleration,
        meta={"spherical": True},
    )


# Complex step h: Im g(x + i h e_s) / h is d_s g to rounding for any h this
# far below the coordinates' scale, since no two nearby values are subtracted.
_COMPLEX_STEP = 1e-30


def christoffel_from_metric(spacetime: Spacetime, x: np.ndarray) -> np.ndarray:
    """Connection coefficients Gamma[mu, nu, rho] at x, from ``metric_at`` alone.

    The metric's first derivatives come from one ``metric_at`` call on the
    points x + i h e_s, d_s g = Im g(x + i h e_s) / h with h = 1e-30 (Squire
    & Trapp, SIAM Review 40 (1998) 110-112): exact to rounding, with no step
    size to tune.  Raises DomainError outside the chart and where the metric
    is singular, e.g. on the axis of a spherical chart.
    """
    x = np.asarray(x, dtype=float)
    # the chart check runs on the real point, where the metric's message
    # reads a real r
    spacetime.metric_at(x)
    dim = spacetime.dim
    # row s is g(x + i h e_s); a metric independent of the point gives one matrix
    stack = np.broadcast_to(
        spacetime.metric_at(x + 1j * _COMPLEX_STEP * np.eye(dim)), (dim, dim, dim)
    )
    dg = np.imag(stack) / _COMPLEX_STEP  # dg[s, n, r] = d g_{nr} / d x^s
    try:
        g_inv = np.linalg.inv(np.real(stack[0]))
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"{spacetime.name}: metric is singular at {x.tolist()!r}") from exc

    # Gamma^mu_{nu rho} = 1/2 g^{mu s} (d_nu g_{s rho} + d_rho g_{s nu} - d_s g_{nu rho})
    brackets = np.einsum("nsr->snr", dg) + np.einsum("rsn->snr", dg) - dg
    return 0.5 * np.einsum("ms,snr->mnr", g_inv, brackets)


def induced_metric(
    spacetime: Spacetime, x: np.ndarray, xt: np.ndarray, xtheta: np.ndarray
) -> InducedMetric:
    """Pullback metric components for the tangent pair (x_t, x_theta).

    ``x``, ``xt`` and ``xtheta`` are one point and its tangents (dim,) or
    rows of them (..., dim); the components come back with shape (...).
    """
    # each tangent as a (..., 1, dim) row; u @ g @ v^T keeps the summation
    # order of the plain vector product, row by row.  The rows are copied
    # C-contiguous: numpy's stacked matmul takes another kernel on strided
    # rows, whose bits differ.
    xt = np.ascontiguousarray(xt, dtype=float)[..., None, :]
    xth = np.ascontiguousarray(xtheta, dtype=float)[..., None, :]
    # data out of floating-point range gives inf or nan components, which
    # the callers' checks reject
    with np.errstate(over="ignore", invalid="ignore"):
        g = spacetime.metric_at(np.asarray(x, dtype=float))

        def form(u, v):
            return (u @ g @ np.swapaxes(v, -1, -2))[..., 0, 0]

        return InducedMetric.from_components(form(xt, xt), form(xt, xth), form(xth, xth))
