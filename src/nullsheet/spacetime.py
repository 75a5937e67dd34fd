"""Ambient Lorentzian metrics: components, connection coefficients, induced metrics.

The package works in geometric units (G = c = 1).  The Schwarzschild chart
uses coordinates (tau, r, alpha, beta) with indices 0..3, line element

    ds^2 = -(1 - 2m/r) dtau^2 + (1 - 2m/r)^(-1) dr^2
           + r^2 (dalpha^2 + sin(alpha)^2 dbeta^2),

valid outside the horizon r > 2m.  A surface x(t, theta) embedded in the
ambient spacetime carries the induced metric g_ab = g~(x_a, x_b); its
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
class Spacetime:
    """An ambient metric: its components and its geodesic acceleration.

    ``metric_at`` returns the symmetric dim x dim matrix of components at a
    point, or a stack of them (..., dim, dim) for rows of points (..., dim);
    a metric that does not depend on the point may return one matrix for all.
    It is also the chart: it raises DomainError at a real point outside it.
    It must accept complex points and carry their imaginary parts through
    its arithmetic: ``christoffel_from_metric`` derives the connection from
    it by the complex step.
    ``acceleration_at`` is the closed-form geodesic acceleration
    -Gamma^mu_{nu rho} v^nu v^rho, row by row.  The integrator calls it once
    per stage with the positions y and velocities v of all the
    characteristics it advances, as (N, dim) float arrays, and it returns a
    new (N, dim) float array.  It does not raise for a row outside its
    chart: it flags the row by filling it with nan, and the integrator
    rejects only that row's step.  Each row's result depends on that row
    alone, with the bits a call on that row by itself gives.
    It must agree with the contraction of ``christoffel_from_metric``,
    against which the tests check it.
    """

    name: str
    dim: int
    metric_at: Callable[[np.ndarray], np.ndarray]
    acceleration_at: Callable[[np.ndarray, np.ndarray], np.ndarray]
    meta: Mapping[str, float] = field(default_factory=dict)


def _diagonal(*entries) -> np.ndarray:
    """Diagonal metrics (..., n, n), of the entries' dtype, from n entries broadcast over rows."""
    entries = np.broadcast_arrays(*entries)
    n = len(entries)
    g = np.zeros(entries[0].shape + (n, n), dtype=np.result_type(*entries))
    for k, entry in enumerate(entries):
        g[..., k, k] = entry
    return g


def _azimuthal(a3, sin_a, cos_a, v2, v3):
    """beta'' of the spherical charts: a3 = -2/r v1 v3, less 2 cot(alpha) v2 v3.

    The cot(alpha) term is taken only on rows whose beta and alpha motions
    are both active, where its pole matters; elsewhere it is dropped.
    """
    spin = (v2 != 0.0) & (v3 != 0.0)
    if np.count_nonzero(spin):
        a3 = np.where(spin, a3 - 2.0 * cos_a / sin_a * v2 * v3, a3)
    return a3


def schwarzschild(params: SchwarzschildParams) -> Spacetime:
    """Schwarzschild exterior in (tau, r, alpha, beta) coordinates."""
    m = float(params.m)
    r_min = 2.0 * m * (1.0 + HORIZON_MARGIN)

    def metric(x):
        r, alpha = x[..., 1], x[..., 2]
        if not np.all(r >= r_min):
            bad = float(np.min(r))
            raise DomainError(f"schwarzschild: r = {bad!r} violates r > 2m")
        f = 1.0 - 2.0 * m / r
        return _diagonal(-f, 1.0 / f, r * r, r * r * np.sin(alpha) ** 2)

    def acceleration(y, v):
        r, alpha = y[:, 1], y[:, 2]
        v0, v1, v2, v3 = v.T
        sin_a, cos_a = np.sin(alpha), np.cos(alpha)
        # a zero divisor occurs only on rows flagged below, or in the cot
        # term of rows that drop it
        with np.errstate(divide="ignore", invalid="ignore"):
            rm = r - 2.0 * m
            r_rm, neg2_r = r * rm, -2.0 / r
            a = np.array([
                -2.0 * m / r_rm * v0 * v1,
                rm * sin_a * sin_a * v3 * v3
                + rm * v2 * v2
                + m / r_rm * v1 * v1
                - m * rm / np.float_power(r, 3.0) * v0 * v0,
                neg2_r * v1 * v2 + sin_a * cos_a * v3 * v3,
                _azimuthal(neg2_r * v1 * v3, sin_a, cos_a, v2, v3),
            ]).T
        a[~(r >= r_min)] = np.nan
        return a

    return Spacetime(
        name="schwarzschild",
        dim=4,
        metric_at=metric,
        acceleration_at=acceleration,
        meta={"mass": m, "spherical": True},
    )


def minkowski(dim: int = 4) -> Spacetime:
    """Flat spacetime in Cartesian coordinates; all connections vanish."""
    eta = np.diag([-1.0] + [1.0] * (dim - 1))

    return Spacetime(
        name="minkowski",
        dim=dim,
        metric_at=lambda x: eta.copy(),
        acceleration_at=lambda y, v: np.zeros(np.shape(v)),
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

    def acceleration(y, v):
        r, alpha = y[:, 1], y[:, 2]
        _, v1, v2, v3 = v.T
        sin_a, cos_a = np.sin(alpha), np.cos(alpha)
        with np.errstate(divide="ignore", invalid="ignore"):  # as in schwarzschild
            neg2_r = -2.0 / r
            a = np.array([
                np.zeros_like(r),
                r * v2 * v2 + r * sin_a * sin_a * v3 * v3,
                neg2_r * v1 * v2 + sin_a * cos_a * v3 * v3,
                _azimuthal(neg2_r * v1 * v3, sin_a, cos_a, v2, v3),
            ]).T
        a[~(r > 0.0)] = np.nan
        return a

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
