"""Initial curves (phi, psi) and their constraint checks.

An initial curve supplies the position phi(vartheta) and velocity
psi(vartheta) of every surface point at t = 0.  Admissible data must be
light-like, delta(0, vartheta) = 0, and must generate a non-breaking
characteristic field, Lambda'(vartheta) >= 0.
``lightlikeness_residual`` and ``lambda0`` take a scalar or an array of vartheta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._spline import CubicSpline
from .errors import DegenerateDataError, ExpressionError
from .expressions import CurveExpression
from .spacetime import InducedMetric, Spacetime, induced_metric

EPS_DELTA = 1e-9
EPS_MONO = 1e-10
EPS_G11 = 1e-12

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class InitialCurve:
    """Sampled or closed-form initial position/velocity over vartheta.

    ``phi``, ``psi`` and ``phi_prime`` map a scalar vartheta to a length-dim
    coordinate vector, and a 1-D array of N values to (N, dim) rows.
    Periodic curves must agree at both domain endpoints (angular coordinates
    may differ by an exact multiple of 2*pi).
    """

    phi: Callable[[float], np.ndarray]
    psi: Callable[[float], np.ndarray]
    phi_prime: Callable[[float], np.ndarray]
    theta_min: float
    theta_max: float
    periodic: bool = False
    dim: int = 4

    def __post_init__(self):
        if not self.theta_max > self.theta_min:
            raise ValueError("empty vartheta domain")
        if self.periodic:
            ends = np.array([self.theta_min, self.theta_max])
            (lo_phi, hi_phi), (lo_psi, hi_psi) = self.phi(ends), self.psi(ends)
            # two infinite endpoints differ by nan, which this check lets
            # through to the checks on the data
            with np.errstate(invalid="ignore"):
                gap = np.abs(hi_phi - lo_phi)
                # allow exact 2*pi winding in angular coordinates
                winding = np.abs(gap - _TWO_PI * np.round(gap / _TWO_PI))
                if np.any(np.minimum(gap, winding) > 1e-12):
                    raise ValueError("periodic curve: phi endpoints do not match")
                if np.any(np.abs(hi_psi - lo_psi) > 1e-12):
                    raise ValueError("periodic curve: psi endpoints do not match")

    @property
    def period(self) -> float:
        return self.theta_max - self.theta_min

    def grid(self, n: int) -> np.ndarray:
        """Uniform vartheta samples; periodic curves omit the duplicate endpoint."""
        if self.periodic:
            return self.theta_min + self.period * (np.arange(n) / n)
        return np.linspace(self.theta_min, self.theta_max, n)


def _rows(components):
    """A curve callable of ``InitialCurve``, from one entry per component.

    An entry is a float, or a function of an array of vartheta, which
    evaluates it once over all the points.
    """

    def at(vartheta) -> np.ndarray:
        points = np.ravel(vartheta)
        out = np.empty((len(points), len(components)))
        for k, c in enumerate(components):
            out[:, k] = c(points) if callable(c) else c
        return out if np.ndim(vartheta) else out[0]

    return at


def curve_from_expressions(
    phi_exprs: Sequence[str],
    psi_exprs: Sequence[str],
    theta_range: tuple[float, float],
    periodic: bool = False,
) -> InitialCurve:
    """Build a curve from 4 position and 4 velocity expressions in vartheta."""
    if len(phi_exprs) != len(psi_exprs):
        raise ExpressionError("phi and psi must have the same number of components")
    phi_c = [CurveExpression(s) for s in phi_exprs]
    psi_c = [CurveExpression(s) for s in psi_exprs]
    return InitialCurve(
        phi=_rows(phi_c),
        psi=_rows(psi_c),
        phi_prime=_rows([c.deriv for c in phi_c]),
        theta_min=float(theta_range[0]),
        theta_max=float(theta_range[1]),
        periodic=periodic,
        dim=len(phi_c),
    )


def _central_diff_4th(values: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    """4th-order first derivative along axis 0 on a uniform grid."""
    out = np.empty_like(values)
    if periodic:
        vm2, vm1 = np.roll(values, 2, axis=0), np.roll(values, 1, axis=0)
        vp1, vp2 = np.roll(values, -1, axis=0), np.roll(values, -2, axis=0)
        return (vm2 - 8 * vm1 + 8 * vp1 - vp2) / (12 * h)
    out[2:-2] = (
        values[:-4] - 8 * values[1:-3] + 8 * values[3:-1] - values[4:]
    ) / (12 * h)
    # 4th-order one-sided / offset stencils at the boundary rows
    out[0] = (-25 * values[0] + 48 * values[1] - 36 * values[2]
              + 16 * values[3] - 3 * values[4]) / (12 * h)
    out[1] = (-3 * values[0] - 10 * values[1] + 18 * values[2]
              - 6 * values[3] + values[4]) / (12 * h)
    out[-2] = (3 * values[-1] + 10 * values[-2] - 18 * values[-3]
               + 6 * values[-4] - values[-5]) / (12 * h)
    out[-1] = (25 * values[-1] - 48 * values[-2] + 36 * values[-3]
               - 16 * values[-4] + 3 * values[-5]) / (12 * h)
    return out


def curve_from_samples(
    thetas: np.ndarray,
    phi_samples: np.ndarray,
    psi_samples: np.ndarray,
    periodic: bool = False,
) -> InitialCurve:
    """Cubic-spline curve through uniformly sampled (phi, psi) arrays.

    phi_samples/psi_samples have shape (n, dim).  phi' is built from
    4th-order central differences of the samples, then splined.
    """
    thetas = np.asarray(thetas, dtype=float)
    phi_samples = np.asarray(phi_samples, dtype=float)
    psi_samples = np.asarray(psi_samples, dtype=float)
    if phi_samples.ndim != 2:
        raise ValueError("phi_samples must be (n, dim)")
    n, dim = phi_samples.shape
    if n < 5:
        raise ValueError("need at least 5 samples")
    if not all(np.isfinite(a).all() for a in (thetas, phi_samples, psi_samples)):
        raise ValueError("samples must be finite")
    h = thetas[1] - thetas[0]
    if not np.allclose(np.diff(thetas), h, rtol=0, atol=1e-12 * max(1.0, abs(h))):
        raise ValueError("samples must be uniform in vartheta")

    trend = np.zeros(dim)
    if periodic:
        # angular coordinates may wind by 2*pi*k over one period; spline the
        # de-trended (strictly periodic) part and restore the linear trend
        gap = phi_samples[-1] - phi_samples[0]
        winding = _TWO_PI * np.round(gap / _TWO_PI)
        if np.any(np.abs(gap - winding) > 1e-9):
            raise ValueError(
                "periodic samples must match at the endpoints "
                "(up to 2*pi windings)"
            )
        if np.any(np.abs(psi_samples[-1] - psi_samples[0]) > 1e-9):
            raise ValueError("periodic psi samples must match at the endpoints")
        trend = winding / (thetas[-1] - thetas[0])
        phi_samples = phi_samples - np.outer(thetas - thetas[0], trend)
        psi_samples = psi_samples.copy()
        phi_samples[-1], psi_samples[-1] = phi_samples[0], psi_samples[0]
        dphi = _central_diff_4th(phi_samples[:-1], h, periodic=True) + trend
        dphi = np.vstack([dphi, dphi[:1]])
    else:
        dphi = _central_diff_4th(phi_samples, h, periodic=False)

    # one spline carries the columns phi | psi | phi'
    spline = CubicSpline(thetas, np.hstack([phi_samples, psi_samples, dphi]), periodic=periodic)
    theta0 = float(thetas[0])
    return InitialCurve(
        phi=lambda v: spline(v)[..., :dim] + np.multiply.outer(v - theta0, trend),
        psi=lambda v: spline(v)[..., dim : 2 * dim],
        phi_prime=lambda v: spline(v)[..., 2 * dim :],
        theta_min=theta0,
        theta_max=float(thetas[-1]),
        periodic=periodic,
        dim=dim,
    )


def _forms(curve: InitialCurve, spacetime: Spacetime, vartheta) -> InducedMetric:
    """Induced metric at vartheta, a scalar or an array, from one metric call on all rows."""
    points, shape = np.ravel(vartheta), np.shape(vartheta)
    ind = induced_metric(spacetime, curve.phi(points), curve.psi(points), curve.phi_prime(points))
    return InducedMetric(*(np.reshape(c, shape)[()] for c in vars(ind).values()))


def lightlikeness_residual(curve: InitialCurve, spacetime: Spacetime, vartheta):
    """delta(0, vartheta) of the data, zero if admissible, at a scalar or an array."""
    return _forms(curve, spacetime, vartheta).delta


def _lambda(ind: InducedMetric, vartheta):
    """Lambda = -g01/g11 from the induced metric at vartheta, finite or raised."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lam = -ind.g01 / ind.g11
    degenerate = ~(np.abs(ind.g11) > EPS_G11)  # nan is degenerate too
    bad = degenerate | ~np.isfinite(lam)
    if np.any(bad):
        v, g11, lam, degenerate = (
            x[bad][0].item() for x in np.broadcast_arrays(vartheta, ind.g11, lam, degenerate)
        )
        why = f"|g11| = {abs(g11)!r}" if degenerate else f"-g01/g11 = {lam!r} is not finite"
        raise DegenerateDataError(f"Lambda undefined at vartheta = {v!r}: {why}")
    return lam


def lambda0(curve: InitialCurve, spacetime: Spacetime, vartheta):
    """Initial Burgers field Lambda(vartheta) = -g01/g11, at a scalar or an array."""
    return _lambda(_forms(curve, spacetime, vartheta), vartheta)


@dataclass(frozen=True)
class ValidationReport:
    """Light-likeness and monotonicity of an initial curve over a vartheta grid.

    ``min_slope`` is the least difference quotient of Lambda between
    neighbouring samples and ``first_violation`` the first interval whose
    quotient falls below -EPS_MONO.  A nan fails every verdict.
    """

    max_abs_delta: float
    argmax_delta: float
    min_slope: float
    first_violation: tuple[float, float] | None

    @property
    def lightlike(self) -> bool:
        return self.max_abs_delta <= EPS_DELTA

    @property
    def monotone(self) -> bool:
        return self.min_slope >= -EPS_MONO

    @property
    def passed(self) -> bool:
        return self.lightlike and self.monotone


def validate_curve(
    curve: InitialCurve,
    spacetime: Spacetime,
    n_samples: int = 201,
) -> ValidationReport:
    """delta(0, vartheta) and Lambda' >= 0 on ``curve.grid(n_samples)``, from one evaluation."""
    grid = curve.grid(n_samples)
    ind = _forms(curve, spacetime, grid)
    deltas = np.abs(ind.delta)
    # a narrow enough range overflows a quotient, or repeats a sample
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        slopes = np.diff(_lambda(ind, grid)) / np.diff(grid)
    failing = ~(slopes >= -EPS_MONO)
    i = int(np.argmax(failing))
    return ValidationReport(
        max_abs_delta=float(deltas.max()),
        argmax_delta=float(grid[np.argmax(deltas)]),
        min_slope=float(slopes.min()),
        first_violation=(float(grid[i]), float(grid[i + 1])) if failing[i] else None,
    )
