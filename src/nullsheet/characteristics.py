"""Burgers characteristic transform: forward map, monotone inverse, Jacobian.

The surface parameter change theta = vartheta + Lambda(vartheta) t freezes
the transport field lambda(t, theta) along straight characteristics.  When
Lambda' >= 0 the map is a diffeomorphism for all t >= 0 and the inverse
vartheta(t, theta) is found by safeguarded Newton inside a monotone bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._spline import CubicSpline
from .errors import MapBreakdownError, MapInversionError
from .initial_data import InitialCurve, lambda0
from .spacetime import Spacetime


_N_LAMBDA = 513  # samples of Lambda behind the map's spline


def _residual_tol(theta):
    return 1e-12 * (1.0 + np.abs(theta))  # invert promises |forward - theta| <= this


def _first(mask, *arrays) -> list[float]:
    """Each array's element at the first True of ``mask``, as a float; the arrays broadcast."""
    *arrays, mask = np.broadcast_arrays(*arrays, mask)
    return [float(a[mask][0]) for a in arrays]


@dataclass(frozen=True)
class CharacteristicMap:
    """The solved initial field Lambda with its derivative and domain.

    Lambda, Lambda' and the methods below take vartheta or theta as a scalar
    or as an array; a scalar runs through the same code as a 0-d array.
    """

    lambda_fn: Callable
    lambda_prime_fn: Callable
    theta_min: float
    theta_max: float
    periodic: bool = False

    @property
    def period(self) -> float:
        return self.theta_max - self.theta_min

    def forward(self, vartheta, t: float):
        """theta reached at time t by the characteristic from vartheta."""
        return vartheta + self.lambda_fn(vartheta) * t

    def jacobian(self, t: float | np.ndarray, vartheta):
        """d vartheta / d theta = 1 / (1 + Lambda'(vartheta) t), positive; t broadcasts."""
        den = 1.0 + self.lambda_prime_fn(vartheta) * t
        if np.any(den <= 0.0):
            t0, v, d = _first(den <= 0.0, t, vartheta, den)
            raise MapBreakdownError(
                f"characteristic map broke down at t={t0!r}, vartheta={v!r}: "
                f"1 + Lambda' t = {d!r}"
            )
        return 1.0 / den

    def _in_image(self, t: float | np.ndarray, theta) -> np.ndarray:
        """Mask of the theta values covered at time t (all of them if periodic); t broadcasts."""
        theta = np.asarray(theta, dtype=float)
        if self.periodic:
            return np.ones(np.broadcast(t, theta).shape, dtype=bool)
        lo, hi = self.image_interval(t)
        tol = _residual_tol(theta)
        return (lo - theta <= tol) & (hi - theta >= -tol)

    def invert(self, t: float | np.ndarray, theta):
        """The unique vartheta with vartheta + Lambda(vartheta) t = theta.

        ``t`` is a scalar or an array of theta's shape.  Each element runs
        its own safeguarded Newton in its own monotone bracket; all elements
        step together, one Lambda and one Lambda' call per step.
        """
        negative = np.asarray(t) < 0
        if negative.any():
            raise ValueError(f"t must be non-negative, got {_first(negative, t)[0]!r}")
        theta = np.asarray(theta, dtype=float)
        img_lo, img_hi = self.image_interval(t)
        if self.periodic:
            # shift theta by whole periods into the image of one fundamental domain
            theta = theta - self.period * np.floor((theta - img_lo) / self.period)
        outside = ~self._in_image(t, theta)
        if outside.any():
            t0, th, lo, hi = _first(outside, t, theta, img_lo, img_hi)
            raise MapInversionError(
                f"theta = {th!r} outside the characteristic image [{lo!r}, {hi!r}] at t = {t0!r}"
            )

        # Newton usually reaches machine precision, so converge to a target
        # tighter than the promised residual first
        target = 1e-15 * (1.0 + np.abs(theta))
        at_lo = np.abs(img_lo - theta) <= target
        at_hi = np.abs(img_hi - theta) <= target
        lo, hi = self.theta_min, self.theta_max
        x = np.where(at_lo, lo, np.where(at_hi, hi, 0.5 * (lo + hi)))
        lo, hi = np.full(x.shape, lo), np.full(x.shape, hi)
        running = ~(at_lo | at_hi)
        for _ in range(200):
            f = self.forward(x, t) - theta
            running &= np.abs(f) > target
            if not running.any():
                break
            above = f > 0.0
            np.copyto(hi, x, where=above)
            np.copyto(lo, x, where=~above)
            slope = 1.0 + self.lambda_prime_fn(x) * t
            broken = running & (slope <= 0.0)
            if broken.any():
                t0, th, v = _first(broken, t, theta, x)
                raise MapBreakdownError(
                    f"non-monotone map detected at t={t0!r}, theta={th!r}, vartheta={v!r}"
                )
            with np.errstate(divide="ignore", invalid="ignore"):
                x_new = np.asarray(x - f / slope)  # finished elements may divide by 0
            # Newton left the bracket: bisect
            np.copyto(x_new, 0.5 * (lo + hi), where=~((lo < x_new) & (x_new < hi)))
            running &= x_new != x
            np.copyto(x, x_new, where=running)
        f = self.forward(x, t) - theta
        stalled = ~(np.abs(f) <= _residual_tol(theta))
        if stalled.any():
            t0, th, res = _first(stalled, t, theta, f)
            raise MapInversionError(f"inversion stalled at t={t0!r}, theta={th!r}, residual={res!r}")
        return x[()]

    def lambda_field(self, t: float, theta):
        """The transported field lambda(t, theta) = Lambda(vartheta(t, theta))."""
        return self.lambda_fn(self.invert(t, theta))

    def image_interval(self, t: float) -> tuple[float, float]:
        """theta-range covered by the characteristics at time t."""
        return self.forward(self.theta_min, t), self.forward(self.theta_max, t)


def map_from_initial_data(
    curve: InitialCurve,
    spacetime: Spacetime,
) -> CharacteristicMap:
    """Sample Lambda(vartheta) over the curve and spline it.

    The spline (not the raw pointwise evaluation) becomes the map's field,
    so forward and invert are exactly consistent with each other; the
    sampling density only controls fidelity to the underlying data.
    """
    grid = curve.grid(_N_LAMBDA)
    lam = lambda0(curve, spacetime, grid)
    if curve.periodic:
        # close the periodic spline on the knot (theta_max, Lambda(theta_min))
        grid, lam = np.append(grid, curve.theta_max), np.append(lam, lam[0])
    spline = CubicSpline(grid, lam, periodic=curve.periodic)
    return CharacteristicMap(
        lambda_fn=spline,
        lambda_prime_fn=spline.derivative(),
        theta_min=curve.theta_min,
        theta_max=curve.theta_max,
        periodic=curve.periodic,
    )


def burgers_residual_grid(
    cmap: CharacteristicMap,
    t_values: np.ndarray,
    theta_values: np.ndarray,
) -> float:
    """Max |lambda_t + lambda lambda_theta| by centered differences.

    Both grids must be uniform; the residual is evaluated on interior nodes
    only.  Each t row is inverted in one call, so Lambda must take arrays.
    Second-order convergence of this quantity under refinement is the
    numerical witness that the transported field solves the Burgers
    equation.
    """
    t_values = np.asarray(t_values, dtype=float)
    theta_values = np.asarray(theta_values, dtype=float)
    dt = t_values[1] - t_values[0]
    dth = theta_values[1] - theta_values[0]
    lam = np.array([cmap.lambda_field(t, theta_values) for t in t_values])
    lam_t = (lam[2:, 1:-1] - lam[:-2, 1:-1]) / (2 * dt)
    lam_th = (lam[1:-1, 2:] - lam[1:-1, :-2]) / (2 * dth)
    residual = lam_t + lam[1:-1, 1:-1] * lam_th
    return float(np.abs(residual).max())
