"""Closed-form reference solutions used as ground truth for the pipeline.

Three families of light-like extremal surfaces in Schwarzschild spacetime
admit exact descriptions:

* radial null surfaces: r moves linearly in t, tau follows a log relation,
  the polar angle rides along unchanged;
* turning-point surfaces launched tangentially at radius r0: circular at
  the photon sphere r0 = 3m, otherwise r(alpha) solves a cubic quadrature
  expressed through the incomplete elliptic integral F;
* boosted curves with psi = phi' (unit characteristic speed, Lambda = -1):
  circular at r0 = 4m, elliptic otherwise.

Elliptic branches are exposed both as residual evaluators of the
alpha <-> u relation and as solved coordinate functions of (t, vartheta);
the latter invert t(xi) with Newton so they remain independent of the
Runge-Kutta integration they are used to check.

Oracles take nodes (t, vartheta) as floats or as arrays of one shape, with
points x (..., 4): ``evaluate`` returns points, ``relation_residual`` one
residual per node, a float through the same code as a 0-d array.  Both
raise DomainError at a node outside the oracle's range, which ``outside``
marks.

On a branch the roots, and so u(xi) and the modulus k, are the same for
every characteristic; vartheta enters only through K and E.  With the unit
integrals, taken from the branch start and signed to grow along it,

    T(xi)   = int c / (u^2 sqrt(1 - k^2 sin^2(xi/2))) dxi,
    Tau(xi) = int c / (u^2 (1 - 2mu) sqrt(1 - k^2 sin^2(xi/2))) dxi,

t = T / sqrt(K) and tau = tau_init + (E / sqrt(K)) Tau, so one pair of
integrals serves every characteristic of an oracle.  A branch tabulates
them at its panel edges, by compensated sums of a 10-point Gauss-Legendre
rule per panel; the same rule adds the rest of a panel, and Newton for
xi(T) runs inside the panel whose edge values bracket T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .characteristics import _first
from .elliptic import complete_elliptic_k, elliptic_f
from .errors import DomainError, NullsheetError, OracleMismatchError
from .expressions import CurveExpression
from .initial_data import InitialCurve, _rows
from .reduction import ConservedSet, example2_roots, example3_roots
from .spacetime import SchwarzschildParams

CASE_TOL = 1e-12  # relative tolerance on r0/m for double-root detection
_HORIZON_PAD = 1e-8


# the panel edges of EllipticBranchOracle's tables on [-1, 1]: the nodes of
# the tanh-sinh rule of step 1/32 and |k| <= 120 (Takahasi & Mori 1974), 203
# inside (-1, 1) and the rest rounded onto the ends.  They crowd
# double-exponentially toward both ends of a branch, where the integrands'
# nearest singularities sit (the horizon pole of dTau just past the end of a
# "sec" branch)
_TS_NODES = np.tanh(0.5 * np.pi * np.sinh(np.arange(-120, 121) / 32.0))
# the 10-point Gauss-Legendre rule on [-1, 1] (Abramowitz & Stegun, table
# 25.4), exact to degree 19: it integrates over one panel of
# EllipticBranchOracle's tables, or over the part of one up to a given xi
_GL_HALF = np.array([
    0.1488743389816312108848260, 0.4333953941292471907992659, 0.6794095682990244062343274,
    0.8650633666889845107320967, 0.9739065285171717200779640,
])
_GL_HALF_WEIGHTS = np.array([
    0.2955242247147528701738930, 0.2692667193099963550912269, 0.2190863625159820439955349,
    0.1494513491505805931457763, 0.0666713443086881375935688,
])
_GL_NODES = np.concatenate([-_GL_HALF[::-1], _GL_HALF])
_GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])


def _running_sums(terms) -> np.ndarray:
    """0 and the partial sums of ``terms``, each compensated for roundoff (Kahan)."""
    sums, total, carry = [0.0], 0.0, 0.0
    for term in terms.tolist():
        y = term - carry
        new = total + y
        carry = (new - total) - y
        total = new
        sums.append(total - carry)
    return np.array(sums)


def _points(*coords) -> np.ndarray:
    """Points (..., 4) from coordinates given per node or shared by all nodes."""
    return np.stack(np.broadcast_arrays(*coords), axis=-1)


class OracleKind(Enum):
    RADIAL_NULL = "radial_null"
    PHOTON_SPHERE = "photon_sphere"
    EX2_INNER = "ex2_inner"
    EX2_OUTER = "ex2_outer"
    EX3_CIRCULAR = "ex3_circular"
    EX3_OUTER = "ex3_outer"
    EX3_INNER = "ex3_inner"


def _as_curve_expression(value) -> CurveExpression:
    if isinstance(value, CurveExpression):
        return value
    if isinstance(value, str):
        return CurveExpression(value)
    return CurveExpression(repr(float(value)))


@dataclass(frozen=True)
class OracleParams:
    m: float = 1.0
    r0: float = 10.0
    r1: float = 1.0
    f: str | float = 1.0
    tau0: float = 0.0
    alpha0: str | float = math.pi / 2
    beta0: float = 0.0
    sign: int = 1
    sign_alpha: int = 1
    theta_range: tuple[float, float] = (0.0, 2.0 * math.pi)
    periodic: bool = True


class RadialNullOracle:
    """r = r1 t + r0 with the log tau relation; alpha frozen per characteristic."""

    kind = OracleKind.RADIAL_NULL

    def __init__(self, params: OracleParams):
        if params.r0 <= 2.0 * params.m:
            raise ValueError("r0 must exceed the horizon 2m")
        if params.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.params = params
        self.m = params.m
        self.r0 = params.r0
        self.r1 = params.r1
        self.tau0 = params.tau0
        self.sign = params.sign
        self._alpha0 = _as_curve_expression(params.alpha0)

    def conserved(self, vartheta) -> ConservedSet:
        return ConservedSet(E=self.sign * self.r1, L=0.0, K=0.0, C=self.r1**2)

    def outside(self, t, vartheta, x=None) -> np.ndarray:
        """The nodes where r has reached the horizon."""
        r = self.r1 * np.broadcast_arrays(t, vartheta)[0] + self.r0
        return r <= 2.0 * self.m * (1.0 + _HORIZON_PAD)

    def _lhs(self, r):
        """r - r0 + 2m ln((r - 2m) / (r0 - 2m)), which is sign (tau - tau0) on the surface."""
        m, r0 = self.m, self.r0
        return r - r0 + 2.0 * m * np.log((r - 2.0 * m) / (r0 - 2.0 * m))

    def evaluate(self, t, vartheta) -> np.ndarray:
        t, vartheta = np.broadcast_arrays(t, vartheta)
        out = self.outside(t, vartheta)
        if np.any(out):
            raise DomainError(f"radial solution reached the horizon at t = {_first(out, t)[0]!r}")
        r = self.r1 * t + self.r0
        tau = self.tau0 + self.sign * self._lhs(r)
        return _points(tau, r, self._alpha0(vartheta), vartheta)

    def relation_residual(self, t, x, vartheta) -> np.ndarray:
        """Residual of the implicit tau(r) relation."""
        x = np.asarray(x, dtype=float)
        return np.abs(self._lhs(x[..., 1]) - self.sign * (x[..., 0] - self.tau0))

    def initial_curve(self) -> InitialCurve:
        m, r0, r1 = self.m, self.r0, self.r1
        psi0 = self.sign * r1 / (1.0 - 2.0 * m / r0)
        alpha0 = self._alpha0

        lo, hi = map(float, self.params.theta_range)
        return InitialCurve(
            phi=_rows([self.tau0, r0, alpha0, lambda v: v]),
            psi=_rows([psi0, r1, 0.0, 0.0]),
            phi_prime=_rows([0.0, 0.0, alpha0.deriv, 1.0]),
            theta_min=lo,
            theta_max=hi,
            periodic=self.params.periodic,
        )


@dataclass(frozen=True)
class _ExampleData:
    """Initial data of example 2 or 3 and the first integrals it fixes.

    ``tau_init``, ``alpha_init`` and ``beta_of`` give each characteristic's
    starting point as functions of vartheta.
    """

    initial_curve: Callable[[], InitialCurve]
    conserved: Callable[[float | np.ndarray], ConservedSet]
    tau_init: Callable[[float], float]
    alpha_init: Callable[[float], float]
    beta_of: Callable[[float], float]


def _example2_data(params: OracleParams, r0: float) -> _ExampleData:
    """Turning-point data: launched tangentially at r0 with tau_t = f(vartheta)."""
    m = params.m
    if params.sign_alpha not in (1, -1):
        raise ValueError("sign_alpha must be +1 or -1")
    f_expr = _as_curve_expression(params.f)
    alpha0 = _as_curve_expression(params.alpha0)
    if not alpha0.is_constant():
        raise ValueError("alpha0 must be constant for turning-point data")
    alpha0_val = alpha0(0.0)
    s = params.sign_alpha
    coef = math.sqrt(r0 * (r0 - 2.0 * m)) / (r0 * r0)

    def conserved(v) -> ConservedSet:
        f = f_expr(v)
        E = (1.0 - 2.0 * m / r0) * f
        K = r0 * (r0 - 2.0 * m) * f * f
        C = (K * (r0 - 2.0 * m) - 2.0 * m * E * E * r0 * r0) / (
            r0 * r0 * (r0 - 2.0 * m)
        )
        return ConservedSet(E=E, L=0.0, K=K, C=C)

    def initial_curve() -> InitialCurve:
        lo, hi = map(float, params.theta_range)
        return InitialCurve(
            phi=_rows([params.tau0, r0, alpha0_val, lambda v: v]),
            psi=_rows([f_expr, 0.0, lambda v: s * coef * abs(f_expr(v)), 0.0]),
            phi_prime=_rows([0.0, 0.0, 0.0, 1.0]),
            theta_min=lo,
            theta_max=hi,
            periodic=params.periodic,
        )

    return _ExampleData(
        initial_curve=initial_curve,
        conserved=conserved,
        tau_init=lambda v: params.tau0,
        alpha_init=lambda v: alpha0_val,
        beta_of=lambda v: v,
    )


def _example3_data(params: OracleParams, r0: float) -> _ExampleData:
    """Boosted data: psi = phi' along the curve (tau, r, alpha) = (v, r0, s c v)."""
    m = params.m
    if params.sign_alpha not in (1, -1):
        raise ValueError("sign_alpha must be +1 or -1")
    s = params.sign_alpha
    coef = math.sqrt(2.0 * m * (r0 - 2.0 * m)) / (r0 * r0)  # = 1/(8m) at r0 = 4m

    def conserved(v) -> ConservedSet:
        return ConservedSet(
            E=1.0 - 2.0 * m / r0, L=0.0, K=2.0 * m * (r0 - 2.0 * m), C=0.0
        )

    def initial_curve() -> InitialCurve:
        tangent = _rows([1.0, 0.0, s * coef, 0.0])
        lo, hi = map(float, params.theta_range)
        return InitialCurve(
            phi=_rows([lambda v: v, r0, lambda v: s * coef * v, params.beta0]),
            psi=tangent,
            phi_prime=tangent,
            theta_min=lo,
            theta_max=hi,
        )

    return _ExampleData(
        initial_curve=initial_curve,
        conserved=conserved,
        tau_init=lambda v: v,
        alpha_init=lambda v: s * coef * v,
        beta_of=lambda v: params.beta0,
    )


class _CircularOracle:
    """A circular oracle: its data, and its residual, the distance to its closed-form point."""

    def __init__(self, params: OracleParams, radius: float, build_data, name: str):
        m = params.m
        if abs(params.r0 / m - radius) > radius * CASE_TOL:
            raise ValueError(f"{name} solution requires r0 = {radius:g}m")
        self.params, self.m, self.r0, self.s_alpha = params, m, radius * m, params.sign_alpha
        self._data = build_data(params, self.r0)
        self.conserved = self._data.conserved
        self.initial_curve = self._data.initial_curve

    def outside(self, t, vartheta, x=None) -> np.ndarray:
        """No node: the circle is defined for every t."""
        return np.zeros(np.broadcast(t, vartheta).shape, dtype=bool)

    def relation_residual(self, t, x, vartheta) -> np.ndarray:
        ref = self.evaluate(t, vartheta)
        return np.max(np.abs(x - ref), axis=-1)


class PhotonSphereOracle(_CircularOracle):
    """Circular null characteristics at r = 3m with uniform polar drift."""

    kind = OracleKind.PHOTON_SPHERE

    def __init__(self, params: OracleParams):
        super().__init__(params, 3.0, _example2_data, "photon-sphere")
        self.tau0 = params.tau0
        self._f = _as_curve_expression(params.f)
        self.alpha0 = self._data.alpha_init(0.0)

    def evaluate(self, t, vartheta) -> np.ndarray:
        t, vartheta = np.broadcast_arrays(t, vartheta)
        f = self._f(vartheta)
        tau = f * t + self.tau0
        alpha = self.alpha0 + self.s_alpha * np.abs(f) * t / (3.0 * math.sqrt(3.0) * self.m)
        return _points(tau, self.r0, alpha, vartheta)


class Example3CircularOracle(_CircularOracle):
    """Time-like circular characteristics at r = 4m spanning a null surface."""

    kind = OracleKind.EX3_CIRCULAR

    def __init__(self, params: OracleParams):
        super().__init__(params, 4.0, _example3_data, "circular boosted")
        self.beta0 = params.beta0

    def evaluate(self, t, vartheta) -> np.ndarray:
        t, vartheta = np.broadcast_arrays(t, vartheta)
        alpha = self.s_alpha * (t + vartheta) / (8.0 * self.m)
        return _points(t + vartheta, self.r0, alpha, self.beta0)


class EllipticBranchOracle:
    """Non-circular turning-point branches expressed through F(xi/2, k).

    ``branch`` is "sec" for infall toward the horizon (u grows from the
    largest root) or "cos" for escape (u shrinks from the middle root).
    The alpha <-> u relation is exact; t(xi) and tau(xi) are scaled from
    the unit integrals T(xi) and Tau(xi) of the branch's table.
    ``evaluate`` inverts T by Newton, for all nodes at once; the table's
    last T bounds the certified range of t, outside which lies a
    characteristic at rest (K = 0).
    """

    def __init__(
        self,
        kind: OracleKind,
        params: OracleParams,
        branch: str,
        roots: tuple[float, float, float],
        data: _ExampleData,
    ):
        self.kind = kind
        self.params = params
        self.m = params.m
        self.r0 = params.r0
        self.branch = branch
        self.s_alpha = params.sign_alpha
        lo, mid, hi = sorted(roots)
        self.u_lo, self.u_mid, self.u_hi = lo, mid, hi
        self.k2 = (mid - lo) / (hi - lo)
        if not 0.0 < self.k2 < 1.0:
            raise ValueError(f"elliptic modulus out of range: k^2 = {self.k2}")
        self.k = math.sqrt(self.k2)
        self.c = 1.0 / math.sqrt(2.0 * self.m * (hi - lo))
        self._data = data
        self.conserved = data.conserved
        self.initial_curve = data.initial_curve

        # evaluation stops slightly outside the horizon: the tau quadrature
        # has a pole at u = 1/(2m)
        u_cap = 1.0 / (2.0 * self.m * (1.0 + 1e-6))
        if branch == "sec":
            self.xi_start = 0.0
            if self.u_hi >= u_cap:
                raise ValueError("initial radius too close to the horizon")
            self.xi_end = float(self.xi_of_u(u_cap))
        elif branch == "cos":
            self.xi_start = math.pi
            u_floor = max(self.u_lo, 0.0) + 1e-3 * (self.u_mid - max(self.u_lo, 0.0))
            self.xi_end = float(self.xi_of_u(u_floor))
        else:
            raise ValueError(f"unknown branch {branch!r}")
        # t and tau grow while xi runs from xi_start to xi_end
        self._direction = 1.0 if branch == "sec" else -1.0
        # each edge is offset from its nearer end, so that none passes an end
        # by rounding; the edges that round onto the one before them are dropped
        span = self.xi_end - self.xi_start
        edges = np.where(_TS_NODES < 0.0, self.xi_start + span * (0.5 + 0.5 * _TS_NODES),
                         self.xi_end - span * (0.5 - 0.5 * _TS_NODES))
        self._edges = edges = edges[np.append(True, edges[1:] != edges[:-1])]
        # plain partial sums drift by a few ulp toward the far end, and tau
        # next to the horizon cap, where dTau/dT is some 1e6, with them
        panels = self._quadrature(edges[:-1], edges[1:])
        self._T, self._Tau = map(_running_sums, panels)
        self._T_end = float(self._T[-1])

    # -- substitution and its inverse ------------------------------------
    # np.square, not ** 2, which is libm pow on a numpy scalar and so could
    # give a float other bits than the same value in an array
    def u_of_xi(self, xi):
        if self.branch == "sec":
            sec2 = 1.0 / np.square(np.cos(0.5 * xi))
            return self.u_mid + (self.u_hi - self.u_mid) * sec2
        return self.u_lo + 0.5 * (self.u_mid - self.u_lo) * (1.0 - np.cos(xi))

    def xi_of_u(self, u):
        """xi at u, with u clamped to the branch start."""
        if self.branch == "sec":
            ratio = (self.u_hi - self.u_mid) / (np.maximum(u, self.u_hi) - self.u_mid)
            return 2.0 * np.arccos(np.sqrt(np.minimum(1.0, np.maximum(0.0, ratio))))
        arg = 1.0 - 2.0 * (np.minimum(u, self.u_mid) - self.u_lo) / (self.u_mid - self.u_lo)
        return np.arccos(np.minimum(1.0, np.maximum(-1.0, arg)))

    def _u_outside(self, x):
        """The points x (..., 4) whose u is beyond the branch start by more than rounding."""
        u = 1.0 / np.asarray(x, dtype=float)[..., 1]
        if self.branch == "sec":
            return u < self.u_hi - 1e-12 * max(1.0, abs(self.u_hi))
        return u > self.u_mid + 1e-12 * max(1.0, abs(self.u_mid))

    # -- the exact alpha relation ----------------------------------------
    def alpha_of_xi(self, xi, vartheta):
        base = self._data.alpha_init(vartheta)
        if self.branch == "sec":
            return base + self.s_alpha * 2.0 * self.c * elliptic_f(0.5 * xi, self.k)
        sweep = complete_elliptic_k(self.k) - elliptic_f(0.5 * xi, self.k)
        return base + self.s_alpha * 2.0 * self.c * sweep

    def relation_residual(self, t, x, vartheta) -> np.ndarray:
        """|alpha - alpha_predicted(u)| at each trajectory point x (..., 4)."""
        x = np.asarray(x, dtype=float)
        out = self._u_outside(x)
        if np.any(out):
            raise DomainError(f"r = {_first(out, x[..., 1])[0]!r} beyond the branch start")
        return np.abs(x[..., 2] - self.alpha_of_xi(self.xi_of_u(1.0 / x[..., 1]), vartheta))

    # -- quadrature machinery ---------------------------------------------
    def _integrands(self, xi):
        """dT/dxi and dTau/dxi at xi."""
        u = self.u_of_xi(xi)
        dT = self.c / (u * u * np.sqrt(1.0 - self.k2 * np.square(np.sin(0.5 * xi))))
        return dT, dT / (1.0 - 2.0 * self.m * u)

    def _quadrature(self, a, b):
        """T(b) - T(a) and Tau(b) - Tau(a) by the Gauss-Legendre rule, per (a, b)."""
        half = 0.5 * (np.asarray(b)[..., None] - np.asarray(a)[..., None])
        dT, dTau = self._integrands(np.asarray(a)[..., None] + half * (1.0 + _GL_NODES))
        # a stacked matmul sums each interval's terms in the order of a dot product
        weights = ((self._direction * half) * _GL_WEIGHTS)[..., None, :]
        return (weights @ dT[..., None])[..., 0, 0], (weights @ dTau[..., None])[..., 0, 0]

    def _integrals(self, xi):
        """T(xi) and Tau(xi): the table at the start of xi's panel and the rule over the rest of it."""
        i = np.searchsorted(self._direction * self._edges[1:-1], self._direction * xi, "right")
        dT, dTau = self._quadrature(self._edges[i], xi)
        return self._T[i] + dT, self._Tau[i] + dTau

    def _xi_of_T(self, T_target, tol):
        """xi where T(xi) = ``T_target`` by Newton, and T and Tau there, per node.

        Each node starts from linear interpolation across the panel whose
        edge values of T bracket its target, and its steps stay inside that
        panel.  It stops once T is within ``tol`` of its target and so is
        Tau, whose error is T's times |dTau/dT|, or once its step is below
        one ulp of xi.
        """
        edges, T_edges = self._edges, self._T
        # the first panel whose end reaches the target; its start is below it
        i = np.searchsorted(T_edges[1:-1], T_target)
        a, b = edges[i], edges[i + 1]
        nxt = a + (b - a) * (T_target - T_edges[i]) / (T_edges[i + 1] - T_edges[i])
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        for _ in range(60):
            xi = nxt
            T, Tau = self._integrals(xi)
            dT, dTau = self._integrands(xi)
            err = T - T_target
            nxt = np.minimum(np.maximum(xi - err / (self._direction * dT), lo), hi)
            # Tau's error is T's times dTau/dT = 1/(1 - 2mu), some 1e6 at
            # the horizon cap, so a node stops on the larger of the two
            converged = np.abs(err) * np.maximum(1.0, np.abs(dTau / dT)) < tol
            going = ~converged & (np.abs(nxt - xi) >= np.finfo(float).eps * np.abs(xi))
            if not going.any():
                break
            nxt = np.where(going, nxt, xi)
        return xi, T, Tau

    def _t_range(self, t, vartheta):
        """E and sqrt(K) of each node's characteristic, and the nodes outside its certified range."""
        c = self.conserved(vartheta)
        E, sqrt_k = c.E, np.sqrt(c.K)
        return E, sqrt_k, (t < -1e-12) | (t * sqrt_k > self._T_end) | (sqrt_k == 0.0)

    def outside(self, t, vartheta, x=None) -> np.ndarray:
        """The nodes outside the certified range of t or, given points x, of u."""
        out = self._t_range(*np.broadcast_arrays(t, vartheta))[2]
        return out if x is None else out | self._u_outside(x)

    def evaluate(self, t, vartheta) -> np.ndarray:
        t, vartheta = np.broadcast_arrays(t, vartheta)
        E, sqrt_k, out = self._t_range(t, vartheta)
        if np.any(out):
            raise DomainError(f"t = {_first(out, t)[0]!r} outside the oracle's certified range")
        # stop Newton once t, not T, is within 1e-13 (1 + |t|), and Tau within
        # the tolerance that gives T
        xi, _, Tau = self._xi_of_T(
            (t * sqrt_k).ravel(), (1e-13 * (1.0 + np.abs(t)) * sqrt_k).ravel()
        )
        xi, Tau = xi.reshape(t.shape), Tau.reshape(t.shape)
        tau = self._data.tau_init(vartheta) + E / sqrt_k * Tau
        return _points(tau, 1.0 / self.u_of_xi(xi), self.alpha_of_xi(xi, vartheta),
                       self._data.beta_of(vartheta))


# per example with a double root: its radius in units of m, the (inner,
# outer) cases on either side of it, the circular oracle at it, the (inner,
# outer) kinds, the cubic's roots and the initial data; the inner case, below
# the double root, is the infalling "sec" branch
_TURNING_POINT_EXAMPLES = {
    2: (
        3.0, ("II", "III"), PhotonSphereOracle,
        (OracleKind.EX2_INNER, OracleKind.EX2_OUTER), example2_roots, _example2_data,
    ),
    3: (
        4.0, ("III", "II"), Example3CircularOracle,
        (OracleKind.EX3_INNER, OracleKind.EX3_OUTER), example3_roots, _example3_data,
    ),
}


def make_oracle(example: int, case: str = "auto", params: OracleParams | None = None):
    """Construct the oracle for one worked example, auto-detecting the case.

    ``case`` accepts "auto", "I", "II" or "III" with the usual meaning per
    example; forcing a case inconsistent with r0 raises OracleMismatchError.
    """
    p = params or OracleParams()
    m, r0 = p.m, p.r0
    if not m > 0:
        raise ValueError(f"mass must be positive, got {m}")
    if r0 <= 2.0 * m:
        raise ValueError("r0 must exceed the horizon 2m")
    case = case.upper() if case != "auto" else "auto"

    if example == 1:
        return RadialNullOracle(p)

    if example not in _TURNING_POINT_EXAMPLES:
        raise NullsheetError(f"unknown example id {example}")
    radius, (inner_case, outer_case), circular, kinds, roots, build_data = (
        _TURNING_POINT_EXAMPLES[example]
    )
    at_double = abs(r0 / m - radius) <= radius * CASE_TOL
    detected = "I" if at_double else (inner_case if r0 < radius * m else outer_case)
    chosen = detected if case == "auto" else case
    if chosen != detected:
        raise OracleMismatchError(
            f"case {chosen} inconsistent with r0 = {r0}, m = {m} "
            f"(detected case {detected})"
        )
    if chosen == "I":
        return circular(p)
    inner = chosen == inner_case
    data = build_data(p, r0)
    return EllipticBranchOracle(
        kinds[0] if inner else kinds[1],
        p, "sec" if inner else "cos", roots(m, r0), data,
    )


def check_oracle_consistency(
    oracle, spacetime_params: SchwarzschildParams, curve: InitialCurve, n: int = 9
) -> None:
    """Raise OracleMismatchError unless the oracle regenerates the given data."""
    # written as not (... <= tol), so that a nan fails the check
    if not abs(oracle.m - spacetime_params.m) <= 1e-12 * max(1.0, spacetime_params.m):
        raise OracleMismatchError(
            f"oracle mass {oracle.m} != spacetime mass {spacetime_params.m}"
        )
    ref = oracle.initial_curve()
    lo = max(curve.theta_min, ref.theta_min)
    hi = min(curve.theta_max, ref.theta_max)
    if not hi > lo:
        raise OracleMismatchError("oracle and config vartheta domains do not overlap")
    v = np.linspace(lo, hi, n)
    dphi = np.max(np.abs(curve.phi(v) - ref.phi(v)), axis=1)
    dpsi = np.max(np.abs(curve.psi(v) - ref.psi(v)), axis=1)
    bad = ~((dphi <= 1e-9) & (dpsi <= 1e-9))
    if bad.any():
        k = int(bad.argmax())
        raise OracleMismatchError(
            f"initial data differ from the oracle's at vartheta = {v[k]}: "
            f"|dphi| = {dphi[k]:.3e}, |dpsi| = {dpsi[k]:.3e}"
        )
