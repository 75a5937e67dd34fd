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

On a branch the roots, and so u(xi) and the modulus k, are the same for
every characteristic; vartheta enters only through K and E.  With the unit
integrals, taken from the branch start and signed to grow along it,

    T(xi)   = int c / (u^2 sqrt(1 - k^2 sin^2(xi/2))) dxi,
    Tau(xi) = int c / (u^2 (1 - 2mu) sqrt(1 - k^2 sin^2(xi/2))) dxi,

t = T / sqrt(K) and tau = tau_init + (E / sqrt(K)) Tau, so one pair of
integrals serves every characteristic of an oracle.  Both come from one
fixed tanh-sinh rule, its 203 nodes mapped onto [xi_start, xi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .elliptic import complete_elliptic_k, elliptic_f
from .errors import DomainError, NullsheetError, OracleMismatchError
from .expressions import CurveExpression
from .initial_data import InitialCurve, curve_from_callables
from .reduction import ConservedSet, example2_roots, example3_roots
from .spacetime import SchwarzschildParams

CASE_TOL = 1e-12  # relative tolerance on r0/m for double-root detection
_HORIZON_PAD = 1e-8


def _tanh_sinh_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the tanh-sinh rule on [-1, 1] (Takahasi & Mori 1974).

    Step h = 1/32 and |k| <= 120, less the nodes where tanh rounds to +-1:
    203 nodes, whose weights decay double-exponentially toward the ends.
    """
    kh = np.arange(-120, 121) / 32.0
    s = 0.5 * np.pi * np.sinh(kh)
    nodes = np.tanh(s)
    weights = (0.5 * np.pi / 32.0) * np.cosh(kh) / np.cosh(s) ** 2
    inside = np.abs(nodes) < 1.0
    return nodes[inside], weights[inside]


_TS_NODES, _TS_WEIGHTS = _tanh_sinh_rule()


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

    def conserved(self, vartheta: float) -> ConservedSet:
        return ConservedSet(E=self.sign * self.r1, L=0.0, K=0.0, C=self.r1**2)

    def evaluate(self, t: float, vartheta: float) -> np.ndarray:
        m, r0 = self.m, self.r0
        r = self.r1 * t + r0
        if r <= 2.0 * m * (1.0 + _HORIZON_PAD):
            raise DomainError(f"radial solution reached the horizon at t = {t!r}")
        tau = self.tau0 + self.sign * (
            r - r0 + 2.0 * m * math.log((r - 2.0 * m) / (r0 - 2.0 * m))
        )
        return np.array([tau, r, self._alpha0(vartheta), vartheta])

    def relation_residual(self, t: float, x: np.ndarray, vartheta: float) -> float:
        """Residual of the implicit tau(r) relation."""
        m, r0 = self.m, self.r0
        tau, r = x[0], x[1]
        lhs = r - r0 + 2.0 * m * math.log((r - 2.0 * m) / (r0 - 2.0 * m))
        return abs(lhs - self.sign * (tau - self.tau0))

    def initial_curve(self) -> InitialCurve:
        m, r0, r1 = self.m, self.r0, self.r1
        psi0 = self.sign * r1 / (1.0 - 2.0 * m / r0)
        alpha0 = self._alpha0

        return curve_from_callables(
            phi=lambda v: np.array([self.tau0, r0, alpha0(v), v]),
            psi=lambda v: np.array([psi0, r1, 0.0, 0.0]),
            phi_prime=lambda v: np.array([0.0, 0.0, alpha0.deriv(v), 1.0]),
            theta_range=self.params.theta_range,
            periodic=self.params.periodic,
        )


@dataclass(frozen=True)
class _ExampleData:
    """Initial data of example 2 or 3 and the first integrals it fixes.

    ``tau_init``, ``alpha_init`` and ``beta_of`` give each characteristic's
    starting point as functions of vartheta.
    """

    initial_curve: Callable[[], InitialCurve]
    conserved: Callable[[float], ConservedSet]
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

    def conserved(v: float) -> ConservedSet:
        f = f_expr(v)
        E = (1.0 - 2.0 * m / r0) * f
        K = r0 * (r0 - 2.0 * m) * f * f
        C = (K * (r0 - 2.0 * m) - 2.0 * m * E * E * r0 * r0) / (
            r0 * r0 * (r0 - 2.0 * m)
        )
        return ConservedSet(E=E, L=0.0, K=K, C=C)

    def initial_curve() -> InitialCurve:
        return curve_from_callables(
            phi=lambda v: np.array([params.tau0, r0, alpha0_val, v]),
            psi=lambda v: np.array([f_expr(v), 0.0, s * coef * abs(f_expr(v)), 0.0]),
            phi_prime=lambda v: np.array([0.0, 0.0, 0.0, 1.0]),
            theta_range=params.theta_range,
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

    def conserved(v: float) -> ConservedSet:
        return ConservedSet(
            E=1.0 - 2.0 * m / r0, L=0.0, K=2.0 * m * (r0 - 2.0 * m), C=0.0
        )

    def initial_curve() -> InitialCurve:
        def tangent(v: float) -> np.ndarray:
            return np.array([1.0, 0.0, s * coef, 0.0])

        return curve_from_callables(
            phi=lambda v: np.array([v, r0, s * coef * v, params.beta0]),
            psi=tangent,
            phi_prime=tangent,
            theta_range=params.theta_range,
            periodic=False,
        )

    return _ExampleData(
        initial_curve=initial_curve,
        conserved=conserved,
        tau_init=lambda v: v,
        alpha_init=lambda v: s * coef * v,
        beta_of=lambda v: params.beta0,
    )


class _CircularOracle:
    """A circular oracle's residual: the distance to its closed-form point."""

    def relation_residual(self, t: float, x: np.ndarray, vartheta: float) -> float:
        ref = self.evaluate(t, vartheta)
        return float(np.max(np.abs(x - ref)))


class PhotonSphereOracle(_CircularOracle):
    """Circular null characteristics at r = 3m with uniform polar drift."""

    kind = OracleKind.PHOTON_SPHERE

    def __init__(self, params: OracleParams):
        m = params.m
        if abs(params.r0 / m - 3.0) > 3.0 * CASE_TOL:
            raise ValueError("photon-sphere solution requires r0 = 3m")
        self.params = params
        self.m = m
        self.r0 = 3.0 * m
        data = _example2_data(params, self.r0)
        self.conserved = data.conserved
        self.initial_curve = data.initial_curve
        self.tau0 = params.tau0
        self.s_alpha = params.sign_alpha
        self._f = _as_curve_expression(params.f)
        self.alpha0 = data.alpha_init(0.0)

    def evaluate(self, t: float, vartheta: float) -> np.ndarray:
        f = self._f(vartheta)
        tau = f * t + self.tau0
        alpha = self.alpha0 + self.s_alpha * abs(f) * t / (3.0 * math.sqrt(3.0) * self.m)
        return np.array([tau, self.r0, alpha, vartheta])


class Example3CircularOracle(_CircularOracle):
    """Time-like circular characteristics at r = 4m spanning a null surface."""

    kind = OracleKind.EX3_CIRCULAR

    def __init__(self, params: OracleParams):
        m = params.m
        if abs(params.r0 / m - 4.0) > 4.0 * CASE_TOL:
            raise ValueError("circular boosted solution requires r0 = 4m")
        self.params = params
        self.m = m
        self.r0 = 4.0 * m
        data = _example3_data(params, self.r0)
        self.conserved = data.conserved
        self.initial_curve = data.initial_curve
        self.beta0 = params.beta0
        self.s_alpha = params.sign_alpha

    def evaluate(self, t: float, vartheta: float) -> np.ndarray:
        alpha = self.s_alpha * (t + vartheta) / (8.0 * self.m)
        return np.array([t + vartheta, self.r0, alpha, self.beta0])


class EllipticBranchOracle:
    """Non-circular turning-point branches expressed through F(xi/2, k).

    ``branch`` is "sec" for infall toward the horizon (u grows from the
    largest root) or "cos" for escape (u shrinks from the middle root).
    The alpha <-> u relation is exact; t(xi) and tau(xi) are scaled from
    the unit integrals T(xi) and Tau(xi), which the tanh-sinh rule gives
    together.  ``evaluate`` inverts T by Newton, starting from the linear
    guess through T(xi_end); T(xi_end) also bounds the certified range of t.
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
            self.xi_end = self._xi_of_u_sec(u_cap)
        elif branch == "cos":
            self.xi_start = math.pi
            u_floor = max(self.u_lo, 0.0) + 1e-3 * (self.u_mid - max(self.u_lo, 0.0))
            self.xi_end = self._xi_of_u_cos(u_floor)
        else:
            raise ValueError(f"unknown branch {branch!r}")
        # t and tau grow while xi runs from xi_start to xi_end
        self._direction = 1.0 if branch == "sec" else -1.0
        self._T_end = self._integrals(self.xi_end)[0]

    # -- substitution and its inverse ------------------------------------
    def u_of_xi(self, xi):
        if self.branch == "sec":
            sec2 = 1.0 / np.cos(0.5 * xi) ** 2
            return self.u_mid + (self.u_hi - self.u_mid) * sec2
        return self.u_lo + 0.5 * (self.u_mid - self.u_lo) * (1.0 - np.cos(xi))

    def _xi_of_u_sec(self, u: float) -> float:
        ratio = (self.u_hi - self.u_mid) / (u - self.u_mid)
        ratio = min(1.0, max(0.0, ratio))
        return 2.0 * math.acos(math.sqrt(ratio))

    def _xi_of_u_cos(self, u: float) -> float:
        arg = 1.0 - 2.0 * (u - self.u_lo) / (self.u_mid - self.u_lo)
        return math.acos(min(1.0, max(-1.0, arg)))

    def xi_of_u(self, u: float) -> float:
        if self.branch == "sec":
            if u < self.u_hi - 1e-12 * max(1.0, abs(self.u_hi)):
                raise DomainError(f"u = {u!r} below the branch start {self.u_hi!r}")
            return self._xi_of_u_sec(max(u, self.u_hi))
        if u > self.u_mid + 1e-12 * max(1.0, abs(self.u_mid)):
            raise DomainError(f"u = {u!r} above the branch start {self.u_mid!r}")
        return self._xi_of_u_cos(min(u, self.u_mid))

    # -- the exact alpha relation ----------------------------------------
    def alpha_of_xi(self, xi: float, vartheta: float) -> float:
        base = self._data.alpha_init(vartheta)
        if self.branch == "sec":
            return base + self.s_alpha * 2.0 * self.c * elliptic_f(0.5 * xi, self.k)
        sweep = complete_elliptic_k(self.k) - elliptic_f(0.5 * xi, self.k)
        return base + self.s_alpha * 2.0 * self.c * sweep

    def relation_residual(self, t: float, x: np.ndarray, vartheta: float) -> float:
        """|alpha - alpha_predicted(u)| for a trajectory point."""
        xi = self.xi_of_u(1.0 / x[1])
        return abs(x[2] - self.alpha_of_xi(xi, vartheta))

    # -- quadrature machinery ---------------------------------------------
    def _dT_dxi(self, xi):
        u = self.u_of_xi(xi)
        root = np.sqrt(1.0 - self.k2 * np.sin(0.5 * xi) ** 2)
        return self.c / (u * u * root)

    def _integrals(self, xi: float) -> tuple[float, float]:
        """T(xi) and Tau(xi) by the tanh-sinh rule mapped onto [xi_start, xi]."""
        half = 0.5 * (xi - self.xi_start)
        nodes = self.xi_start + half * (1.0 + _TS_NODES)
        weights = (self._direction * half) * _TS_WEIGHTS
        dT = self._dT_dxi(nodes)
        dTau = dT / (1.0 - 2.0 * self.m * self.u_of_xi(nodes))
        return float(weights @ dT), float(weights @ dTau)

    def _xi_of_T(self, T_target: float, tol: float) -> tuple[float, float]:
        """xi with T(xi) within ``tol`` of ``T_target`` by Newton, and Tau there."""
        lo, hi = min(self.xi_start, self.xi_end), max(self.xi_start, self.xi_end)
        xi = self.xi_start + (self.xi_end - self.xi_start) * T_target / self._T_end
        for _ in range(60):
            T, Tau = self._integrals(xi)
            err = T - T_target
            if abs(err) < tol:
                break
            xi = min(max(xi - err / (self._direction * self._dT_dxi(xi)), lo), hi)
        else:
            Tau = self._integrals(xi)[1]
        return xi, Tau

    def evaluate(self, t: float, vartheta: float) -> np.ndarray:
        cs = self.conserved(vartheta)
        sqrt_k = math.sqrt(cs.K)
        t_last = self._T_end / sqrt_k
        if t < -1e-12 or t > t_last:
            raise DomainError(
                f"t = {t!r} outside the oracle's certified range [0, {t_last!r}]"
            )
        # stop Newton once t, not T, is within 1e-13 (1 + |t|)
        xi, Tau = self._xi_of_T(t * sqrt_k, 1e-13 * (1.0 + abs(t)) * sqrt_k)
        tau = self._data.tau_init(vartheta) + cs.E / sqrt_k * Tau
        u = self.u_of_xi(xi)
        return np.array(
            [tau, 1.0 / u, self.alpha_of_xi(xi, vartheta), self._data.beta_of(vartheta)]
        )


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
    if abs(oracle.m - spacetime_params.m) > 1e-12 * max(1.0, spacetime_params.m):
        raise OracleMismatchError(
            f"oracle mass {oracle.m} != spacetime mass {spacetime_params.m}"
        )
    ref = oracle.initial_curve()
    lo = max(curve.theta_min, ref.theta_min)
    hi = min(curve.theta_max, ref.theta_max)
    if not hi > lo:
        raise OracleMismatchError("oracle and config vartheta domains do not overlap")
    for v in np.linspace(lo, hi, n):
        dphi = np.max(np.abs(curve.phi(v) - ref.phi(v)))
        dpsi = np.max(np.abs(curve.psi(v) - ref.psi(v)))
        if max(dphi, dpsi) > 1e-9:
            raise OracleMismatchError(
                f"initial data differ from the oracle's at vartheta = {v}: "
                f"|dphi| = {dphi:.3e}, |dpsi| = {dpsi:.3e}"
            )
