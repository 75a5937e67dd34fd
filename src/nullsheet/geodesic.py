"""Geodesic integration of characteristic t-curves with event monitoring.

Each surface point evolves by y''^mu + Gamma^mu_{nu rho}(y) y'^nu y'^rho = 0.
The integrator is an embedded Dormand-Prince 5(4) pair with PI step-size
control and the standard quartic continuous extension (Hairer, Norsett &
Wanner, Solving ODEs I, II.6), so trajectories can be sampled densely
without re-integration.  A trajectory is stored as stacked arrays: the node
times, the node states [y, v] and one interpolant per step; one dense-output
formula serves sampling (a whole t-grid per call), the event search and the
event state.  Schwarzschild runs terminate at the horizon
(r <= 2m(1 + eps_horizon)) or the coordinate axis (|sin alpha| <= eps_axis);
both are recorded as events, as is step-size underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .initial_data import ConservedSet
from .spacetime import SchwarzschildParams, Spacetime

# Dormand-Prince 5(4) tableau (FSAL: the 7th stage is the next first stage).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# quartic interpolant weights (continuous extension of the 5(4) pair)
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_POWERS = np.arange(1.0, 5.0)
# smallest step, relative to max(|t|, 1), that is not lost in the roundoff of t
_H_FLOOR = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class GeodesicState:
    """Position, velocity and parameter time of one surface point.

    A state sampled at an array of times holds rows: y and v are (..., dim).
    """

    y: np.ndarray
    v: np.ndarray
    t: float | np.ndarray


@dataclass(frozen=True)
class Event:
    kind: str  # horizon | axis | step_failure | t_max
    t: float


@dataclass(frozen=True)
class SolverOptions:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 100_000
    eps_horizon: float = 1e-8
    eps_axis: float = 1e-8


def _dense(w, h, q, sigma):
    """Continuous extension w + h q [sigma, sigma^2, sigma^3, sigma^4] of a step.

    ``w`` (..., 2*dim) is the state at the step start, ``h`` the step size,
    ``q`` (..., 2*dim, 4) the step's interpolant and ``sigma`` in [0, 1] the
    fraction of the step.  The leading axes run over rows; for rows, ``h``
    and ``sigma`` are (..., 1) columns.
    """
    # float_power is libm pow for every element, like ** on a scalar sigma;
    # ** on an array may round the powers differently
    basis = np.float_power(sigma, _POWERS)
    return w + h * (q @ basis[..., None])[..., 0]


@dataclass
class GeodesicTrajectory:
    """Dense-output solution of one characteristic's geodesic.

    ``ts`` (n,) holds the accepted node times, ``nodes`` (n, 2*dim) the
    states [y, v] at them and ``interp_q`` (n-1, 2*dim, 4) the interpolant
    of each step; ``sample`` evaluates the continuous extension anywhere in
    [ts[0], t_last].
    """

    dim: int
    ts: np.ndarray
    nodes: np.ndarray
    events: list[Event]
    interp_q: np.ndarray

    @property
    def states(self) -> list[GeodesicState]:
        """One state per node; y and v are views into ``nodes``."""
        dim = self.dim
        return [GeodesicState(y=w[:dim], v=w[dim:], t=t) for t, w in zip(self.ts, self.nodes)]

    @property
    def t_last(self) -> float:
        return float(self.ts[-1])

    @property
    def terminated_early(self) -> bool:
        return any(e.kind in ("horizon", "axis", "step_failure") for e in self.events)

    def sample(self, t) -> GeodesicState:
        """Dense-output state at t in [ts[0], t_last]; t is a scalar or an array."""
        ts = self.ts
        t = np.asarray(t, dtype=float)
        outside = (t < ts[0] - 1e-12) | (t > ts[-1] + 1e-12)
        if outside.any():
            raise ValueError(
                f"t = {float(t[outside][0])!r} outside trajectory range "
                f"[{ts[0]!r}, {ts[-1]!r}]"
            )
        t = np.clip(t, ts[0], ts[-1])
        if len(ts) == 1:  # no step was taken: every t is node 0
            w = self.nodes[np.zeros(t.shape, dtype=int)]
        else:
            i = np.minimum(np.searchsorted(ts, t, side="right") - 1, len(ts) - 2)
            h = (ts[i + 1] - ts[i])[..., None]
            w = _dense(self.nodes[i], h, self.interp_q[i], (t - ts[i])[..., None] / h)
        return GeodesicState(y=w[..., : self.dim], v=w[..., self.dim :], t=t[()])


def geodesic_rhs(spacetime: Spacetime, state: GeodesicState) -> np.ndarray:
    """Acceleration -Gamma^mu_{nu rho} v^nu v^rho from the connection array.

    The reference that ``Spacetime.acceleration_at`` is checked against.
    """
    spacetime.check_admissible(state.y)
    gamma = spacetime.christoffel_at(state.y)
    return -np.einsum("mnr,n,r->m", gamma, state.v, state.v)


def _make_rhs(spacetime: Spacetime) -> Callable[[np.ndarray], np.ndarray]:
    dim = spacetime.dim
    accel = spacetime.acceleration_at

    def rhs(w: np.ndarray) -> np.ndarray:
        return np.concatenate([w[dim:], accel(w[:dim], w[dim:])])

    return rhs


def _guards(spacetime: Spacetime, opts: SolverOptions, y0: np.ndarray):
    """Termination guard functions g(y); a trajectory stops when g <= 0.

    Guards are signed so that a transversal crossing (e.g. alpha moving
    through the axis within one step) flips the sign at the step endpoint
    instead of dipping and recovering unseen.
    """
    guards = []
    meta = spacetime.meta
    if "mass" in meta:
        m = meta["mass"]
        barrier = 2.0 * m * (1.0 + opts.eps_horizon)
        guards.append(("horizon", lambda y: y[1] - barrier))
    if meta.get("spherical"):
        eps = opts.eps_axis
        side = 1.0 if math.sin(y0[2]) >= 0.0 else -1.0
        guards.append(("axis", lambda y: side * math.sin(y[2]) - eps))
    return guards


def _initial_step(rhs, t0, w0, f0, rel_tol, abs_tol, t_end):
    """Hairer-style automatic first-step selection."""
    scale = abs_tol + rel_tol * np.abs(w0)
    d0 = float(np.sqrt(np.mean((w0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    w1 = w0 + h0 * f0
    try:
        f1 = rhs(w1)
    except DomainError:
        return min(h0 * 0.1, abs(t_end - t0))
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, abs(t_end - t0))


def integrate(
    spacetime: Spacetime,
    state0: GeodesicState,
    t_end: float,
    options: SolverOptions | None = None,
) -> GeodesicTrajectory:
    """Integrate one geodesic from state0 forward to t_end or an event."""
    opts = options or SolverOptions()
    if not t_end > state0.t:
        raise ValueError(f"t_end = {t_end} must exceed t0 = {state0.t}")
    spacetime.check_admissible(state0.y)

    dim = spacetime.dim
    rhs = _make_rhs(spacetime)
    guards = _guards(spacetime, opts, np.asarray(state0.y, float))
    for kind, g in guards:
        if g(state0.y) <= 0.0:
            raise DomainError(
                f"initial state already violates the {kind} guard"
            )

    t = state0.t
    w = np.concatenate([np.asarray(state0.y, float), np.asarray(state0.v, float)])
    f = rhs(w)

    ts = [t]
    nodes = [w]
    interp_q: list[np.ndarray] = []
    events: list[Event] = []

    h = _initial_step(rhs, t, w, f, opts.rel_tol, opts.abs_tol, t_end)
    err_prev = 1.0
    n_steps = 0
    K = np.empty((7, 2 * dim))

    while t < t_end:
        if n_steps >= opts.max_steps:
            events.append(Event(kind="step_failure", t=t))
            break
        h = min(h, t_end - t)
        h_floor = _H_FLOOR * max(abs(t), 1.0)
        if h < h_floor:
            # within roundoff of t_end the run is complete; elsewhere h underflowed
            kind = "t_max" if t_end - t < h_floor else "step_failure"
            events.append(Event(kind=kind, t=t))
            break

        # stage evaluations; a domain violation mid-stage rejects the step
        K[0] = f
        rejected_by_domain = False
        for s in range(1, 7):
            ws = w + h * (K[:s].T @ _A[s])
            try:
                K[s] = rhs(ws)
            except DomainError:
                rejected_by_domain = True
                break
        if rejected_by_domain:
            h *= 0.5
            n_steps += 1
            continue

        w_new = w + h * (K.T[:, :6] @ _B[:6])  # b7 = 0
        err_vec = h * (K.T @ _E)
        scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(w), np.abs(w_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        n_steps += 1

        if err > 1.0:
            factor = max(_MIN_FACTOR, _SAFETY * err ** (-_PI_ALPHA))
            h *= factor
            continue

        # accepted: PI controller for the next step
        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** (_PI_BETA)
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        err_prev = max(err, 1e-10)

        q = K.T @ _P  # (2*dim, 4) interpolant for this step
        t_new = t + h
        f_new = K[6]  # FSAL

        # event check across [t, t_new] on the continuous extension; the
        # midpoint is probed as well to catch crossings inside long steps
        triggered = None
        w_mid = _dense(w, h, q, 0.5)
        for kind, g in guards:
            g_end = g(w_new[:dim])
            g_mid = g(w_mid[:dim])
            if g_end > 0.0 and g_mid > 0.0:
                continue
            sig_hi = 0.5 if g_mid <= 0.0 else 1.0

            def g_sigma(sigma, g=g):
                return g(_dense(w, h, q, sigma)[:dim])

            # bisect, keeping g(lo) > 0 >= g(hi); the result hi never lies
            # before the crossing
            lo, hi = 0.0, (0.0 if g_sigma(0.0) <= 0.0 else sig_hi)
            while hi - lo > 1e-15 + 8.9e-16 * hi:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if g_sigma(mid) > 0.0 else (lo, mid)
            sig_ev = hi
            t_candidate = t + sig_ev * h
            if triggered is None or t_candidate < triggered[1]:
                triggered = (kind, t_candidate, sig_ev)

        if triggered is not None:
            kind, t_ev, sig_ev = triggered
            # a crossing at the step start terminates on the existing node
            if sig_ev > 0.0:
                # the node is the full step's quartic at the fraction that the
                # stored t_ev really is, one ulp of t later if rounding put
                # t_ev before the crossing
                if t_ev - t < sig_ev * h:
                    t_ev = math.nextafter(t_ev, math.inf)
                sig_ev = (t_ev - t) / h
                ts.append(t_ev)
                nodes.append(_dense(w, h, q, sig_ev))
                # so is the partial step's interpolant, on [0, sig_ev]
                interp_q.append(q * np.float_power(sig_ev, np.arange(4.0)))
            events.append(Event(kind=kind, t=t_ev))
            break

        t, w, f = t_new, w_new, f_new
        ts.append(t)
        nodes.append(w)
        interp_q.append(q)
        h *= factor

        if t >= t_end:
            events.append(Event(kind="t_max", t=t))
            break

    return GeodesicTrajectory(
        dim=dim,
        ts=np.array(ts),
        nodes=np.array(nodes),
        events=events,
        interp_q=np.array(interp_q).reshape(-1, 2 * dim, 4),
    )


def tangent_norm(spacetime: Spacetime, state: GeodesicState) -> float:
    """g~(v, v) of the trajectory tangent; need not vanish on null surfaces."""
    g = spacetime.metric_at(state.y)
    return float(state.v @ g @ state.v)


@dataclass(frozen=True)
class DriftReport:
    """Conservation drift of (E, L, K) along one trajectory."""

    initial: ConservedSet
    max_rel_drift: float
    series: np.ndarray  # (n, 3) columns E, L, K at the nodes


def conserved_along(params: SchwarzschildParams, trajectory: GeodesicTrajectory) -> DriftReport:
    """Recompute E, L, K at the trajectory nodes and report the worst drift.

    The relative drift is measured against max(1, |initial value|) per
    integral; ``initial`` holds the constants, C included, at node 0.
    """
    m = params.m
    dim = trajectory.dim
    y, v = trajectory.nodes[:, :dim], trajectory.nodes[:, dim:]
    r, alpha = y[:, 1], y[:, 2]
    sin_a, cos_a = np.sin(alpha), np.cos(alpha)
    E = v[:, 0] * (1.0 - 2.0 * m / r)
    L = v[:, 3] * r * r * sin_a * sin_a
    # float_power is libm pow for every element, like ** on a scalar
    K = np.float_power(r, 4) * (
        np.float_power(v[:, 2], 2) + np.float_power(v[:, 3], 2) * sin_a * sin_a * cos_a * cos_a
    )
    series = np.column_stack([E, L, K])
    drift = np.abs(series - series[0])
    scales = np.maximum(1.0, np.abs(series[0]))

    E0, L0, K0 = (float(c) for c in series[0])
    r0, r_t0 = y[0, 1], v[0, 1]
    C = (r_t0**2 * r0**3 + K0 * (r0 - 2.0 * m) - 2.0 * m * E0 * E0 * r0 * r0) / (
        r0 * r0 * (r0 - 2.0 * m)
    )
    return DriftReport(
        initial=ConservedSet(E=E0, L=L0, K=max(K0, 0.0), C=float(C)),
        max_rel_drift=float((drift / scales).max()),
        series=series,
    )
