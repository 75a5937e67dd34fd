"""Geodesic integration of characteristic t-curves with event monitoring.

Each surface point evolves by y''^mu + Gamma^mu_{nu rho}(y) y'^nu y'^rho = 0.
The integrator is an embedded Dormand-Prince 5(4) pair with PI step-size
control and the standard quartic continuous extension (Hairer, Norsett &
Wanner, Solving ODEs I, II.6), so trajectories can be sampled densely
without re-integration.

The step loop runs on Python floats: the state [y, v] and the seven stages
are lists, the stage sums are unrolled over the nonzero tableau entries,
``Spacetime.acceleration_at`` is called once per stage with the position and
velocity as lists of floats and returns a list, and each guard reads one
position component at the step end and at the midpoint of that component's
continuous extension.  A step on which no guard fires calls no numpy at all;
numpy enters for the event search of a step where one fires, and once per
trajectory, when the stored stages give every step's interpolant (one matmul
per chunk of 64 steps).  Each step is taken with h = (t + h) - t, so the
stored node times differ by exactly the step sizes.

A trajectory is stored as stacked arrays: the node times, the node states
[y, v] and one interpolant per step; one dense-output formula serves
sampling (a whole t-grid per call), the event search and the event state.
Schwarzschild runs terminate at the horizon (r <= 2m(1 + eps_horizon)) or
the coordinate axis (|sin alpha| <= eps_axis); both are recorded as events,
as is step-size underflow.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NullsheetError
from .reduction import ConservedSet, first_integrals
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
# (a Python float: a numpy scalar here would make every step's h_floor one)
_H_FLOOR = 16.0 * sys.float_info.epsilon

# the nonzero tableau entries as Python floats, for the unrolled step loop;
# _A[6] is _B[:6], so the step's result w_new is also the last stage's argument
(_A10,) = _A[1].tolist()
_A20, _A21 = _A[2].tolist()
_A30, _A31, _A32 = _A[3].tolist()
_A40, _A41, _A42, _A43 = _A[4].tolist()
_A50, _A51, _A52, _A53, _A54 = _A[5].tolist()
_B0, _B2, _B3, _B4, _B5 = _B[[0, 2, 3, 4, 5]].tolist()
# the stages with interpolant or error weight (row 1 of _P and _E is zero),
# which are the ones a trajectory stores
_STORED = [0, 2, 3, 4, 5, 6]
_E0, _E2, _E3, _E4, _E5, _E6 = _E[_STORED].tolist()
_P_STORED = _P[_STORED]
# the interpolant's weights at sigma = 1/2: sum_k P[s, k] 2^-(k+1)
_M0, _M2, _M3, _M4, _M5, _M6 = (_P_STORED * 0.5**_POWERS).sum(axis=1).tolist()
# full steps per chunk of the buffer that the step loop packs its records into
_CHUNK_STEPS = 64


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


def _guards(spacetime: Spacetime, opts: SolverOptions, y0: np.ndarray):
    """Termination guards (kind, i, g); a trajectory stops when g(y[i]) <= 0.

    Each guard reads the one position component i.  Guards are signed so
    that a transversal crossing (e.g. alpha moving through the axis within
    one step) flips the sign at the step endpoint instead of dipping and
    recovering unseen.
    """
    guards = []
    meta = spacetime.meta
    if "mass" in meta:
        m = meta["mass"]
        barrier = 2.0 * m * (1.0 + opts.eps_horizon)
        guards.append(("horizon", 1, lambda r: r - barrier))
    if meta.get("spherical"):
        eps = opts.eps_axis
        side = 1.0 if math.sin(y0[2]) >= 0.0 else -1.0
        guards.append(("axis", 2, lambda alpha: side * math.sin(alpha) - eps))
    return guards


def _initial_step(deriv, t0, w0, f0, rel_tol, abs_tol, t_end):
    """Hairer-style automatic first-step selection; ``deriv`` is the state list's derivative."""
    w0, f0 = np.array(w0), np.array(f0)
    # a state, derivative or tolerance out of float range makes h0 inf or nan
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = abs_tol + rel_tol * np.abs(w0)
        d0 = float(np.sqrt(np.mean((w0 / scale) ** 2)))
        d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not 0.0 < h0 < math.inf:
        raise NullsheetError(
            f"integration failed: no initial step size (h0 = {h0!r}), the state "
            "or its derivative is out of floating-point range"
        )
    w1 = w0 + h0 * f0
    try:
        f1 = np.array(deriv(w1.tolist()))
    except DomainError:
        return min(h0 * 0.1, abs(t_end - t0))
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, abs(t_end - t0))


def _first_crossing(fired, t, w, h, q):
    """The earliest crossing in the step [t, t + h] of the guards that fired.

    ``w`` is the state at the step start and ``q`` the step's interpolant.
    ``fired`` holds (kind, i, g, sig_hi) for each guard that is <= 0 at the
    fraction sig_hi (1/2 or 1) of the step; each is bisected on [0, sig_hi].
    Returns (kind, t_ev, sigma) with t_ev = t + sigma h.
    """
    triggered = None
    for kind, i, g, sig_hi in fired:

        def g_sigma(sigma, i=i, g=g):
            return g(_dense(w, h, q, sigma)[i])

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
    return triggered


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
    y0 = np.asarray(state0.y, float)
    with np.errstate(over="ignore"):  # a start state out of float range fails below
        spacetime.metric_at(y0)  # raises DomainError outside the chart

    dim = spacetime.dim
    n = 2 * dim
    accel = spacetime.acceleration_at

    def deriv(w: list[float]) -> list[float]:
        """[v, acceleration] at the state w = [y, v]."""
        v = w[dim:]
        return v + accel(w[:dim], v)

    guards = _guards(spacetime, opts, y0)
    for kind, i, g in guards:
        if g(state0.y[i]) <= 0.0:
            raise DomainError(
                f"initial state already violates the {kind} guard"
            )

    t, t_end = float(state0.t), float(t_end)
    y, v = y0.tolist(), np.asarray(state0.v, float).tolist()
    w = y + v
    try:
        a = accel(y, v)
    except OverflowError as exc:  # e.g. a power of a coordinate near the float limit
        raise NullsheetError(f"integration failed: acceleration overflows at y = {y!r}") from exc
    # deriv's v + a would broadcast an array a into a state of dim entries
    if not (type(a) is list and len(a) == dim and all(isinstance(x, float) for x in a)):
        raise TypeError(
            f"{spacetime.name}: acceleration_at returned {type(a).__name__} "
            f"{a!r}, not a list of {dim} floats"
        )
    f = v + a

    # each full step packs one record [t, w, stored stages] into chunks of
    # one size, which the heap reuses from one trajectory to the next and
    # which are unpacked in place at the end; over the same passes of the
    # infall-ring benchmark, keeping the step's float lists raised peak RSS
    # by 2.3 MiB and one array("d") grown step by step by 0.25 MiB
    width = 1 + (1 + len(_STORED)) * n
    record = struct.Struct(f"{width}d")
    chunks = [bytearray(_CHUNK_STEPS * record.size)]
    n_full = 0
    t0, w0 = t, w
    partial_step = None  # (t_ev, node, interpolant on [t, t_ev]) of an event step
    events: list[Event] = []
    rel_tol, abs_tol = opts.rel_tol, opts.abs_tol

    h = _initial_step(deriv, t, w, f, rel_tol, abs_tol, t_end)
    err_prev = 1.0
    n_steps = 0

    while t < t_end:
        if n_steps >= opts.max_steps:
            events.append(Event(kind="step_failure", t=t))
            break
        # the loop's clamps are conditional expressions, not min/max/abs
        # calls: a step is call-bound, and each builtin call costs more than
        # the comparison it makes
        if t_end - t < h:
            h = t_end - t
        # step by the increment t + h really gets, so that the stored
        # ts[i + 1] - ts[i] is the h each step and its interpolant were made with
        h = (t + h) - t
        h_floor = _H_FLOOR * (t if t > 1.0 else -t if t < -1.0 else 1.0)
        if h < h_floor:
            # within roundoff of t_end the run is complete; elsewhere h underflowed
            kind = "t_max" if t_end - t < h_floor else "step_failure"
            events.append(Event(kind=kind, t=t))
            break

        # stage evaluations; a domain violation mid-stage rejects the step
        n_steps += 1
        k0 = f
        try:
            k1 = deriv([x + h * (_A10 * p0) for x, p0 in zip(w, k0)])
            k2 = deriv([x + h * (_A20 * p0 + _A21 * p1) for x, p0, p1 in zip(w, k0, k1)])
            k3 = deriv([
                x + h * (_A30 * p0 + _A31 * p1 + _A32 * p2)
                for x, p0, p1, p2 in zip(w, k0, k1, k2)
            ])
            k4 = deriv([
                x + h * (_A40 * p0 + _A41 * p1 + _A42 * p2 + _A43 * p3)
                for x, p0, p1, p2, p3 in zip(w, k0, k1, k2, k3)
            ])
            k5 = deriv([
                x + h * (_A50 * p0 + _A51 * p1 + _A52 * p2 + _A53 * p3 + _A54 * p4)
                for x, p0, p1, p2, p3, p4 in zip(w, k0, k1, k2, k3, k4)
            ])
            w_new = [
                x + h * (_B0 * p0 + _B2 * p2 + _B3 * p3 + _B4 * p4 + _B5 * p5)
                for x, p0, p2, p3, p4, p5 in zip(w, k0, k2, k3, k4, k5)
            ]
            k6 = deriv(w_new)  # FSAL: the next step's k0
        except DomainError:
            h *= 0.5
            continue

        sq = 0.0
        for x, x_new, p0, p2, p3, p4, p5, p6 in zip(w, w_new, k0, k2, k3, k4, k5, k6):
            e = h * (_E0 * p0 + _E2 * p2 + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6)
            # the scale is max(|x|, |x_new|)
            if x < 0.0:
                x = -x
            if x_new < 0.0:
                x_new = -x_new
            e /= abs_tol + rel_tol * (x if x > x_new else x_new)
            sq += e * e
        err = math.sqrt(sq / n)

        if err > 1.0:
            factor = max(_MIN_FACTOR, _SAFETY * err ** (-_PI_ALPHA))
            h *= factor
            continue

        # accepted: PI controller for the next step
        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** (_PI_BETA)
            factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
            factor = factor if factor < _MAX_FACTOR else _MAX_FACTOR
        err_prev = 1e-10 if err < 1e-10 else err

        # guards at the step end and, to catch a crossing inside a long step,
        # at the midpoint of the continuous extension of their component;
        # only a step where one is <= 0 is searched for the event, in numpy
        triggered = None
        fired = []
        for kind, i, g in guards:
            y_mid = w[i] + h * (
                _M0 * k0[i] + _M2 * k2[i] + _M3 * k3[i] + _M4 * k4[i] + _M5 * k5[i] + _M6 * k6[i]
            )
            if g(y_mid) <= 0.0:
                fired.append((kind, i, g, 0.5))
            elif g(w_new[i]) <= 0.0:
                fired.append((kind, i, g, 1.0))
        if fired:
            w_np = np.array(w)
            q = np.array([k0, k1, k2, k3, k4, k5, k6]).T @ _P
            triggered = _first_crossing(fired, t, w_np, h, q)

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
                # so is the partial step's interpolant, on [0, sig_ev]
                partial_step = (
                    t_ev, _dense(w_np, h, q, sig_ev), q * np.float_power(sig_ev, np.arange(4.0))
                )
            events.append(Event(kind=kind, t=t_ev))
            break

        t, w, f = t + h, w_new, k6
        i = n_full % _CHUNK_STEPS
        if i == 0 and n_full:
            chunks.append(bytearray(_CHUNK_STEPS * record.size))
        record.pack_into(chunks[-1], i * record.size, t, *w, *k0, *k2, *k3, *k4, *k5, *k6)
        n_full += 1
        h *= factor

        if t >= t_end:
            events.append(Event(kind="t_max", t=t))
            break

    n_nodes = 1 + n_full + (partial_step is not None)
    ts, nodes = np.empty(n_nodes), np.empty((n_nodes, n))
    interp_q = np.empty((n_nodes - 1, n, 4))
    ts[0], nodes[0] = t0, w0
    # unpack the chunks in place; every full step's interpolant is q = K.T @ P
    for c, chunk in enumerate(chunks):
        i = c * _CHUNK_STEPS
        rows = np.frombuffer(chunk).reshape(_CHUNK_STEPS, width)[: n_full - i]
        j = i + len(rows)
        ts[1 + i : 1 + j] = rows[:, 0]
        nodes[1 + i : 1 + j] = rows[:, 1 : 1 + n]
        K = rows[:, 1 + n :].reshape(-1, len(_STORED), n)
        np.matmul(K.transpose(0, 2, 1), _P_STORED, out=interp_q[i:j])
    if partial_step is not None:
        ts[-1], nodes[-1], interp_q[-1] = partial_step
    return GeodesicTrajectory(dim=dim, ts=ts, nodes=nodes, events=events, interp_q=interp_q)


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
    dim = trajectory.dim
    E, L, K, C = first_integrals(params, trajectory.nodes[:, :dim], trajectory.nodes[:, dim:])
    series = np.column_stack([E, L, K])
    drift = np.abs(series - series[0])
    scales = np.maximum(1.0, np.abs(series[0]))
    return DriftReport(
        initial=ConservedSet(E=float(E[0]), L=float(L[0]), K=float(K[0]), C=float(C[0])),
        max_rel_drift=float((drift / scales).max()),
        series=series,
    )
