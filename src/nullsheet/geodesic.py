"""Geodesic integration of characteristic t-curves with event monitoring.

Each surface point evolves by y''^mu + Gamma^mu_{nu rho}(y) y'^nu y'^rho = 0.
The integrator is an embedded Dormand-Prince 5(4) pair with PI step-size
control and the standard quartic continuous extension (Hairer, Norsett &
Wanner, Solving ODEs I, II.6), so trajectories can be sampled densely
without re-integration.

The characteristics are independent geodesics, so one step loop advances
all of them together (``integrate_batch``) as the rows of an (N, 2*dim)
array [y, v].  Each row keeps its own t, step size h, PI controller state
and step count.  An iteration attempts one step on every live row, with one
``Spacetime.acceleration_at`` call per stage for all rows; accepting or
rejecting a step is a row mask.  A row whose stage left the chart (the
acceleration flags it with nan) or is not finite halves its own h.  The
guards are evaluated on all rows, at the step end and at the midpoint of
the guarded component's continuous extension; the event search and the
event node run only on the rows where one fires, and the horizon
certificate only on the rows with r_t < 0.  Rows that end are dropped, so
the batch shrinks as characteristics finish.  The stage sums, the error
norm and the controller are element-wise numpy in the left-to-right order
of the scalar loop they replaced, with every power taken by
``np.float_power``, so a row's bits do not depend on the batch it sits in.
Each step is taken with h = (t + h) - t, so the stored node times differ by
exactly the step sizes.

A trajectory is stored as the node times, the node states [y, v] and one
interpolant per step (q = K.T @ P, one matmul per iteration over the rows
that took a full step).  Each node is one record [t, w, q] of a table that
the trajectories of a run share: the records are appended as they are
found, to an anonymous memory map that grows in place, and are grouped by
row in place at the end, so none is held twice.  One dense-output formula
serves sampling (a whole t-grid per call), the event search and the event
state.
Schwarzschild runs terminate at the horizon (r <= 2m(1 + eps_horizon)) or
the coordinate axis (|sin alpha| <= eps_axis); both are recorded as events,
as is step-size underflow.

A run told the t-grid its trajectories will be sampled on (``t_grid``) may
stop a row early at the horizon.  The radial first integral
r_t^2 = (C - J/r^2)(1 - 2m/r) + 2m E^2/r with J = K + L^2, its constants
from node 0, is a cubic in u = 1/r; where its minimum between the node's
radius and the horizon is positive, r falls monotonically to the horizon
within a time bound.  An accepted node with r_t < 0 whose bound ends
before the next grid time (by more than the ``REACH_SLACK`` that sampling
allows) ends the row with a ``horizon`` event at that certified bound.
The grid samples and which grid times the trajectory reaches are then
those of the full run, which would spend most of its steps on the
approach to r = 2m, where tau diverges like -2m ln(r - 2m).
"""

from __future__ import annotations

import math
import mmap
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NullsheetError
from .reduction import ConservedSet, _cubic_at, first_integrals, radial_cubic
from .spacetime import SchwarzschildParams, Spacetime

# Dormand-Prince 5(4) tableau (FSAL: the 7th stage is the next first stage).
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
_H_FLOOR = 16.0 * sys.float_info.epsilon

# the stages with interpolant or error weight (row 1 of _P and _E is zero),
# which are the ones a trajectory stores
_STORED = [0, 2, 3, 4, 5, 6]
_P_STORED = _P[_STORED]
# the step loop's weights as (s, 1, 1) columns over a stack of s stages of
# all rows: a stage's argument weighs k_0 .. k_{s-1}; the step's result
# w_new the nonzero k_0, k_2 .. k_5 (_A[6] is _B[:6], so w_new is also the
# last stage's argument); the error and the interpolant at sigma = 1/2,
# sum_k P[s, k] 2^-(k+1), the stored stages
_A_STACK = [a[:, None, None] for a in _A]
_B_NONZERO = [0, 2, 3, 4, 5]
_B_STACK = _B[_B_NONZERO][:, None, None]
_E_STACK = _E[_STORED][:, None, None]
_MID_STACK = (_P_STORED * 0.5**_POWERS).sum(axis=1)[:, None, None]
# how far past t_last a trajectory may be sampled, and so how far before a
# grid time a run must end for the surface to count that time as reached
REACH_SLACK = 1e-12
# factor on the certified time to the horizon, for the integration error of
# the trajectory that a full run would follow
_CERT_MARGIN = 1.01


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
    """Why and when a run stopped.

    ``t`` is the time of the crossing, found by bisection, or the node time
    of a ``t_max`` or ``step_failure``.  A ``horizon`` event of a run that
    stopped on the radial first integral's certificate (``integrate_batch``
    with a ``t_grid``) has as ``t`` the certified upper bound on the time
    the run reaches r = 2m(1 + eps_horizon); its trajectory ends on the certifying
    node, so ``t_last`` < ``t``.  No guard is checked past that node, so the
    full run may instead end at the axis before ``t``.
    """

    kind: str  # horizon | axis | step_failure | t_max
    t: float


@dataclass(frozen=True)
class StepStats:
    """How hard the integrator worked on one characteristic.

    Modelled on the counters of Hairer's DOPRI5 (nfcn, naccpt, nrejct):
    ``rhs_rows`` is the number of acceleration rows evaluated for it, two to
    choose the first step and six per attempted step; ``accepted`` counts
    the steps that passed the error test, a final event step cut short
    included; ``rejected`` those that failed it; ``domain_rejected`` those
    retried with half the step because a stage left the chart or was not
    finite.  ``h_min`` and ``h_max`` range over the full steps, never over
    the fraction of a step that ends on an event (inf and 0.0 without a
    full step).  ``stop`` is why the run ended: ``t_max``, ``max_steps``,
    ``step_underflow``, ``horizon_certified`` (on the radial first
    integral's bound), or ``horizon_crossing`` or ``axis_crossing`` (at a
    bisected crossing).
    """

    rhs_rows: int
    accepted: int
    rejected: int
    domain_rejected: int
    h_min: float
    h_max: float
    stop: str


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
    [ts[0], t_last].  ``stats`` holds the integrator's counts for it.  The
    three are views into the record table of the run that made
    the trajectory.
    """

    dim: int
    ts: np.ndarray
    nodes: np.ndarray
    events: list[Event]
    interp_q: np.ndarray
    stats: StepStats

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
        outside = (t < ts[0] - REACH_SLACK) | (t > ts[-1] + REACH_SLACK)
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
    """Termination guards (kind, i, g) and each row's side of the axis.

    A row stops when g(y[:, i], side) <= 0: each guard reads the one
    position component i of all rows, and ``side`` (one entry per row of
    ``y0``) is +1 or -1 by the sign of sin(alpha) at the start.  Guards are
    signed so that a transversal crossing (e.g. alpha moving through the
    axis within one step) flips the sign at the step endpoint instead of
    dipping and recovering unseen.
    """
    guards = []
    side = np.ones(len(y0))
    meta = spacetime.meta
    if "mass" in meta:
        barrier = 2.0 * meta["mass"] * (1.0 + opts.eps_horizon)
        guards.append(("horizon", 1, lambda r, side: r - barrier))
    if meta.get("spherical"):
        eps = opts.eps_axis
        side = np.where(np.sin(y0[:, 2]) >= 0.0, 1.0, -1.0)
        guards.append(("axis", 2, lambda alpha, side: side * np.sin(alpha) - eps))
    return guards, side


def _initial_steps(deriv, t0, w0, f0, rel_tol, abs_tol, t_end):
    """Hairer-style automatic first step of each row; ``deriv`` maps rows of states to rows."""
    # a state, derivative or tolerance out of float range makes h0 inf or nan
    with np.errstate(all="ignore"):
        scale = abs_tol + rel_tol * np.abs(w0)
        d0 = np.sqrt(np.mean((w0 / scale) ** 2, axis=1))
        d1 = np.sqrt(np.mean((f0 / scale) ** 2, axis=1))
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    bad = ~((0.0 < h0) & (h0 < math.inf))
    if bad.any():
        raise NullsheetError(
            f"integration failed: no initial step size (h0 = {float(h0[bad][0])!r}), the "
            "state or its derivative is out of floating-point range"
        )
    with np.errstate(all="ignore"):
        f1 = deriv(w0 + h0[:, None] * f0)
        d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2, axis=1)) / h0
        d = np.maximum(d1, d2)
        h1 = np.where(d <= 1e-15, np.maximum(1e-6, h0 * 1e-3), np.float_power(0.01 / d, 0.2))
    span = np.abs(t_end - t0)
    h = np.minimum(np.minimum(100 * h0, h1), span)
    # a row whose trial state left the chart starts with a tenth of h0
    out = ~np.isfinite(f1).all(axis=1)
    return np.where(out, np.minimum(h0 * 0.1, span), h)


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


def _weighted(weights, stages):
    """sum_j weights[j] * stages[j], added in order of j.

    A running sum, not a reduction whose order numpy may choose, so each
    row gets the bits that the same sum written out term by term gives.
    """
    return np.add.accumulate(weights * stages, axis=0)[-1]


def _event_step(fired, t, w, h, ks):
    """The event of a step where guards fired: (Event, partial step or None).

    ``ks`` are the step's seven stages at the row, as (7, 2*dim).  The partial step is
    (t_ev, node, interpolant on [t, t_ev]); a crossing at the step start
    has none, and the run ends on the existing node.
    """
    q = np.array(ks).T @ _P
    kind, t_ev, sig_ev = _first_crossing(fired, t, w, h, q)
    if sig_ev == 0.0:
        return Event(kind=kind, t=t_ev), None
    # the node is the full step's quartic at the fraction that the stored
    # t_ev really is, one ulp of t later if rounding put t_ev before the
    # crossing; so is the partial step's interpolant, on [0, sig_ev]
    if t_ev - t < sig_ev * h:
        t_ev = math.nextafter(t_ev, math.inf)
    sig_ev = (t_ev - t) / h
    partial = (t_ev, _dense(w, h, q, sig_ev), q * np.float_power(sig_ev, np.arange(4.0)))
    return Event(kind=kind, t=t_ev), partial


def _horizon_certificates(spacetime: Spacetime, opts: SolverOptions, y0, v0) -> np.ndarray:
    """Each row's data for the check that lets a run serving a t-grid stop short of the horizon.

    In u = 1/r the radial first integral is the cubic P(u) of
    ``reduction.radial_cubic`` with the constants of the row's node 0.  If
    P > 0 on [1/r, 1/r_h], r_t cannot change sign there, so r falls to
    r_h = 2m(1 + eps_horizon) within (r - r_h) / sqrt(min P); P's minimum
    on [u, u_h] is at an end or at a root of P' inside.  Returns rows
    [c3, c2, c1, c0, P(u_h), u_1, P(u_1), u_2, P(u_2)] with the roots u_i of
    P' in (0, u_h), nan where there is none; ``_certified_times`` reads
    them.  A row whose cubic is out of float range is all nan: it never
    certifies.
    """
    m = spacetime.meta["mass"]
    u_h = 1.0 / (2.0 * m * (1.0 + opts.eps_horizon))
    with np.errstate(all="ignore"):
        E, L, K, C = first_integrals(SchwarzschildParams(m=m), y0, v0)
        cubic = radial_cubic(m, E, L, K, C)
        columns = [*cubic, _cubic_at(cubic, u_h)]
        # P'(u) = 0 at u = (1 -+ sqrt(1 - 12 m^2 (E^2 - C) / J)) / (6m)
        J = -cubic[1]
        disc = np.where(J > 0.0, 1.0 - 12.0 * m * m * (E * E - C) / J, -1.0)
        for u_c in ((1.0 - np.sqrt(disc)) / (6.0 * m), (1.0 + np.sqrt(disc)) / (6.0 * m)):
            inner = (disc >= 0.0) & (0.0 < u_c) & (u_c < u_h)
            columns += [np.where(inner, u_c, np.nan), np.where(inner, _cubic_at(cubic, u_c), np.nan)]
    rows = np.column_stack(columns)
    rows[~np.isfinite(rows[:, :4]).all(axis=1)] = np.nan
    return rows


def _certified_times(cert, t, r, r_t, r_h, limits):
    """The certified time by which each node reaches r_h, nan where none is certified.

    The nodes are accepted ones with r_t < 0, at times t, of rows whose
    ``_horizon_certificates`` data is ``cert``.  A time counts only if it is
    before the first of ``limits`` (the grid times before t_end, then t_end)
    at or after t by more than ``REACH_SLACK``: a grid time equal to t is
    not served by the node, whose own sample there would come from the
    step before it.
    """
    c3, c2, c1, c0, p_h, u_1, p_1, u_2, p_2 = cert.T
    u = 1.0 / r
    p = _cubic_at((c3, c2, c1, c0), u)
    low = np.where(p < p_h, p, p_h)
    for u_c, p_c in ((u_1, p_1), (u_2, p_2)):
        low = np.where((u_c > u) & (p_c < low), p_c, low)
    # less the integral's drift that the node shows
    low = low - np.abs(r_t * r_t - p)
    t_cert = t + _CERT_MARGIN * (r - r_h) / np.sqrt(low)
    limit = limits[np.searchsorted(limits, t, side="left")]
    return np.where((low > 0.0) & (t_cert < limit - REACH_SLACK), t_cert, np.nan)


def _start_rows(spacetime: Spacetime, states0, t_end):
    """(t0, y0, v0) of the start states as rows, checked as a run needs them."""
    for state0 in states0:
        if not t_end > state0.t:
            raise ValueError(f"t_end = {t_end} must exceed t0 = {state0.t}")
    n_rows, dim = len(states0), spacetime.dim
    t0 = np.array([float(s.t) for s in states0])
    y0 = np.array([np.asarray(s.y, float) for s in states0]).reshape(n_rows, dim)
    v0 = np.array([np.asarray(s.v, float) for s in states0]).reshape(n_rows, dim)
    # metric_at raises DomainError outside the chart, naming the first such
    # start state when it is given that one alone; a start state out of
    # float range fails below
    with np.errstate(over="ignore"):
        try:
            spacetime.metric_at(y0)
        except DomainError:
            for y in y0:
                spacetime.metric_at(y)
            raise
    return t0, y0, v0


def _start_acceleration(spacetime: Spacetime, y0, v0):
    """The acceleration at the start rows, checked against the row contract."""
    accel = spacetime.acceleration_at
    try:
        # e.g. a power of a coordinate near the float limit
        with np.errstate(over="raise"):
            a = accel(y0, v0)
    except FloatingPointError as exc:
        for y, v in zip(y0, v0):
            try:
                with np.errstate(over="raise"):
                    accel(y[None], v[None])
            except FloatingPointError:
                break
        raise NullsheetError(
            f"integration failed: acceleration overflows at y = {y.tolist()!r}"
        ) from exc
    # rows of another shape or dtype would broadcast into the stage sums
    if not (type(a) is np.ndarray and a.shape == y0.shape and a.dtype == np.float64):
        raise TypeError(
            f"{spacetime.name}: acceleration_at returned {type(a).__name__} "
            f"{a!r}, not a float array of shape {y0.shape}"
        )
    return a


def integrate_batch(
    spacetime: Spacetime,
    states0,
    t_end: float,
    options: SolverOptions | None = None,
    *,
    t_grid=None,
) -> list[GeodesicTrajectory]:
    """Integrate one geodesic per start state forward to t_end or an event.

    All rows advance in one step loop; each row's trajectory, events and
    counts are those it has integrated alone.  With ``t_grid``, the times
    the trajectories will be sampled at, a Schwarzschild row stops on the
    first node that the radial first integral certifies to reach the
    horizon before the next grid time (see ``Event``); its samples on the
    grid times it reaches, and which those are, equal the full run's.
    """
    opts = options or SolverOptions()
    states0 = list(states0)
    if not states0:
        return []
    t0, y0, v0 = _start_rows(spacetime, states0, t_end)
    guards, side = _guards(spacetime, opts, y0)
    for kind, i, g in guards:
        with np.errstate(invalid="ignore"):
            if np.count_nonzero(g(y0[:, i], side) <= 0.0):
                raise DomainError(f"initial state already violates the {kind} guard")
    t_end = float(t_end)
    dim = spacetime.dim
    n = 2 * dim
    accel = spacetime.acceleration_at

    def deriv(x: np.ndarray, out=None) -> np.ndarray:
        """[v, acceleration] at the rows x = [y, v]."""
        v = x[:, dim:]
        return np.concatenate([v, accel(x[:, :dim], v)], axis=1, out=out)

    w0 = np.concatenate([y0, v0], axis=1)
    f = np.concatenate([v0, _start_acceleration(spacetime, y0, v0)], axis=1)
    rel_tol, abs_tol = opts.rel_tol, opts.abs_tol
    h = _initial_steps(deriv, t0, w0, f, rel_tol, abs_tol, t_end)

    n_rows = len(states0)
    # each row's nodes as records [t, w, q], q the interpolant of the step
    # from the node (nan at the last node), in the order they are found;
    # the step to an event node (t_ev, node, interpolant) becomes two records
    log = _RecordLog(1 + 5 * n, 64 * n_rows, n_rows)  # first room: 64 nodes a row
    tail = np.full(4 * n, np.nan)
    ends: list[tuple | None] = [None] * n_rows
    # the horizon certificate is checked on the nodes with r_t < 0
    certifying = t_grid is not None and "mass" in spacetime.meta
    if certifying:
        cert = _horizon_certificates(spacetime, opts, y0, v0)
        r_h = 2.0 * spacetime.meta["mass"] * (1.0 + opts.eps_horizon)
        # the grid times before t_end, then t_end (sorted in Python: numpy's
        # sort is code that nothing else in a run loads)
        limits = np.array(
            [*sorted(g for g in np.asarray(t_grid, float).tolist() if g < t_end), t_end]
        )
    else:
        cert = np.empty((n_rows, 0))

    # the live rows: original index, t, h, PI state, state, derivative,
    # axis side, certificate data and the tallies of their steps; every live
    # row attempts one step per iteration
    rows, t, w, err_prev = np.arange(n_rows), t0.copy(), w0.copy(), np.ones(n_rows)
    tally = np.zeros((3, n_rows), dtype=np.int64)  # as counts

    def end(k, kind, t_event, stop, partial=None):
        j = int(rows[k])
        if partial is None:
            log.append([j], np.concatenate([t[k : k + 1], w[k], tail])[None])
        else:
            t_ev, node, q = partial
            log.append([j], np.concatenate([t[k : k + 1], w[k], q.ravel()])[None])
            log.append([j], np.concatenate([[t_ev], node, tail])[None])
        ends[j] = (Event(kind=kind, t=t_event), tally[:, k].tolist(), stop, partial is not None)

    def drop(done):
        """Remove the rows that ended from the live arrays."""
        nonlocal rows, t, h, err_prev, w, f, side, cert, tally
        live = ~done
        rows, t, h, err_prev, w, f, side, cert = (
            x[live] for x in (rows, t, h, err_prev, w, f, side, cert)
        )
        tally = tally[:, live]

    attempts = 0
    with np.errstate(all="ignore"):  # out-of-chart and non-finite rows are rejected
        while len(rows):
            # rows that end before a step: the step budget, or h lost in t's roundoff
            h = np.minimum(h, t_end - t)
            # step by the increment t + h really gets, so that the stored
            # ts[i + 1] - ts[i] is the h each step and its interpolant were made with
            h = (t + h) - t
            h_floor = _H_FLOOR * np.maximum(np.abs(t), 1.0)
            if attempts >= opts.max_steps:
                for k in range(len(rows)):
                    end(k, "step_failure", float(t[k]), "max_steps")
                break
            ended = h < h_floor
            if np.count_nonzero(ended):
                for k in ended.nonzero()[0]:
                    if t_end - t[k] < h_floor[k]:  # within roundoff of t_end
                        end(k, "t_max", float(t[k]), "t_max")
                    else:
                        end(k, "step_failure", float(t[k]), "step_underflow")
                drop(ended)
                if not len(rows):
                    break

            attempts += 1
            # h on every component of its row (a column would broadcast, slower)
            hw = np.repeat(h, n).reshape(-1, n)
            ks = np.empty((7, len(rows), n))  # the stages, k[0] = f (FSAL)
            ks[0] = f
            for i in range(1, 6):
                deriv(w + hw * _weighted(_A_STACK[i], ks[:i]), out=ks[i])
            w_new = w + hw * _weighted(_B_STACK, ks[_B_NONZERO])
            deriv(w_new, out=ks[6])
            stored = ks[_STORED]

            # RMS of the error scaled by max(|w|, |w_new|), the squares summed
            # over the components from the first on; a nan stage, as
            # out-of-chart rows give, makes it nan
            e = hw * _weighted(_E_STACK, stored)
            e /= abs_tol + rel_tol * np.maximum(np.abs(w), np.abs(w_new))
            e *= e
            err = np.sqrt(np.add.accumulate(e, axis=1)[:, -1] / n)
            bad = ~np.isfinite(err)
            accept = err <= 1.0
            reject = ~(accept | bad)
            # as integers: adding the masks to the counts would cast bools
            tally += np.where([accept, reject, bad], 1, 0)

            # a rejected step shrinks h, a bad one halves it; an accepted one
            # sets it by the PI controller (err = 0 gives the largest factor)
            shrink = _SAFETY * np.float_power(err, -_PI_ALPHA)
            grow = shrink * np.float_power(err_prev, _PI_BETA)
            factor = np.maximum(shrink, _MIN_FACTOR)
            np.copyto(factor, np.minimum(np.maximum(grow, _MIN_FACTOR), _MAX_FACTOR), where=accept)
            np.copyto(factor, 0.5, where=bad)
            np.copyto(err_prev, np.maximum(err, 1e-10), where=accept)

            # guards at the step end and, to catch a crossing inside a long
            # step, at the midpoint of the continuous extension of their
            # component; a row where one is <= 0 is searched for the event
            full, hit = accept, None
            if guards:
                w_mid = w + hw * _weighted(_MID_STACK, stored)
                marks = []
                for kind, i, g in guards:
                    at_mid = g(w_mid[:, i], side) <= 0.0
                    at_end = g(w_new[:, i], side) <= 0.0
                    marks.append((kind, i, g, at_mid, at_end))
                    hit = at_mid | at_end if hit is None else hit | at_mid | at_end
                hit &= accept
                if np.count_nonzero(hit):
                    full = accept & ~hit
                    for k in hit.nonzero()[0]:
                        fired = [
                            (kind, i, lambda x, g=g, s=side[k]: g(x, s), 0.5 if at_mid[k] else 1.0)
                            for kind, i, g, at_mid, at_end in marks
                            if at_mid[k] or at_end[k]
                        ]
                        event, partial = _event_step(
                            fired, float(t[k]), np.array(w[k]), float(h[k]), ks[:, k]
                        )
                        end(k, event.kind, event.t, f"{event.kind}_crossing", partial)

            # the full steps: store [t, w, q] with the step's interpolant
            # q = K.T @ P, and advance
            n_f = np.count_nonzero(full)
            if n_f:
                sel = slice(None) if n_f == len(rows) else full.nonzero()[0]
                # each row's stages as the (n, 6) matrix K.T of a C-ordered K
                K = np.ascontiguousarray(stored.transpose(1, 0, 2)[sel])
                q = np.matmul(K.transpose(0, 2, 1), _P_STORED)
                log.append(
                    rows[sel],
                    np.concatenate([t[sel, None], w[sel], q.reshape(n_f, -1)], axis=1),
                )
                np.copyto(t, t + h, where=full)
                np.copyto(w, w_new, where=full[:, None])
                np.copyto(f, ks[6], where=full[:, None])
            h = h * factor

            # rows that reach t_end (only full steps move t), or that the
            # certificate stops short of the horizon
            reached = t >= t_end
            for k in reached.nonzero()[0]:
                end(k, "t_max", float(t[k]), "t_max")
            done = reached if hit is None else reached | hit
            if certifying:
                falling = (full & ~reached & (w[:, dim + 1] < 0.0)).nonzero()[0]
                if len(falling):
                    t_cert = _certified_times(
                        cert[falling], t[falling], w[falling, 1], w[falling, dim + 1], r_h, limits
                    )
                    for k, t_k in zip(falling, t_cert.tolist()):
                        if t_k == t_k:  # not nan: certified
                            end(k, "horizon", t_k, "horizon_certified")
                            done[k] = True
            if np.count_nonzero(done):
                drop(done)

    table, starts = log.grouped()
    return [
        _trajectory(dim, table[starts[j] : starts[j + 1]], *ends[j]) for j in range(n_rows)
    ]


def _anonymous_map(nbytes: int) -> mmap.mmap:
    """A private anonymous memory map; only the pages written to become resident."""
    if hasattr(mmap, "MAP_PRIVATE"):  # POSIX: a shared map cannot grow past its first size
        return mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    return mmap.mmap(-1, nbytes)


class _RecordLog:
    """Records of ``width`` floats appended to one anonymous memory map, then grouped by owner.

    The records of all rows share one map, which grows in place (mremap), so
    each record is written once and never held twice.  The map lies outside
    the malloc heap: the trajectories neither fragment the heap nor keep it
    grown, and their memory goes back to the system with the last of them.
    """

    def __init__(self, width: int, capacity: int, n_owners: int):
        self.width = width
        self.map = _anonymous_map(8 * width * capacity)
        self.count = np.zeros(n_owners, dtype=np.int64)  # records per owner
        self.owners = bytearray()  # each record's owner, as 8-byte ints

    def append(self, owners, records: np.ndarray) -> None:
        """Append the rows of the C-ordered float array ``records``, of distinct ``owners``."""
        end = self.map.tell() + records.nbytes
        if end > len(self.map):
            self._grow(max(end, 2 * len(self.map)))
        self.map.write(records)
        owners = np.asarray(owners, dtype=np.int64)
        self.owners += owners.tobytes()
        self.count[owners] += 1

    def _grow(self, nbytes: int) -> None:
        try:
            self.map.resize(nbytes)
        except (OSError, SystemError):  # no mremap (e.g. macOS): copy to a larger map
            grown = _anonymous_map(nbytes)
            grown.write(self.map[: self.map.tell()])
            self.map.close()
            self.map = grown

    def grouped(self):
        """The records as one (n, width) array, those of each owner together in the order appended.

        Returns the array and ``starts``: owner j's records are
        ``starts[j]:starts[j + 1]``.  The records are moved into place
        along the cycles of the permutation, so they are never held twice.
        """
        starts = np.concatenate([[0], np.cumsum(self.count)]).tolist()
        # buffers, not lists, whose entries become Python ints one at a
        # time: each record's owner, and source[i], the record that goes to i
        owners = memoryview(self.owners).cast("q")
        n, size, records = len(owners), 8 * self.width, self.map
        source = memoryview(bytearray(8 * n)).cast("q")
        free = starts[:-1]
        for i, j in enumerate(owners):
            source[free[j]] = i
            free[j] += 1
        placed = bytearray(n)
        for first in range(n):
            if placed[first]:
                continue
            held, i = records[first * size : (first + 1) * size], first
            while source[i] != first:
                records.move(i * size, source[i] * size, size)
                placed[i], i = 1, source[i]
            records[i * size : (i + 1) * size], placed[i] = held, 1
        table = np.frombuffer(records, dtype=float, count=n * self.width)
        return table.reshape(n, self.width), starts


def _trajectory(dim, records, event, counts, stop, partial) -> GeodesicTrajectory:
    """A row's trajectory from its node records [t, w, q], its end and its counts.

    ``partial`` tells whether the last step is the step to an event node.
    """
    n = 2 * dim
    ts, nodes = records[:, 0], records[:, 1 : 1 + n]
    interp_q = records[:-1, 1 + n :].reshape(-1, n, 4)
    n_full = len(records) - 1 - partial
    accepted, rejected, domain_rejected = counts
    full_h = ts[1 : 1 + n_full] - ts[:n_full]
    stats = StepStats(
        rhs_rows=2 + 6 * (accepted + rejected + domain_rejected),
        accepted=accepted,
        rejected=rejected,
        domain_rejected=domain_rejected,
        h_min=float(full_h.min()) if n_full else math.inf,
        h_max=float(full_h.max()) if n_full else 0.0,
        stop=stop,
    )
    return GeodesicTrajectory(
        dim=dim, ts=ts, nodes=nodes, events=[event], interp_q=interp_q, stats=stats
    )


def integrate(
    spacetime: Spacetime,
    state0: GeodesicState,
    t_end: float,
    options: SolverOptions | None = None,
    *,
    t_grid=None,
) -> GeodesicTrajectory:
    """Integrate one geodesic from state0: ``integrate_batch`` on one start state."""
    return integrate_batch(spacetime, [state0], t_end, options, t_grid=t_grid)[0]


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
