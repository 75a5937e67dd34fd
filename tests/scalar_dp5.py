"""The scalar Dormand-Prince loop, kept as the reference for the batched one.

``integrate_scalar`` advances one characteristic on Python floats, with the
list-based accelerations below: the stage sums are unrolled over the nonzero
tableau entries, the acceleration raises DomainError outside its chart and
a step whose stage raises is retried with half the step.  ``geodesic.
integrate_batch`` must give bitwise the same trajectories, events and step
counts; the tests compare the two.  The event search and the
dense output are ``geodesic``'s own, which both loops call once per event
step.
"""

from __future__ import annotations

import math
import struct
import sys

import numpy as np

from nullsheet import geodesic
from nullsheet.errors import DomainError, NullsheetError
from nullsheet.geodesic import (
    _B,
    _E,
    _P,
    REACH_SLACK,
    Event,
    GeodesicTrajectory,
    SolverOptions,
    StepStats,
    _dense,
    _first_crossing,
)
from nullsheet.reduction import _cubic_at, first_integrals, radial_cubic
from nullsheet.spacetime import HORIZON_MARGIN, SchwarzschildParams

_A = geodesic._A
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_PI_ALPHA, _PI_BETA = 0.7 / 5.0, 0.4 / 5.0
_POWERS = np.arange(1.0, 5.0)
_H_FLOOR = 16.0 * sys.float_info.epsilon
(_A10,) = _A[1].tolist()
_A20, _A21 = _A[2].tolist()
_A30, _A31, _A32 = _A[3].tolist()
_A40, _A41, _A42, _A43 = _A[4].tolist()
_A50, _A51, _A52, _A53, _A54 = _A[5].tolist()
_B0, _B2, _B3, _B4, _B5 = _B[[0, 2, 3, 4, 5]].tolist()
_STORED = [0, 2, 3, 4, 5, 6]
_E0, _E2, _E3, _E4, _E5, _E6 = _E[_STORED].tolist()
_P_STORED = _P[_STORED]
_M0, _M2, _M3, _M4, _M5, _M6 = (_P_STORED * 0.5**_POWERS).sum(axis=1).tolist()
_CHUNK_STEPS = 64
_CERT_MARGIN = 1.01


def schwarzschild_acceleration(m: float):
    """Schwarzschild's geodesic acceleration on lists of floats; DomainError below r_min."""
    r_min = 2.0 * m * (1.0 + HORIZON_MARGIN)

    def acceleration(y, v):
        r, alpha = y[1], y[2]
        if not r >= r_min:
            raise DomainError(f"schwarzschild: r = {r!r} violates r > 2m")
        v0, v1, v2, v3 = v
        sin_a, cos_a = math.sin(alpha), math.cos(alpha)
        rm = r - 2.0 * m
        r_rm, neg2_r = r * rm, -2.0 / r
        a3 = neg2_r * v1 * v3
        if v2 != 0.0 and v3 != 0.0:
            a3 -= 2.0 * cos_a / sin_a * v2 * v3
        return [
            -2.0 * m / r_rm * v0 * v1,
            rm * sin_a * sin_a * v3 * v3
            + rm * v2 * v2
            + m / r_rm * v1 * v1
            - m * rm / r**3 * v0 * v0,
            neg2_r * v1 * v2 + sin_a * cos_a * v3 * v3,
            a3,
        ]

    return acceleration


def flat_spherical_acceleration(y, v):
    """Flat spherical geodesic acceleration on lists of floats; DomainError at r <= 0."""
    r, alpha = y[1], y[2]
    if not r > 0.0:
        raise DomainError(f"minkowski_spherical: r = {r!r} must be positive")
    _, v1, v2, v3 = v
    sin_a, cos_a = math.sin(alpha), math.cos(alpha)
    neg2_r = -2.0 / r
    a3 = neg2_r * v1 * v3
    if v2 != 0.0 and v3 != 0.0:
        a3 -= 2.0 * cos_a / sin_a * v2 * v3
    return [
        0.0,
        r * v2 * v2 + r * sin_a * sin_a * v3 * v3,
        neg2_r * v1 * v2 + sin_a * cos_a * v3 * v3,
        a3,
    ]


def list_acceleration(spacetime):
    """The list-based acceleration of a shipped spacetime."""
    if spacetime.name == "schwarzschild":
        return schwarzschild_acceleration(spacetime.meta["mass"])
    if spacetime.name == "minkowski_spherical":
        return flat_spherical_acceleration
    if spacetime.name == "minkowski":
        return lambda y, v: [0.0] * spacetime.dim
    raise ValueError(f"no list acceleration for {spacetime.name}")


def _guards(spacetime, opts, y0):
    guards = []
    meta = spacetime.meta
    if "mass" in meta:
        barrier = 2.0 * meta["mass"] * (1.0 + opts.eps_horizon)
        guards.append(("horizon", 1, lambda r: r - barrier))
    if meta.get("spherical"):
        eps = opts.eps_axis
        side = 1.0 if math.sin(y0[2]) >= 0.0 else -1.0
        guards.append(("axis", 2, lambda alpha: side * math.sin(alpha) - eps))
    return guards


def _initial_step(deriv, t0, w0, f0, rel_tol, abs_tol, t_end):
    w0, f0 = np.array(w0), np.array(f0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = abs_tol + rel_tol * np.abs(w0)
        d0 = float(np.sqrt(np.mean((w0 / scale) ** 2)))
        d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not 0.0 < h0 < math.inf:
        raise NullsheetError(f"integration failed: no initial step size (h0 = {h0!r})")
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


def _horizon_certificate(spacetime, opts, state0, t_grid, t_end):
    """The check that lets a run serving ``t_grid`` stop short of the horizon.

    Returns ``certify(t, r, r_t)`` for accepted nodes with r_t < 0, visited
    in order of t: the certified time by which the run reaches
    r_h = 2m(1 + eps_horizon), or None when that time is not before the next
    grid time (or t_end) by more than ``REACH_SLACK``.  The spacetime has a
    mass; the loop builds the check at its first node with r_t < 0.

    In u = 1/r the radial first integral is the cubic P(u) of
    ``reduction.radial_cubic`` with the constants of node 0.  If P > 0 on
    [1/r, 1/r_h], r_t cannot change sign there, so r falls to r_h within
    (r - r_h) / sqrt(min P).
    """
    m = spacetime.meta["mass"]
    y0, v0 = np.asarray(state0.y, float), np.asarray(state0.v, float)
    with np.errstate(all="ignore"):  # data out of float range certifies nothing
        E, L, K, C = (float(x) for x in first_integrals(SchwarzschildParams(m=m), y0, v0))
    cubic = radial_cubic(m, E, L, K, C)
    if not all(map(math.isfinite, cubic)):
        return lambda t, r, r_t: None
    J = -cubic[1]

    r_h = 2.0 * m * (1.0 + opts.eps_horizon)
    u_h = 1.0 / r_h
    # P's minimum on [u, u_h] is at an end or at a root of P' inside:
    # P'(u) = 0 at u = (1 +- sqrt(1 - 12 m^2 (E^2 - C) / J)) / (6m)
    inner = []
    disc = 1.0 - 12.0 * m * m * (E * E - C) / J if J > 0.0 else -1.0
    if disc >= 0.0:
        for u_c in ((1.0 - math.sqrt(disc)) / (6.0 * m), (1.0 + math.sqrt(disc)) / (6.0 * m)):
            if 0.0 < u_c < u_h:
                inner.append((u_c, _cubic_at(cubic, u_c)))
    p_h = _cubic_at(cubic, u_h)
    # the times a node must stay short of: the grid times before t_end, then t_end
    limits = sorted(g for g in np.asarray(t_grid, float).tolist() if g < t_end)
    limits.append(t_end)
    k = 0

    def certify(t, r, r_t):
        nonlocal k
        # the first limit at or after t; one equal to t is not served by this
        # node, whose own sample there would come from the step before it
        while limits[k] < t:
            k += 1
        u = 1.0 / r
        p = _cubic_at(cubic, u)
        low = p if p < p_h else p_h
        for u_c, p_c in inner:
            if u_c > u and p_c < low:
                low = p_c
        # less the integral's drift that the node shows
        drift = r_t * r_t - p
        low -= drift if drift > 0.0 else -drift
        if not low > 0.0:
            return None
        t_cert = t + _CERT_MARGIN * (r - r_h) / math.sqrt(low)
        return t_cert if t_cert < limits[k] - REACH_SLACK else None

    return certify




def integrate_scalar(spacetime, state0, t_end, options=None, *, t_grid=None):
    """One characteristic on Python floats: the reference for ``integrate_batch``."""
    opts = options or SolverOptions()
    y0 = np.asarray(state0.y, float)
    spacetime.metric_at(y0)
    dim = spacetime.dim
    n = 2 * dim
    accel = list_acceleration(spacetime)

    def deriv(w):
        v = w[dim:]
        return v + accel(w[:dim], v)

    guards = _guards(spacetime, opts, y0)
    for kind, i, g in guards:
        if g(state0.y[i]) <= 0.0:
            raise DomainError(f"initial state already violates the {kind} guard")

    t, t_end = float(state0.t), float(t_end)
    y, v = y0.tolist(), np.asarray(state0.v, float).tolist()
    w = y + v
    f = v + accel(y, v)

    width = 1 + (1 + len(_STORED)) * n
    record = struct.Struct(f"{width}d")
    chunks = [bytearray(_CHUNK_STEPS * record.size)]
    n_full = 0
    t0, w0 = t, w
    partial_step = None
    events = []
    stop = None
    rel_tol, abs_tol = opts.rel_tol, opts.abs_tol
    accepted = rejected = domain_rejected = 0

    h = _initial_step(deriv, t, w, f, rel_tol, abs_tol, t_end)
    err_prev = 1.0
    n_steps = 0
    certify = None
    can_certify = t_grid is not None and "mass" in spacetime.meta
    i_rt, rt_gate = (dim + 1, 0.0) if can_certify else (0, -math.inf)

    while t < t_end:
        if n_steps >= opts.max_steps:
            events.append(Event(kind="step_failure", t=t))
            stop = "max_steps"
            break
        if t_end - t < h:
            h = t_end - t
        h = (t + h) - t
        h_floor = _H_FLOOR * (t if t > 1.0 else -t if t < -1.0 else 1.0)
        if h < h_floor:
            kind = "t_max" if t_end - t < h_floor else "step_failure"
            events.append(Event(kind=kind, t=t))
            stop = "t_max" if kind == "t_max" else "step_underflow"
            break

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
            k6 = deriv(w_new)
        except DomainError:
            domain_rejected += 1
            h *= 0.5
            continue

        sq = 0.0
        for x, x_new, p0, p2, p3, p4, p5, p6 in zip(w, w_new, k0, k2, k3, k4, k5, k6):
            e = h * (_E0 * p0 + _E2 * p2 + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6)
            if x < 0.0:
                x = -x
            if x_new < 0.0:
                x_new = -x_new
            e /= abs_tol + rel_tol * (x if x > x_new else x_new)
            sq += e * e
        err = math.sqrt(sq / n)

        if err > 1.0:
            rejected += 1
            factor = max(_MIN_FACTOR, _SAFETY * err ** (-_PI_ALPHA))
            h *= factor
            continue

        accepted += 1
        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** (_PI_BETA)
            factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
            factor = factor if factor < _MAX_FACTOR else _MAX_FACTOR
        err_prev = 1e-10 if err < 1e-10 else err

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
            if sig_ev > 0.0:
                if t_ev - t < sig_ev * h:
                    t_ev = math.nextafter(t_ev, math.inf)
                sig_ev = (t_ev - t) / h
                partial_step = (
                    t_ev, _dense(w_np, h, q, sig_ev), q * np.float_power(sig_ev, np.arange(4.0))
                )
            events.append(Event(kind=kind, t=t_ev))
            stop = f"{kind}_crossing"
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
            stop = "t_max"
            break
        if w[i_rt] < rt_gate:
            if certify is None:
                certify = _horizon_certificate(spacetime, opts, state0, t_grid, t_end)
            t_cert = certify(t, w[1], w[i_rt])
            if t_cert is not None:
                events.append(Event(kind="horizon", t=t_cert))
                stop = "horizon_certified"
                break

    n_nodes = 1 + n_full + (partial_step is not None)
    ts, nodes = np.empty(n_nodes), np.empty((n_nodes, n))
    interp_q = np.empty((n_nodes - 1, n, 4))
    ts[0], nodes[0] = t0, w0
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
    full_h = ts[1 : 1 + n_full] - ts[:n_full]
    stats = StepStats(
        rhs_rows=2 + 6 * n_steps,
        accepted=accepted,
        rejected=rejected,
        domain_rejected=domain_rejected,
        h_min=float(full_h.min()) if n_full else math.inf,
        h_max=float(full_h.max()) if n_full else 0.0,
        stop=stop,
    )
    return GeodesicTrajectory(
        dim=dim, ts=ts, nodes=nodes, events=events, interp_q=interp_q, stats=stats
    )
