"""The scalar DOP853 loop, kept as the reference for the batched one.

``integrate_scalar`` advances one characteristic on Python floats, with the
list-based accelerations below: each stage sum runs over the tableau row in
stage order, zero weights included, as the batched loop's reductions do;
the acceleration raises DomainError outside its chart and a step whose stage
raises is retried with half the step.  ``geodesic.integrate_batch`` must
give bitwise the same trajectories, events and step counts; the tests
compare the two.  The interpolant, the dense output and the event search
are ``geodesic``'s own, which both loops call on the same rows.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from nullsheet import geodesic
from nullsheet.errors import DomainError, NullsheetError
from nullsheet.geodesic import (
    REACH_SLACK,
    Event,
    GeodesicTrajectory,
    SolverOptions,
    StepStats,
    _dense,
    _first_crossing,
    _interpolants,
)
from nullsheet.reduction import _cubic_at, first_integrals, radial_cubic
from nullsheet.spacetime import HORIZON_MARGIN, SchwarzschildParams

_A = [a.tolist() for a in geodesic._A]
_E5, _E3 = geodesic._E5.tolist(), geodesic._E3.tolist()
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_PI_ALPHA, _PI_BETA = 0.7 / 8.0, 0.4 / 8.0
_H_FLOOR = 16.0 * sys.float_info.epsilon
_CERT_MARGIN = 1.01


def _combo(weights, ks, c):
    """sum_j weights[j] * ks[j][c], added in order of j."""
    acc = weights[0] * ks[0][c]
    for a, k in zip(weights[1:], ks[1:]):
        acc += a * k[c]
    return acc


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
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100 * h0, h1, abs(t_end - t0))


def _horizon_certificate(spacetime, opts, y0, v0, t_grid, t_end):
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




def integrate_scalar(spacetime, y0, v0, t_end, options=None, *, t_grid=None):
    """One characteristic from (y0, v0) at t = 0 on Python floats.

    The reference for ``integrate_batch``.
    """
    opts = options or SolverOptions()
    y0, v0 = np.asarray(y0, float), np.asarray(v0, float)
    spacetime.metric_at(y0)
    dim = spacetime.dim
    n = 2 * dim
    accel = list_acceleration(spacetime)

    def deriv(w):
        v = w[dim:]
        return v + accel(w[:dim], v)

    def stage(w, h, i, ks):
        return deriv([x + h * _combo(_A[i], ks, c) for c, x in enumerate(w)])

    guards = _guards(spacetime, opts, y0)
    for kind, i, g in guards:
        if g(y0[i]) <= 0.0:
            raise DomainError(f"initial state already violates the {kind} guard")

    t, t_end = 0.0, float(t_end)
    y, v = y0.tolist(), v0.tolist()
    w = y + v
    f = v + accel(y, v)

    ts, nodes, qs = [t], [w], []
    partial_step = None
    event = None
    stop = None
    rel_tol, abs_tol = opts.rel_tol, opts.abs_tol
    accepted = rejected = domain_rejected = late = 0

    h = _initial_step(deriv, t, w, f, rel_tol, abs_tol, t_end)
    err_prev = 1.0
    n_steps = 0
    certify = None
    can_certify = t_grid is not None and "mass" in spacetime.meta
    i_rt, rt_gate = (dim + 1, 0.0) if can_certify else (0, -math.inf)

    while t < t_end:
        if n_steps >= opts.max_steps:
            event = Event(kind="step_failure", t=t)
            stop = "max_steps"
            break
        if t_end - t < h:
            h = t_end - t
        h = (t + h) - t
        h_floor = _H_FLOOR * (t if t > 1.0 else -t if t < -1.0 else 1.0)
        if h < h_floor:
            kind = "t_max" if t_end - t < h_floor else "step_failure"
            event = Event(kind=kind, t=t)
            stop = "t_max" if kind == "t_max" else "step_underflow"
            break

        n_steps += 1
        ks = [f]
        try:
            for i in range(1, 12):
                ks.append(stage(w, h, i, ks))
            w_new = [x + h * _combo(_A[12], ks, c) for c, x in enumerate(w)]
            ks.append(deriv(w_new))
        except DomainError:
            domain_rejected += 1
            h *= 0.5
            continue

        sq5 = sq3 = 0.0
        for c, (x, x_new) in enumerate(zip(w, w_new)):
            if x < 0.0:
                x = -x
            if x_new < 0.0:
                x_new = -x_new
            scale = abs_tol + rel_tol * (x if x > x_new else x_new)
            e5 = _combo(_E5, ks, c) / scale
            e3 = _combo(_E3, ks, c) / scale
            sq5 += e5 * e5
            sq3 += e3 * e3
        deno = sq5 + 0.01 * sq3
        if not deno > 0.0:
            deno = 1.0
        err = h * sq5 / math.sqrt(deno * n)

        if err > 1.0:
            rejected += 1
            factor = max(_MIN_FACTOR, _SAFETY * err ** (-_PI_ALPHA))
            h *= factor
            continue

        try:
            for i in range(13, 16):
                ks.append(stage(w, h, i, ks))
        except DomainError:
            domain_rejected += 1
            late += 1
            h *= 0.5
            continue

        accepted += 1
        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** (_PI_BETA)
            factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
            factor = factor if factor < _MAX_FACTOR else _MAX_FACTOR
        err_prev = 1e-10 if err < 1e-10 else err

        w_np = np.array(w)
        q = _interpolants(np.array(ks)[:, None])[0]
        triggered = None
        fired = []
        if guards:
            mid = _dense(w_np[None], np.full((1, n), h), q[None], 0.5)[0].tolist()
        for kind, i, g in guards:
            if g(mid[i]) <= 0.0:
                fired.append((kind, i, g, 0.5))
            elif g(w_new[i]) <= 0.0:
                fired.append((kind, i, g, 1.0))
        if fired:
            triggered = _first_crossing(fired, t, w_np, h, q)

        if triggered is not None:
            kind, t_ev, sig_ev = triggered
            if sig_ev > 0.0:
                if t_ev - t < sig_ev * h:
                    t_ev = math.nextafter(t_ev, math.inf)
                sig_ev = (t_ev - t) / h
                partial_step = (
                    t_ev, _dense(w_np, h, q, sig_ev), q * np.float_power(sig_ev, np.arange(7.0))
                )
            event = Event(kind=kind, t=t_ev)
            stop = f"{kind}_crossing"
            break

        t, w, f = t + h, w_new, ks[12]
        ts.append(t)
        nodes.append(w)
        qs.append(q)
        h *= factor

        if t >= t_end:
            event = Event(kind="t_max", t=t)
            stop = "t_max"
            break
        if w[i_rt] < rt_gate:
            if certify is None:
                certify = _horizon_certificate(spacetime, opts, y0, v0, t_grid, t_end)
            t_cert = certify(t, w[1], w[i_rt])
            if t_cert is not None:
                event = Event(kind="horizon", t=t_cert)
                stop = "horizon_certified"
                break

    n_full = len(qs)
    if partial_step is not None:
        ts.append(partial_step[0])
        nodes.append(partial_step[1])
        qs.append(partial_step[2])
    ts, nodes = np.array(ts), np.array(nodes, dtype=float)
    interp_q = np.array(qs).reshape(-1, n, 7)
    full_h = ts[1 : 1 + n_full] - ts[:n_full]
    stats = StepStats(
        rhs_rows=2 + 12 * n_steps + 3 * (accepted + late),
        accepted=accepted,
        rejected=rejected,
        domain_rejected=domain_rejected,
        h_min=float(full_h.min()) if n_full else math.inf,
        h_max=float(full_h.max()) if n_full else 0.0,
        stop=stop,
    )
    return GeodesicTrajectory(
        dim=dim, ts=ts, nodes=nodes, event=event, interp_q=interp_q, stats=stats
    )
