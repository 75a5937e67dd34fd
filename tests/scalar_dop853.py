"""The scalar DOP853 loop, kept as the reference for the batched one.

``integrate_scalar`` advances one characteristic on Python floats, with the
list-based accelerations below: each stage sum runs over the tableau row in
stage order, zero weights included, as the batched loop's reductions do;
the acceleration raises DomainError outside its chart and a step whose stage
raises is retried with half the step.  The step size follows the same
predictive (Gustafsson) controller.  Schwarzschild is stepped in ingoing
Eddington-Finkelstein time, the start state mapped by the spacetime's
``step_chart``.  ``geodesic.integrate_batch`` must give bitwise the same
trajectories and step counts; the tests compare the two.  The
interpolant, the dense output, the guards and the event search and event
step are ``geodesic``'s own, which this loop calls on its one row.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from nullsheet import geodesic
from nullsheet.errors import DomainError, NullsheetError
from nullsheet.geodesic import (
    GeodesicTrajectory,
    SolverOptions,
    StepStats,
    _dense,
    _event_steps,
    _guards,
    _interpolants,
)

_A = [a.tolist() for a in geodesic._A]
_E5, _E3 = geodesic._E5.tolist(), geodesic._E3.tolist()
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_H_FLOOR = 16.0 * sys.float_info.epsilon


def _combo(weights, ks, c):
    """sum_j weights[j] * ks[j][c], added in order of j."""
    acc = weights[0] * ks[0][c]
    for a, k in zip(weights[1:], ks[1:]):
        acc += a * k[c]
    return acc


def schwarzschild_acceleration(m: float):
    """Schwarzschild's acceleration in (v, r, alpha, beta) on lists of floats; DomainError at r <= 0."""

    def acceleration(y, v):
        r, alpha = y[1], y[2]
        if not r > 0.0:
            raise DomainError(f"schwarzschild: r = {r!r} must be positive")
        v0, v1, v2, v3 = v
        sin_a, cos_a = math.sin(alpha), math.cos(alpha)
        m_r2, neg2_r = m / (r * r), -2.0 / r
        a0 = r * (v2 * v2 + sin_a * sin_a * v3 * v3) - m_r2 * v0 * v0
        a3 = neg2_r * v1 * v3
        if v2 != 0.0 and v3 != 0.0:
            a3 -= 2.0 * cos_a / sin_a * v2 * v3
        return [
            a0,
            (r - 2.0 * m) / r * a0 + 2.0 * m_r2 * v1 * v0,
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


def integrate_scalar(spacetime, y0, v0, t_end, options=None):
    """One characteristic from (y0, v0) at t = 0 on Python floats.

    The reference for ``integrate_batch``.
    """
    opts = options or SolverOptions()
    y0, v0 = np.asarray(y0, float), np.asarray(v0, float)
    spacetime.metric_at(y0)
    chart = spacetime.step_chart
    dim = spacetime.dim
    n = 2 * dim
    accel = list_acceleration(spacetime)

    def deriv(w):
        v = w[dim:]
        return v + accel(w[:dim], v)

    def stage(w, h, i, ks):
        return deriv([x + h * _combo(_A[i], ks, c) for c, x in enumerate(w)])

    guards, side = _guards(spacetime, opts, y0[None])
    for kind, i, g in guards:
        if g(y0[i : i + 1], side)[0] <= 0.0:
            raise DomainError(f"initial state already violates the {kind} guard")

    t, t_end = 0.0, float(t_end)
    w0 = np.concatenate([y0, v0])
    w = (w0 if chart is None else chart.into(w0)).tolist()
    y, v = w[:dim], w[dim:]
    f = v + accel(y, v)

    ts, nodes, qs = [t], [w], []
    partial_step = None
    stop = None
    rel_tol, abs_tol = opts.rel_tol, opts.abs_tol
    accepted = rejected = domain_rejected = 0

    h = _initial_step(deriv, t, w, f, rel_tol, abs_tol, t_end)
    h_prev = err_prev = None  # of the last accepted step
    n_steps = 0

    while t < t_end:
        if n_steps >= opts.max_steps:
            stop = "max_steps"
            break
        if t_end - t < h:
            h = t_end - t
        h = (t + h) - t
        h_floor = _H_FLOOR * (t if t > 1.0 else -t if t < -1.0 else 1.0)
        if h < h_floor:
            stop = "t_max" if t_end - t < h_floor else "step_underflow"
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
            factor = max(_MIN_FACTOR, _SAFETY * err ** -0.125)
            h *= factor
            continue

        try:
            for i in range(13, 16):
                ks.append(stage(w, h, i, ks))
        except DomainError:
            domain_rejected += 1
            h *= 0.5
            continue

        accepted += 1
        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err ** -0.125
            if h_prev is not None:
                predict = h / h_prev * (err_prev / err) ** 0.125
                factor *= predict if predict < 1.0 else 1.0
            factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
            factor = factor if factor < _MAX_FACTOR else _MAX_FACTOR
        h_prev, err_prev = h, 1e-10 if err < 1e-10 else err

        w_np = np.array(w)[None]
        q = _interpolants(np.array(ks)[:, None])
        if guards:
            # the guards at the step end and at the midpoint, as (guards, 2, 1)
            ends = np.array([w_new, _dense(w_np, np.full((1, n), h), q, 0.5)[0]])[:, None]
            values = np.array([g(ends[:, :, i], side) for kind, i, g in guards])
            if (values <= 0.0).any():
                which, t_ev, node, q_ev = _event_steps(
                    guards, values, np.array([t]), w_np, np.array([h]), q, side
                )
                kind, t_ev = guards[which[0]][0], float(t_ev[0])
                partial_step = (t_ev, node[0], q_ev[0])
                stop = f"{kind}_crossing"
                break
        q = q[0]

        t, w, f = t + h, w_new, ks[12]
        ts.append(t)
        nodes.append(w)
        qs.append(q)
        h *= factor

        if t >= t_end:
            stop = "t_max"
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
        # the batched loop takes all 15 stages on every attempt, rejected or not
        rhs_rows=2 + 15 * n_steps,
        accepted=accepted,
        rejected=rejected,
        domain_rejected=domain_rejected,
        h_min=float(full_h.min()) if n_full else math.inf,
        h_max=float(full_h.max()) if n_full else 0.0,
        stop=stop,
    )
    return GeodesicTrajectory(
        dim=dim, ts=ts, nodes=nodes, interp_q=interp_q, stats=stats,
        back=None if chart is None else chart.back,
    )
