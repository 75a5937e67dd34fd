"""Geodesic integration of characteristic t-curves with event monitoring.

Each surface point evolves by y''^mu + Gamma^mu_{nu rho}(y) y'^nu y'^rho = 0.
The integrator is DOP853, the embedded Dormand-Prince 8(5,3) pair of
Hairer's code (Hairer, Norsett & Wanner, Solving ODEs I, II.10): 12 stages
with the last one reused (FSAL), Hairer's error norm, which damps the
5th-order estimate where the 3rd-order one is far larger, predictive
step-size control (Gustafsson, ACM TOMS 20 (1994) 496-517; Hairer & Wanner,
Solving ODEs II, IV.8), and the 7th-order continuous extension, which 3
more stages of each step give, so trajectories can be sampled densely
without re-integration.

The characteristics are independent geodesics, so one step loop advances
all of them together (``integrate_batch``) as the rows of an (N, 2*dim)
array [y, v].  The start states come in as the (N, dim) rows y0 and v0,
every one at t = 0, and a trajectory is sampled as rows [y, v] too, both in
the chart of ``Spacetime.metric_at``.  A spacetime with a ``step_chart`` is
stepped in that chart: Schwarzschild in ingoing Eddington-Finkelstein time,
where nothing diverges at r = 2m, so a row falls to the horizon guard in a
few steps.  Each row keeps its own t, step size h, the step size and error
of its last accepted step, which the controller reads, and step counts.
An iteration attempts one step on every live row, and every live row takes
all 15 stages; per stage, ``Spacetime.acceleration_at(y, v, out)`` writes
all rows' accelerations into ``out``, the a block of the stage rows
[y, v, a], whose [v, a] is the stage.  Which rows passed the error test,
failed it late (a dense-output stage not finite), fired a guard or made a
full step are boolean masks over the live rows.  A row whose stage or step
end left the chart (flagged with nan) or is not finite halves its own h; so
does a row that failed late.  The interpolants and the guards, at the step
end and at the midpoint of the continuous extension, are evaluated on all
live rows, the guards in one call; the event search and the event node run
only on the accepted rows where one fires, all of them at once.  Rows that
end are dropped.
The stage sums are one reduction over the stage axis, which adds the stages
in stage order (zero weights included); they, the error norm and the
controller are element-wise numpy in the order of a scalar loop, with every
power taken by ``np.float_power``, so a row's bits do not depend on the
batch it sits in.
Each step is taken with h = (t + h) - t, so the stored node times differ by
exactly the step sizes.

A trajectory is the node times, the node states [y, v] and one interpolant
per step (q, the coefficients of sigma .. sigma^7), kept as records
[t, w, q].  Each iteration adds its records as one block; when the loop
ends, the blocks are joined into one table of the run and put in row order
by one stable argsort, so each trajectory is a view into that table.  One
dense-output formula serves sampling, the guards' midpoint probe, the
event search and the event state.  Schwarzschild runs terminate at the
horizon (r <= 2m(1 + max(eps_horizon, 1e-10))) or the coordinate axis
(|sin alpha| <= eps_axis).  ``StepStats.stop`` records why a row ended,
and its last node when.  A crossing is located on the step's continuous
extension by Illinois regula falsi (Dowell & Jarratt, BIT 11 (1971)
168-174), in five to seven evaluations where bisection takes some 51; each
round evaluates the rows still searching in one call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NullsheetError
from .reduction import ConservedSet, first_integrals
from .spacetime import HORIZON_MARGIN, SchwarzschildParams, Spacetime

# DOP853, the 8(5,3) pair of Dormand and Prince in Hairer's DOP853 (Hairer,
# Norsett & Wanner, Solving ODEs I, II.10), with the coefficients of
# scipy.integrate's copy of it.  Row i of _A weighs the stages k_0 .. k_{i-1}
# of the argument of stage i: rows 1-11 are the step's stages, row 12 the
# weights B of its result w_new, whose derivative k_12 is the next step's
# k_0 (FSAL), and rows 13-15 the three extra stages of the dense output.
_A = [
    np.array([]),
    np.array([0.05260015195876773]),
    np.array([0.0197250569845379, 0.0591751709536137]),
    np.array([0.02958758547680685, 0.0, 0.08876275643042054]),
    np.array([0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792]),
    np.array([0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242]),
    np.array(
        [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125]
    ),
    np.array(
        [
            0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
            -0.015319437748624402, 0.008273789163814023,
        ]
    ),
    np.array(
        [
            0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
            27.59209969944671, 20.154067550477894, -43.48988418106996,
        ]
    ),
    np.array(
        [
            0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
            21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627,
        ]
    ),
    np.array(
        [
            -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
            -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
            -3.0467644718982196,
        ]
    ),
    np.array(
        [
            2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
            -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
            12.360567175794303, 0.6433927460157636,
        ]
    ),
    np.array(
        [
            0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
            -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
            0.04471061572777259,
        ]
    ),
    np.array(
        [
            0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
            -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
            0.007567897660545699, -0.008298,
        ]
    ),
    np.array(
        [
            0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
            -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
            -0.00034046500868740456, 0.1413124436746325,
        ]
    ),
    np.array(
        [
            -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
            4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
            2.9475147891527724, -9.15095847217987,
        ]
    ),
]
_B = _A[12]
# the 5th- and 3rd-order error weights over k_0 .. k_12; k_12 weighs 0, so
# a step end out of the chart (a nan k_12) fails the step like a stage
_E5 = np.array(
    [
        0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
        1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
        -0.022355307863886294, 0.0,
    ]
)
_E3 = np.array(
    [
        -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
        -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
        0.02265179219836082, 0.0,
    ]
)
# the dense output w + sigma (F_0 + (1 - sigma) (F_1 + sigma (F_2 + ...))),
# F_j = h sum_s G[j, s] k_s: F_0 = w_new - w, F_1 = h k_0 - F_0,
# F_2 = 2 F_0 - h (k_0 + k_12) and F_3 .. F_6 the rows of _D
_D = np.array(
    [
        [
            -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
            2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
            0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
            -4.436036387594894,
        ],
        [
            10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
            -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
            -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
            35.81684148639408,
        ],
        [
            19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
            527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
            0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
            11.99229113618279,
        ],
        [
            -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
            357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
            29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
            -149.72683625798564,
        ],
    ]
)
# the stages with a dense-output weight (k_1 .. k_4 have none)
_DENSE = np.array([0, *range(5, 16)])
_G = np.zeros((7, 16))
_G[0, :12] = _B
_G[1] = -_G[0]
_G[1, 0] += 1.0
_G[2] = 2.0 * _G[0]
_G[2, [0, 12]] -= 1.0
_G[3:] = _D
_G_DENSE = _G[:, _DENSE].T
# the nested form's terms sigma, sigma (1 - sigma), sigma^2 (1 - sigma), ..,
# sigma^4 (1 - sigma)^3 in the powers sigma .. sigma^7: the interpolant is
# q = (K.T @ G.T) @ _T in two products.  The rounding of each F_j then
# cancels at sigma = 1, where the terms past F_0 vanish; one product with
# G.T @ _T (entries up to 545) rounds each power on its own, and puts the
# dense output at sigma = 1 some 240 times farther from the node
_T = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0],
        [1, -1, 0, 0, 0, 0, 0],
        [0, 1, -1, 0, 0, 0, 0],
        [0, 1, -2, 1, 0, 0, 0],
        [0, 0, 1, -2, 1, 0, 0],
        [0, 0, 1, -3, 3, -1, 0],
        [0, 0, 0, 1, -3, 3, -1],
    ],
    dtype=float,
)

# the step loop's scalars are 0-d arrays: numpy takes them as they are,
# where it would convert a Python float on every call
_ZERO, _ONE, _ERR_FLOOR = np.array(0.0), np.array(1.0), np.array(1e-10)
# predictive (Gustafsson) controller: factor SAFETY err^(-1/8), within
# [MIN, MAX], times min(1, (h / h_prev) (err_prev / err)^(1/8)) on an
# accepted step, h_prev and err_prev (at least _ERR_FLOOR) those of the row's
# previous accepted step; _E3_WEIGHT is Hairer's weight of the 3rd-order error
_SAFETY = np.array(0.9)
_MIN_FACTOR = np.array(0.2)
_MAX_FACTOR = np.array(10.0)
_EIGHTH, _NEG_EIGHTH = np.array(1.0 / 8.0), np.array(-1.0 / 8.0)
_E3_WEIGHT = np.array(0.01)
_POWERS = np.arange(1.0, 8.0)
# smallest step, relative to max(|t|, 1), that is not lost in the roundoff of t
_H_FLOOR = np.array(16.0 * sys.float_info.epsilon)

# the step loop's weights as (s, 1, 1) columns over a stack of s stages of
# all rows: a stage's argument weighs k_0 .. k_{s-1}, the error k_0 .. k_12
_A_STACK = [a[:, None, None] for a in _A]
_E5_STACK = _E5[:, None, None]
_E3_STACK = _E3[:, None, None]
# how far past t_last a trajectory may be sampled, and so how far before a
# grid time a run must end for the surface to count that time as reached
REACH_SLACK = 1e-12


@dataclass(frozen=True)
class StepStats:
    """How hard the integrator worked on one characteristic.

    Modelled on the counters of Hairer's DOP853 (nfcn, naccpt, nrejct):
    ``rhs_rows`` is the number of acceleration rows evaluated for it, two to
    choose the first step and fifteen per attempted step, the dense output's
    three included, as every live row takes all stages; ``accepted`` counts
    the steps that passed it, a final event step cut short included;
    ``rejected`` those that failed it; ``domain_rejected`` those retried
    with half the step because a stage, the step end or a dense-output
    stage left the chart or was not finite.  ``h_min`` and ``h_max`` range
    over the full steps, never over the fraction of a step that ends on an
    event (inf and 0.0 without a full step).  ``stop`` is the one record of
    why the run ended, and the trajectory's ``t_last`` when: ``t_max``,
    ``max_steps``, ``step_underflow``, or ``horizon_crossing`` or
    ``axis_crossing`` (at a located crossing).
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
    """Continuous extension w + h q [sigma, sigma^2, .., sigma^7] of a step.

    ``w`` (..., 2*dim) is the state at the step start, ``h`` the step size,
    ``q`` (..., 2*dim, 7) the step's interpolant and ``sigma`` in [0, 1] the
    fraction of the step.  The leading axes run over rows; for rows, ``h``
    and ``sigma`` are (..., 1) columns.
    """
    # float_power is libm pow for every element, like ** on a scalar sigma;
    # ** on an array may round the powers differently
    basis = np.float_power(sigma, _POWERS)
    # far out a state overflows to inf or nan, which the callers' checks read
    with np.errstate(over="ignore", invalid="ignore"):
        return w + h * (q @ basis[..., None])[..., 0]


def _interpolants(ks):
    """Each row's interpolant q (N, 2*dim, 7) from its stages ``ks`` (16, N, 2*dim).

    The terms F_j / h of DOP853's nested dense output (K.T @ G.T), then
    their expansion in the powers of sigma (_T).
    """
    K = np.ascontiguousarray(ks.take(_DENSE, axis=0).transpose(1, 2, 0))
    return np.matmul(np.matmul(K, _G_DENSE), _T)


@dataclass
class GeodesicTrajectory:
    """Dense-output solution of one characteristic's geodesic.

    ``ts`` (n,) holds the accepted node times, ``nodes`` (n, 2*dim) the
    states [y, v] at them and ``interp_q`` (n-1, 2*dim, 7) the interpolant
    of each step, all in the chart the run stepped in: for Schwarzschild,
    ingoing Eddington-Finkelstein rows [v, r, alpha, beta, ...].  ``dense``
    evaluates the continuous extension anywhere in [ts[0], t_last] as rows
    laid out like ``nodes``, and ``sample`` maps them to the chart of
    ``Spacetime.metric_at`` with ``back`` (None when the two are one).
    ``stats`` holds the integrator's counts for it and why it stopped
    (``t_last`` is when).  The three arrays are views into one table of the
    run that made the trajectory, which holds the records [t, w, q] of all
    its rows, grouped by row.
    """

    dim: int
    ts: np.ndarray
    nodes: np.ndarray
    interp_q: np.ndarray
    stats: StepStats
    back: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def t_last(self) -> float:
        return float(self.ts[-1])

    def sample(self, t) -> np.ndarray:
        """States [y, v] at t in [ts[0], t_last] in metric_at's chart, of shape t.shape + (2*dim,)."""
        rows = self.dense(t)
        return rows if self.back is None else self.back(rows)

    def dense(self, t) -> np.ndarray:
        """The continuous extension at t in [ts[0], t_last], as rows laid out like ``nodes``."""
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
            return self.nodes[np.zeros(t.shape, dtype=int)]
        i = np.minimum(np.searchsorted(ts, t, side="right") - 1, len(ts) - 2)
        h = (ts[i + 1] - ts[i])[..., None]
        return _dense(self.nodes[i], h, self.interp_q[i], (t - ts[i])[..., None] / h)


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
        # at the latest on the edge of the chart of metric_at, where tau is
        # still finite; it has none at r = 2m
        eps = max(opts.eps_horizon, HORIZON_MARGIN)
        barrier = np.array(2.0 * meta["mass"] * (1.0 + eps))
        guards.append(("horizon", 1, lambda r, side: r - barrier))
    if meta.get("spherical"):
        eps = np.array(opts.eps_axis)
        side = np.where(np.sin(y0[:, 2]) >= 0.0, 1.0, -1.0)
        guards.append(("axis", 2, lambda alpha, side: side * np.sin(alpha) - eps))
    return guards, side


def _initial_steps(accel, w0, f0, rel_tol, abs_tol, t_end):
    """Hairer-style automatic first step of each row; ``accel`` is ``Spacetime.acceleration_at``."""
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
        x1, dim = w0 + h0[:, None] * f0, w0.shape[1] // 2
        a1 = accel(x1[:, :dim], x1[:, dim:], np.empty_like(x1[:, dim:]))
        f1 = np.concatenate([x1[:, dim:], a1], axis=1)
        d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2, axis=1)) / h0
        d = np.maximum(d1, d2)
        h1 = np.where(d <= 1e-15, np.maximum(1e-6, h0 * 1e-3), np.float_power(0.01 / d, 0.125))
    h = np.minimum(np.minimum(100 * h0, h1), t_end)
    # a row whose trial state left the chart starts with a tenth of h0
    out = ~np.isfinite(f1).all(axis=1)
    return np.where(out, np.minimum(h0 * 0.1, t_end), h)


def _first_crossings(guards, values, t, w, h, q, side):
    """The earliest crossing in each row's step [t, t + h] of the guards that fired.

    Each row is a step where some guard fired: ``w`` is the state at the
    step start, where every guard is > 0, ``q`` the step's interpolant and
    ``values`` (guards, 2, rows) each guard's value at the step end and at
    the midpoint.  A guard fired on a row where one of the two is <= 0; it is
    located on [0, 1/2] when the midpoint is, else on [0, 1], by one
    ``_illinois`` over the rows where it fired.  Returns each row's guard
    (an index into ``guards``), t_ev = t + sigma h and sigma; ties go to the
    first guard.
    """
    n = len(t)
    which, t_ev, sig_ev = np.zeros(n, dtype=int), np.zeros(n), np.zeros(n)
    found = np.zeros(n, dtype=bool)
    for k, ((_, i, g), (at_end, at_mid)) in enumerate(zip(guards, values)):
        mid = at_mid <= 0.0
        rows = (mid | (at_end <= 0.0)).nonzero()[0]
        if not len(rows):
            continue
        w_k, h_k, q_k, side_k = w[rows], h[rows, None], q[rows], side[rows]

        def g_sigma(sub, sigma, i=i, g=g):
            at = _dense(w_k[sub], h_k[sub], q_k[sub], sigma[:, None])
            return g(at[:, i], side_k[sub])

        hi = np.where(mid, 0.5, 1.0)[rows]
        g_hi = np.where(mid, at_mid, at_end)[rows]
        sig = _illinois(g_sigma, g(w_k[:, i], side_k), hi, g_hi)
        t_k = t[rows] + sig * h[rows]
        take = ~found[rows] | (t_k < t_ev[rows])
        rows = rows[take]
        which[rows], t_ev[rows], sig_ev[rows], found[rows] = k, t_k[take], sig[take], True
    return which, t_ev, sig_ev


def _illinois(g, g_lo, hi, g_hi):
    """Per row, the upper end of a bracket [lo, hi] of a root of g, shrunk from [0, hi].

    Illinois regula falsi (Dowell & Jarratt, BIT 11 (1971) 168-174): each
    trial is where the secant through the bracket's ends crosses 0, and when
    the same end is replaced twice in a row, the value kept at the other end
    is halved.  The bracket keeps g(lo) > 0 >= g(hi), from g(0) = ``g_lo``
    and g(hi) = ``g_hi``, so the result never lies before the crossing; a
    row stops once hi - lo <= 1e-15 + 8.9e-16 hi, or at a trial where g is
    0.  A trial keeps half that width from either end, so the trial after
    one next to the root closes the bracket.  ``g(rows, sigma)`` evaluates
    g on the given rows at their fractions sigma; every round evaluates it
    once, on the rows still going.  ``hi``, ``g_lo`` and ``g_hi`` are
    updated in place.
    """
    lo, replaced = np.zeros_like(hi), np.zeros_like(hi)
    todo = np.arange(len(hi))
    while True:
        width = 1e-15 + 8.9e-16 * hi[todo]
        going = (g_hi[todo] != 0.0) & (hi[todo] - lo[todo] > width)
        todo, width = todo[going], width[going]
        if not len(todo):
            return hi
        a, b, g_a, g_b, r = lo[todo], hi[todo], g_lo[todo], g_hi[todo], replaced[todo]
        x = b - g_b * (b - a) / (g_b - g_a)
        x = np.minimum(np.maximum(x, a + 0.5 * width), b - 0.5 * width)
        g_x = g(todo, x)
        up = g_x > 0.0
        lo[todo], hi[todo] = np.where(up, x, a), np.where(up, b, x)
        g_lo[todo] = np.where(up, g_x, np.where(r < 0.0, 0.5 * g_a, g_a))
        g_hi[todo] = np.where(up, np.where(r > 0.0, 0.5 * g_b, g_b), g_x)
        replaced[todo] = np.where(up, 1.0, -1.0)


def _weighted(weights, stages):
    """sum_j weights[j] * stages[j], added in order of j.

    A reduction over the leading axis adds whole stages in order (only one
    along the last axis is pairwise): the bits of the sum written out.
    """
    return np.add.reduce(weights * stages, axis=0)


def _stage(accel, i, w, h, xs, ks):
    """Stage i of a step from w with the step sizes h (on every component).

    Writes its argument x_i = w + h sum_j A[i, j] k_j into ``xs[i]`` and the
    stage k_i = [v, a] at it into ``ks[i]``: the acceleration is written by
    ``accel`` into the a half.
    """
    dim = ks.shape[-1] // 2
    x, k = xs[i], ks[i]
    np.add(w, h * _weighted(_A_STACK[i], ks[:i]), out=x)
    k[:, :dim] = x[:, dim:]
    accel(x[:, :dim], x[:, dim:], k[:, dim:])


def _event_steps(guards, values, t, w, h, q, side):
    """The events of steps where guards fired, as ``_first_crossings`` takes them.

    Returns each row's guard (an index into ``guards``), its event time t_ev,
    its event node and the interpolant of its partial step on [t, t_ev].
    """
    which, t_ev, sig_ev = _first_crossings(guards, values, t, w, h, q, side)
    # the node is the full step's interpolant at the fraction that the stored
    # t_ev really is, one ulp of t later if rounding put that fraction before
    # the one located; so is the partial step's interpolant, on [0, sig_ev]
    t_ev = np.where((t_ev - t) / h < sig_ev, np.nextafter(t_ev, np.inf), t_ev)
    sig_ev = (t_ev - t) / h
    nodes = _dense(w, h[:, None], q, sig_ev[:, None])
    return which, t_ev, nodes, q * np.float_power(sig_ev[:, None, None], np.arange(7.0))


def _start_rows(spacetime: Spacetime, y0, v0, t_end):
    """The start rows y0 and v0 as float arrays, checked as a run needs them."""
    # C-contiguous, so that the accelerations and the metric see rows laid
    # out as they are in the step loop, whatever the caller's layout
    y0, v0 = np.ascontiguousarray(y0, dtype=float), np.ascontiguousarray(v0, dtype=float)
    if not (y0.shape == v0.shape and y0.ndim == 2 and y0.shape[1] == spacetime.dim):
        raise ValueError(
            f"y0 {y0.shape} and v0 {v0.shape} must both be (N, {spacetime.dim}) rows"
        )
    if not t_end > 0.0:
        raise ValueError(f"t_end = {t_end!r} must be positive")
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
    return y0, v0


def _start_derivative(spacetime: Spacetime, y0, v0):
    """[v0, acceleration] at the start rows, the acceleration checked against its contract."""
    accel, dim = spacetime.acceleration_at, spacetime.dim
    f = np.concatenate([v0, v0], axis=1)
    out = f[:, dim:]
    try:
        # e.g. a power of a coordinate near the float limit
        with np.errstate(over="raise"):
            a = accel(y0, v0, out)
    except FloatingPointError as exc:
        for y, v in zip(y0, v0):
            try:
                with np.errstate(over="raise"):
                    accel(y[None], v[None], np.empty((1, dim)))
            except FloatingPointError:
                break
        raise NullsheetError(
            f"integration failed: acceleration overflows at y = {y.tolist()!r}"
        ) from exc
    except (TypeError, ValueError) as exc:  # e.g. another signature, or rows of another shape
        raise TypeError(f"{spacetime.name}: acceleration_at(y, v, out) failed: {exc}") from exc
    if a is not out:  # the integrator reads the stages from the arrays it passes as out
        raise TypeError(f"{spacetime.name}: acceleration_at returned {type(a).__name__}, not out")
    return f


def integrate_batch(
    spacetime: Spacetime,
    y0,
    v0,
    t_end: float,
    options: SolverOptions | None = None,
) -> list[GeodesicTrajectory]:
    """Integrate one geodesic per start row (y0, v0) from t = 0 to t_end or an event.

    ``y0`` and ``v0`` are (N, dim) rows in the chart of ``metric_at``, mapped
    into the spacetime's ``step_chart`` if it has one.  All rows advance in
    one step loop; each row's trajectory and counts are those it has
    integrated alone.
    """
    opts = options or SolverOptions()
    y0, v0 = _start_rows(spacetime, y0, v0, t_end)
    if not len(y0):
        return []
    guards, side = _guards(spacetime, opts, y0)
    for kind, i, g in guards:
        with np.errstate(invalid="ignore"):
            if np.count_nonzero(g(y0[:, i], side) <= 0.0):
                raise DomainError(f"initial state already violates the {kind} guard")
    t_end, dim, accel = float(t_end), spacetime.dim, spacetime.acceleration_at
    n = 2 * dim
    w0 = np.concatenate([y0, v0], axis=1)
    chart = spacetime.step_chart
    if chart is not None:
        w0 = np.ascontiguousarray(chart.into(w0))
    f = _start_derivative(spacetime, w0[:, :dim], w0[:, dim:])
    h = _initial_steps(accel, w0, f, opts.rel_tol, opts.abs_tol, t_end)
    # the loop's scalars as 0-d arrays, like the module's
    rel_tol, abs_tol, t_stop = (np.array(float(c)) for c in (opts.rel_tol, opts.abs_tol, t_end))
    n_comp = np.array(float(n))

    n_rows = len(y0)
    # each row's nodes as records [t, w, q], q the interpolant of the step
    # from the node (nan at the last node), in the order they are found;
    # the step to an event node (t_ev, node, interpolant) becomes two records;
    # they are kept as blocks of records and the rows that own them
    blocks, owners = [], []
    tail = np.full(7 * n, np.nan)
    ends: list[tuple | None] = [None] * n_rows

    # the live rows: original index, t, h, the step size and error of the
    # last accepted step, state, derivative, axis side and the count of their
    # domain-rejected steps; every live row attempts one step per iteration,
    # so a row's attempts are the iterations it lived through
    rows, t, w = np.arange(n_rows), np.zeros(n_rows), w0.copy()
    h_prev, err_prev = np.zeros(n_rows), np.ones(n_rows)
    n_bad = np.zeros(n_rows, dtype=np.int64)

    def end(k, stop, partial=None):
        j = int(rows[k])
        q = tail if partial is None else partial[2].ravel()
        blocks.append(np.concatenate([t[k : k + 1], w[k], q])[None])
        owners.append([j])
        if partial is not None:  # the event node (t_ev, node)
            blocks.append(np.concatenate([[partial[0]], partial[1], tail])[None])
            owners.append([j])
        ends[j] = (attempts, int(n_bad[k]), stop, partial is not None)

    def drop(done):
        """Remove the rows that ended from the live arrays."""
        nonlocal rows, t, h, h_prev, err_prev, w, f, side, n_bad
        live = ~done
        rows, t, h, h_prev, err_prev, w, f, side, n_bad = (
            x[live] for x in (rows, t, h, h_prev, err_prev, w, f, side, n_bad)
        )

    attempts = 0
    with np.errstate(all="ignore"):  # out-of-chart and non-finite rows are rejected
        while len(rows):
            # rows that end before a step: the step budget, or h lost in t's roundoff
            h = np.minimum(h, t_stop - t)
            # step by the increment t + h really gets, so that the stored
            # ts[i + 1] - ts[i] is the h each step and its interpolant were made with
            h = (t + h) - t
            h_floor = _H_FLOOR * np.maximum(np.abs(t), _ONE)
            if attempts >= opts.max_steps:
                for k in range(len(rows)):
                    end(k, "max_steps")
                break
            ended = h < h_floor
            if np.count_nonzero(ended):
                for k in ended.nonzero()[0]:
                    # within roundoff of t_end, or h lost before it
                    end(k, "t_max" if t_end - t[k] < h_floor[k] else "step_underflow")
                drop(ended)
                if not len(rows):
                    break

            attempts += 1
            n_live = len(rows)
            # h on every component of its row (a column would broadcast, slower)
            hw = np.repeat(h, n).reshape(-1, n)
            # the stage arguments x_i = [y, v] and the stages k_i = [v, a],
            # each in a buffer of its own, where the stage sums read
            # contiguous rows; k_0 = f (FSAL).  Slot 12 of xs holds the step
            # end w_new, slots 13-15 the dense output's stage arguments and
            # slot 16 the midpoint of the continuous extension, where the
            # guards probe
            xs, ks = np.empty((17, n_live, n)), np.empty((16, n_live, n))
            ks[0] = f
            for i in range(1, 16):
                _stage(accel, i, w, hw, xs, ks)
            w_new = xs[12]

            # Hairer's error: the 5th-order estimate, damped where the
            # 3rd-order one is far larger, from the RMS of each scaled by
            # max(|w|, |w_new|), the squares summed over the components from
            # the first on; a nan stage, as out-of-chart rows give, makes it nan
            scale = abs_tol + rel_tol * np.maximum(np.abs(w), np.abs(w_new))
            sq = []
            for stack in (_E5_STACK, _E3_STACK):
                e = _weighted(stack, ks[:13])
                e /= scale
                e *= e
                sq.append(np.add.accumulate(e, axis=1)[:, -1])
            deno = sq[0] + _E3_WEIGHT * sq[1]
            err = h * sq[0] / np.sqrt(np.where(deno > _ZERO, deno, _ONE) * n_comp)
            # a step that passed fails late when a dense-output stage is not
            # finite; its err becomes nan, so it is a bad step
            accept = err <= _ONE
            late = accept & ~np.isfinite(ks[13:16, :, dim:]).all(axis=(0, 2))
            np.copyto(err, np.nan, where=late)
            accept &= ~late

            # a rejected step shrinks h, a bad one halves it; an accepted one
            # sets it by the predictive controller, whose second factor is 1
            # on a row without an earlier accepted step (h_prev = 0 there);
            # err = 0 gives the largest factor
            shrink = _SAFETY * np.float_power(err, _NEG_EIGHTH)
            predict = np.minimum(h / h_prev * np.float_power(err_prev / err, _EIGHTH), _ONE)
            grow = np.minimum(shrink * predict, _MAX_FACTOR)
            factor = np.maximum(np.where(accept, grow, shrink), _MIN_FACTOR)
            np.copyto(err_prev, np.maximum(err, _ERR_FLOOR), where=accept)
            np.copyto(h_prev, h, where=accept)
            bad = ~np.isfinite(err)
            np.copyto(factor, 0.5, where=bad)
            n_bad += bad

            # the interpolants; the guards at the step end and, to catch a
            # crossing inside a long step, at the midpoint of the continuous
            # extension, both in one call; an accepted row where one is <= 0
            # is searched for the event, the other accepted rows made full steps
            q = _interpolants(ks)
            hit = np.zeros(n_live, dtype=bool)
            if guards:
                xs[16] = _dense(w, hw, q, 0.5)
                values = np.empty((len(guards), 2, n_live))
                for (_, i, g), at in zip(guards, values):
                    at[...] = g(xs[12::4, :, i], side)
                hit = accept & (values <= _ZERO).any(axis=(0, 1))
                if np.count_nonzero(hit):
                    which, t_ev, nodes, q_ev = _event_steps(
                        guards, values[:, :, hit], t[hit], w[hit], h[hit], q[hit], side[hit]
                    )
                    for j, k in enumerate(hit.nonzero()[0]):
                        stop = f"{guards[which[j]][0]}_crossing"
                        end(k, stop, (float(t_ev[j]), nodes[j], q_ev[j]))

            # the full steps: store [t, w, q] and advance
            full = accept & ~hit
            if np.count_nonzero(full):
                record = [t[full, None], w[full], q[full].reshape(-1, 7 * n)]
                blocks.append(np.concatenate(record, axis=1))
                owners.append(rows[full])
                np.copyto(t, t + h, where=full)
                np.copyto(w, w_new, where=full[:, None])
                np.copyto(f, ks[12], where=full[:, None])
            h = h * factor

            # rows that reach t_end (only full steps move t)
            reached = t >= t_stop
            for k in reached.nonzero()[0]:
                end(k, "t_max")
            done = reached | hit
            if np.count_nonzero(done):
                drop(done)

    # each row's records together, in the order they were found; the blocks
    # go before the take, so the records are never held three times
    owner, table = np.concatenate(owners), np.concatenate(blocks)
    blocks.clear()
    table = table.take(np.argsort(owner, kind="stable"), axis=0)
    starts = [0, *np.cumsum(np.bincount(owner, minlength=n_rows)).tolist()]
    back = None if chart is None else chart.back
    return [
        _trajectory(dim, table[starts[j] : starts[j + 1]], *ends[j], back)
        for j in range(n_rows)
    ]


def _trajectory(dim, records, attempts, n_bad, stop, partial, back) -> GeodesicTrajectory:
    """A row's trajectory from its node records [t, w, q], its end and its step counts.

    ``partial`` tells whether the last step is the step to an event node,
    ``back`` maps its rows to the chart of ``metric_at``.
    """
    n = 2 * dim
    ts, nodes = records[:, 0], records[:, 1 : 1 + n]
    interp_q = records[:-1, 1 + n :].reshape(-1, n, 7)
    n_full = len(records) - 1 - partial
    accepted = n_full + partial  # a crossing's step is accepted
    full_h = ts[1 : 1 + n_full] - ts[:n_full]
    stats = StepStats(
        rhs_rows=2 + 15 * attempts,
        accepted=accepted,
        rejected=attempts - accepted - n_bad,
        domain_rejected=n_bad,
        h_min=float(full_h.min()) if n_full else math.inf,
        h_max=float(full_h.max()) if n_full else 0.0,
        stop=stop,
    )
    return GeodesicTrajectory(
        dim=dim, ts=ts, nodes=nodes, interp_q=interp_q, stats=stats, back=back
    )


def integrate(
    spacetime: Spacetime, y0, v0, t_end: float, options: SolverOptions | None = None
) -> GeodesicTrajectory:
    """Integrate one geodesic from the start state (y0, v0): ``integrate_batch`` on one row."""
    y0, v0 = np.asarray(y0, dtype=float)[None], np.asarray(v0, dtype=float)[None]
    return integrate_batch(spacetime, y0, v0, t_end, options)[0]


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
    dim, back = trajectory.dim, trajectory.back
    states = trajectory.nodes if back is None else back(trajectory.nodes)
    E, L, K, C = first_integrals(params, states[:, :dim], states[:, dim:])
    series = np.column_stack([E, L, K])
    drift = np.abs(series - series[0])
    scales = np.maximum(1.0, np.abs(series[0]))
    return DriftReport(
        initial=ConservedSet(E=float(E[0]), L=float(L[0]), K=float(K[0]), C=float(C[0])),
        max_rel_drift=float((drift / scales).max()),
        series=series,
    )
