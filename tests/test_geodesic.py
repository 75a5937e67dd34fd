import importlib.util
import math
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nullsheet as ns
import nullsheet.cli
from nullsheet import geodesic
from nullsheet.errors import DomainError
from nullsheet.spacetime import HORIZON_MARGIN

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SQRT3 = math.sqrt(3.0)


def rows(*points):
    """Points as the (N, dim) float rows that ``acceleration_at`` takes."""
    return np.array(points, dtype=float)


def accel(spacetime, y, v):
    """The acceleration at the rows (y, v), written into a new array."""
    return spacetime.acceleration_at(y, v, np.empty_like(v))


class TestRhs:
    def test_flat_zero(self, flat):
        a = accel(flat, rows([0.0, 1.0, 2.0, 3.0]), rows([1.0, 0.5, -0.2, 0.1]))
        assert a.shape == (1, 4) and np.abs(a).max() == 0.0

    def test_photon_sphere_radial_balance(self, schw):
        a = accel(
            schw, rows([0.0, 3.0, math.pi / 2, 0.0]), rows([1.0, 0.0, 1.0 / (3 * SQRT3), 0.0])
        )
        assert abs(a[0, 1]) < 1e-15

    def test_r4_circular_radial_balance(self, schw):
        for sign in (1.0, -1.0):
            a = accel(
                schw, rows([0.0, 4.0, math.pi / 2, 0.0]), rows([1.0, 0.0, sign / 8.0, 0.0])
            )
            assert abs(a[0, 1]) < 1e-15

    def test_domain_violation(self, schw):
        # the Eddington-Finkelstein chart holds for r > 0, across r = 2m: a
        # row outside it is flagged with nan, the others are untouched
        y = rows([0.0, 0.0, 1.0, 0.0], [0.0, 2.0, 1.0, 0.0], [0.0, -1.0, 1.0, 0.0],
                 [0.0, 1.5, 1.0, 0.0])
        v = rows(*[[1.0, -0.5, 0.1, 0.2]] * 4)
        a = accel(schw, y, v)
        assert np.isnan(a[[0, 2]]).all() and np.isfinite(a[[1, 3]]).all()
        for k in (1, 3):
            assert a[k].tobytes() == accel(schw, y[k : k + 1], v[k : k + 1])[0].tobytes()

    def test_flat_spherical_domain_violation(self):
        flat = ns.minkowski_spherical()
        y = rows([0.0, 0.0, 1.0, 0.0], [0.0, -1.0, 1.0, 0.0], [0.0, 1e-300, 1.0, 0.0])
        a = accel(flat, y, rows(*[[1.0, -1.0, 0.0, 0.0]] * 3))
        assert np.isnan(a[:2]).all() and np.isfinite(a[2]).all()


class TestIntegrateAgainstClosedForms:
    def test_example1_linear_radius(self, schw, ex1_trajectory):
        ts = np.linspace(0.0, 20.0, 101)
        err = max(abs(ex1_trajectory.sample(t)[1] - (t + 10.0)) for t in ts)
        assert err < 1e-8
        assert ex1_trajectory.stats.stop == "t_max"

    def test_example1_tau_relation(self, ex1_trajectory):
        m, r0 = 1.0, 10.0
        for t in np.linspace(0.0, 20.0, 41):
            s = ex1_trajectory.sample(t)
            lhs = s[1] - r0 + 2 * m * math.log((s[1] - 2 * m) / (r0 - 2 * m))
            assert abs(lhs - s[0]) < 1e-6

    def test_photon_sphere_orbit(self, photon_trajectory):
        ts = np.linspace(0.0, 5.0, 101)
        r_err = max(abs(photon_trajectory.sample(t)[1] - 3.0) for t in ts)
        a_err = max(
            abs(photon_trajectory.sample(t)[2] - (t / (3 * SQRT3) + 1.0)) for t in ts
        )
        assert r_err < 1e-6
        assert a_err < 1e-6

    def test_ex3_circular(self, ex3_circular_trajectory):
        vth = 1.0
        ts = np.linspace(0.0, 5.0, 101)
        r_err = max(abs(ex3_circular_trajectory.sample(t)[1] - 4.0) for t in ts)
        tau_err = max(
            abs(ex3_circular_trajectory.sample(t)[0] - (t + vth)) for t in ts
        )
        assert r_err < 1e-6
        assert tau_err < 1e-8

    def test_flat_straight_line(self, flat):
        v0 = np.array([1.0, 0.3, -0.2, 0.1])
        traj = ns.integrate(flat, np.zeros(4), v0, 10.0)
        y, v = np.split(traj.sample(7.3), 2)
        assert np.abs(y - 7.3 * v0).max() < 1e-12
        assert np.abs(v - v0).max() < 1e-13


class TestDenseOutput:
    def test_continuity_at_nodes(self, ex1_trajectory):
        # the nodes are Eddington-Finkelstein rows, as the continuous extension
        for i in range(1, len(ex1_trajectory.ts) - 1):
            t = float(ex1_trajectory.ts[i])
            s = ex1_trajectory.dense(t)
            assert np.abs(s - ex1_trajectory.nodes[i]).max() < 1e-12

    def test_single_node_trajectory(self, schw, ex1_curve):
        y0, v0 = ex1_curve.phi(1.3), ex1_curve.psi(1.3)
        traj = ns.integrate(schw, y0, v0, 1.0, ns.SolverOptions(max_steps=0))
        assert traj.stats.stop == "max_steps" and len(traj.ts) == 1
        rows = traj.sample(np.zeros(3))
        assert rows.shape == (3, 8)
        assert (rows[:, :4] == y0).all() and (rows[:, 4:] == v0).all()
        assert (traj.sample(0.0)[:4] == y0).all()

    def test_out_of_range_raises(self, ex1_trajectory):
        with pytest.raises(ValueError):
            ex1_trajectory.sample(21.0)
        with pytest.raises(ValueError):
            ex1_trajectory.sample(-0.5)


class TestToleranceScaling:
    def test_error_tracks_tolerance(self, schw, ex1_curve):
        # the global error scales roughly linearly with rel_tol
        errs = []
        for rel in (1e-6, 1e-8, 1e-10):
            opts = ns.SolverOptions(rel_tol=rel, abs_tol=rel * 1e-2)
            traj = ns.integrate(schw, ex1_curve.phi(1.3), ex1_curve.psi(1.3), 20.0, opts)
            s = traj.sample(20.0)
            m, r0 = 1.0, 10.0
            tau_exact = 30.0 - r0 + 2 * m * math.log(28.0 / 8.0)
            errs.append(abs(s[0] - tau_exact) + abs(s[1] - 30.0))
        assert errs[0] / errs[1] > 5.0
        assert errs[1] / errs[2] > 5.0
        assert errs[2] < 1e-9


class TestConservedAlong:
    def test_example1_drift(self, m1_params, ex1_curve, ex1_trajectory):
        rep = ns.conserved_along(m1_params, ex1_trajectory)
        assert rep.initial.E == pytest.approx(1.0, abs=1e-13)
        assert rep.max_rel_drift < 1e-10
        assert np.abs(rep.series[:, 1]).max() == 0.0  # L identically zero
        assert np.abs(rep.series[:, 2]).max() == 0.0  # K identically zero
        # node 0 gives the constants of the data, C included
        data = ns.conserved_from_data(ex1_curve, m1_params, 1.3)
        assert astuple(rep.initial) == pytest.approx(astuple(data), abs=1e-13)

    def test_photon_drift(self, m1_params, photon_trajectory):
        rep = ns.conserved_along(m1_params, photon_trajectory)
        assert rep.initial.K == pytest.approx(3.0, rel=1e-12)
        assert rep.max_rel_drift < 1e-9

    def test_flat_line_integrals_constant(self, flat, m1_params, schw):
        # straight line in the schwarzschild-far field: integrals constant
        y0 = np.array([0.0, 1000.0, math.pi / 2, 0.0])
        traj = ns.integrate(schw, y0, np.array([1.0, 0.5, 0.0, 1e-5]), 5.0)
        rep = ns.conserved_along(m1_params, traj)
        assert rep.max_rel_drift < 1e-10


class TestFirstIntegralConsistency:
    def test_rt_squared_matches(self, schw, m1_params):
        oracle = ns.make_oracle(
            2, "auto",
            ns.OracleParams(m=1.0, r0=10.0, f=1.0, alpha0=1.0, sign_alpha=1),
        )
        curve = oracle.initial_curve()
        vth = 0.4
        cs = ns.conserved_from_data(curve, m1_params, vth)
        traj = ns.integrate(schw, curve.phi(vth), curve.psi(vth), 15.0)
        for t in np.linspace(0.0, 15.0, 61):
            y, v = np.split(traj.sample(t), 2)
            rt2 = ns.rt_squared(y[1], cs, m1_params)
            assert abs(v[1] ** 2 - rt2) < 1e-8

    def test_radial_ode_residual(self, schw, m1_params):
        oracle = ns.make_oracle(
            3, "auto",
            ns.OracleParams(m=1.0, r0=10.0, sign_alpha=1,
                            theta_range=(0.5, 3.0), periodic=False),
        )
        curve = oracle.initial_curve()
        vth = 1.2
        cs = ns.conserved_from_data(curve, m1_params, vth)
        traj = ns.integrate(schw, curve.phi(vth), curve.psi(vth), 15.0)
        m = 1.0
        for t in np.linspace(0.0, 15.0, 61):
            # the acceleration takes the Eddington-Finkelstein rows; r is
            # the same coordinate in both charts
            y, v = np.split(traj.dense(t), 2)
            r, r_t = y[1], v[1]
            r_tt = accel(schw, y[None], v[None])[0, 1]
            residual = (
                r_tt
                - m / (r * (r - 2 * m)) * r_t**2
                + m * cs.E**2 / (r * (r - 2 * m))
                - (r - 2 * m) / r**4 * (cs.K + cs.L**2)
            )
            assert abs(residual) < 1e-6


class TestEvents:
    def test_horizon_event(self, schw):
        # plunging boosted data at r0 = 3 terminates at the horizon
        oracle = ns.make_oracle(
            3, "auto",
            ns.OracleParams(m=1.0, r0=3.0, sign_alpha=1,
                            theta_range=(1.0, 2.0), periodic=False),
        )
        curve = oracle.initial_curve()
        traj = ns.integrate(schw, curve.phi(1.5), curve.psi(1.5), 30.0)
        assert traj.stats.stop == "horizon_crossing"
        barrier = 2.0 * (1.0 + 1e-8)
        assert (traj.nodes[:-1, 1] > barrier).all()
        assert traj.nodes[-1, 1] == pytest.approx(barrier, rel=1e-9)

    def test_axis_event(self, schw):
        # circular boosted characteristic with alpha decreasing through 0
        traj = ns.integrate(
            schw, np.array([0.5, 4.0, 0.05, 0.5]), np.array([1.0, 0.0, -1.0 / 8.0, 0.0]), 5.0
        )
        assert traj.stats.stop == "axis_crossing"
        assert abs(math.sin(traj.nodes[-1, 2])) <= 1e-8 * (1 + 1e-6)

    def test_t_max_event(self, ex1_trajectory):
        assert ex1_trajectory.stats.stop == "t_max"
        assert ex1_trajectory.t_last == pytest.approx(20.0)

    def test_horizon_guard_stays_in_the_chart(self, schw):
        # eps_horizon = 0 would put the event node at r = 2m, where tau has
        # no value; the guard holds at the chart's edge, 2m (1 + 1e-10)
        start = _event_starts()["horizon, example 2"]
        traj = ns.integrate(schw, *start, ns.SolverOptions(eps_horizon=0.0))
        assert traj.stats.stop == "horizon_crossing"
        edge = 2.0 * (1.0 + HORIZON_MARGIN)
        assert 2.0 < traj.nodes[-1, 1] <= edge < traj.nodes[:-1, 1].min()
        assert np.isfinite(traj.sample(traj.ts)).all()

    def test_initial_state_violating_guard(self, schw):
        with pytest.raises(DomainError):
            ns.integrate(schw, np.array([0.0, 2.0 + 1e-10, 1.0, 0.0]), np.zeros(4), 1.0)

    def test_domain_error_mid_stage_rejects_the_step(self):
        # radial flat motion r = 1 + t leaves the domain r <= 3 at t = 2; the
        # steps there are halved until h underflows
        flat = ns.minkowski_spherical()
        free = flat.acceleration_at

        def bounded(y, v, out):
            free(y, v, out)
            out[y[:, 1] > 3.0] = np.nan  # rows outside the chart r <= 3
            return out

        spacetime = replace(flat, acceleration_at=bounded)
        traj = ns.integrate(
            spacetime, np.array([0.0, 1.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0]), 10.0
        )
        assert traj.stats.stop == "step_underflow"
        assert traj.t_last == pytest.approx(2.0, abs=1e-12)
        assert traj.nodes[:, 1].max() <= 3.0

    def test_dense_stage_out_of_chart_rejects_the_step(self):
        # a band of coordinate time that only the dense output's stage at
        # c = 1/5 of one step falls in: that step, which passed its error
        # test, is retried with half the step, whose stages all miss the band
        flat = ns.minkowski()
        state0 = np.zeros(4), np.array([1.0, 0.5, 0.0, 0.0])
        free = ns.integrate(flat, *state0, 50.0)
        i = len(free.ts) // 2
        t_i, h = free.ts[i], free.ts[i + 1] - free.ts[i]
        zero = flat.acceleration_at

        def banded(y, v, out):
            zero(y, v, out)
            band = (t_i + 0.19 * h < y[:, 0]) & (y[:, 0] < t_i + 0.21 * h)
            out[band] = np.nan  # rows outside the chart
            return out

        traj = ns.integrate(replace(flat, acceleration_at=banded), *state0, 50.0)
        s = traj.stats
        assert s.domain_rejected == 1 and s.stop == "t_max"
        np.testing.assert_array_equal(traj.ts[: i + 2], [*free.ts[: i + 1], t_i + 0.5 * h])
        assert np.isfinite(traj.nodes).all() and np.isfinite(traj.interp_q).all()
        # every attempt, the rejected one included, evaluates all 15 stages
        attempts = s.accepted + s.rejected + s.domain_rejected
        assert s.rhs_rows == 2 + 15 * attempts

    def test_flat_infall_never_reaches_the_origin(self):
        # minkowski_spherical's chart is r > 0: a radial infall that would
        # reach r = 0 at t = 1 has its steps past the origin rejected until h
        # underflows
        flat = ns.minkowski_spherical()
        traj = ns.integrate(
            flat, np.array([0.0, 1.0, np.pi / 2, 0.0]), np.array([1.0, -1.0, 0.0, 0.0]), 3.0
        )
        assert traj.stats.stop == "step_underflow"
        assert traj.stats.domain_rejected > 0
        assert (traj.nodes[:, 1] > 0.0).all()
        assert traj.t_last == pytest.approx(1.0, abs=1e-12)

    def test_guard_dip_inside_one_step(self):
        # a flat straight line has one minimum of r; the horizon barrier is put
        # just above r at the midpoint of the step around it, below r at that
        # step's ends, so only the probe at sigma = 1/2 sees the guard go
        # negative
        flat = ns.minkowski_spherical()
        state0 = np.array([0.0, 3.0, np.pi / 2, 0.0]), np.array([1.0, -0.5, 0.0, 0.06])
        free = ns.integrate(flat, *state0, 10.0)
        r_nodes = free.nodes[:, 1]
        r_mid = free.sample(0.5 * (free.ts[:-1] + free.ts[1:]))[:, 1]
        (i,) = np.nonzero(r_mid < np.minimum(r_nodes[:-1], r_nodes[1:]))[0]
        barrier = r_mid[i] + 0.25 * (min(r_nodes[i], r_nodes[i + 1]) - r_mid[i])
        opts = ns.SolverOptions()
        mass = barrier / (2.0 * (1.0 + opts.eps_horizon))
        traj = ns.integrate(replace(flat, meta={**flat.meta, "mass": mass}), *state0, 10.0, opts)
        assert traj.stats.stop == "horizon_crossing"
        np.testing.assert_array_equal(traj.ts[: i + 1], free.ts[: i + 1])
        assert free.ts[i] < traj.t_last < 0.5 * (free.ts[i] + free.ts[i + 1])
        assert traj.nodes[-1, 1] <= barrier


class TestStageSums:
    """The stage sums are reduced over the stage axis, one stage after the other."""

    @pytest.mark.parametrize("n_rows", [1, 2, 32, 128])
    def test_weighted_is_the_left_to_right_sum(self, n_rows):
        rng = np.random.default_rng(n_rows)
        tableau = [*geodesic._A_STACK[1:], geodesic._E5_STACK, geodesic._E3_STACK]
        random = [rng.normal(size=(s, 1, 1)) for s in range(1, 17)]
        for weights in [*tableau, *random]:
            s = len(weights)
            scales = 10.0 ** rng.uniform(-8.0, 8.0, (s, n_rows, 8))
            values = rng.normal(size=(s, n_rows, 8)) * scales
            # as the step loop holds them: [v, a] inside rows [y, v, a]
            rows = np.empty((s, n_rows, 12))
            rows[..., 4:] = values
            expected = weights[0] * values[0]
            for j in range(1, s):
                expected = expected + weights[j] * values[j]
            for stages in (values, rows[..., 4:]):
                assert geodesic._weighted(weights, stages).tobytes() == expected.tobytes()


class TestRhsContract:
    @pytest.mark.parametrize(
        "accel",
        [
            lambda y, v, out: np.zeros(4),
            lambda y, v, out: [0.0] * 3,
            lambda y, v, out: (0.0,) * 4,
            lambda y, v, out: np.add(out, np.zeros(3), out),
            lambda y, v: np.zeros(np.shape(v)),
        ],
        ids=["ndarray", "short list", "tuple", "writes another shape", "no out"],
    )
    def test_acceleration_not_a_float_list_raises(self, accel):
        # acceleration_at writes its (N, dim) rows into out and returns out;
        # another array, a list or a tuple is refused, and so is a call that
        # fails on the out it is given
        spacetime = replace(ns.minkowski_spherical(), acceleration_at=accel)
        y0, v0 = np.array([0.0, 1.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(TypeError, match="minkowski_spherical: acceleration_at"):
            ns.integrate(spacetime, y0, v0, 1.0)


@st.composite
def plunges(draw):
    """(y0, v0, t_end) of runs that may fall into the horizon.

    Example-2 and example-3 data inside their infalling case, and orbits with
    an azimuthal integral L != 0, which the examples' data do not have.
    """
    example = draw(st.sampled_from([2, 3, "L != 0"]))
    if example == "L != 0":
        y = [0.0, draw(st.floats(2.3, 5.0)), draw(st.floats(0.4, 2.7)), 0.0]
        v = [draw(st.floats(0.5, 2.0)), draw(st.floats(-1.0, 0.0)),
             draw(st.floats(-0.1, 0.1)), draw(st.floats(0.05, 0.2))]
        return np.array(y), np.array(v), 30.0
    if example == 2:
        r0, a = draw(st.floats(2.1, 2.95)), draw(st.floats(0.0, 0.3))
        params = ns.OracleParams(m=1.0, r0=r0, f=f"1 + {a!r}*sin(vartheta)",
                                 alpha0=draw(st.floats(0.3, 2.8)), sign_alpha=1)
    else:
        params = ns.OracleParams(m=1.0, r0=draw(st.floats(2.1, 3.6)), sign_alpha=1,
                                 theta_range=(1.0, 2.0), periodic=False)
    curve = ns.make_oracle(example, "auto", params).initial_curve()
    vartheta = draw(st.floats(1.0, 2.0))
    return curve.phi(vartheta), curve.psi(vartheta), 30.0


class TestEventLocation:
    """Crossings located by Illinois regula falsi on the step's continuous extension."""

    def test_infall_ring_crossings(self, schw, infall_rings, monkeypatch):
        # dense-output evaluations per crossing, where bisection to the same
        # width takes some 51; the search runs on all rows of a step at once,
        # so each evaluated row is told apart by its step start w
        evals, counting = [], [None]
        dense, first_crossings = geodesic._dense, geodesic._first_crossings

        def counted_dense(w, *args):
            if counting[0] is not None:
                for row in w:
                    counting[0][row.tobytes()] += 1
            return dense(w, *args)

        def counted_crossings(guards, values, t, w, *args):
            counting[0] = dict.fromkeys((row.tobytes() for row in w), 0)
            try:
                return first_crossings(guards, values, t, w, *args)
            finally:
                evals.extend(counting[0].values())
                counting[0] = None

        monkeypatch.setattr(geodesic, "_dense", counted_dense)
        monkeypatch.setattr(geodesic, "_first_crossings", counted_crossings)
        barrier = 2.0 * (1.0 + ns.SolverOptions().eps_horizon)
        for curve in infall_rings.values():
            thetas = curve.grid(32)
            y0, v0 = curve.phi(thetas), curve.psi(thetas)
            evals.clear()
            batch = ns.integrate_batch(schw, y0, v0, 10.0)
            assert len(evals) == len(batch)
            assert max(evals) <= 12
            for k, traj in enumerate(batch):
                assert traj.stats.stop == "horizon_crossing"
                assert traj.nodes[-1, 1] - barrier <= 0.0 < (traj.nodes[:-1, 1] - barrier).min()
                alone = ns.integrate(schw, y0[k], v0[k], 10.0)
                assert (traj.t_last, traj.stats.stop) == (alone.t_last, alone.stats.stop)

    @settings(max_examples=40, deadline=None)
    @given(start=plunges())
    def test_event_node_is_past_the_crossing(self, schw, start):
        traj = ns.integrate(schw, *start)
        assume(traj.stats.stop in ("horizon_crossing", "axis_crossing"))
        opts = ns.SolverOptions()
        if traj.stats.stop == "horizon_crossing":
            g = traj.nodes[:, 1] - 2.0 * (1.0 + opts.eps_horizon)
        else:
            g = np.sign(np.sin(start[0][2])) * np.sin(traj.nodes[:, 2]) - opts.eps_axis
        assert g[-1] <= 0.0 < g[:-1].min()


class TestTangentNorm:
    """g~(v, v) of the trajectory tangent, read as the surface reads it."""

    def test_example1_null(self, schw, ex1_trajectory):
        for t in (0.0, 5.0, 17.0):
            y, v = np.split(ex1_trajectory.sample(t), 2)
            assert abs(ns.induced_metric(schw, y, v, v).g00) < 1e-9

    def test_ex3_circular_timelike(self, schw, ex3_circular_trajectory):
        for t in (0.0, 2.5, 5.0):
            y, v = np.split(ex3_circular_trajectory.sample(t), 2)
            norm = ns.induced_metric(schw, y, v, v).g00
            assert norm == pytest.approx(-0.25, abs=1e-8)

    def test_flat_radial_null(self, flat):
        v = np.array([1.0, 1.0, 0.0, 0.0])
        assert ns.induced_metric(flat, np.zeros(4), v, v).g00 == 0.0


def _event_starts():
    """(y0, v0, t_end) of runs that end in an event, by how they end."""

    def start(example, params, vartheta):
        curve = ns.make_oracle(example, "auto", params).initial_curve()
        return curve.phi(vartheta), curve.psi(vartheta)

    plunge = start(3, ns.OracleParams(m=1.0, r0=3.0, sign_alpha=1,
                                      theta_range=(1.0, 2.0), periodic=False), 1.5)
    infall = start(2, ns.OracleParams(m=1.0, r0=2.5, f="1 + 0.25*sin(vartheta)",
                                      alpha0=1.0, sign_alpha=1), 1.0)
    to_axis = np.array([0.5, 4.0, 0.05, 0.5]), np.array([1.0, 0.0, -1.0 / 8.0, 0.0])
    return {
        "horizon": (*plunge, 30.0),
        "horizon, example 2": (*infall, 20.0),
        "axis": (*to_axis, 5.0),
    }


@pytest.fixture(scope="module")
def ended(schw, ex1_trajectory):
    """One trajectory for each way a run ends: t_max, horizon and axis."""
    starts = _event_starts()
    return {
        "t_max": ex1_trajectory,
        "horizon": ns.integrate(schw, *starts["horizon"]),
        "axis": ns.integrate(schw, *starts["axis"]),
    }


@pytest.fixture(scope="module")
def event_steps(schw):
    """Each event run with its full last step: (trajectory, w, h, q)."""
    out = {}
    for kind, start in _event_starts().items():
        calls = []
        dense = geodesic._dense
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geodesic, "_dense", lambda *args: calls.append(args) or dense(*args))
            traj = ns.integrate(schw, *start)
        assert traj.stats.stop == kind.split(",")[0] + "_crossing"
        w, h, q, _ = calls[-1]  # the last call places the event node, on one row
        out[kind] = (traj, w[0], h[0, 0], q[0])
    return out


def _assert_states_close(got, want, tol=1e-14):
    """Positions and velocities each within tol of their largest entry."""
    dim = got.shape[-1] // 2
    for part in (slice(None, dim), slice(dim, None)):
        assert np.abs(got[..., part] - want[..., part]).max() <= tol * np.abs(want[..., part]).max()


EVENT_KINDS = ["horizon", "horizon, example 2", "axis"]


class TestEventStep:
    @pytest.mark.parametrize("kind", EVENT_KINDS)
    def test_sample_at_t_last_is_the_event_node(self, event_steps, kind):
        traj = event_steps[kind][0]
        _assert_states_close(traj.dense(traj.t_last), traj.nodes[-1])

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(EVENT_KINDS), fractions=st.lists(st.floats(0.0, 1.0), min_size=1))
    def test_last_step_is_the_full_step_interpolant(self, event_steps, kind, fractions):
        traj, w, h, q = event_steps[kind]
        t_i = traj.ts[-2]
        t = t_i + (traj.t_last - t_i) * np.array(fractions)
        want = geodesic._dense(w, h, q, ((t - t_i) / h)[:, None])
        _assert_states_close(traj.dense(t), want)


def _reference_stages(spacetime, w, h):
    """The 16 stages of one DOP853 step of the numpy tableau, as (16, 2*dim).

    Each stage sum adds its terms in stage order, as the step loop does: the
    dense-output weights (up to 528 in size) would turn the one-ulp stage
    differences of another order into differences of q of the size that
    ``TestOneStepReference`` allows.
    """
    dim = spacetime.dim

    def rhs(x):
        return np.concatenate([x[dim:], accel(spacetime, x[None, :dim], x[None, dim:])[0]])

    K = np.empty((16, 2 * dim))
    K[0] = rhs(w)
    for s in range(1, 16):
        a = geodesic._A[s]
        total = a[0] * K[0]
        for j in range(1, s):
            total = total + a[j] * K[j]
        K[s] = rhs(w + h * total)
    return K


def _reference_step(spacetime, w, h):
    """One DOP853 step of the numpy tableau: (state after h, interpolant q).

    q expands Hairer's nested dense output w + sigma (F_0 + (1 - sigma) (F_1 +
    sigma (F_2 + ...))) in the powers sigma .. sigma^7 with numpy.polynomial.
    """
    K = _reference_stages(spacetime, w, h)
    F0 = K[:12].T @ geodesic._B
    F = [F0, K[0] - F0, 2.0 * F0 - K[0] - K[12], *(K.T @ geodesic._D.T).T]
    q = np.zeros((len(w), 8))
    term = np.array([0.0, 1.0])
    for j, F_j in enumerate(F):
        q[:, : len(term)] += np.outer(F_j, term)
        term = P.polymul(term, [0.0, 1.0] if j % 2 else [1.0, -1.0])
    return w + h * F0, q[:, 1:]


class TestTableau:
    """The DOP853 coefficients, the order of a step and of its dense output."""

    def test_coefficients_are_scipys_bit_for_bit(self):
        coefficients = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        for i in range(1, 16):
            assert geodesic._A[i].tobytes() == coefficients.A[i, :i].tobytes(), i
        for name in ("E5", "E3", "D"):
            assert getattr(geodesic, "_" + name).tobytes() == getattr(coefficients, name).tobytes()

    # an eccentric orbit at r ~ 8m, as the Eddington-Finkelstein row the
    # acceleration takes, and steps where the errors stand above rounding
    W0 = ns.schwarzschild(ns.SchwarzschildParams(m=1.0)).step_chart.into(
        np.array([0.0, 8.0, math.pi / 2, 0.0, 1.2, 0.15, 0.0, 0.04])
    )

    def _exact(self, schw, h, substeps=64):
        w = self.W0
        for _ in range(substeps):
            w = _reference_step(schw, w, h / substeps)[0]
        return w

    def test_local_error_is_eighth_order(self, schw):
        # O(h^9) per step: 2^9 as h halves, above 2^8 before the asymptotic range
        errors = [
            np.abs(_reference_step(schw, self.W0, h)[0] - self._exact(schw, h)).max()
            for h in (4.0, 2.0)
        ]
        assert math.log2(errors[0] / errors[1]) > 8.0

    def test_dense_output_is_seventh_order(self, schw):
        # O(h^8) inside the step: 2^8 as h halves
        errors = []
        for h in (4.0, 2.0, 1.0):
            K = _reference_stages(schw, self.W0, h)
            q = geodesic._interpolants(K[:, None])[0]
            dense = [geodesic._dense(self.W0, h, q, sigma) for sigma in (0.25, 0.5, 0.75)]
            exact = [self._exact(schw, sigma * h) for sigma in (0.25, 0.5, 0.75)]
            errors.append(np.abs(np.array(dense) - np.array(exact)).max())
        assert math.log2(errors[0] / errors[1]) > 7.5
        assert math.log2(errors[1] / errors[2]) > 7.5


class TestOneStepReference:
    """Every full step against one step of the numpy tableau from its start node."""

    def _check(self, spacetime, traj):
        dim = traj.dim
        full = len(traj.ts) - 1
        if traj.stats.stop != "t_max":
            full -= 1  # the event step is partial
        assert full > 0
        got_w, got_q, want_w, want_q = [], [], [], []
        for i in range(full):
            w, q = _reference_step(spacetime, traj.nodes[i], traj.ts[i + 1] - traj.ts[i])
            got_w.append(traj.nodes[i + 1])
            got_q.append(traj.interp_q[i])
            want_w.append(w)
            want_q.append(q)
        for got, want in ((got_w, want_w), (got_q, want_q)):
            got, want = np.array(got), np.array(want)
            for part in (slice(None, dim), slice(dim, None)):
                scale = np.abs(want[:, part]).max()
                assert np.abs(got[:, part] - want[:, part]).max() <= 1e-13 * scale

    @pytest.mark.parametrize("kind", ["t_max", "horizon", "axis"])
    def test_ended(self, schw, ended, kind):
        self._check(schw, ended[kind])

    def test_minkowski_spherical(self):
        flat = ns.minkowski_spherical()
        y0, v0 = np.array([0.0, 1.0, 1.0, 0.5]), np.array([1.0, 0.5, 0.3, 0.2])
        self._check(flat, ns.integrate(flat, y0, v0, 10.0))

    @pytest.mark.parametrize("kind", ["t_max", "horizon", "axis"])
    def test_interpolant_ends_on_the_next_node(self, ended, kind):
        # ts[i + 1] - ts[i] is the h each interpolant was made with, so every
        # step's dense output at sigma = 1 is the next node; near the horizon
        # (h ~ 2e-9 at t ~ 10) the rounding of t + h alone would move it by
        # ~1e-8 relative
        traj = ended[kind]
        h = (traj.ts[1:] - traj.ts[:-1])[:, None]
        got = geodesic._dense(traj.nodes[:-1], h, traj.interp_q, 1.0)
        _assert_states_close(got, traj.nodes[1:], tol=1e-13)


@st.composite
def sample_times(draw, ts):
    """Times on nodes, inside steps, at t_last and up to 1e-12 past it."""
    t_last = float(ts[-1])
    one = st.one_of(
        st.sampled_from([float(t) for t in ts]),
        st.floats(float(ts[0]), t_last),
        st.just(t_last),
        st.floats(0.0, 1e-12).map(lambda d: t_last + d),
    )
    return draw(st.lists(one, min_size=1, max_size=30))


class TestSampleProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["t_max", "horizon", "axis"]))
    def test_array_equals_elementwise_scalar(self, ended, data, kind):
        traj = ended[kind]
        times = np.array(data.draw(sample_times(traj.ts)))
        together = traj.sample(times)
        assert together.shape == (len(times), 2 * traj.dim)
        for j, t in enumerate(times):
            alone = traj.sample(t)
            assert alone.shape == (2 * traj.dim,)
            assert alone.tobytes() == together[j].tobytes()

    @pytest.mark.parametrize("kind", ["t_max", "horizon", "axis"])
    def test_rows_at_node_times_are_the_nodes(self, ended, kind):
        # sigma = 0 at every node before the last, which is the dense output
        # of its step at sigma = 1 (TestOneStepReference)
        traj = ended[kind]
        assert traj.dense(traj.ts[:-1]).tobytes() == traj.nodes[:-1].tobytes()
        for i in (0, len(traj.ts) // 2, len(traj.ts) - 2):
            assert traj.dense(traj.ts[i]).tobytes() == traj.nodes[i].tobytes()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["t_max", "horizon", "axis"]),
           beyond=st.floats(2e-12, 10.0), after=st.booleans())
    def test_out_of_range_array_raises(self, ended, data, kind, beyond, after):
        traj = ended[kind]
        times = data.draw(sample_times(traj.ts))
        bad = traj.ts[-1] + beyond if after else traj.ts[0] - beyond
        times.insert(data.draw(st.integers(0, len(times))), bad)
        with pytest.raises(ValueError):
            traj.sample(np.array(times))


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestTracedFields:
    """What the benchmark's tracer (perfbench/tracer.py) reads off a trajectory."""

    def test_fields_on_every_ending(self, ended):
        for kind, traj in ended.items():
            ts, dim = traj.ts, traj.dim
            assert traj.stats.stop == (kind if kind == "t_max" else f"{kind}_crossing")
            assert (ts[1:] - ts[:-1]).min() > 0.0
            assert traj.nodes.shape == (len(ts), 2 * dim)
            assert len(ts) == len(traj.interp_q) + 1
            nbytes = ts.nbytes + traj.nodes.nbytes + traj.interp_q.nbytes
            n = len(ts)
            assert nbytes == 8 * (n * (1 + 2 * dim) + (n - 1) * 2 * dim * 7)

    def test_traced_pass(self, tmp_path, monkeypatch):
        tracer = _load_perfbench("tracer")
        workloads = _load_perfbench("workloads")
        workload = workloads.make_workload("ring-dense", 0, tmp_path, small=True)
        # run_pipeline integrates every characteristic in one integrate_batch
        # call, which the tracer does not wrap; what it read off each
        # trajectory of an integrate call is read here off that call's
        batches = []
        integrate_batch = nullsheet.cli.integrate_batch

        def recorded(*args, **kwargs):
            batches.append(integrate_batch(*args, **kwargs))
            return batches[-1]

        monkeypatch.setattr(nullsheet.cli, "integrate_batch", recorded)
        result = workload.run_pass(nullsheet.cli, tracer.Tracer())
        assert result.ok, result.why
        assert result.summary["surface.nodes"] == 8 * 5
        [trajectories] = batches
        chars = len(trajectories)
        steps = sum(len(traj.ts) - 1 for traj in trajectories)
        assert chars == sum(traj.stats.stop == "t_max" for traj in trajectories) == 8
        assert steps > 0 and min(np.diff(traj.ts).min() for traj in trajectories) > 0.0
        assert sum(traj.stats.rhs_rows for traj in trajectories) >= 15 * steps
        # per characteristic: n = steps + 1 nodes of (t, y, v), n - 1 interpolants
        nbytes = sum(
            traj.ts.nbytes + traj.nodes.nbytes + traj.interp_q.nbytes for traj in trajectories
        )
        assert nbytes == 8 * ((steps + chars) * 9 + steps * 8 * 7)
