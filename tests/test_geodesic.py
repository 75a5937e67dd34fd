import importlib.util
import math
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nullsheet as ns
import nullsheet.cli
from nullsheet import geodesic
from nullsheet.errors import DomainError

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SQRT3 = math.sqrt(3.0)


def rows(*points):
    """Points as the (N, dim) float rows that ``acceleration_at`` takes."""
    return np.array(points, dtype=float)


class TestRhs:
    def test_flat_zero(self, flat):
        a = flat.acceleration_at(rows([0.0, 1.0, 2.0, 3.0]), rows([1.0, 0.5, -0.2, 0.1]))
        assert a.shape == (1, 4) and np.abs(a).max() == 0.0

    def test_photon_sphere_radial_balance(self, schw):
        a = schw.acceleration_at(
            rows([0.0, 3.0, math.pi / 2, 0.0]), rows([1.0, 0.0, 1.0 / (3 * SQRT3), 0.0])
        )
        assert abs(a[0, 1]) < 1e-15

    def test_r4_circular_radial_balance(self, schw):
        for sign in (1.0, -1.0):
            a = schw.acceleration_at(
                rows([0.0, 4.0, math.pi / 2, 0.0]), rows([1.0, 0.0, sign / 8.0, 0.0])
            )
            assert abs(a[0, 1]) < 1e-15

    def test_domain_violation(self, schw):
        # a row outside the chart is flagged with nan, the others are untouched
        y = rows([0.0, 1.5, 1.0, 0.0], [0.0, 4.0, 1.0, 0.0], [0.0, 2.0, 1.0, 0.0])
        v = rows([1.0, 0.0, 0.1, 0.2], [1.0, 0.0, 0.1, 0.2], [1.0, 0.0, 0.1, 0.2])
        a = schw.acceleration_at(y, v)
        assert np.isnan(a[[0, 2]]).all()
        assert a[1].tobytes() == schw.acceleration_at(y[1:2], v[1:2])[0].tobytes()

    def test_flat_spherical_domain_violation(self):
        flat = ns.minkowski_spherical()
        y = rows([0.0, 0.0, 1.0, 0.0], [0.0, -1.0, 1.0, 0.0], [0.0, 1e-300, 1.0, 0.0])
        a = flat.acceleration_at(y, rows(*[[1.0, -1.0, 0.0, 0.0]] * 3))
        assert np.isnan(a[:2]).all() and np.isfinite(a[2]).all()


class TestIntegrateAgainstClosedForms:
    def test_example1_linear_radius(self, schw, ex1_trajectory):
        ts = np.linspace(0.0, 20.0, 101)
        err = max(abs(ex1_trajectory.sample(t).y[1] - (t + 10.0)) for t in ts)
        assert err < 1e-8
        assert ex1_trajectory.events[-1].kind == "t_max"

    def test_example1_tau_relation(self, ex1_trajectory):
        m, r0 = 1.0, 10.0
        for t in np.linspace(0.0, 20.0, 41):
            s = ex1_trajectory.sample(t)
            lhs = s.y[1] - r0 + 2 * m * math.log((s.y[1] - 2 * m) / (r0 - 2 * m))
            assert abs(lhs - s.y[0]) < 1e-6

    def test_photon_sphere_orbit(self, photon_trajectory):
        ts = np.linspace(0.0, 5.0, 101)
        r_err = max(abs(photon_trajectory.sample(t).y[1] - 3.0) for t in ts)
        a_err = max(
            abs(photon_trajectory.sample(t).y[2] - (t / (3 * SQRT3) + 1.0)) for t in ts
        )
        assert r_err < 1e-6
        assert a_err < 1e-6

    def test_ex3_circular(self, ex3_circular_trajectory):
        vth = 1.0
        ts = np.linspace(0.0, 5.0, 101)
        r_err = max(abs(ex3_circular_trajectory.sample(t).y[1] - 4.0) for t in ts)
        tau_err = max(
            abs(ex3_circular_trajectory.sample(t).y[0] - (t + vth)) for t in ts
        )
        assert r_err < 1e-6
        assert tau_err < 1e-8

    def test_flat_straight_line(self, flat):
        state0 = ns.GeodesicState(
            y=np.zeros(4), v=np.array([1.0, 0.3, -0.2, 0.1]), t=0.0
        )
        traj = ns.integrate(flat, state0, 10.0)
        s = traj.sample(7.3)
        assert np.abs(s.y - 7.3 * state0.v).max() < 1e-12
        assert np.abs(s.v - state0.v).max() < 1e-13


class TestDenseOutput:
    def test_continuity_at_nodes(self, ex1_trajectory):
        for i in range(1, len(ex1_trajectory.ts) - 1):
            t = float(ex1_trajectory.ts[i])
            s = ex1_trajectory.sample(t)
            node = ex1_trajectory.states[i]
            assert np.abs(s.y - node.y).max() < 1e-12
            assert np.abs(s.v - node.v).max() < 1e-12

    def test_single_node_trajectory(self, schw, ex1_curve):
        state0 = ns.GeodesicState(y=ex1_curve.phi(1.3), v=ex1_curve.psi(1.3), t=0.0)
        traj = ns.integrate(schw, state0, 1.0, ns.SolverOptions(max_steps=0))
        assert [e.kind for e in traj.events] == ["step_failure"] and len(traj.ts) == 1
        rows = traj.sample(np.zeros(3))
        assert rows.y.shape == (3, 4)
        assert (rows.y == state0.y).all() and (rows.v == state0.v).all()
        assert (traj.sample(0.0).y == state0.y).all()

    def test_out_of_range_raises(self, ex1_trajectory):
        with pytest.raises(ValueError):
            ex1_trajectory.sample(21.0)
        with pytest.raises(ValueError):
            ex1_trajectory.sample(-0.5)


class TestToleranceScaling:
    def test_error_tracks_tolerance(self, schw, ex1_curve):
        # global error of the 5(4) pair scales roughly linearly with rel_tol
        errs = []
        for rel in (1e-6, 1e-8, 1e-10):
            opts = ns.SolverOptions(rel_tol=rel, abs_tol=rel * 1e-2)
            state0 = ns.GeodesicState(
                y=ex1_curve.phi(1.3), v=ex1_curve.psi(1.3), t=0.0
            )
            traj = ns.integrate(schw, state0, 20.0, opts)
            s = traj.sample(20.0)
            m, r0 = 1.0, 10.0
            tau_exact = 30.0 - r0 + 2 * m * math.log(28.0 / 8.0)
            errs.append(abs(s.y[0] - tau_exact) + abs(s.y[1] - 30.0))
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
        state0 = ns.GeodesicState(
            y=np.array([0.0, 1000.0, math.pi / 2, 0.0]),
            v=np.array([1.0, 0.5, 0.0, 1e-5]),
            t=0.0,
        )
        traj = ns.integrate(schw, state0, 5.0)
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
        state0 = ns.GeodesicState(y=curve.phi(vth), v=curve.psi(vth), t=0.0)
        traj = ns.integrate(schw, state0, 15.0)
        for t in np.linspace(0.0, 15.0, 61):
            s = traj.sample(t)
            rt2 = ns.rt_squared(s.y[1], cs, m1_params)
            assert abs(s.v[1] ** 2 - rt2) < 1e-8

    def test_radial_ode_residual(self, schw, m1_params):
        oracle = ns.make_oracle(
            3, "auto",
            ns.OracleParams(m=1.0, r0=10.0, sign_alpha=1,
                            theta_range=(0.5, 3.0), periodic=False),
        )
        curve = oracle.initial_curve()
        vth = 1.2
        cs = ns.conserved_from_data(curve, m1_params, vth)
        state0 = ns.GeodesicState(y=curve.phi(vth), v=curve.psi(vth), t=0.0)
        traj = ns.integrate(schw, state0, 15.0)
        m = 1.0
        for t in np.linspace(0.0, 15.0, 61):
            s = traj.sample(t)
            r, r_t = s.y[1], s.v[1]
            r_tt = schw.acceleration_at(s.y[None], s.v[None])[0, 1]
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
        state0 = ns.GeodesicState(y=curve.phi(1.5), v=curve.psi(1.5), t=0.0)
        traj = ns.integrate(schw, state0, 30.0)
        kinds = [e.kind for e in traj.events]
        assert kinds == ["horizon"]
        assert traj.terminated_early
        barrier = 2.0 * (1.0 + 1e-8)
        for s in traj.states[:-1]:
            assert s.y[1] > barrier
        assert traj.states[-1].y[1] == pytest.approx(barrier, rel=1e-9)

    def test_axis_event(self, schw):
        # circular boosted characteristic with alpha decreasing through 0
        state0 = ns.GeodesicState(
            y=np.array([0.5, 4.0, 0.05, 0.5]),
            v=np.array([1.0, 0.0, -1.0 / 8.0, 0.0]),
            t=0.0,
        )
        traj = ns.integrate(schw, state0, 5.0)
        assert [e.kind for e in traj.events] == ["axis"]
        assert abs(math.sin(traj.states[-1].y[2])) <= 1e-8 * (1 + 1e-6)

    def test_t_max_event(self, ex1_trajectory):
        assert ex1_trajectory.events[-1].kind == "t_max"
        assert ex1_trajectory.events[-1].t == pytest.approx(20.0)

    def test_initial_state_violating_guard(self, schw):
        state0 = ns.GeodesicState(
            y=np.array([0.0, 2.0 + 1e-10, 1.0, 0.0]), v=np.zeros(4), t=0.0
        )
        with pytest.raises(DomainError):
            ns.integrate(schw, state0, 1.0)

    def test_domain_error_mid_stage_rejects_the_step(self):
        # radial flat motion r = 1 + t leaves the domain r <= 3 at t = 2; the
        # steps there are halved until h underflows
        flat = ns.minkowski_spherical()
        accel = flat.acceleration_at

        def bounded(y, v):
            a = accel(y, v)
            a[y[:, 1] > 3.0] = np.nan  # rows outside the chart r <= 3
            return a

        spacetime = replace(flat, acceleration_at=bounded)
        state0 = ns.GeodesicState(
            y=np.array([0.0, 1.0, 1.0, 0.0]), v=np.array([1.0, 1.0, 0.0, 0.0]), t=0.0
        )
        traj = ns.integrate(spacetime, state0, 10.0)
        assert [e.kind for e in traj.events] == ["step_failure"]
        assert traj.events[0].t == traj.t_last
        assert traj.t_last == pytest.approx(2.0, abs=1e-12)
        assert traj.nodes[:, 1].max() <= 3.0

    def test_flat_infall_never_reaches_the_origin(self):
        # minkowski_spherical's chart is r > 0: a radial infall that would
        # reach r = 0 at t = 1 has its steps past the origin rejected until h
        # underflows
        flat = ns.minkowski_spherical()
        state0 = ns.GeodesicState(
            y=np.array([0.0, 1.0, np.pi / 2, 0.0]), v=np.array([1.0, -1.0, 0.0, 0.0]), t=0.0
        )
        traj = ns.integrate(flat, state0, 3.0)
        assert [e.kind for e in traj.events] == ["step_failure"]
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
        state0 = ns.GeodesicState(
            y=np.array([0.0, 3.0, np.pi / 2, 0.0]), v=np.array([1.0, -0.5, 0.0, 0.05]), t=0.0
        )
        free = ns.integrate(flat, state0, 10.0)
        r_nodes = free.nodes[:, 1]
        r_mid = free.sample(0.5 * (free.ts[:-1] + free.ts[1:])).y[:, 1]
        (i,) = np.nonzero(r_mid < np.minimum(r_nodes[:-1], r_nodes[1:]))[0]
        barrier = r_mid[i] + 0.25 * (min(r_nodes[i], r_nodes[i + 1]) - r_mid[i])
        opts = ns.SolverOptions()
        mass = barrier / (2.0 * (1.0 + opts.eps_horizon))
        traj = ns.integrate(replace(flat, meta={**flat.meta, "mass": mass}), state0, 10.0, opts)
        assert [e.kind for e in traj.events] == ["horizon"]
        np.testing.assert_array_equal(traj.ts[: i + 1], free.ts[: i + 1])
        assert free.ts[i] < traj.t_last < 0.5 * (free.ts[i] + free.ts[i + 1])
        assert traj.nodes[-1, 1] <= barrier


class TestRhsContract:
    @pytest.mark.parametrize(
        "accel",
        [lambda y, v: np.zeros(4), lambda y, v: [0.0] * 3, lambda y, v: (0.0,) * 4],
        ids=["ndarray", "short list", "tuple"],
    )
    def test_acceleration_not_a_float_list_raises(self, accel):
        # acceleration_at returns an (N, dim) float array for N rows; a (dim,)
        # array would broadcast into the stage sums, a list or tuple is refused
        spacetime = replace(ns.minkowski_spherical(), acceleration_at=accel)
        state0 = ns.GeodesicState(
            y=np.array([0.0, 1.0, 1.0, 0.0]), v=np.array([1.0, 1.0, 0.0, 0.0]), t=0.0
        )
        with pytest.raises(TypeError, match="minkowski_spherical: acceleration_at"):
            ns.integrate(spacetime, state0, 1.0)


@st.composite
def plunges(draw):
    """(state0, t_end) of runs that may fall into the horizon.

    Example-2 and example-3 data inside their infalling case, and orbits with
    an azimuthal integral L != 0, which the examples' data do not have.
    """
    example = draw(st.sampled_from([2, 3, "L != 0"]))
    if example == "L != 0":
        y = [0.0, draw(st.floats(2.3, 5.0)), draw(st.floats(0.4, 2.7)), 0.0]
        v = [draw(st.floats(0.5, 2.0)), draw(st.floats(-1.0, 0.0)),
             draw(st.floats(-0.1, 0.1)), draw(st.floats(0.05, 0.2))]
        return ns.GeodesicState(y=np.array(y), v=np.array(v), t=0.0), 30.0
    if example == 2:
        r0, a = draw(st.floats(2.1, 2.95)), draw(st.floats(0.0, 0.3))
        params = ns.OracleParams(m=1.0, r0=r0, f=f"1 + {a!r}*sin(vartheta)",
                                 alpha0=draw(st.floats(0.3, 2.8)), sign_alpha=1)
    else:
        params = ns.OracleParams(m=1.0, r0=draw(st.floats(2.1, 3.6)), sign_alpha=1,
                                 theta_range=(1.0, 2.0), periodic=False)
    curve = ns.make_oracle(example, "auto", params).initial_curve()
    vartheta = draw(st.floats(1.0, 2.0))
    state0 = ns.GeodesicState(y=curve.phi(vartheta), v=curve.psi(vartheta), t=0.0)
    return state0, 30.0


class TestHorizonCertificate:
    """``integrate(..., t_grid=...)`` against the full run it may stop short of."""

    @settings(max_examples=40, deadline=None)
    @given(start=plunges(), data=st.data())
    def test_grid_samples_and_reach_equal_the_full_run(self, schw, start, data):
        state0, t_end = start
        full = ns.integrate(schw, state0, t_end)
        # grid times anywhere, and near the full run's end, where a stop is tight
        t_ev = full.t_last
        near = st.floats(max(0.0, t_ev - 0.2), min(t_end, t_ev + 0.2))
        times = data.draw(st.lists(st.one_of(st.floats(0.0, t_end), near),
                                   min_size=1, max_size=10, unique=True))
        t_grid = np.sort(times)
        cut = ns.integrate(schw, state0, t_end, t_grid=t_grid)

        reached = full.t_last >= t_grid - geodesic.REACH_SLACK
        assert ((cut.t_last >= t_grid - geodesic.REACH_SLACK) == reached).all()
        got, want = cut.sample(t_grid[reached]), full.sample(t_grid[reached])
        assert got.y.tobytes() == want.y.tobytes() and got.v.tobytes() == want.v.tobytes()

        n = len(cut.ts)
        assert cut.ts.tobytes() == full.ts[:n].tobytes()
        assert cut.nodes.tobytes() == full.nodes[:n].tobytes()
        if cut.t_last < cut.events[-1].t:  # stopped on the certificate
            assert [e.kind for e in cut.events] == ["horizon"]
            assert full.events[-1].kind in ("horizon", "axis")
            assert cut.events[-1].t >= full.events[-1].t
        else:
            assert cut.events == full.events and n == len(full.ts)

    @settings(max_examples=10, deadline=None)
    @given(times=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=10, unique=True))
    def test_no_mass_no_certificate(self, times):
        flat = ns.minkowski_spherical()
        state0 = ns.GeodesicState(
            y=np.array([0.0, 3.0, 1.0, 0.5]), v=np.array([1.0, -0.5, 0.3, 0.2]), t=0.0
        )
        full = ns.integrate(flat, state0, 10.0)
        cut = ns.integrate(flat, state0, 10.0, t_grid=np.sort(times))
        assert cut.events == full.events
        for name in ("ts", "nodes", "interp_q"):
            assert getattr(cut, name).tobytes() == getattr(full, name).tobytes()


class TestTangentNorm:
    def test_example1_null(self, schw, ex1_trajectory):
        for t in (0.0, 5.0, 17.0):
            assert abs(ns.tangent_norm(schw, ex1_trajectory.sample(t))) < 1e-9

    def test_ex3_circular_timelike(self, schw, ex3_circular_trajectory):
        for t in (0.0, 2.5, 5.0):
            norm = ns.tangent_norm(schw, ex3_circular_trajectory.sample(t))
            assert norm == pytest.approx(-0.25, abs=1e-8)

    def test_flat_radial_null(self, flat):
        state = ns.GeodesicState(
            y=np.zeros(4), v=np.array([1.0, 1.0, 0.0, 0.0]), t=0.0
        )
        assert ns.tangent_norm(flat, state) == 0.0


def _event_starts():
    """(state0, t_end) of runs that end in an event, by how they end."""

    def start(example, params, vartheta):
        curve = ns.make_oracle(example, "auto", params).initial_curve()
        return ns.GeodesicState(y=curve.phi(vartheta), v=curve.psi(vartheta), t=0.0)

    plunge = start(3, ns.OracleParams(m=1.0, r0=3.0, sign_alpha=1,
                                      theta_range=(1.0, 2.0), periodic=False), 1.5)
    infall = start(2, ns.OracleParams(m=1.0, r0=2.5, f="1 + 0.25*sin(vartheta)",
                                      alpha0=1.0, sign_alpha=1), 1.0)
    to_axis = ns.GeodesicState(
        y=np.array([0.5, 4.0, 0.05, 0.5]), v=np.array([1.0, 0.0, -1.0 / 8.0, 0.0]), t=0.0
    )
    return {
        "horizon": (plunge, 30.0),
        "horizon, example 2": (infall, 20.0),
        "axis": (to_axis, 5.0),
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
    for kind, (state0, t_end) in _event_starts().items():
        calls = []
        dense = geodesic._dense
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geodesic, "_dense", lambda *args: calls.append(args) or dense(*args))
            traj = ns.integrate(schw, state0, t_end)
        assert traj.events[-1].kind == kind.split(",")[0]
        w, h, q, _ = calls[-1]  # the last call places the event node
        out[kind] = (traj, w, h, q)
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
        end = traj.sample(traj.t_last)
        _assert_states_close(np.concatenate([end.y, end.v]), traj.nodes[-1])

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(EVENT_KINDS), fractions=st.lists(st.floats(0.0, 1.0), min_size=1))
    def test_last_step_is_the_full_step_quartic(self, event_steps, kind, fractions):
        traj, w, h, q = event_steps[kind]
        t_i = traj.ts[-2]
        t = t_i + (traj.t_last - t_i) * np.array(fractions)
        got = traj.sample(t)
        want = geodesic._dense(w, h, q, ((t - t_i) / h)[:, None])
        _assert_states_close(np.hstack([got.y, got.v]), want)


def _reference_step(spacetime, w, h):
    """One DP5 step of the numpy tableau: (state after h, interpolant q)."""
    dim = spacetime.dim

    def rhs(x):
        return np.concatenate([x[dim:], spacetime.acceleration_at(x[None, :dim], x[None, dim:])[0]])

    K = np.empty((7, 2 * dim))
    K[0] = rhs(w)
    for s in range(1, 7):
        K[s] = rhs(w + h * (K[:s].T @ geodesic._A[s]))
    return w + h * (K.T @ geodesic._B), K.T @ geodesic._P


class TestOneStepReference:
    """Every full step against one step of the numpy tableau from its start node."""

    def _check(self, spacetime, traj):
        dim = traj.dim
        full = len(traj.ts) - 1
        if traj.events[-1].kind != "t_max":
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
        state0 = ns.GeodesicState(
            y=np.array([0.0, 1.0, 1.0, 0.5]), v=np.array([1.0, 0.5, 0.3, 0.2]), t=0.0
        )
        self._check(flat, ns.integrate(flat, state0, 10.0))

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
        assert together.y.shape == together.v.shape == (len(times), traj.dim)
        for j, t in enumerate(times):
            alone = traj.sample(t)
            assert alone.y.tobytes() == together.y[j].tobytes()
            assert alone.v.tobytes() == together.v[j].tobytes()
            assert alone.t == together.t[j]

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
            assert [e.kind for e in traj.events] == [kind]
            assert (ts[1:] - ts[:-1]).min() > 0.0
            states = traj.states
            assert len(states) == len(ts) == len(traj.interp_q) + 1
            for state, w in zip(states, traj.nodes):
                assert state.y.tobytes() == w[:dim].tobytes()
                assert state.v.tobytes() == w[dim:].tobytes()
            nbytes = ts.nbytes + sum(s.y.nbytes + s.v.nbytes for s in states)
            nbytes += sum(q.nbytes for q in traj.interp_q)
            n = len(ts)
            assert nbytes == 8 * (n * (1 + 2 * dim) + (n - 1) * 2 * dim * 4)

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
        assert chars == sum(traj.events[0].kind == "t_max" for traj in trajectories) == 8
        assert steps > 0 and min(np.diff(traj.ts).min() for traj in trajectories) > 0.0
        assert sum(traj.stats.rhs_rows for traj in trajectories) >= 6 * steps
        # per characteristic: n = steps + 1 nodes of (t, y, v), n - 1 interpolants
        nbytes = sum(
            traj.ts.nbytes
            + sum(s.y.nbytes + s.v.nbytes for s in traj.states)
            + sum(q.nbytes for q in traj.interp_q)
            for traj in trajectories
        )
        assert nbytes == 8 * ((steps + chars) * 9 + steps * 8 * 4)
