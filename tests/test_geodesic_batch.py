"""``integrate_batch`` against the scalar reference loop and against itself.

The batched loop advances every characteristic as one row of an array; it
must give each row bitwise the trajectory, event and step counts of a
scalar loop on Python floats (``scalar_dop853.integrate_scalar``), and a
row's result must not depend on which other rows share its batch.
"""

import importlib.util
import math
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nullsheet as ns
from nullsheet import geodesic
from nullsheet.config import build_curve, build_spacetime, load_config
from scalar_dop853 import integrate_scalar

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads_batch", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def assert_same(got, want):
    """Two trajectories bitwise equal: nodes, interpolants and counts, the stop included."""
    for name in ("ts", "nodes", "interp_q"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.stats == want.stats


def pipeline_inputs(path):
    """(spacetime, y0, v0, t_end, options, t_grid) as ``run_pipeline`` forms them."""
    cfg = load_config(path)
    spacetime, curve = build_spacetime(cfg), build_curve(cfg)
    thetas = curve.grid(cfg.initial_data.samples)
    t_grid = np.linspace(0.0, cfg.solver.t_end, cfg.output.t_samples)
    return spacetime, curve.phi(thetas), curve.psi(thetas), cfg.solver.t_end, cfg.solver, t_grid


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    """The shipped configs, and the benchmark's workloads at 16 characteristics."""
    workloads = _workloads()
    out = {p.stem: p for p in sorted((ROOT / "configs").glob("*.yaml"))}
    ring = workloads.RingDense(0, tmp_path_factory.mktemp("ring"), chars=16, t_samples=101)
    infall = workloads.InfallRing(0, tmp_path_factory.mktemp("infall"), chars=16, t_samples=11)
    out["ring-dense"], out["infall-ring"] = ring.config, infall.config
    return out


CONFIGS = ["boosted_circular", "photon_sphere", "radial_null", "ring-dense", "infall-ring"]


class TestAgainstScalarReference:
    @pytest.mark.parametrize("part", ["t_grid", "full"])
    @pytest.mark.parametrize("name", CONFIGS)
    def test_config(self, configs, name, part):
        # "full": the whole trajectories; "t_grid": what the surface reads of
        # them, the stepped rows and the rows of metric_at's chart at the
        # config's t-grid
        spacetime, y0, v0, t_end, opts, t_grid = pipeline_inputs(configs[name])
        batch = ns.integrate_batch(spacetime, y0, v0, t_end, opts)
        assert len(batch) == len(y0)
        for got, y, v in zip(batch, y0, v0):
            want = integrate_scalar(spacetime, y, v, t_end, opts)
            if part == "full":
                assert_same(got, want)
            else:
                t = t_grid[t_grid <= want.t_last]
                assert got.dense(t).tobytes() == want.dense(t).tobytes()
                assert got.sample(t).tobytes() == want.sample(t).tobytes()

    def test_infall_ring_ends_on_the_crossing(self, configs):
        # every row of infall-ring falls to the horizon guard, at its own
        # time, and its step loop never leaves the chart
        spacetime, y0, v0, t_end, opts, _ = pipeline_inputs(configs["infall-ring"])
        batch = ns.integrate_batch(spacetime, y0, v0, t_end, opts)
        assert {tr.stats.stop for tr in batch} == {"horizon_crossing"}
        assert len({tr.t_last for tr in batch}) == len(batch)
        assert sum(tr.stats.domain_rejected for tr in batch) == 0


class TestStepCounts:
    """The predictive controller's step counts on the benchmark's two rings."""

    def test_ring_dense_rows_take_few_steps(self, tmp_path):
        # 128 alike radial rows, smooth and event-free: no step is rejected
        ring = _workloads().RingDense(0, tmp_path)
        spacetime, y0, v0, t_end, opts, _ = pipeline_inputs(ring.config)
        batch = ns.integrate_batch(spacetime, y0, v0, t_end, opts)
        assert len(batch) == 128
        for tr in batch:
            s = tr.stats
            assert s.stop == "t_max" and s.rejected == s.domain_rejected == 0
            assert s.accepted <= 11

    @pytest.mark.parametrize("seed", range(4))
    def test_infall_ring_rows_end_on_the_crossing_soon(self, tmp_path, seed):
        infall = _workloads().InfallRing(seed, tmp_path)  # 32 characteristics
        spacetime, y0, v0, t_end, opts, _ = pipeline_inputs(infall.config)
        for tr in ns.integrate_batch(spacetime, y0, v0, t_end, opts):
            s = tr.stats
            assert s.stop == "horizon_crossing"
            assert s.accepted + s.rejected + s.domain_rejected <= 14


def _example_start(example, params, vartheta):
    curve = ns.make_oracle(example, "auto", params).initial_curve()
    return curve.phi(vartheta), curve.psi(vartheta)


def _rows(starts):
    """Start states (y, v) as the rows (y0, v0)."""
    return tuple(np.array(part, dtype=float) for part in zip(*starts))


def _pools():
    """Start rows (y0, v0) that end in different ways, at different iterations, per spacetime."""
    ex1 = ns.OracleParams(m=1.0, r0=10.0, r1=1.0, alpha0="pi/2 + 0.3*sin(vartheta)")
    plunge = ns.OracleParams(m=1.0, r0=3.0, sign_alpha=1, theta_range=(1.0, 2.0),
                             periodic=False)
    infall = ns.OracleParams(m=1.0, r0=2.5, f="1 + 0.25*sin(vartheta)", alpha0=1.0,
                             sign_alpha=1)
    schwarzschild = [
        _example_start(1, ex1, 0.4),                      # t_max
        _example_start(1, ex1, 2.9),                      # t_max
        ([0.0, 4.0, math.pi / 2, 0.0], [1.0, 0.0, 1.0 / 8.0, 0.0]),  # circular, t_max
        _example_start(3, plunge, 1.5),                   # horizon
        _example_start(2, infall, 1.0),                   # horizon
        ([0.0, 6.0, 1.0, 0.0], [1.0, -0.9, 0.0, 0.0]),  # horizon
        ([0.5, 4.0, 0.05, 0.5], [1.0, 0.0, -1.0 / 8.0, 0.0]),  # axis
    ]
    flat = [
        ([0.0, 1.0, math.pi / 2, 0.0], [1.0, -1.0, 0.0, 0.0]),  # r = 0: domain, step_failure
        ([0.0, 2.0, 1.0, 0.0], [1.0, -0.7, 0.0, 0.0]),          # r = 0 later
        ([0.0, 1.0, 1.0, 0.5], [1.0, 0.5, 0.3, 0.2]),           # t_max
        ([0.0, 3.0, math.pi / 2, 0.0], [1.0, -0.5, 0.0, 0.05]), # t_max
        ([0.0, 3.0, 0.05, 0.5], [1.0, 0.0, -0.1, 0.0]),         # axis
    ]
    return {
        "schwarzschild": (ns.schwarzschild(ns.SchwarzschildParams(m=1.0)), _rows(schwarzschild)),
        "minkowski_spherical": (ns.minkowski_spherical(), _rows(flat)),
    }


POOLS = _pools()
T_END = 12.0
_alone = {}


def _run_alone(name, k, opts):
    """The trajectory of start row k of pool ``name`` in a batch of one, cached."""
    key = (name, k, opts)
    if key not in _alone:
        spacetime, (y0, v0) = POOLS[name]
        (_alone[key],) = ns.integrate_batch(spacetime, y0[k : k + 1], v0[k : k + 1], T_END, opts)
    return _alone[key]


class TestBatchIndependence:
    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(sorted(POOLS)),
        rel_tol=st.sampled_from([1e-6, 1e-3]),
        max_steps=st.sampled_from([100_000, 25]),
        data=st.data(),
    )
    def test_any_subset_equals_batches_of_one(self, name, rel_tol, max_steps, data):
        spacetime, (y0, v0) = POOLS[name]
        order = data.draw(st.permutations(range(len(y0))))
        rows = order[: data.draw(st.integers(1, len(y0)))]
        opts = ns.SolverOptions(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2, max_steps=max_steps)
        batch = ns.integrate_batch(spacetime, y0[rows], v0[rows], T_END, opts)
        for k, got in zip(rows, batch):
            assert_same(got, _run_alone(name, k, opts))

    @pytest.mark.parametrize("name", sorted(POOLS))
    def test_pools_end_every_way(self, name):
        # the pools give the subsets above rows that end by t_max, at the
        # horizon or the axis, on a step failure, and rows with domain
        # rejections; a Schwarzschild row whose step left the chart (a
        # long step at rel_tol 1e-3 may pass r = 0 of the Eddington-
        # Finkelstein chart) still ends on a guard or at t_max, with finite
        # nodes
        spacetime, (y0, v0) = POOLS[name]
        stops, rejecting = set(), []
        for rel_tol in (1e-6, 1e-3):
            opts = ns.SolverOptions(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2)
            for tr in ns.integrate_batch(spacetime, y0, v0, T_END, opts):
                stops.add(tr.stats.stop)
                if tr.stats.domain_rejected:
                    rejecting.append(tr)
        want = {"t_max", "axis_crossing"}
        want |= {"horizon_crossing"} if name == "schwarzschild" else {"step_underflow"}
        assert want <= stops
        if name == "schwarzschild":
            for tr in rejecting:
                assert tr.stats.stop in {"t_max", "horizon_crossing", "axis_crossing"}
                assert np.isfinite(tr.nodes).all() and np.isfinite(tr.interp_q).all()
        else:
            assert rejecting


def _attempt(spacetime, y0, v0, t_end, j):
    """What the j-th step attempt of the run of the start row (y0, v0) alone did.

    "event", "accepted", "rejected" or "domain_rejected", read off the
    counts of two runs alone that stop after j - 1 and after j attempts.
    """
    before, after = (
        ns.integrate(spacetime, y0, v0, t_end, ns.SolverOptions(max_steps=k)).stats
        for k in (j - 1, j)
    )
    if before.stop == "max_steps" and after.stop.endswith("_crossing"):
        return "event"
    (grown,) = [
        name for name in ("accepted", "rejected", "domain_rejected")
        if getattr(after, name) > getattr(before, name)
    ]
    return grown


class TestMixedIteration:
    """One iteration where rows make a full step, fail the error test, end on
    an event and fail on a dense-output stage alone, each as it does alone."""

    J = 4  # the iteration, counted from 1, where the four outcomes meet
    T_END = 50.0

    @pytest.fixture(scope="class")
    def mixed(self):
        # straight lines in flat Cartesian (t, x, y, z), one per z: a row at
        # z = 2 runs free, z = 0 meets a band of t that only the dense
        # output's stage at c = 1/5 of its step J falls in (as in
        # test_geodesic's banded flat spacetime), z = 1 a kick in y midway
        # through its step J, and z = 3 falls in x to a barrier that step J
        # crosses
        flat = ns.minkowski()
        y0 = np.array([[0.0, 5.0, 0.0, 2.0], [0.0, 5.0, 0.0, 0.0],
                       [0.0, 5.0, 0.0, 1.0], [0.0, 5.0, 0.0, 3.0]])
        v0 = np.array([[1.0, 0.3, 0.1, 0.0], [1.0, 0.5, 0.0, 0.0],
                       [1.0, 0.2, 0.3, 0.0], [1.0, -0.9, 0.0, 0.0]])
        steps = []  # each row's step J, [t_j, t_j + h], when it runs free
        for tr in ns.integrate_batch(flat, y0, v0, self.T_END):
            steps.append((tr.ts[self.J - 1], tr.ts[self.J] - tr.ts[self.J - 1]))
        (t_l, h_l), (t_r, h_r), (t_e, h_e) = steps[1:]
        zero = flat.acceleration_at

        def accel(y, v, out):
            zero(y, v, out)
            t, z = y[:, 0], y[:, 3]
            out[(z == 0.0) & (t_l + 0.19 * h_l < t) & (t < t_l + 0.21 * h_l)] = np.nan
            out[(z == 1.0) & (t_r + 0.5 * h_r < t) & (t < t_r + 0.7 * h_r), 2] = 1e3
            return out

        # the horizon guard reads x; it fires past the barrier
        barrier = y0[3, 1] + v0[3, 1] * (t_e + 0.6 * h_e)
        mass = barrier / (2.0 * (1.0 + ns.SolverOptions().eps_horizon))
        spacetime = replace(flat, acceleration_at=accel, meta={**flat.meta, "mass": mass})
        return spacetime, y0, v0

    def test_the_band_meets_one_dense_output_stage(self):
        # the stage of fraction c of step J, [t_l, t_l + h_l], is at t_l + c h_l
        c = np.array([a.sum() for a in geodesic._A[1:]])
        assert np.flatnonzero((0.19 < c) & (c < 0.21)).tolist() == [13]  # stage 14

    def test_the_four_outcomes_meet_in_one_iteration(self, mixed):
        spacetime, y0, v0 = mixed
        outcomes = [_attempt(spacetime, y, v, self.T_END, self.J) for y, v in zip(y0, v0)]
        assert outcomes == ["accepted", "domain_rejected", "rejected", "event"]

    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]])
    def test_each_row_as_alone(self, mixed, order):
        spacetime, y0, v0 = mixed
        batch = ns.integrate_batch(spacetime, y0[order], v0[order], self.T_END)
        for k, got in zip(order, batch):
            assert_same(got, ns.integrate(spacetime, y0[k], v0[k], self.T_END))
        stops = {k: got.stats.stop for k, got in zip(order, batch)}
        assert stops == {0: "t_max", 1: "t_max", 2: "t_max", 3: "horizon_crossing"}


def test_counts_are_consistent(configs):
    spacetime, y0, v0, t_end, opts, _ = pipeline_inputs(configs["infall-ring"])
    for tr in ns.integrate_batch(spacetime, y0, v0, t_end, opts):
        s = tr.stats
        attempted = s.accepted + s.rejected + s.domain_rejected
        assert s.rhs_rows == 2 + 15 * attempted
        # the event step is accepted but cut, so it is not a full step
        assert len(tr.ts) - 1 == s.accepted
        full = np.diff(tr.ts[:-1])
        assert s.h_min == full.min() and s.h_max == full.max()


def test_empty_batch():
    empty = np.empty((0, 4))
    assert ns.integrate_batch(ns.minkowski_spherical(), empty, empty, 1.0) == []


@pytest.mark.parametrize(
    "y0, v0",
    [
        (np.zeros((2, 4)), np.zeros((3, 4))),
        (np.zeros((2, 4)), np.zeros((2, 3))),
        (np.zeros((2, 3)), np.zeros((2, 3))),
        (np.zeros(4), np.zeros(4)),
        (np.zeros((1, 2, 4)), np.zeros((1, 2, 4))),
        (np.empty((0, 3)), np.empty((0, 3))),
    ],
    ids=["rows", "v0 columns", "columns", "one state", "3-d", "empty, columns"],
)
def test_start_rows_of_another_shape_raise(y0, v0):
    with pytest.raises(ValueError, match=r"must both be \(N, 4\) rows"):
        ns.integrate_batch(ns.minkowski_spherical(), y0, v0, 1.0)


@pytest.mark.parametrize("t_end", [0.0, -1.0, math.nan])
def test_t_end_not_positive_raises(t_end):
    y0, v0 = np.array([[0.0, 1.0, 1.0, 0.5]]), np.array([[1.0, 0.5, 0.3, 0.2]])
    with pytest.raises(ValueError, match="must be positive"):
        ns.integrate_batch(ns.minkowski_spherical(), y0, v0, t_end)


def test_records_held_at_most_twice_while_grouped(tmp_path):
    # the blocks of records are freed before the table is taken in row
    # order, so the records are held twice at most (three times otherwise)
    infall = _workloads().InfallRing(0, tmp_path)  # 32 characteristics
    spacetime, y0, v0, t_end, opts, _ = pipeline_inputs(infall.config)
    tracemalloc.start()
    try:
        batch = ns.integrate_batch(spacetime, y0, v0, t_end, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record_bytes = sum(len(tr.ts) for tr in batch) * (1 + 16 * spacetime.dim) * 8
    assert peak <= 2.5 * record_bytes
