"""``integrate_batch`` against the scalar reference loop and against itself.

The batched loop advances every characteristic as one row of an array; it
must give each row bitwise the trajectory, events and step counts of the
scalar loop it replaced (``scalar_dp5.integrate_scalar``), and a row's
result must not depend on which other rows share its batch.
"""

import importlib.util
import math
import mmap
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nullsheet as ns
from nullsheet import geodesic
from nullsheet.config import build_curve, build_spacetime, load_config
from scalar_dp5 import integrate_scalar

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
    """Two trajectories bitwise equal: nodes, interpolants, events and counts."""
    for name in ("ts", "nodes", "interp_q"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.events == want.events
    assert got.stats == want.stats


def pipeline_inputs(path):
    """(spacetime, start states, t_end, options, t_grid) as ``run_pipeline`` forms them."""
    cfg = load_config(path)
    spacetime, curve = build_spacetime(cfg), build_curve(cfg)
    states0 = [
        ns.GeodesicState(y=curve.phi(v), v=curve.psi(v), t=0.0)
        for v in curve.grid(cfg.initial_data.samples)
    ]
    t_grid = np.linspace(0.0, cfg.solver.t_end, cfg.output.t_samples)
    return spacetime, states0, cfg.solver.t_end, cfg.solver, t_grid


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
    @pytest.mark.parametrize("grid", [True, False], ids=["t_grid", "full"])
    @pytest.mark.parametrize("name", CONFIGS)
    def test_config(self, configs, name, grid):
        spacetime, states0, t_end, opts, t_grid = pipeline_inputs(configs[name])
        t_grid = t_grid if grid else None
        batch = ns.integrate_batch(spacetime, states0, t_end, opts, t_grid=t_grid)
        assert len(batch) == len(states0)
        for got, state0 in zip(batch, states0):
            assert_same(got, integrate_scalar(spacetime, state0, t_end, opts, t_grid=t_grid))

    def test_infall_ring_ends_on_the_certificate(self, configs):
        # the grid run of infall-ring stops every row on the horizon
        # certificate, at different iterations, and the full run bisects
        # every crossing
        spacetime, states0, t_end, opts, t_grid = pipeline_inputs(configs["infall-ring"])
        cut = ns.integrate_batch(spacetime, states0, t_end, opts, t_grid=t_grid)
        full = ns.integrate_batch(spacetime, states0, t_end, opts)
        assert {tr.stats.stop for tr in cut} == {"horizon_certified"}
        assert {tr.stats.stop for tr in full} == {"horizon_crossing"}
        assert len({len(tr.ts) for tr in cut}) > 1


def _example_start(example, params, vartheta):
    curve = ns.make_oracle(example, "auto", params).initial_curve()
    return ns.GeodesicState(y=curve.phi(vartheta), v=curve.psi(vartheta), t=0.0)


def _state(y, v):
    return ns.GeodesicState(y=np.array(y), v=np.array(v), t=0.0)


def _pools():
    """Start states that end in different ways, at different iterations, per spacetime."""
    ex1 = ns.OracleParams(m=1.0, r0=10.0, r1=1.0, alpha0="pi/2 + 0.3*sin(vartheta)")
    plunge = ns.OracleParams(m=1.0, r0=3.0, sign_alpha=1, theta_range=(1.0, 2.0),
                             periodic=False)
    infall = ns.OracleParams(m=1.0, r0=2.5, f="1 + 0.25*sin(vartheta)", alpha0=1.0,
                             sign_alpha=1)
    schwarzschild = [
        _example_start(1, ex1, 0.4),                      # t_max
        _example_start(1, ex1, 2.9),                      # t_max
        _state([0.0, 4.0, math.pi / 2, 0.0], [1.0, 0.0, 1.0 / 8.0, 0.0]),  # circular, t_max
        _example_start(3, plunge, 1.5),                   # horizon
        _example_start(2, infall, 1.0),                   # horizon
        _state([0.0, 6.0, 1.0, 0.0], [1.0, -0.9, 0.0, 0.0]),  # horizon, domain rejections
        _state([0.5, 4.0, 0.05, 0.5], [1.0, 0.0, -1.0 / 8.0, 0.0]),  # axis
    ]
    flat = [
        _state([0.0, 1.0, math.pi / 2, 0.0], [1.0, -1.0, 0.0, 0.0]),  # r = 0: domain, step_failure
        _state([0.0, 2.0, 1.0, 0.0], [1.0, -0.7, 0.0, 0.0]),          # r = 0 later
        _state([0.0, 1.0, 1.0, 0.5], [1.0, 0.5, 0.3, 0.2]),           # t_max
        _state([0.0, 3.0, math.pi / 2, 0.0], [1.0, -0.5, 0.0, 0.05]), # t_max
        _state([0.0, 3.0, 0.05, 0.5], [1.0, 0.0, -0.1, 0.0]),         # axis
    ]
    return {
        "schwarzschild": (ns.schwarzschild(ns.SchwarzschildParams(m=1.0)), schwarzschild),
        "minkowski_spherical": (ns.minkowski_spherical(), flat),
    }


POOLS = _pools()
T_END = 12.0
_alone = {}


def _run_alone(name, k, opts, grid):
    """The trajectory of start state k of pool ``name`` in a batch of one, cached."""
    key = (name, k, opts, grid)
    if key not in _alone:
        spacetime, pool = POOLS[name]
        t_grid = np.linspace(0.0, T_END, 7) if grid else None
        (_alone[key],) = ns.integrate_batch(spacetime, [pool[k]], T_END, opts, t_grid=t_grid)
    return _alone[key]


class TestBatchIndependence:
    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(sorted(POOLS)),
        rel_tol=st.sampled_from([1e-6, 1e-3]),
        max_steps=st.sampled_from([100_000, 25]),
        grid=st.booleans(),
        data=st.data(),
    )
    def test_any_subset_equals_batches_of_one(self, name, rel_tol, max_steps, grid, data):
        spacetime, pool = POOLS[name]
        order = data.draw(st.permutations(range(len(pool))))
        rows = order[: data.draw(st.integers(1, len(pool)))]
        opts = ns.SolverOptions(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2, max_steps=max_steps)
        t_grid = np.linspace(0.0, T_END, 7) if grid else None
        batch = ns.integrate_batch(spacetime, [pool[k] for k in rows], T_END, opts,
                                   t_grid=t_grid)
        for k, got in zip(rows, batch):
            assert_same(got, _run_alone(name, k, opts, grid))

    @pytest.mark.parametrize("name", sorted(POOLS))
    def test_pools_end_every_way(self, name):
        # the pools give the subsets above rows that end by t_max, at the
        # horizon or the axis, on a step failure, and rows with domain
        # rejections
        spacetime, pool = POOLS[name]
        stops, domain = set(), 0
        for rel_tol in (1e-6, 1e-3):
            opts = ns.SolverOptions(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2)
            for tr in ns.integrate_batch(spacetime, pool, T_END, opts):
                stops.add(tr.stats.stop)
                domain += tr.stats.domain_rejected
        want = {"t_max", "axis_crossing"}
        want |= {"horizon_crossing"} if name == "schwarzschild" else {"step_underflow"}
        assert want <= stops
        assert domain > 0


def test_counts_are_consistent(configs):
    spacetime, states0, t_end, opts, t_grid = pipeline_inputs(configs["infall-ring"])
    for tr in ns.integrate_batch(spacetime, states0, t_end, opts):
        s = tr.stats
        attempted = s.accepted + s.rejected + s.domain_rejected
        assert s.rhs_rows == 2 + 6 * attempted
        # the event step is accepted but cut, so it is not a full step
        assert len(tr.ts) - 1 == s.accepted
        full = np.diff(tr.ts[:-1])
        assert s.h_min == full.min() and s.h_max == full.max()
        assert s.h_min > np.diff(tr.ts)[-1]  # the event fragment is smaller


def test_empty_batch():
    assert ns.integrate_batch(ns.minkowski_spherical(), [], 1.0) == []


def test_record_map_copied_where_it_cannot_grow_in_place(configs, monkeypatch):
    # without mremap (e.g. on macOS) the records are copied to a larger map;
    # infall-ring's rows outgrow the first map, and the trajectories are the same
    class FixedMap(mmap.mmap):
        def resize(self, nbytes):
            raise SystemError("mmap: resizing not available--no mremap()")

    spacetime, states0, t_end, opts, t_grid = pipeline_inputs(configs["infall-ring"])
    want = ns.integrate_batch(spacetime, states0, t_end, opts, t_grid=t_grid)
    grown = []

    def fixed_map(nbytes):
        grown.append(nbytes)
        return FixedMap(-1, nbytes, flags=mmap.MAP_PRIVATE)

    monkeypatch.setattr(geodesic, "_anonymous_map", fixed_map)
    got = ns.integrate_batch(spacetime, states0, t_end, opts, t_grid=t_grid)
    assert len(grown) > 1
    for a, b in zip(got, want):
        assert_same(a, b)
