import math
import tracemalloc

import numpy as np
import pytest

import nullsheet as ns
from nullsheet import surface
from nullsheet.errors import CoverageError
from nullsheet.geodesic import REACH_SLACK
from nullsheet.surface import (
    CSV_COLUMNS,
    TYPE_LIGHTLIKE,
    TYPE_TIMELIKE,
    TYPE_TRUNCATED,
)


def solve_characteristics(spacetime, curve, n, t_end, **opts):
    cmap = ns.map_from_initial_data(curve, spacetime)
    thetas = curve.grid(n)
    options = ns.SolverOptions(**opts) if opts else None
    trajs = ns.integrate_batch(spacetime, curve.phi(thetas), curve.psi(thetas), t_end, options)
    return cmap, thetas, trajs


def build_example_mesh(spacetime, curve, n_char, t_grid, theta_grid=None):
    cmap, thetas, trajs = solve_characteristics(
        spacetime, curve, n_char, float(t_grid[-1])
    )
    if theta_grid is None:
        theta_grid = thetas.copy()
    wrap = ns.wrap_offset_from_curve(curve) if curve.periodic else None
    return ns.build_surface(
        trajs, thetas, cmap, t_grid, theta_grid, spacetime, wrap_offset=wrap
    )


def two_alive_runs(schw):
    """Surface inputs whose later slices see two alive runs of characteristics.

    Characteristic 5 stops at t = 0.5 and 0..4 at t = 1, so the slices after
    t = 1 see the runs 0..4 and 6..15; only the longer one is splined.
    """
    curve = ns.curve_from_expressions(
        ["0", "10", "pi/2 + 0.3*sin(vartheta)", "vartheta"],
        ["1.25", "1", "0", "0"],
        (0.0, 2 * math.pi),
    )
    cmap = ns.map_from_initial_data(curve, schw)
    thetas = curve.grid(16)
    ends = np.where(np.arange(16) < 5, 1.0, 2.0)
    ends[5] = 0.5
    trajs = [ns.integrate(schw, curve.phi(v), curve.psi(v), end) for v, end in zip(thetas, ends)]
    t_grid = np.array([0.0, 0.25, 0.75, 1.5])
    theta_grid = np.linspace(0.05, 2 * math.pi - 0.05, 40)
    return trajs, thetas, cmap, t_grid, theta_grid


@pytest.fixture(scope="module")
def ex1_mesh(schw, ex1_curve):
    return build_example_mesh(schw, ex1_curve, 24, np.linspace(0.0, 20.0, 9))


@pytest.fixture(scope="module")
def ex3_mesh(schw, ex3_circular_curve):
    theta_grid = np.linspace(0.5, 3.0, 9)
    return build_example_mesh(
        schw, ex3_circular_curve, 16, np.linspace(0.0, 5.0, 9), theta_grid
    )


class TestBuildSurface:
    def test_example1_nodes(self, ex1_mesh, ex1_curve):
        assert not ex1_mesh.truncated.any()
        for i, t in enumerate(ex1_mesh.t_grid):
            assert np.abs(ex1_mesh.x[i, :, 1] - (t + 10.0)).max() < 1e-8
            # Lambda = 0: theta = vartheta, beta = vartheta
            assert np.abs(ex1_mesh.vartheta[i] - ex1_mesh.theta_grid).max() < 1e-12
            assert np.abs(ex1_mesh.x[i, :, 3] - ex1_mesh.theta_grid).max() < 1e-10

    def test_example3_shift(self, ex3_mesh):
        # Lambda = -1: vartheta = theta + t and tau = t + vartheta = 2t + theta
        for i, t in enumerate(ex3_mesh.t_grid):
            assert np.abs(
                ex3_mesh.vartheta[i] - (ex3_mesh.theta_grid + t)
            ).max() < 1e-10
            assert np.abs(
                ex3_mesh.x[i, :, 0] - (2 * t + ex3_mesh.theta_grid)
            ).max() < 1e-9

    def test_t0_slice_reproduces_curve(self, ex1_mesh, ex1_curve):
        for j, th in enumerate(ex1_mesh.theta_grid):
            assert np.abs(ex1_mesh.x[0, j] - ex1_curve.phi(th)).max() < 1e-12
            assert np.abs(ex1_mesh.x_t[0, j] - ex1_curve.psi(th)).max() < 1e-12

    def test_lightlike_classification(self, ex1_mesh, ex3_mesh):
        assert (ex1_mesh.type_label[~ex1_mesh.truncated] == TYPE_LIGHTLIKE).all()
        assert (ex3_mesh.type_label[~ex3_mesh.truncated] == TYPE_LIGHTLIKE).all()

    def test_tangents_match_differences_of_positions(self, schw):
        # graded characteristic speeds: Lambda' > 0, so dvartheta/dtheta != 1
        # and x_t carries the -Lambda J y_vartheta term, which a check of delta
        # alone cannot see (delta is unchanged when x_t gains a multiple of x_theta)
        curve = ns.curve_from_expressions(
            ["vartheta", "10", "0.04*vartheta + 0.2", "0.3"],
            ["1.2 - 0.05*vartheta", "0", "(1.2 - 0.05*vartheta)*0.04", "0"],
            (0.5, 6.0),
        )
        assert ns.validate_curve(curve, schw, n_samples=17).passed
        t_grid, theta_grid = np.linspace(0.0, 2.0, 21), np.linspace(0.6, 3.0, 61)
        mesh = build_example_mesh(schw, curve, 24, t_grid, theta_grid)
        alive = ~mesh.truncated
        assert (np.abs(mesh.jacobian[alive] - 1.0) > 1e-3).any()

        # central differences over interior nodes whose two neighbours are alive
        in_t = alive[1:-1] & alive[:-2] & alive[2:]
        x_t = (mesh.x[2:] - mesh.x[:-2]) / (2.0 * (t_grid[1] - t_grid[0]))
        assert in_t.sum() > 500
        assert np.abs(x_t[in_t] - mesh.x_t[1:-1][in_t]).max() < 1e-4

        in_theta = alive[:, 1:-1] & alive[:, :-2] & alive[:, 2:]
        x_theta = (mesh.x[:, 2:] - mesh.x[:, :-2]) / (2.0 * (theta_grid[1] - theta_grid[0]))
        assert in_theta.sum() > 500
        ind = ns.induced_metric(
            schw, mesh.x[:, 1:-1][in_theta], mesh.x_t[:, 1:-1][in_theta], x_theta[in_theta]
        )
        for name, tol in (("g01", 1e-3), ("g11", 1e-3), ("delta", 1e-6)):
            ours = getattr(mesh, name)[:, 1:-1][in_theta]
            assert np.abs(getattr(ind, name) - ours).max() < tol, name

    def test_coverage_error(self, schw, ex1_curve):
        cmap, thetas, trajs = solve_characteristics(schw, ex1_curve, 24, 1.0)
        with pytest.raises(CoverageError):
            ns.build_surface(
                trajs[:1], thetas[:1], cmap, np.array([0.0, 1.0]), thetas, schw
            )
        with pytest.raises(CoverageError):
            ns.build_surface(
                trajs[:-1], thetas, cmap, np.array([0.0, 1.0]), thetas, schw
            )

    def test_truncation_out_of_image(self, schw, ex3_circular_curve):
        # Lambda = -1 drags the image left; late times lose the right columns
        mesh = build_example_mesh(
            schw,
            ex3_circular_curve,
            16,
            np.linspace(0.0, 5.0, 6),
            np.linspace(0.5, 8.0, 16),
        )
        assert mesh.truncated.any()
        assert not mesh.truncated[0].any()
        # rightmost column upholds theta <= theta_max - t
        last_col = mesh.truncated[:, -1]
        assert last_col[-1]
        assert np.isfinite(mesh.truncation_map[-1])
        assert (mesh.type_label[mesh.truncated] == TYPE_TRUNCATED).all()

    def test_truncation_by_horizon_event(self, schw):
        # example 2 at r0 = 2.5m with Lambda = 0: the image is the whole window
        # at every t, and the characteristics fall in between t = 5.7 and 8.8
        f = "1 + 0.25*sin(vartheta)"
        curve = ns.curve_from_expressions(
            ["0", "2.5", "1.2", "vartheta"],
            [f, "0", f"sqrt(1.25)/6.25*abs({f})", "0"],
            (-1.0, 1.0),
            periodic=False,
        )
        cmap = ns.map_from_initial_data(curve, schw)
        thetas = curve.grid(12)
        t_grid = np.linspace(0.0, 10.0, 11)
        trajs = ns.integrate_batch(schw, curve.phi(thetas), curve.psi(thetas), 10.0)
        assert all(traj.stats.stop == "horizon_crossing" for traj in trajs)
        theta_grid = np.linspace(-1.0, 1.0, 9)
        mesh = ns.build_surface(trajs, thetas, cmap, t_grid, theta_grid, schw)
        assert not mesh.truncated[0].any()
        assert mesh.truncated[-1].all()
        assert (mesh.truncated.any(axis=1) & ~mesh.truncated.all(axis=1)).any()

        i, j = np.nonzero(mesh.truncated)
        t, theta = t_grid[i], theta_grid[j]
        assert cmap._in_image(t, theta).all()
        # vartheta = theta: a truncated node lies past the event of one of
        # the two characteristics around it, or its slice has fewer than the
        # 4 characteristics a spline needs
        ends = np.array([traj.t_last for traj in trajs])
        k = np.searchsorted(thetas, theta).clip(1, len(thetas) - 1)
        past_event = np.minimum(ends[k - 1], ends[k]) < t
        reached = np.array([traj.t_last for traj in trajs]) >= t[:, None] - REACH_SLACK
        assert (past_event | (reached.sum(axis=1) < 4)).all()
        assert past_event.any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_infall_ring_is_lightlike_to_the_horizon(self, schw, infall_rings, seed):
        # splined in Eddington-Finkelstein time, which stays smooth across
        # characteristics near r = 2m, where tau diverges
        mesh = build_example_mesh(schw, infall_rings[seed], 32, np.linspace(0.0, 10.0, 11))
        live = ~mesh.truncated
        assert live.any() and mesh.truncated.any()
        assert (mesh.x[live][:, 1] < 2.2).any()  # nodes near the horizon
        assert TYPE_TIMELIKE not in mesh.type_label[live]
        assert np.abs(mesh.delta[live]).max() <= 1e-6

    def test_two_alive_runs_keep_the_longer(self, schw):
        trajs, thetas, cmap, t_grid, theta_grid = two_alive_runs(schw)
        mesh = ns.build_surface(trajs, thetas, cmap, t_grid, theta_grid, schw)
        assert not mesh.truncated[:2].any()
        # Lambda = 0, so vartheta = theta: a node is kept iff it lies in the long run
        in_long_run = (theta_grid >= thetas[6]) & (theta_grid <= thetas[15])
        assert in_long_run.any() and not in_long_run.all()
        for i in (2, 3):
            assert (mesh.truncated[i] == ~in_long_run).all()
        assert np.isfinite(mesh.x[2:, in_long_run]).all()
        np.testing.assert_array_equal(
            mesh.truncation_map, np.where(in_long_run, np.inf, 0.75)
        )

    def test_timelike_data_classification(self, schw):
        curve = ns.curve_from_expressions(
            ["0", "10", "pi/2", "vartheta"],
            ["1", "0", "0", "0"],
            (0.0, 2 * math.pi),
            periodic=True,
        )
        mesh = build_example_mesh(schw, curve, 12, np.linspace(0.0, 1.0, 4))
        mask = ~mesh.truncated
        assert (mesh.type_label[mask] == TYPE_TIMELIKE).all()
        assert (mesh.delta[mask] > 0).all()


@pytest.fixture(scope="module", params=["periodic_ring", "two_alive_runs", "out_of_image", "horizon"])
def surface_inputs(request, schw):
    """(trajectories, char_thetas, cmap, t_grid, theta_grid, wrap_offset) of one mesh."""
    if request.param == "two_alive_runs":
        return (*two_alive_runs(schw), None)
    if request.param == "periodic_ring":
        curve = request.getfixturevalue("ex1_curve")
        n, t_grid = 24, np.linspace(0.0, 20.0, 9)
        theta_grid = np.linspace(0.05, 2 * math.pi + 0.05, 29)
    elif request.param == "out_of_image":
        curve = request.getfixturevalue("ex3_circular_curve")
        n, t_grid, theta_grid = 16, np.linspace(0.0, 5.0, 6), np.linspace(0.5, 8.0, 16)
    else:
        # an infalling ring at r = 2.5m: its characteristics reach the horizon
        # between t = 5.5 and 9.1, so the late slices keep different runs
        f = "1 + 0.25*sin(vartheta)"
        curve = ns.curve_from_expressions(
            ["0", "2.5", "1.2", "vartheta"],
            [f, "0", f"sqrt(1.25)/6.25*abs({f})", "0"],
            (0.0, 2 * math.pi),
            periodic=True,
        )
        n, t_grid = 16, np.linspace(0.0, 10.0, 11)
        theta_grid = np.linspace(0.1, 2 * math.pi + 0.1, 21)
    cmap, thetas, trajs = solve_characteristics(schw, curve, n, float(t_grid[-1]))
    wrap = ns.wrap_offset_from_curve(curve) if curve.periodic else None
    return trajs, thetas, cmap, t_grid, theta_grid, wrap


class TestBlockedAssembly:
    """Slices assembled in blocks give the mesh of slices assembled one by one."""

    @pytest.mark.parametrize("slices_per_block", [None, 2])
    def test_equals_one_slice_at_a_time(self, surface_inputs, schw, slices_per_block, monkeypatch):
        trajs, thetas, cmap, t_grid, theta_grid, wrap = surface_inputs
        if slices_per_block:  # several blocks per group of slices
            monkeypatch.setattr(surface, "_BLOCK_NODES", slices_per_block * len(theta_grid))

        def build(times):
            return ns.build_surface(trajs, thetas, cmap, times, theta_grid, schw, wrap_offset=wrap)

        mesh = build(t_grid)
        assert not mesh.truncated.all()
        rows = [build(t_grid[i : i + 1]) for i in range(len(t_grid))]
        for field in ("x", "x_t", "vartheta", "truncated", "type_label"):
            one_by_one = np.concatenate([getattr(row, field) for row in rows])
            assert getattr(mesh, field).tobytes() == one_by_one.tobytes(), field
        for field in ("jacobian", "g00", "g01", "g11", "delta"):
            one_by_one = np.concatenate([getattr(row, field) for row in rows])
            np.testing.assert_allclose(getattr(mesh, field), one_by_one, rtol=0.0, atol=1e-13)
        np.testing.assert_array_equal(
            mesh.truncation_map, np.min([row.truncation_map for row in rows], axis=0)
        )


class TestDeltaMonitor:
    def test_example1(self, ex1_mesh):
        report = ns.delta_monitor(ex1_mesh)
        assert report.max_abs_delta < 1e-6
        assert report.n_truncated == 0
        assert report.location is not None
        assert "lightlike" in report.type_counts

    def test_refinement_decreases(self, schw):
        # a varying-radius null ring couples the characteristics, so the
        # cross-characteristic spline error dominates |delta| and must
        # shrink as characteristics are added
        radius = "10 + 0.5*vartheta"
        lapse = f"(1 - 2/({radius}))"
        curve = ns.curve_from_expressions(
            ["0", radius, "pi/2", "vartheta"],
            [
                f"sqrt(4 + 1/({lapse}*({radius})**2))",
                f"-2*{lapse}",
                "0",
                f"1/({radius})**2",
            ],
            (0.5, 3.0),
        )
        assert ns.validate_curve(curve, schw, n_samples=17).passed
        maxima = []
        for n in (8, 16, 32):
            mesh = build_example_mesh(
                schw, curve, n, np.linspace(0.0, 2.0, 6),
                np.linspace(0.6, 2.9, 17),
            )
            maxima.append(ns.delta_monitor(mesh).max_abs_delta)
        assert maxima[1] < 0.25 * maxima[0]
        assert maxima[2] < 0.25 * maxima[1]
        assert maxima[2] < 1e-6


class TestExport:
    def test_csv_shape_and_columns(self, ex3_mesh, tmp_path):
        path = tmp_path / "mesh.csv"
        ns.export_csv(ex3_mesh, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,theta,vartheta,tau,r,alpha,beta,g00,g01,g11,delta,type"
        assert len(lines) == 1 + ex3_mesh.shape[0] * ex3_mesh.shape[1]

    def test_csv_round_trip(self, ex1_mesh, tmp_path):
        path = tmp_path / "mesh.csv"
        ns.export_csv(ex1_mesh, path)
        original = path.read_bytes()
        rows = ns.import_csv(path)
        # printing what was read back at .17g gives the same bytes
        lines = [",".join(CSV_COLUMNS)] + [
            ",".join(
                row[col] if col == "type"
                else "" if row[col] is None
                else format(row[col], ".17g")
                for col in CSV_COLUMNS
            )
            for row in rows
        ]
        assert ("\n".join(lines) + "\n").encode() == original

    def test_truncated_rows_have_empty_fields(self, schw, ex3_circular_curve, tmp_path):
        mesh = build_example_mesh(
            schw, ex3_circular_curve, 16,
            np.linspace(0.0, 5.0, 6), np.linspace(0.5, 8.0, 16),
        )
        path = tmp_path / "mesh.csv"
        ns.export_csv(mesh, path)
        rows = ns.import_csv(path)
        truncated_rows = [r for r in rows if r["type"] == "truncated"]
        assert truncated_rows
        for r in truncated_rows:
            assert r["tau"] is None and r["r"] is None and r["delta"] is None
            assert r["t"] is not None and r["theta"] is not None

    def test_json_round_trip(self, ex3_mesh, tmp_path):
        path = tmp_path / "mesh.json"
        ns.export_json(ex3_mesh, path)
        original = path.read_text()
        doc = ns.import_json(path)
        import json

        assert json.dumps(doc, indent=1, sort_keys=True) + "\n" == original
        assert len(doc["nodes"]) == ex3_mesh.shape[0]
        assert len(doc["nodes"][0]) == ex3_mesh.shape[1]

    def test_two_by_two_mesh_rows(self, schw, ex1_curve, tmp_path):
        mesh = build_example_mesh(
            schw, ex1_curve, 8, np.array([0.0, 1.0]),
            np.array([0.3, 0.9]),
        )
        path = tmp_path / "mesh.csv"
        ns.export_csv(mesh, path)
        rows = ns.import_csv(path)
        assert len(rows) == 4
        # t-major, then theta
        assert [(r["t"], r["theta"]) for r in rows] == [
            (0.0, 0.3), (0.0, 0.9), (1.0, 0.3), (1.0, 0.9)
        ]

    def test_values_printed_at_17_significant_digits(self, ex1_mesh, tmp_path):
        path = tmp_path / "mesh.csv"
        ns.export_csv(ex1_mesh, path)
        rows = ns.import_csv(path)
        # 17 significant digits read back to the very doubles of the mesh
        assert len(rows) == ex1_mesh.truncated.size
        arrays = {
            "tau": ex1_mesh.x[..., 0], "r": ex1_mesh.x[..., 1],
            "alpha": ex1_mesh.x[..., 2], "g11": ex1_mesh.g11,
            "delta": ex1_mesh.delta,
        }
        for row, (i, j) in zip(rows, np.ndindex(ex1_mesh.shape)):
            for key, values in arrays.items():
                if ex1_mesh.truncated[i, j]:
                    assert row[key] is None
                else:
                    assert row[key] == pytest.approx(values[i, j], abs=0.0)

    def test_csv_is_written_slice_by_slice(self, tmp_path):
        # a 101 x 128 mesh: the export holds one t-slice's lines at a time,
        # not the whole table (8.5 MiB of peak for a 2.5 MiB file)
        nt, ntheta = 101, 128
        rng = np.random.default_rng(0)
        values = rng.normal(size=(8, nt, ntheta))
        truncated = rng.random((nt, ntheta)) < 0.1
        mesh = ns.SurfaceMesh(
            t_grid=np.linspace(0.0, 20.0, nt),
            theta_grid=np.linspace(0.0, 2 * math.pi, ntheta, endpoint=False),
            x=rng.normal(size=(nt, ntheta, 4)),
            x_t=rng.normal(size=(nt, ntheta, 4)),
            vartheta=values[0], jacobian=values[1], g00=values[2], g01=values[3],
            g11=values[4], delta=values[5],
            type_label=np.where(truncated, TYPE_TRUNCATED, TYPE_LIGHTLIKE),
            truncated=truncated,
            truncation_map=np.full(ntheta, np.inf),
        )
        path = tmp_path / "mesh.csv"
        tracemalloc.start()
        try:
            ns.export_csv(mesh, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ns.import_csv(path)) == nt * ntheta
        assert peak < path.stat().st_size / 4

    def test_json_truncated_nodes_are_null(self, schw, ex3_circular_curve, tmp_path):
        mesh = build_example_mesh(
            schw, ex3_circular_curve, 16,
            np.linspace(0.0, 5.0, 6), np.linspace(0.5, 8.0, 16),
        )
        assert mesh.truncated.any() and not mesh.truncated.all()
        path = tmp_path / "mesh.json"
        ns.export_json(mesh, path)
        doc = ns.import_json(path)
        for (i, j), cut in np.ndenumerate(mesh.truncated):
            node = doc["nodes"][i][j]
            assert set(node) == set(CSV_COLUMNS)
            assert node["t"] == format(mesh.t_grid[i], ".17g")
            assert node["theta"] == format(mesh.theta_grid[j], ".17g")
            data = [node[key] for key in CSV_COLUMNS[2:-1]]
            if cut:
                assert node["type"] == TYPE_TRUNCATED
                assert data == [None] * 9
            else:
                assert node["type"] != TYPE_TRUNCATED
                assert None not in data
