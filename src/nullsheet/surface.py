"""Surface assembly from per-characteristic geodesics, with export round trips.

Each geodesic trajectory is sampled once, over the part of the t-grid it
reaches, in the chart it was stepped in (``Spacetime.step_chart``: for
Schwarzschild, ingoing Eddington-Finkelstein time v, which stays smooth
across characteristics that near r = 2m, where tau diverges).  A t-slice
splines those samples across its longest contiguous run of alive
characteristics, and slices with the same run share the spline's knots.  The mesh is assembled in blocks of such slices, at most
``_BLOCK_NODES`` nodes each, as flat node arrays with a slice index per
node: one spline solve over all the block's value columns, one ``invert``
with t given per node to pull every covered column theta back to vartheta,
one evaluation of the spline and of its derivative (each node reading its
own slice's columns through ``CubicSpline.gather``), and the embedding, its
tangents, mapped back to the chart of ``metric_at``, and the induced metric
from array calls (one pullback):

    x(t, theta) = y(t, vartheta),
    x_theta     = y_vartheta * dvartheta/dtheta,
    x_t         = y_t - Lambda(vartheta) * (dvartheta/dtheta) * y_vartheta.

Nodes whose contributing characteristics ended in an event before t are
marked truncated; nothing is extrapolated past events.  The mesh stores the
degeneracy indicator delta = g01^2 - g00 g11 in the (t, theta)
parameterization only; ``tests/test_surface.py``
(``test_tangents_match_differences_of_positions``) audits the tangents, and
through them the metric, against central differences of the positions.

Every exported table (the CSV, the JSON and the characteristic table that
``solve --dump-characteristics`` writes) is formatted one t-slice at a
time; a CSV writer writes each slice's lines and drops them before the next.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._spline import CubicSpline
from .characteristics import CharacteristicMap
from .errors import CoverageError
from .geodesic import REACH_SLACK, GeodesicTrajectory
from .initial_data import EPS_DELTA
from .spacetime import Spacetime, induced_metric

CSV_COLUMNS = (
    "t",
    "theta",
    "vartheta",
    "tau",
    "r",
    "alpha",
    "beta",
    "g00",
    "g01",
    "g11",
    "delta",
    "type",
)

TYPE_LIGHTLIKE = "lightlike"
TYPE_TIMELIKE = "timelike"
TYPE_SPACELIKE = "spacelike"
TYPE_TRUNCATED = "truncated"

# nodes per block of t-slices that build_surface assembles at once; the
# block's spline, inverse and pullback arrays scale with it (CHANGES.md
# gives the peak RSS it was chosen by)
_BLOCK_NODES = 2048


@dataclass
class SurfaceMesh:
    """Reconstructed surface on a (t, theta) grid with induced-metric data."""

    t_grid: np.ndarray
    theta_grid: np.ndarray
    x: np.ndarray        # (nt, ntheta, 4)
    x_t: np.ndarray      # (nt, ntheta, 4)
    vartheta: np.ndarray  # (nt, ntheta)
    jacobian: np.ndarray  # (nt, ntheta) dvartheta/dtheta
    g00: np.ndarray
    g01: np.ndarray
    g11: np.ndarray
    delta: np.ndarray
    type_label: np.ndarray  # (nt, ntheta) unicode
    truncated: np.ndarray   # (nt, ntheta) bool
    truncation_map: np.ndarray  # (ntheta,) earliest truncated t, inf if none

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.t_grid), len(self.theta_grid)


def wrap_offset_from_curve(curve) -> np.ndarray:
    """Coordinate shift over one period of a periodic curve (2*pi windings)."""
    gap = curve.phi(curve.theta_max) - curve.phi(curve.theta_min)
    return 2.0 * math.pi * np.round(gap / (2.0 * math.pi))


def build_surface(
    trajectories: list[GeodesicTrajectory],
    char_thetas: np.ndarray,
    cmap: CharacteristicMap,
    t_grid: np.ndarray,
    theta_grid: np.ndarray,
    spacetime: Spacetime,
    wrap_offset: np.ndarray | None = None,
) -> SurfaceMesh:
    """Assemble the mesh; trajectories are indexed by strictly increasing vartheta.

    For periodic characteristic grids, ``wrap_offset`` is the coordinate
    shift accumulated over one vartheta period (e.g. 2*pi in beta for a loop
    around the axis); winding components are de-trended before the periodic
    spline and the linear trend is restored afterwards.
    """
    char_thetas = np.asarray(char_thetas, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    theta_grid = np.asarray(theta_grid, dtype=float)
    n_char = len(char_thetas)
    if n_char != len(trajectories):
        raise CoverageError("one trajectory per characteristic vartheta required")
    if n_char < 4:
        raise CoverageError(
            f"insufficient characteristic coverage: {n_char} < 4 (cubic splines)"
        )
    if np.any(np.diff(char_thetas) <= 0):
        raise CoverageError("characteristic varthetas must be strictly increasing")

    nt, ntheta = len(t_grid), len(theta_grid)
    dim = spacetime.dim
    x, x_t = np.full((2, nt, ntheta, dim), np.nan)
    vartheta_grid, jac, g00, g01, g11, delta = np.full((6, nt, ntheta), np.nan)
    labels = np.full((nt, ntheta), TYPE_TRUNCATED, dtype="<U10")
    truncated = np.ones((nt, ntheta), dtype=bool)

    ends = np.array([traj.t_last for traj in trajectories])
    theta_min = cmap.theta_min
    if wrap_offset is None:
        trend = np.zeros(dim)
    else:
        trend = np.asarray(wrap_offset, dtype=float) / cmap.period
    spline_thetas = np.append(char_thetas, char_thetas[0] + cmap.period)
    # winding trend of each characteristic's position; none on velocities
    detrend = np.outer(char_thetas - theta_min, np.append(trend, np.zeros(dim)))

    # each trajectory sampled once over the t-grid nodes it reaches, in the
    # stepping chart: samples[i, k] = [y, y_t] of characteristic k at t_grid[i]
    reached = ends >= t_grid[:, None] - REACH_SLACK
    samples = np.full((nt, n_char, 2 * dim), np.nan)
    for k, traj in enumerate(trajectories):
        samples[reached[:, k], k] = traj.dense(t_grid[reached[:, k]])
    chart = spacetime.step_chart

    # a slice splines its largest contiguous alive run of characteristics
    # (first, last); slices with the same run share the spline's knots
    groups: dict[tuple[int, int], list[int]] = {}
    for i, alive in enumerate(reached):
        edges = np.diff(alive, prepend=False, append=False).nonzero()[0]
        starts, stops = edges[::2], edges[1::2]
        if len(starts) and (stops - starts).max() >= 4:
            k = int(np.argmax(stops - starts))
            groups.setdefault((int(starts[k]), int(stops[k])), []).append(i)

    width = 2 * dim
    per_block = max(1, _BLOCK_NODES // max(ntheta, 1))
    for (first, last), slices in groups.items():
        # the whole ring of a periodic map closes into a periodic spline
        periodic = cmap.periodic and last - first == n_char
        for b in range(0, len(slices), per_block):
            rows = np.array(slices[b : b + per_block])
            t_rows = t_grid[rows]

            # one spline over the block's slices: slice s owns the value
            # columns [s * width, (s + 1) * width), its y then its y_t
            if periodic:
                values = samples[rows] - detrend
                values = np.concatenate([values, values[:, :1]], axis=1)
                knots = spline_thetas
            else:
                values = samples[rows, first:last]
                knots = char_thetas[first:last]
            values = values.transpose(1, 0, 2).reshape(len(knots), -1)
            spline = CubicSpline(knots, values, periodic=periodic)

            # one node per (slice, column) inside the characteristic image
            slot, cols = np.nonzero(cmap._in_image(t_rows[:, None], theta_grid))
            t_nodes = t_rows[slot]
            v = cmap.invert(t_nodes, theta_grid[cols])
            if not periodic:
                inside = (knots[0] - 1e-12 <= v) & (v <= knots[-1] + 1e-12)
                slot, cols, t_nodes, v = slot[inside], cols[inside], t_nodes[inside], v[inside]
            jac_v = cmap.jacobian(t_nodes, v)
            lam = cmap.lambda_fn(v)
            y, y_t = np.split(spline.gather(v, slot, width), 2, axis=1)
            y_v = spline.derivative().gather(v, slot, width)[:, :dim]
            if periodic:
                y += np.outer(v - theta_min, trend)
                y_v += trend

            xt = y_t - (lam * jac_v)[:, None] * y_v
            xth = jac_v[:, None] * y_v
            if chart is not None:  # the tangents mapped back at the spline's point
                xth = chart.back(np.concatenate([y, xth], axis=1))[:, dim:]
                y, xt = np.split(chart.back(np.concatenate([y, xt], axis=1)), 2, axis=1)
            ind = induced_metric(spacetime, y, xt, xth)
            # scale stays positive on null surfaces, where g00 and g01 both
            # vanish and the naive g01^2 + |g00 g11| collapses to zero; it
            # overflows to inf far out, which still types nodes by delta
            with np.errstate(over="ignore"):
                scale = (np.abs(ind.g00) + np.abs(ind.g01) + np.abs(ind.g11)) ** 2
            lightlike = np.abs(ind.delta) <= np.maximum(EPS_DELTA, 1e-6 * scale)

            node = rows[slot], cols
            x[node] = y
            x_t[node] = xt
            vartheta_grid[node] = v
            jac[node] = jac_v
            g00[node] = ind.g00
            g01[node] = ind.g01
            g11[node] = ind.g11
            delta[node] = ind.delta
            labels[node] = np.where(
                lightlike, TYPE_LIGHTLIKE,
                np.where(ind.delta > 0, TYPE_TIMELIKE, TYPE_SPACELIKE),
            )
            truncated[node] = False

    return SurfaceMesh(
        t_grid=t_grid,
        theta_grid=theta_grid,
        x=x,
        x_t=x_t,
        vartheta=vartheta_grid,
        jacobian=jac,
        g00=g00,
        g01=g01,
        g11=g11,
        delta=delta,
        type_label=labels,
        truncated=truncated,
        truncation_map=np.where(truncated, t_grid[:, None], np.inf).min(axis=0),
    )


@dataclass(frozen=True)
class DeltaReport:
    """Summary of the light-likeness monitor over a mesh."""

    max_abs_delta: float
    location: tuple[float, float] | None  # (t, theta) of the worst node
    n_nodes: int
    n_truncated: int
    type_counts: dict

    def __str__(self):
        loc = (
            f"at (t, theta) = ({self.location[0]:.6g}, {self.location[1]:.6g})"
            if self.location
            else "n/a"
        )
        return (
            f"max |delta| = {self.max_abs_delta:.3e} {loc}; "
            f"{self.n_truncated}/{self.n_nodes} truncated; "
            f"types: {self.type_counts}"
        )


def delta_monitor(mesh: SurfaceMesh) -> DeltaReport:
    """Max |delta| over non-truncated nodes with its grid location."""
    mask = ~mesh.truncated
    n_trunc = int(mesh.truncated.sum())
    counts: dict[str, int] = {}
    for label in np.unique(mesh.type_label[mask]) if mask.any() else []:
        counts[str(label)] = int((mesh.type_label[mask] == label).sum())
    if not mask.any():
        return DeltaReport(
            max_abs_delta=math.nan,
            location=None,
            n_nodes=mesh.truncated.size,
            n_truncated=n_trunc,
            type_counts=counts,
        )
    abs_delta = np.where(mask, np.abs(mesh.delta), -1.0)
    i, j = np.unravel_index(int(abs_delta.argmax()), abs_delta.shape)
    return DeltaReport(
        max_abs_delta=float(abs_delta[i, j]),
        location=(float(mesh.t_grid[i]), float(mesh.theta_grid[j])),
        n_nodes=mesh.truncated.size,
        n_truncated=n_trunc,
        type_counts=counts,
    )


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _table_slices(columns, truncated: np.ndarray, labels=None):
    """The CSV data lines of a grid as one string per t-slice, t-major then theta.

    ``columns`` starts with the t column (nt, 1) and the theta row (ntheta,),
    which are formatted once each; the other columns broadcast to the shape
    of ``truncated``.  A full line prints every column at 17 significant
    digits, then the label if there is a label column; a truncated line keeps
    t, theta and the label and leaves the other cells empty.  A slice's lines
    are one template, filled by one ``%`` with that slice's values, which
    become Python floats only while the slice is made.
    """
    t_col, theta_row = columns[:2]
    data = [np.broadcast_to(c, truncated.shape) for c in columns[2:]]
    thetas = [_fmt(v) for v in theta_row.tolist()]
    full, cut = ",%.17g" * len(data), "," * len(data)
    for i, skips in enumerate(truncated):
        t = _fmt(t_col[i, 0])
        tails = [""] * len(thetas) if labels is None else ["," + s for s in labels[i].tolist()]
        template = "".join([
            f"{t},{theta}{cut if skip else full}{tail}\n"
            for theta, skip, tail in zip(thetas, skips.tolist(), tails)
        ])
        values = np.stack([c[i] for c in data], axis=-1)[~skips]
        yield template % tuple(values.ravel().tolist())


def _write_table(path, header: str, columns, truncated: np.ndarray, labels=None) -> None:
    """``header`` and the grid's CSV lines (``_table_slices``), written slice by slice."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lines in _table_slices(columns, truncated, labels):
            fh.write(lines)


def _mesh_table(mesh: SurfaceMesh):
    """The mesh's columns in CSV_COLUMNS order, its truncation mask and its labels."""
    columns = (
        mesh.t_grid[:, None], mesh.theta_grid, mesh.vartheta, *np.moveaxis(mesh.x, -1, 0),
        mesh.g00, mesh.g01, mesh.g11, mesh.delta,
    )
    return columns, mesh.truncated, mesh.type_label


def export_csv(mesh: SurfaceMesh, path) -> None:
    _write_table(path, ",".join(CSV_COLUMNS), *_mesh_table(mesh))


def import_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        rows = []
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split(",")
            row = {}
            for col, cell in zip(CSV_COLUMNS, cells):
                if col == "type":
                    row[col] = cell
                elif cell == "":
                    row[col] = None
                else:
                    row[col] = float(cell)
            rows.append(row)
    return rows


def export_json(mesh: SurfaceMesh, path) -> None:
    """The CSV cells as strings, nested per t; an empty cell becomes null."""
    nodes = [
        [
            {key: cell or None for key, cell in zip(CSV_COLUMNS, line.split(","))}
            for line in lines.splitlines()
        ]
        for lines in _table_slices(*_mesh_table(mesh))
    ]
    doc = {
        "t_grid": [_fmt(t) for t in mesh.t_grid],
        "theta_grid": [_fmt(v) for v in mesh.theta_grid],
        "nodes": nodes,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def import_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
