"""Surface assembly from per-characteristic geodesics, with export round trips.

The mesh is assembled one t-slice at a time, as arrays.  Each geodesic
trajectory is sampled once, over the part of the t-grid it reaches; per
slice, those samples are splined across characteristics, one ``invert``
call pulls every covered column theta back to vartheta, and the embedding,
its tangents and the induced metric of all those nodes follow from array
calls (one pullback per parameterization):

    x(t, theta) = y(t, vartheta),
    x_theta     = y_vartheta * dvartheta/dtheta,
    x_t         = y_t - Lambda(vartheta) * (dvartheta/dtheta) * y_vartheta.

Nodes whose contributing characteristics ended in an event before t are
marked truncated; nothing is extrapolated past events.  The mesh stores the
degeneracy indicator in both parameterizations so the identity
delta(t, theta) = delta(t, vartheta) * (dvartheta/dtheta)^2 can be audited.
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
    delta_char: np.ndarray  # delta in the (t, vartheta) parameterization
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
    vartheta_grid, jac, g00, g01, g11, delta, delta_char = np.full((7, nt, ntheta), np.nan)
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

    # each trajectory sampled once over the t-grid nodes it reaches:
    # samples[i, k] = [y, y_t] of characteristic k at t_grid[i]
    reached = ends >= t_grid[:, None] - REACH_SLACK
    samples = np.full((nt, n_char, 2 * dim), np.nan)
    for k, traj in enumerate(trajectories):
        state = traj.sample(t_grid[reached[:, k]])
        samples[reached[:, k], k] = np.hstack([state.y, state.v])

    for i, t in enumerate(t_grid):
        alive = reached[i]
        periodic_now = cmap.periodic and bool(alive.all())
        # largest contiguous alive block; interpolation is restricted to it
        edges = np.diff(alive, prepend=False, append=False).nonzero()[0]
        starts, stops = edges[::2], edges[1::2]
        if periodic_now:
            first, last = 0, n_char
        elif len(starts) and (stops - starts).max() >= 4:
            k = int(np.argmax(stops - starts))
            first, last = starts[k], stops[k]
        else:
            continue

        # one spline across characteristics carries position y and velocity y_t
        if periodic_now:
            yy_t = samples[i] - detrend
            spline = CubicSpline(spline_thetas, np.vstack([yy_t, yy_t[:1]]), periodic=True)
        else:
            spline = CubicSpline(char_thetas[first:last], samples[i, first:last])

        # a column has a vartheta only inside the characteristic image
        cols = np.flatnonzero(cmap._in_image(t, theta_grid))
        v = cmap.invert(t, theta_grid[cols])
        if not periodic_now:
            inside = (char_thetas[first] - 1e-12 <= v) & (v <= char_thetas[last - 1] + 1e-12)
            cols, v = cols[inside], v[inside]
        jac_v = cmap.jacobian(t, v)
        lam = cmap.lambda_fn(v)
        y, y_t = np.split(spline(v), 2, axis=1)
        y_v = spline.derivative()(v)[:, :dim]
        if periodic_now:
            y += np.outer(v - theta_min, trend)
            y_v += trend

        xt = y_t - (lam * jac_v)[:, None] * y_v
        ind = induced_metric(spacetime, y, xt, jac_v[:, None] * y_v)
        # scale stays positive on null surfaces, where g00 and g01 both
        # vanish and the naive g01^2 + |g00 g11| collapses to zero
        scale = (np.abs(ind.g00) + np.abs(ind.g01) + np.abs(ind.g11)) ** 2
        lightlike = np.abs(ind.delta) <= np.maximum(EPS_DELTA, 1e-6 * scale)

        x[i, cols] = y
        x_t[i, cols] = xt
        vartheta_grid[i, cols] = v
        jac[i, cols] = jac_v
        g00[i, cols] = ind.g00
        g01[i, cols] = ind.g01
        g11[i, cols] = ind.g11
        delta[i, cols] = ind.delta
        delta_char[i, cols] = induced_metric(spacetime, y, y_t, y_v).delta
        labels[i, cols] = np.where(
            lightlike, TYPE_LIGHTLIKE,
            np.where(ind.delta > 0, TYPE_TIMELIKE, TYPE_SPACELIKE),
        )
        truncated[i, cols] = False

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
        delta_char=delta_char,
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


def _csv_lines(columns, truncated: np.ndarray, labels=None) -> list[str]:
    """CSV data lines of a grid, one per node in C order.

    Each column broadcasts to the shape of ``truncated``; the first two are
    t and theta.  A full line prints every column at 17 significant digits,
    then the label if there is a label column; a truncated line keeps t,
    theta and the label and leaves the other cells empty.
    """
    n = len(columns)
    tail = "" if labels is None else ",%s"
    full = ",".join(["%.17g"] * n) + tail
    cut = "%.17g,%.17g" + "," * (n - 2) + tail
    if labels is not None:
        columns = (*columns, labels)
    cells = [np.broadcast_to(c, truncated.shape).ravel().tolist() for c in columns]
    return [
        cut % (row[:2] + row[n:]) if skip else full % row
        for row, skip in zip(zip(*cells), truncated.ravel().tolist())
    ]


def _mesh_lines(mesh: SurfaceMesh) -> list[str]:
    """The mesh's CSV data lines, t-major then theta, in CSV_COLUMNS order."""
    columns = (
        mesh.t_grid[:, None], mesh.theta_grid, mesh.vartheta, *np.moveaxis(mesh.x, -1, 0),
        mesh.g00, mesh.g01, mesh.g11, mesh.delta,
    )
    return _csv_lines(columns, mesh.truncated, mesh.type_label)


def export_csv(mesh: SurfaceMesh, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([",".join(CSV_COLUMNS), *_mesh_lines(mesh)]) + "\n")


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
        {key: cell or None for key, cell in zip(CSV_COLUMNS, line.split(","))}
        for line in _mesh_lines(mesh)
    ]
    ntheta = len(mesh.theta_grid)
    doc = {
        "t_grid": [_fmt(t) for t in mesh.t_grid],
        "theta_grid": [_fmt(v) for v in mesh.theta_grid],
        "nodes": [nodes[i * ntheta : (i + 1) * ntheta] for i in range(len(mesh.t_grid))],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def import_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
