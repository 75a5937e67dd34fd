"""Outside-in tracing of nullsheet CLI passes.

The tracer never edits the package.  While installed, it replaces the names
that ``nullsheet.cli`` resolves at call time (``load_config``,
``integrate``, ``build_surface``, ...) with wrappers that record a span
around each call, and it hands the pipeline instrumented copies of the
objects those calls return:

* a ``dataclasses.replace`` copy of the ``Spacetime`` whose
  ``acceleration_at`` counts rhs evaluations and ``DomainError``s;
* a ``replace`` copy of the ``CharacteristicMap`` whose ``lambda_fn`` and
  ``lambda_prime_fn`` count Lambda evaluations;
* oracles whose ``evaluate`` and ``relation_residual`` are timed and
  counted.

Steps, events and the smallest step are read from each returned
``GeodesicTrajectory``, node counts and the worst ``delta`` from the
``SurfaceMesh``.  Spans are kept in memory; ``dump`` writes them out.

A layer's self time is the duration of its spans minus the part covered by
their child spans; ``cli.self_s`` is what ``nullsheet.cli.main`` spends in
its own code.  Per pass, the self times sum to the span of ``main``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import re
import time
from collections import defaultdict

# name resolved by nullsheet.cli -> metric its self time adds to
TIMED = {
    "load_config": "config.s",
    "build_spacetime": "config.s",
    "build_curve": "config.s",
    "validate_curve": "initial_data.validate_s",
    "map_from_initial_data": "characteristics.map_s",
    "integrate": "geodesic.s",
    "conserved_along": "geodesic.conserved_s",
    "build_surface": "surface.s",
    "delta_monitor": "surface.s",
    "export_csv": "surface.export_s",
    "make_oracle": "oracles.s",
    "check_oracle_consistency": "oracles.s",
}
# read from what the wrapped calls return, or counted on instrumented copies;
# a pass reports each of them, 0 when the pass never reached that layer
COUNTERS = (
    "geodesic.characteristics", "geodesic.steps", "geodesic.rhs_evals",
    "geodesic.rhs_domain_errors", "geodesic.h_min", "geodesic.events.horizon",
    "geodesic.events.axis", "geodesic.events.t_max", "geodesic.events.step_failure",
    "geodesic.trajectory_mb", "geodesic.drift_max", "surface.nodes",
    "surface.nodes_truncated", "surface.lambda_evals", "surface.delta_max",
    "surface.timelike_nodes", "surface.export_bytes", "oracles.evals",
    "oracles.skipped", "oracles.err_max",
)
MAIN_METRIC = "cli.self_s"
OBSERVE_METRIC = "trace.observe_s"
MIB = float(1 << 20)

_TABLE_ROW = re.compile(r"^(?:tau|r|alpha|beta|relation)\s+(\S+)\s+\S+\s*$", re.MULTILINE)


def compare_max_error(stdout: str) -> float | None:
    """Largest 'max error' in a ``nullsheet compare`` table, if it printed one."""
    values = [float(v) for v in _TABLE_ROW.findall(stdout)]
    return max(values) if values else None


class Tracer:
    """Spans and counters for the passes run while it is installed."""

    def __init__(self):
        self.spans: list[list] = []   # [metric, start, end, parent index, pass]
        self.summaries: list[dict] = []
        self._stack: list[int] = []
        self._first_span = 0
        self._stats: dict[str, float] = {}

    # -- spans -----------------------------------------------------------
    def _timed(self, metric, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [metric, 0.0, 0.0, self._stack[-1] if self._stack else None,
                      len(self.summaries)]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def _count(self, fn, metric, errors=(), error_metric=None):
        stats = self._stats

        def wrapper(*args):
            if metric:
                stats[metric] += 1
            try:
                return fn(*args)
            except errors:
                stats[error_metric] += 1
                raise

        return wrapper

    # -- what each wrapped call returns ----------------------------------
    def _observe(self, name, result, args):
        stats = self._stats
        if name == "build_spacetime" and result.acceleration_at is not None:
            return dataclasses.replace(
                result,
                acceleration_at=self._count(
                    result.acceleration_at, "geodesic.rhs_evals",
                    self._errors.DomainError, "geodesic.rhs_domain_errors",
                ),
            )
        if name == "map_from_initial_data":
            return dataclasses.replace(
                result,
                lambda_fn=self._count(result.lambda_fn, "surface.lambda_evals"),
                lambda_prime_fn=self._count(result.lambda_prime_fn, "surface.lambda_evals"),
            )
        if name == "make_oracle":
            # a node is skipped when either call raises, so both count errors
            for method, metric in (("evaluate", "oracles.evals"), ("relation_residual", None)):
                counted = self._count(
                    getattr(result, method), metric,
                    self._errors.NullsheetError, "oracles.skipped",
                )
                setattr(result, method, self._timed("oracles.s", counted))
            return result
        if name == "integrate":
            ts = result.ts
            stats["geodesic.characteristics"] += 1
            stats["geodesic.steps"] += len(ts) - 1
            if len(ts) > 1:
                h_min = float((ts[1:] - ts[:-1]).min())
                old = stats["geodesic.h_min"]
                stats["geodesic.h_min"] = min(old, h_min) if old else h_min
            for event in result.events:
                stats[f"geodesic.events.{event.kind}"] += 1
            nbytes = ts.nbytes + sum(s.y.nbytes + s.v.nbytes for s in result.states)
            nbytes += sum(q.nbytes for q in result.interp_q)
            stats["geodesic.trajectory_mb"] += nbytes / MIB
        elif name == "conserved_along":
            stats["geodesic.drift_max"] = max(stats["geodesic.drift_max"], result.max_rel_drift)
        elif name == "build_surface":
            live = ~result.truncated
            stats["surface.nodes"] += result.truncated.size
            stats["surface.nodes_truncated"] += int(result.truncated.sum())
            stats["surface.timelike_nodes"] += int((result.type_label[live] == "timelike").sum())
            if live.any():
                worst = float(abs(result.delta[live]).max())
                stats["surface.delta_max"] = max(stats["surface.delta_max"], worst)
        elif name == "export_csv":
            stats["surface.export_bytes"] += os.path.getsize(args[1])
        return result

    def _wrap(self, name, fn):
        timed = self._timed(TIMED[name], fn)
        # the tracer's own reading of results is kept out of cli.self_s
        observe = self._timed(OBSERVE_METRIC, self._observe)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return observe(name, timed(*args, **kwargs), args)

        return wrapper

    # -- installing and passes -------------------------------------------
    @contextlib.contextmanager
    def installed(self, cli):
        """Wrap the names ``cli`` calls for the duration of the block."""
        from nullsheet import errors

        self._errors = errors
        saved = {name: getattr(cli, name) for name in (*TIMED, "main")}
        try:
            for name in TIMED:
                setattr(cli, name, self._wrap(name, saved[name]))
            cli.main = self._timed(MAIN_METRIC, saved["main"])
            yield self
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)

    def begin_pass(self):
        self._first_span = len(self.spans)
        self._stats = defaultdict(float, dict.fromkeys(COUNTERS, 0.0))

    def end_pass(self, stdout: str) -> dict:
        """Close the pass: self time per layer plus its counters."""
        summary = dict(self._stats)
        for metric in (*TIMED.values(), MAIN_METRIC, OBSERVE_METRIC):
            summary.setdefault(metric, 0.0)
        for record in self.spans[self._first_span:]:
            metric, start, end, parent, _ = record
            summary[metric] += end - start
            if parent is not None:
                summary[self.spans[parent][0]] -= end - start
        err = compare_max_error(stdout)
        if err is not None:
            summary["oracles.err_max"] = err
        self.summaries.append(summary)
        return summary

    def dump(self, path, **extra):
        doc = {
            "spans": [
                {"name": m, "start": s, "end": e, "parent": p, "pass": k}
                for m, s, e, p, k in self.spans
            ],
            "passes": self.summaries,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

