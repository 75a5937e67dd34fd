"""Command-line driver: validate, solve, compare, classify, oracle.

Every run is described by a YAML configuration (see config.py for the
schema); results are written as CSV or structured JSON.  Exit codes:
0 success, 1 failed validation/comparison or a fatal integration failure,
2 configuration or oracle-consistency errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .characteristics import CharacteristicMap, map_from_initial_data
from .config import RunConfig, build_curve, build_spacetime, load_config
from .errors import (
    ConfigError,
    ExpressionError,
    NullsheetError,
    OracleMismatchError,
)
# ``integrate`` is not called here; it stays a name of this module, which
# perfbench/tracer.py resolves and wraps.  It goes when the tracer wraps
# ``integrate_batch`` instead (ROADMAP item 1).
from .geodesic import (
    GeodesicTrajectory,
    conserved_along,
    integrate,  # noqa: F401
    integrate_batch,
)
from .initial_data import InitialCurve, validate_curve
from .oracles import OracleParams, check_oracle_consistency, make_oracle
from .reduction import profile_from_data
from .spacetime import SchwarzschildParams, Spacetime
from .surface import (
    SurfaceMesh,
    _fmt,
    _write_table,
    build_surface,
    delta_monitor,
    export_csv,
    export_json,
    wrap_offset_from_curve,
)


@dataclass
class PipelineResult:
    cmap: CharacteristicMap
    trajectories: list[GeodesicTrajectory]
    mesh: SurfaceMesh


def run_pipeline(
    cfg: RunConfig, spacetime: Spacetime, curve: InitialCurve
) -> PipelineResult:
    """Solve the Cauchy problem for ``curve`` in ``spacetime``, built from ``cfg``."""
    cmap = map_from_initial_data(curve, spacetime)
    char_thetas = curve.grid(cfg.initial_data.samples)
    trajectories = integrate_batch(
        spacetime, curve.phi(char_thetas), curve.psi(char_thetas), cfg.solver.t_end, cfg.solver
    )

    t_grid = np.linspace(0.0, cfg.solver.t_end, cfg.output.t_samples)
    theta_grid = curve.grid(cfg.output.theta_samples or cfg.initial_data.samples)

    wrap = wrap_offset_from_curve(curve) if curve.periodic else None
    mesh = build_surface(
        trajectories,
        char_thetas,
        cmap,
        t_grid,
        theta_grid,
        spacetime,
        wrap_offset=wrap,
    )
    return PipelineResult(cmap=cmap, trajectories=trajectories, mesh=mesh)


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    spacetime = build_spacetime(cfg)
    curve = build_curve(cfg)
    report = validate_curve(curve, spacetime, n_samples=cfg.initial_data.samples)
    print(f"max |delta(0, vartheta)| : {report.max_abs_delta:.6e} "
          f"(at vartheta = {report.argmax_delta:.6g})")
    print(f"min Lambda' estimate     : {report.min_slope:.6e}")
    print(f"light-likeness           : {'PASS' if report.lightlike else 'FAIL'}")
    print(f"monotonicity             : {'PASS' if report.monotone else 'FAIL'}")
    if report.first_violation is not None:
        lo, hi = report.first_violation
        print(f"first violating interval : [{lo:.6g}, {hi:.6g}]")
    return 0 if report.passed else 1


def _print_solve_summary(result: PipelineResult, spacetime: Spacetime) -> None:
    stops: dict[str, int] = {}
    for traj in result.trajectories:
        stops[traj.stats.stop] = stops.get(traj.stats.stop, 0) + 1
    print(f"characteristics          : {len(result.trajectories)}")
    print(f"events                   : {stops}")
    if spacetime.name == "schwarzschild":
        params = SchwarzschildParams(m=spacetime.meta["mass"])
        drifts = [conserved_along(params, traj).max_rel_drift for traj in result.trajectories]
        # np.max, not a fold with max, so that a nan drift shows
        print(f"max conserved drift      : {np.max(drifts):.3e}")
    report = delta_monitor(result.mesh)
    print(f"delta monitor            : {report}")


def _dump_characteristics(result: PipelineResult, path: str) -> None:
    mesh = result.mesh
    live = ~mesh.truncated
    lam = np.full(mesh.shape, np.nan)
    lam[live] = result.cmap.lambda_fn(mesh.vartheta[live])
    columns = (mesh.t_grid[:, None], mesh.theta_grid, mesh.vartheta, lam, mesh.jacobian)
    _write_table(path, "t,theta,vartheta,lambda,jacobian", columns, mesh.truncated)


@contextmanager
def _writing(field: str):
    """Turn a failed write into a one-line ConfigError naming ``field``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(field, f"cannot write: {exc}") from exc


def _check_writable(path: str, field: str) -> None:
    """Fail as a write to ``path`` would, before any work is spent."""
    created = not os.path.exists(path)
    with _writing(field):
        open(path, "a", encoding="utf-8").close()
    if created:
        os.remove(path)


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    spacetime = build_spacetime(cfg)
    curve = build_curve(cfg)
    _check_writable(cfg.output.path, "output.path")
    if args.dump_characteristics:
        _check_writable(args.dump_characteristics, "--dump-characteristics")
    if not args.force:
        report = validate_curve(curve, spacetime, n_samples=cfg.initial_data.samples)
        if not report.passed:
            print(
                "initial data failed validation "
                f"(max |delta| = {report.max_abs_delta:.3e}, "
                f"min Lambda' = {report.min_slope:.3e}); "
                "use --force to integrate anyway",
                file=sys.stderr,
            )
            return 1
    result = run_pipeline(cfg, spacetime, curve)
    with _writing("output.path"):
        if cfg.output.format == "csv":
            export_csv(result.mesh, cfg.output.path)
        else:
            export_json(result.mesh, cfg.output.path)
    print(f"wrote {cfg.output.format} surface to {cfg.output.path}")
    if args.dump_characteristics:
        with _writing("--dump-characteristics"):
            _dump_characteristics(result, args.dump_characteristics)
        print(f"wrote characteristic table to {args.dump_characteristics}")
    _print_solve_summary(result, spacetime)
    failed = any(
        traj.stats.stop in ("max_steps", "step_underflow") for traj in result.trajectories
    )
    return 1 if failed else 0


def _oracle_from_config(cfg: RunConfig):
    if cfg.oracle is None:
        raise ConfigError("oracle", "this command needs an oracle block")
    try:
        return make_oracle(
            cfg.oracle.example, cfg.oracle.case, OracleParams(**cfg.oracle.params)
        )
    except ValueError as exc:
        raise ConfigError("oracle.params", str(exc)) from exc


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    oracle = _oracle_from_config(cfg)
    curve = build_curve(cfg)
    if cfg.spacetime.type != "schwarzschild":
        raise ConfigError("spacetime.type", "compare requires schwarzschild")
    check_oracle_consistency(
        oracle, SchwarzschildParams(m=cfg.spacetime.mass), curve
    )
    result = run_pipeline(cfg, build_spacetime(cfg), curve)
    mesh = result.mesh

    # the live nodes, less those outside the oracle's range
    i, j = np.nonzero(~mesh.truncated)
    t, vartheta, x = mesh.t_grid[i], mesh.vartheta[i, j], mesh.x[i, j]
    skip = oracle.outside(t, vartheta, x)
    skipped = int(np.count_nonzero(skip))
    if skipped == len(t):
        print("no comparable nodes (all truncated or out of oracle range)")
        return 1
    keep = ~skip
    t, vartheta, x = t[keep], vartheta[keep], x[keep]
    ref = oracle.evaluate(t, vartheta)
    columns = [*np.abs(x - ref).T, oracle.relation_residual(t, x, vartheta)]
    print(f"{'coordinate':<12} {'max error':>13} {'median error':>13}")
    for name, arr in zip(("tau", "r", "alpha", "beta", "relation"), columns):
        print(f"{name:<12} {arr.max():13.4e} {np.median(arr):13.4e}")
    if skipped:
        print(f"skipped nodes            : {skipped}")
    print(f"comparison tolerance     : {cfg.compare.tol:.3e}")
    # np.max keeps a nan error, which then fails the verdict
    ok = bool(np.max([arr.max() for arr in columns]) < cfg.compare.tol)
    print(f"verdict                  : {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_classify(args) -> int:
    cfg = load_config(args.config)
    if cfg.spacetime.type != "schwarzschild":
        raise ConfigError("spacetime.type", "classify requires schwarzschild")
    params = SchwarzschildParams(m=cfg.spacetime.mass)
    curve = build_curve(cfg)
    n = min(cfg.initial_data.samples, args.rows)
    grid = np.linspace(curve.theta_min, curve.theta_max, n)
    print(f"{'vartheta':>12} {'A':>17} {'B':>17} "
          f"{'roots':>44} {'case':>14} {'k^2':>12}")
    for v in grid:
        try:
            profile = profile_from_data(curve.phi(v), curve.psi(v), params)
        except NullsheetError as exc:
            print(f"{v:12.6g} {f'undefined ({exc})':>35}")
            continue
        roots_txt = ", ".join(f"{u:.10g}" for u in profile.roots)
        k2 = profile.modulus_squared()
        k2_txt = f"{k2:.8g}" if k2 is not None else "-"
        print(
            f"{v:12.6g} {profile.A:17.10g} {profile.B:17.10g} "
            f"{roots_txt:>44} {profile.case_label.value:>14} {k2_txt:>12}"
        )
    return 0


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    block = cfg.oracle
    if block is not None:
        cfg = replace(
            cfg,
            oracle=replace(
                block,
                example=args.example if args.example is not None else block.example,
                case=args.case if args.case is not None else block.case,
            ),
        )
    oracle = _oracle_from_config(cfg)
    t_grid = np.linspace(0.0, cfg.solver.t_end, cfg.output.t_samples)
    # the samples end before the first t outside the oracle's range
    t_grid = t_grid[: np.append(oracle.outside(t_grid, args.vartheta), True).argmax()]
    print("t,tau,r,alpha,beta")
    for t, x in zip(t_grid, oracle.evaluate(t_grid, args.vartheta)):
        print(",".join(_fmt(v) for v in (t, *x)))
    return 0


def _arg_type(convert, accept, expected: str):
    """argparse type: ``convert(text)`` if ``accept`` takes it, else "expected <expected>"."""

    def parse(text: str):
        with suppress(ValueError):
            value = convert(text)
            if accept(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullsheet",
        description="Light-like extremal surfaces via characteristics + geodesics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="YAML run configuration")

    p = sub.add_parser("validate", help="check light-likeness and monotonicity")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="integrate the surface and export the mesh")
    add_common(p)
    p.add_argument("--force", action="store_true",
                   help="skip initial-data validation gates")
    p.add_argument("--dump-characteristics", metavar="PATH",
                   help="also write a (t, theta, vartheta, lambda, J) CSV table")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="compare a solved mesh against its oracle")
    add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("classify", help="print the radial cubic profile per vartheta")
    add_common(p)
    p.add_argument("--rows", type=_arg_type(int, lambda n: n >= 1, "a positive integer"),
                   default=9, help="number of vartheta rows")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("oracle", help="emit closed-form oracle samples as CSV")
    add_common(p)
    p.add_argument("--vartheta", type=_arg_type(float, np.isfinite, "a finite number"),
                   default=1.0, help="characteristic label to sample")
    p.add_argument("--example", type=int, choices=(1, 2, 3),
                   help="override the configured oracle family")
    p.add_argument("--case", choices=("auto", "I", "II", "III"),
                   help="override the configured oracle case")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ExpressionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 2
    except NullsheetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
