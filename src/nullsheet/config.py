"""Run configuration: YAML schema and validation.

A run is described by one YAML document with nested blocks; every numeric
tolerance knob of the pipeline is exposed here so runs are reproducible
from the file alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .errors import ConfigError
from .expressions import evaluate_scalar
from .geodesic import SolverOptions
from .initial_data import (
    InitialCurve,
    curve_from_expressions,
    curve_from_samples,
)
from .oracles import OracleParams
from .spacetime import SchwarzschildParams, Spacetime, minkowski_spherical, schwarzschild


@dataclass(frozen=True)
class SpacetimeConfig:
    type: str = "schwarzschild"
    mass: float | None = None


@dataclass(frozen=True)
class InitialDataConfig:
    phi: list | str = field(default_factory=list)
    psi: list | str = field(default_factory=list)
    theta_range: tuple[float, float] = (0.0, 2.0 * math.pi)
    samples: int = 64
    periodic: bool = False


@dataclass(frozen=True)
class SolverConfig(SolverOptions):
    """The integrator's options plus the time every characteristic runs to."""

    t_end: float = 5.0


@dataclass(frozen=True)
class OutputConfig:
    format: str = "csv"
    path: str = "surface.csv"
    t_samples: int = 11
    theta_samples: int | None = None  # None: reuse the characteristic grid


@dataclass(frozen=True)
class OracleBlockConfig:
    example: int = 1
    case: str = "auto"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CompareConfig:
    tol: float = 1e-6


@dataclass(frozen=True)
class RunConfig:
    spacetime: SpacetimeConfig
    initial_data: InitialDataConfig
    solver: SolverConfig
    output: OutputConfig
    oracle: OracleBlockConfig | None
    compare: CompareConfig


_KNOWN_BLOCKS = {f.name for f in fields(RunConfig)}


def _require(mapping: dict, key: str, path: str):
    if key not in mapping or mapping[key] is None:
        raise ConfigError(f"{path}.{key}", "required field is missing")
    return mapping[key]


def _as_float(value, path: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(path, f"expected a real number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return evaluate_scalar(value)
        except Exception as exc:
            raise ConfigError(path, f"not a number: {value!r} ({exc})") from exc
    raise ConfigError(path, f"expected a real number, got {value!r}")


def _as_range(value, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(path, "expected [min, max]")
    lo, hi = _as_float(value[0], f"{path}[0]"), _as_float(value[1], f"{path}[1]")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(path, f"ends must be finite, got [{lo}, {hi}]")
    if not hi > lo:
        raise ConfigError(path, "max must exceed min")
    return lo, hi


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected a boolean, got {value!r}")
    return value


def _check_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _block(raw: dict, name: str, cls) -> dict:
    """The mapping under ``name``, rejecting keys that ``cls`` has no field for."""
    block = _check_mapping(raw.get(name), name)
    unknown = set(block) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{name}.{sorted(unknown)[0]}", "unknown key")
    return block


# oracle.params fields that are not real numbers; f and alpha0 may also be
# expressions in vartheta
_ORACLE_PARAM_CHECKS = {
    "sign": _as_int, "sign_alpha": _as_int, "periodic": _as_bool, "theta_range": _as_range,
}


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw mapping against the schema, applying defaults."""
    raw = _check_mapping(raw, "<root>")
    unknown = set(raw) - _KNOWN_BLOCKS
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown top-level key")

    st_raw = _block(raw, "spacetime", SpacetimeConfig)
    st_type = st_raw.get("type", "schwarzschild")
    if st_type not in ("schwarzschild", "minkowski_spherical"):
        raise ConfigError("spacetime.type", f"unknown spacetime {st_type!r}")
    mass = None
    if st_type == "schwarzschild":
        mass = _as_float(_require(st_raw, "mass", "spacetime"), "spacetime.mass")
        if not (math.isfinite(mass) and mass > 0):
            raise ConfigError("spacetime.mass", f"must be finite and positive, got {mass}")
    spacetime_cfg = SpacetimeConfig(type=st_type, mass=mass)

    id_raw = _block(raw, "initial_data", InitialDataConfig)
    phi = _require(id_raw, "phi", "initial_data")
    psi = _require(id_raw, "psi", "initial_data")
    for name, value in (("phi", phi), ("psi", psi)):
        if isinstance(value, str):
            continue  # sample-file path
        if not isinstance(value, list) or len(value) != 4:
            raise ConfigError(
                f"initial_data.{name}",
                "expected 4 expressions or a sample-file path",
            )
    theta_range = _as_range(
        id_raw.get("theta_range", [0.0, 2.0 * math.pi]), "initial_data.theta_range"
    )
    samples = _as_int(id_raw.get("samples", 64), "initial_data.samples")
    if samples < 4:
        raise ConfigError("initial_data.samples", "need at least 4 characteristics")
    periodic = _as_bool(id_raw.get("periodic", False), "initial_data.periodic")
    initial_cfg = InitialDataConfig(
        phi=phi,
        psi=psi,
        theta_range=theta_range,
        samples=samples,
        periodic=periodic,
    )

    sv_raw = _block(raw, "solver", SolverConfig)
    solver_cfg = SolverConfig(**{
        f.name: (_as_int if isinstance(f.default, int) else _as_float)(
            sv_raw.get(f.name, f.default), f"solver.{f.name}"
        )
        for f in fields(SolverConfig)
    })
    if not (math.isfinite(solver_cfg.t_end) and solver_cfg.t_end > 0):
        raise ConfigError("solver.t_end", f"must be finite and positive, got {solver_cfg.t_end}")
    for name in ("rel_tol", "abs_tol", "eps_horizon", "eps_axis"):
        value = getattr(solver_cfg, name)
        if not (math.isfinite(value) and value >= 0):
            raise ConfigError(f"solver.{name}", f"must be finite and non-negative, got {value}")
    # the error scale abs_tol + rel_tol |w| must be positive where w = 0
    if solver_cfg.abs_tol == 0:
        raise ConfigError("solver.abs_tol", "must be positive, got 0.0")
    if solver_cfg.max_steps < 0:
        raise ConfigError("solver.max_steps", f"must be non-negative, got {solver_cfg.max_steps}")

    out_raw = _block(raw, "output", OutputConfig)
    out_format = out_raw.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError("output.format", f"unknown format {out_format!r}")
    theta_samples = out_raw.get("theta_samples")
    if theta_samples is not None:
        theta_samples = _as_int(theta_samples, "output.theta_samples")
        if theta_samples < 1:
            raise ConfigError("output.theta_samples", "need at least 1 theta sample")
    output_cfg = OutputConfig(
        format=out_format,
        path=str(out_raw.get("path", "surface." + out_format)),
        t_samples=_as_int(out_raw.get("t_samples", 11), "output.t_samples"),
        theta_samples=theta_samples,
    )
    if output_cfg.t_samples < 2:
        raise ConfigError("output.t_samples", "need at least 2 time samples")

    oracle_cfg = None
    if raw.get("oracle") is not None:
        or_raw = _block(raw, "oracle", OracleBlockConfig)
        example = _as_int(_require(or_raw, "example", "oracle"), "oracle.example")
        if example not in (1, 2, 3):
            raise ConfigError("oracle.example", f"must be 1, 2 or 3, got {example}")
        case = str(or_raw.get("case", "auto"))
        if case not in ("auto", "I", "II", "III"):
            raise ConfigError("oracle.case", f"must be auto/I/II/III, got {case!r}")
        params = dict(_check_mapping(or_raw.get("params"), "oracle.params"))
        unknown = set(params) - set(OracleParams.__dataclass_fields__)
        if unknown:
            raise ConfigError(
                f"oracle.params.{sorted(unknown)[0]}", "unknown oracle parameter"
            )
        for key, value in params.items():
            if not (key in ("f", "alpha0") and isinstance(value, str)):
                check = _ORACLE_PARAM_CHECKS.get(key, _as_float)
                params[key] = check(value, f"oracle.params.{key}")
        # the oracle describes the run's own spacetime and curve unless told otherwise
        if mass is not None:
            params.setdefault("m", mass)
        params.setdefault("theta_range", theta_range)
        params.setdefault("periodic", periodic)
        oracle_cfg = OracleBlockConfig(example=example, case=case, params=params)

    cmp_raw = _block(raw, "compare", CompareConfig)
    compare_cfg = CompareConfig(tol=_as_float(cmp_raw.get("tol", 1e-6), "compare.tol"))

    return RunConfig(
        spacetime=spacetime_cfg,
        initial_data=initial_cfg,
        solver=solver_cfg,
        output=output_cfg,
        oracle=oracle_cfg,
        compare=compare_cfg,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        # yaml's messages span lines; an error is one line
        raise ConfigError(str(path), "cannot read: " + " ".join(str(exc).split())) from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "configuration must be a mapping")
    return parse_config(raw)


def build_spacetime(cfg: RunConfig) -> Spacetime:
    if cfg.spacetime.type == "schwarzschild":
        return schwarzschild(SchwarzschildParams(m=cfg.spacetime.mass))
    return minkowski_spherical()


def _load_samples(path: str, field_path: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(field_path, f"cannot read sample file {path!r}: {exc}")
    if data.shape[1] != 5:
        raise ConfigError(
            field_path,
            f"sample file must have 5 columns (vartheta + 4 components), "
            f"got {data.shape[1]}",
        )
    return data[:, 0], data[:, 1:]


def build_curve(cfg: RunConfig) -> InitialCurve:
    idc = cfg.initial_data
    if isinstance(idc.phi, str) or isinstance(idc.psi, str):
        if not (isinstance(idc.phi, str) and isinstance(idc.psi, str)):
            raise ConfigError(
                "initial_data", "phi and psi must both be files or both expressions"
            )
        th_phi, phi_vals = _load_samples(idc.phi, "initial_data.phi")
        th_psi, psi_vals = _load_samples(idc.psi, "initial_data.psi")
        if len(th_phi) != len(th_psi) or not np.allclose(th_phi, th_psi):
            raise ConfigError(
                "initial_data.psi", "sample grids of phi and psi files differ"
            )
        try:
            return curve_from_samples(th_phi, phi_vals, psi_vals, periodic=idc.periodic)
        except ValueError as exc:
            raise ConfigError("initial_data", f"cannot build curve: {exc}") from exc
    try:
        return curve_from_expressions(
            [str(e) for e in idc.phi],
            [str(e) for e in idc.psi],
            idc.theta_range,
            periodic=idc.periodic,
        )
    except Exception as exc:
        raise ConfigError("initial_data", f"cannot build curve: {exc}") from exc
