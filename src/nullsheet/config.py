"""Run configuration: YAML schema and validation.

A run is described by one YAML document with nested blocks; every numeric
tolerance knob of the pipeline is exposed here so runs are reproducible
from the file alone.  The dataclasses below give each leaf its default, and
the table ``LEAVES`` its domain: one parser per leaf, keyed by dotted path
(``"solver.abs_tol"``), and whether the leaf is required.
"""

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


def _positive(value, path: str) -> float:
    x = _as_float(value, path)
    if not (math.isfinite(x) and x > 0):
        raise ConfigError(path, f"must be finite and positive, got {x}")
    return x


def _non_negative(value, path: str) -> float:
    x = _as_float(value, path)
    if not (math.isfinite(x) and x >= 0):
        raise ConfigError(path, f"must be finite and non-negative, got {x}")
    return x


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


def _int_at_least(low: int):
    def parse(value, path: str) -> int:
        n = _as_int(value, path)
        if n < low:
            raise ConfigError(path, f"must be an integer >= {low}, got {n}")
        return n

    return parse


def _one_of(*choices):
    def parse(value, path: str):
        # an equal value of another type (True for 1, 1.0 for 1) is no choice
        if not any(type(value) is type(c) and value == c for c in choices):
            names = ", ".join(map(str, choices))
            raise ConfigError(path, f"must be one of {names}, got {value!r}")
        return value

    return parse


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected a boolean, got {value!r}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    return value


def _curve_data(value, path: str) -> list | str:
    if isinstance(value, str) or (isinstance(value, list) and len(value) == 4):
        return value
    raise ConfigError(path, "expected 4 expressions or a sample-file path")


def _check_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, known, prefix: str) -> None:
    for key in mapping:
        if key not in known:
            raise ConfigError(f"{prefix}{key}", "unknown key")


# oracle.params fields that are not real numbers; f and alpha0 may also be
# expressions in vartheta
_ORACLE_PARAM_CHECKS = {
    "sign": _as_int, "sign_alpha": _as_int, "periodic": _as_bool, "theta_range": _as_range,
}


def _oracle_params(value, path: str) -> dict:
    params = dict(_check_mapping(value, path))
    _reject_unknown(params, OracleParams.__dataclass_fields__, f"{path}.")
    for key, item in params.items():
        if not (key in ("f", "alpha0") and isinstance(item, str)):
            params[key] = _ORACLE_PARAM_CHECKS.get(key, _as_float)(item, f"{path}.{key}")
    return params


# Every leaf of the six blocks, by dotted path: the parser that enforces its
# domain, and whether the leaf is required.  The defaults are those of the
# dataclasses above.
LEAVES = {
    "spacetime.type": (_one_of("schwarzschild", "minkowski_spherical"), False),
    "spacetime.mass": (_positive, False),  # required for schwarzschild, in parse_config
    "initial_data.phi": (_curve_data, True),
    "initial_data.psi": (_curve_data, True),
    "initial_data.theta_range": (_as_range, False),
    "initial_data.samples": (_int_at_least(4), False),
    "initial_data.periodic": (_as_bool, False),
    "solver.rel_tol": (_non_negative, False),
    # the error scale abs_tol + rel_tol |w| must be positive where w = 0
    "solver.abs_tol": (_positive, False),
    "solver.max_steps": (_int_at_least(0), False),
    "solver.eps_horizon": (_non_negative, False),
    "solver.eps_axis": (_non_negative, False),
    "solver.t_end": (_positive, False),
    "output.format": (_one_of("csv", "json"), False),
    "output.path": (_as_str, False),
    "output.t_samples": (_int_at_least(2), False),
    "output.theta_samples": (_int_at_least(1), False),
    "oracle.example": (_one_of(1, 2, 3), True),
    "oracle.case": (_one_of("auto", "I", "II", "III"), False),
    "oracle.params": (_oracle_params, False),
    "compare.tol": (_positive, False),
}


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw mapping against the schema, applying defaults.

    A null block or leaf counts as absent.  Each given leaf goes through its
    parser in ``LEAVES``; the rules that tie leaves together follow.
    """
    raw = _check_mapping(raw, "<root>")
    _reject_unknown(raw, {block.name for block in fields(RunConfig)}, "")
    blocks = {}
    for block in fields(RunConfig):
        cls = block.type
        if not isinstance(cls, type):  # `OracleBlockConfig | None`: the block is optional
            if raw.get(block.name) is None:
                blocks[block.name] = None
                continue
            cls = cls.__args__[0]
        given = _check_mapping(raw.get(block.name), block.name)
        _reject_unknown(given, {leaf.name for leaf in fields(cls)}, f"{block.name}.")
        leaves = {}
        for leaf in fields(cls):
            path = f"{block.name}.{leaf.name}"
            parse, required = LEAVES[path]
            if given.get(leaf.name) is not None:
                leaves[leaf.name] = parse(given[leaf.name], path)
            elif required:
                raise ConfigError(path, "required field is missing")
        if block.name == "output":  # the default path follows the format
            leaves.setdefault("path", "surface." + leaves.get("format", OutputConfig.format))
        blocks[block.name] = cls(**leaves)
    cfg = RunConfig(**blocks)

    if cfg.spacetime.type == "schwarzschild" and cfg.spacetime.mass is None:
        raise ConfigError("spacetime.mass", "required field is missing")
    if cfg.oracle is not None:
        # the oracle describes the run's own spacetime and curve unless told otherwise
        params = cfg.oracle.params
        if cfg.spacetime.mass is not None:
            params.setdefault("m", cfg.spacetime.mass)
        params.setdefault("theta_range", cfg.initial_data.theta_range)
        params.setdefault("periodic", cfg.initial_data.periodic)
    return cfg


# libyaml's parser when PyYAML was built with it, some 8x faster on a config;
# both build the same documents from the safe tags
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
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
