"""Config fuzz: a shipped config with one leaf mutated never escapes as a traceback.

Each trial replaces one leaf of a shipped config by a hostile value and runs
one command on it.  Whatever the value, ``main`` must return one of the
documented exit codes (0, 1 or 2) and raise nothing.
"""

import math
import pathlib

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nullsheet.cli import main
from nullsheet.config import LEAVES, parse_config

SHIPPED = pathlib.Path(__file__).resolve().parents[1] / "configs"
CONFIGS = ("radial_null.yaml", "photon_sphere.yaml", "boosted_circular.yaml")
COMMANDS = (("validate",), ("classify",), ("compare",), ("solve", "--force"))
NON_NUMERIC = ("x", [1.0, 2.0], None, True)
HUGE = 1e308
VALUES = (0, -1, HUGE, -1e308, math.nan, math.inf, -math.inf, 1e-300) + NON_NUMERIC
# a large value of these leaves only makes a run long
RUN_LENGTH = {
    ("solver", "t_end"),
    ("solver", "max_steps"),
    ("initial_data", "samples"),
    ("output", "t_samples"),
}
SHORT_T_END = 0.5  # keeps every integrating trial short


def _shipped(name: str) -> dict:
    """A shipped config with every declared leaf it leaves out set to its default."""
    raw = yaml.safe_load((SHIPPED / name).read_text())
    raw["solver"]["t_end"] = SHORT_T_END
    cfg = parse_config(raw)
    for leaf in LEAVES:
        block, key = leaf.split(".")
        raw[block].setdefault(key, getattr(getattr(cfg, block), key))
    return raw


def _leaves(node, path=()):
    """Paths (keys and list indices) of every scalar in a parsed YAML tree."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


TRIALS = [
    (name, leaf, value)
    for name in CONFIGS
    for leaf in _leaves(_shipped(name))
    for value in VALUES
    if not (value == HUGE and leaf in RUN_LENGTH)
]


def _mutate(raw: dict, leaves, value) -> dict:
    """``raw`` with each of ``leaves`` set to ``value``."""
    for leaf in leaves:
        node = raw
        for key in leaf[:-1]:
            node = node[key]
        node[leaf[-1]] = value
    return raw


def run_trial(trial, command, workdir: pathlib.Path) -> int:
    """Write the mutated config into ``workdir`` and run ``command`` on it there."""
    name, leaf, value = trial
    raw = _shipped(name)
    raw["output"]["path"] = str(workdir / "surface.csv")
    _mutate(raw, [leaf], value)
    cfg = workdir / "fuzz.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    return main([*command, "--config", str(cfg)])


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
def test_c_and_python_loaders_agree():
    # load_config parses with libyaml's loader where PyYAML has it; it must
    # build the documents the pure-Python one does (compared by repr, so
    # that nan equals nan).  The shipped configs, and per config and value
    # of the trials one document with every leaf set to it: each leaf with
    # each value that a trial puts there
    texts = [(SHIPPED / name).read_text() for name in CONFIGS]
    for name in CONFIGS:
        leaves = list(_leaves(_shipped(name)))
        texts += [yaml.safe_dump(_mutate(_shipped(name), leaves, value)) for value in VALUES]
    for text in texts:
        want = yaml.load(text, Loader=yaml.SafeLoader)
        assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == repr(want)


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(trial=st.sampled_from(TRIALS), command=st.sampled_from(COMMANDS))
# trials that once escaped as a raw traceback
@example(trial=("radial_null.yaml", ("spacetime", "mass"), math.nan), command=("validate",))
@example(trial=("photon_sphere.yaml", ("spacetime", "mass"), 1e-300), command=("classify",))
@example(
    trial=("boosted_circular.yaml", ("oracle", "params", "theta_range", 1), -1e308),
    command=("compare",),
)
@example(
    trial=("radial_null.yaml", ("initial_data", "psi", 0), 1e308), command=("solve", "--force")
)
@example(
    trial=("radial_null.yaml", ("initial_data", "phi", 1), 1e308), command=("solve", "--force")
)
# trials that once printed numpy RuntimeWarnings: a non-finite Lambda, an
# overflowing spline or radial cubic, and theta ranges at the float limits
@example(trial=("radial_null.yaml", ("initial_data", "psi", 2), 1e308), command=("validate",))
@example(
    trial=("radial_null.yaml", ("initial_data", "theta_range", 1), 1e-300),
    command=("solve", "--force"),
)
@example(trial=("photon_sphere.yaml", ("initial_data", "psi", 2), 1e-300), command=("classify",))
@example(
    trial=("boosted_circular.yaml", ("initial_data", "theta_range", 1), math.inf),
    command=("validate",),
)
@example(
    trial=("photon_sphere.yaml", ("initial_data", "theta_range", 1), 1e308), command=("compare",)
)
@example(
    trial=("photon_sphere.yaml", ("initial_data", "theta_range", 1), 1e-300), command=("compare",)
)
# leaves once outside every check: an infinite tolerance passed every
# compare, and t_end = nan escaped as a raw ValueError
@example(trial=("radial_null.yaml", ("compare", "tol"), math.inf), command=("compare",))
@example(trial=("radial_null.yaml", ("solver", "t_end"), math.nan), command=("solve", "--force"))
def test_mutated_leaf_exits_with_a_documented_code(trial, command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a mutated output.path is relative to the run
    assert run_trial(trial, command, tmp_path) in (0, 1, 2)
