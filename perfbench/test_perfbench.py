"""Smoke test of the benchmark itself, on shrunk workloads.

    python -m pytest -q perfbench

Checks that every metric BENCHMARK.json names is emitted, that a corrupted
output is counted as a failed pass, that the traced counts repeat, and that
the benchmark refuses to run without the package's sources.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from workloads import ROOT, WORKLOADS, make_workload

sys.path.insert(0, str(workloads.SRC))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def small(monkeypatch):
    """Shrunk inputs and a single set-up sample."""
    monkeypatch.setattr(run, "make_workload", functools.partial(make_workload, small=True))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def run_main(*args) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(args)) == 0
    record, final = out.getvalue().splitlines()[-2:]
    return json.loads(record), json.loads(final)


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_emitted(small, workload, trace):
    record, final = run_main("--workload", workload, "--seed", "3",
                             "--seconds", "0", "--trace", trace)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0, record["failures"]
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(final["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert final["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in final["metrics"].values())
    assert record["seed"] == 3 and record["machine"]["nproc"] >= 1


def test_corrupted_csv_cell_is_a_failed_pass(small, monkeypatch, tmp_path):
    import nullsheet.cli as cli

    real_export = cli.export_csv

    def corrupt_export(mesh, path):
        real_export(mesh, path)
        lines = open(path, encoding="utf-8").read().splitlines(keepends=True)
        cells = lines[2].split(",")
        cells[4] = repr(float(cells[4]) + 1e-3)  # the r column of one node
        lines[2] = ",".join(cells)
        open(path, "w", encoding="utf-8").write("".join(lines))

    monkeypatch.setattr(cli, "export_csv", corrupt_export)
    result = run.run_workload("ring-dense", 0, 0, False, tmp_path)
    assert result["failed"] == result["attempted"] > 0
    assert result["record"]["fail_frac"] == 1.0
    assert "r - (t + r0)" in result["record"]["failures"][0]


def test_differing_csv_bytes_fail_the_later_pass(small, tmp_path):
    workload = make_workload("ring-dense", 0, tmp_path, small=True)
    workload._digests = ["a", "a", "b"]
    workload._csv_versions = {"a": b"", "b": b""}
    workload._check_csv = lambda data: ""
    assert workload.final_reasons() == ["", "", "CSV bytes differ from the first pass"]


def test_raising_pass_is_counted(small, monkeypatch, tmp_path):
    import nullsheet.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("math domain error")

    monkeypatch.setattr(cli, "build_surface", broken)
    result = run.run_workload("infall-ring", 0, 0, False, tmp_path)
    assert result["failed"] == result["attempted"]
    assert result["record"]["failures"][0].startswith("raised ValueError")


def test_traced_counts_repeat(small, tmp_path):
    result = run.run_workload("infall-ring", 1, 0, True, tmp_path)
    summaries = json.loads(open(result["record"]["trace_file"]).read())["passes"]
    assert len(summaries) >= 2
    for key in ("geodesic.steps", "geodesic.rhs_evals", "surface.nodes",
                "surface.lambda_evals", "oracles.evals"):
        assert len({s[key] for s in summaries}) == 1, key
        assert summaries[0][key] > 0
    first = summaries[0]
    assert first["geodesic.characteristics"] == 8
    assert first["geodesic.events.horizon"] == 8
    layers = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] == "s" and m["name"] not in ("import.s", "trace.pass_s",
                                                        "trace.overhead_s")]
    # self times partition the traced pass
    metrics = result["metrics"]
    assert sum(metrics[k] for k in layers) == pytest.approx(metrics["trace.pass_s"], abs=1e-3)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ring-dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
