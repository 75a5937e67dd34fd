"""Benchmark of the nullsheet pipeline: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload ring-dense --seed 0 --seconds 45 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
A run first times ``SETUP_SAMPLES`` fresh interpreters that import
``nullsheet.cli`` and load the workload's config, then runs passes of the
workload for ``--seconds`` and checks every pass's outputs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics from the slowest traced pass; its spans are
written to ``.perfbench/trace-<workload>-<seed>.json``.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the seed, the generated inputs, every pass time
and the machine.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer
from workloads import HERE, ROOT, SRC, WORKLOADS, make_workload

SETUP_SAMPLES = 5
MIN_PASSES = 3         # untraced passes per run; a traced run adds as many traced ones
MIN_TRACED_PASSES = 2
OUT_DIR = ROOT / ".perfbench"


def percentile_report(times: list[float]) -> dict | None:
    """Highest percentile above the median with at least ten samples beyond it."""
    n = len(times)
    if n < 20:
        return None
    return {"percentile": 100 * (n - 10) // n, "value": sorted(times)[n - 11], "samples": n}


def machine() -> dict:
    versions = {}
    for mod in ("numpy", "scipy", "sympy"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():  # a plain checkout of committed files has no .git
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit, **versions}


def setup_sample(workload) -> dict:
    """Time a fresh interpreter importing nullsheet.cli and loading the config."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(workload.config)],
        capture_output=True, text=True, cwd=workload.workdir,
        env={**os.environ, "PYTHONPATH": str(SRC)},  # this checkout's package
    )
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr}")
    return {"setup_s": seconds, **json.loads(proc.stdout)}


def run_passes(workload, seconds: float, tracer, cli):
    """Passes until ``seconds`` have elapsed: (all in order run, untraced, traced).

    One untimed pass comes first, so that caches fill and lazy set-up
    finishes.  With a tracer, traced and untraced passes alternate.
    """
    ordered = [workload.run_pass(cli)]
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        result = workload.run_pass(cli, tracer if use_tracer else None)
        ordered.append(result)
        (traced if use_tracer else plain).append(result)
        enough = len(plain) >= MIN_PASSES and (
            tracer is None or len(traced) >= MIN_TRACED_PASSES)
        # stop when another pass would end further past the deadline than now
        if enough and time.perf_counter() + result.seconds / 2 >= deadline:
            break
    return ordered, plain, traced


def layer_metrics(traced, plain, setup) -> dict:
    """Per-layer metrics from the slowest traced pass, as run_s is the slowest pass."""
    chosen = max(traced, key=lambda p: p.seconds)
    metrics = dict(chosen.summary)
    metrics["import.s"] = statistics.median(s["import_s"] for s in setup)
    steps = metrics.get("geodesic.steps", 0.0)
    rhs = metrics.get("geodesic.rhs_evals", 0.0)
    nodes = metrics.get("surface.nodes", 0.0)
    metrics["geodesic.useful_rhs_ratio"] = 6.0 * steps / rhs if rhs else 0.0
    metrics["surface.us_per_node"] = 1e6 * metrics["surface.s"] / nodes if nodes else 0.0
    metrics["trace.pass_s"] = chosen.seconds
    metrics["trace.overhead_s"] = chosen.seconds - max(p.seconds for p in plain)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set-up samples, then passes; returns metrics, counts and the run record."""
    workload = make_workload(name, seed, workdir)
    setup = [setup_sample(workload) for _ in range(SETUP_SAMPLES)]
    sys.path.insert(0, str(SRC))
    import nullsheet.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "nullsheet":
        raise RuntimeError(f"imported nullsheet from {cli.__file__}, not {SRC}")
    tracer = Tracer() if trace else None
    everything, plain, traced = run_passes(workload, seconds, tracer, cli)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for p, why in zip(everything, workload.final_reasons()):
        if why and p.ok:
            p.ok, p.why = False, why
    failures = [p.why for p in everything if not p.ok]

    times = [p.seconds for p in plain]
    if trace:
        metrics = layer_metrics(traced, plain, setup)
    else:
        metrics = {
            "run_s": max(times),
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "peak_rss_mb": peak_rss,
        }
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "inputs": workload.params,
        "pass_s": times, "traced_pass_s": [p.seconds for p in traced],
        "run_s_median": statistics.median(times), "run_s_percentile": percentile_report(times),
        "setup": setup, "fail_frac": len(failures) / len(everything),
        "failures": failures, "machine": machine(),
    }
    if trace:
        record["trace_file"] = str(write_trace(name, seed, record, tracer))
    return {"metrics": metrics, "attempted": len(everything), "failed": len(failures),
            "record": record}


def write_trace(name, seed, record, tracer) -> Path:
    """Write the run's spans and pass summaries."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-{seed}.json"
    tracer.dump(path, record=record)
    return path


def select(metrics: dict, declared: list[dict]) -> dict:
    """The declared metrics, with units, in BENCHMARK.json's order."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in declared}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nullsheet" / "cli.py").is_file():
        print(f"error: no nullsheet sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key in [k for k in os.environ if k.startswith("NULLSHEET_")]:
        del os.environ[key]  # config overrides would change the inputs
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps(result["record"]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": select(result["metrics"], declared),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
