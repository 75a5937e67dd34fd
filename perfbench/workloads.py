"""The benchmark's workloads: seeded inputs, one pass, and output checks.

A workload turns a seed into the YAML file the program reads, runs one pass
of the program over it, and checks what the pass produced.  The program
only ever sees the generated file.  A pass is one warm in-process call of
``nullsheet.cli.main`` with stdout captured.

* ``ring-dense``  -- ``nullsheet solve`` of a radial null ring scaled to
  128 characteristics x 101 t-samples, with CSV export.
* ``infall-ring`` -- ``nullsheet compare`` of a periodic ring of infalling
  null characteristics at r0 = 2.5m (example 2, case II, the elliptic "sec"
  branch), run past every horizon event.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RING_R0 = 10.0
RING_R_TOL = 1e-6      # |r - (t + r0)| on every ring-dense node
RING_DELTA_TOL = 1e-6  # max |delta| on ring-dense
TWO_PI = 2.0 * math.pi

_VERDICT_PASS = re.compile(r"^verdict\s*:\s*PASS\s*$", re.MULTILINE)


@dataclass
class PassResult:
    """One pass: wall seconds, whether its outputs are correct, and why not."""

    seconds: float
    ok: bool
    why: str = ""
    summary: dict | None = None  # tracer summary of a traced pass


class Workload:
    """A pass is one warm call of ``nullsheet.cli.main`` with stdout captured."""

    name = ""
    command = ""

    def __init__(self, workdir: Path, config_text: str, params: dict):
        self.workdir = workdir
        self.params = params
        self.config = workdir / f"{self.name}.yaml"
        self.config.write_text(config_text, encoding="utf-8")
        self.argv = [self.command, "--config", str(self.config)]

    def final_reasons(self) -> list[str]:
        """Failure reason of each pass so far that a later check found wrong."""
        return []

    def run_pass(self, cli, tracer=None) -> PassResult:
        out = io.StringIO()
        installed = tracer.installed(cli) if tracer else contextlib.nullcontext()
        gc.collect()  # start every pass with the same heap
        with installed, contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if tracer:
                tracer.begin_pass()
            t0 = time.perf_counter()
            try:
                rc, why = cli.main(self.argv), ""
            except Exception as exc:  # a raw traceback is a failed pass
                rc, why = None, f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        stdout = out.getvalue()
        summary = tracer.end_pass(stdout) if tracer else None
        if not why:
            why = f"exit code {rc}" if rc != 0 else self.check_pass(stdout)
        return PassResult(seconds, not why, why, summary=summary)

    def check_pass(self, stdout: str) -> str:
        """Failure reason of a pass that exited 0, '' if it is correct."""
        raise NotImplementedError


class RingDense(Workload):
    name = "ring-dense"
    command = "solve"

    def __init__(self, seed: int, workdir: Path, chars: int = 128, t_samples: int = 101):
        rng = random.Random(seed)
        a = rng.uniform(0.25, 0.35)
        p = rng.uniform(0.0, TWO_PI)
        self.csv = workdir / "ring-dense.csv"
        alpha0 = f"pi/2 + {a!r}*sin(vartheta + {p!r})"
        text = f"""\
spacetime: {{type: schwarzschild, mass: 1.0}}
initial_data:
  phi: ["0", "{RING_R0!r}", "{alpha0}", "vartheta"]
  psi: ["1.25", "1", "0", "0"]
  theta_range: [0.0, {TWO_PI!r}]
  samples: {chars}
  periodic: true
solver: {{rel_tol: 1.0e-10, abs_tol: 1.0e-12, t_end: 20.0}}
output: {{format: csv, path: "{self.csv}", t_samples: {t_samples}}}
"""
        super().__init__(workdir, text, {"a": a, "p": p, "chars": chars,
                                         "t_samples": t_samples})
        self.nodes = chars * t_samples
        self._csv_versions: dict[str, bytes] = {}
        self._digests: list[str | None] = []

    def run_pass(self, cli, tracer=None) -> PassResult:
        result = super().run_pass(cli, tracer)
        # the CSV's content is checked once per distinct version, in final_reasons
        digest = None
        if result.ok:
            data = self.csv.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            self._csv_versions.setdefault(digest, data)
        self._digests.append(digest)
        return result

    def check_pass(self, stdout: str) -> str:
        return ""

    def final_reasons(self) -> list[str]:
        verdicts = {d: self._check_csv(data) for d, data in self._csv_versions.items()}
        first = next((d for d in self._digests if d), None)
        reasons = []
        for d in self._digests:
            if d is None:
                reasons.append("")  # already failed when it ran
            elif verdicts[d]:
                reasons.append(verdicts[d])
            elif d != first:
                reasons.append("CSV bytes differ from the first pass")
            else:
                reasons.append("")
        return reasons

    def _check_csv(self, data: bytes) -> str:
        from nullsheet.surface import import_csv

        path = self.workdir / "ring-dense-check.csv"
        path.write_bytes(data)
        try:
            rows = import_csv(path)
        except ValueError as exc:
            return f"unreadable CSV: {exc}"
        finally:
            path.unlink()
        if len(rows) != self.nodes:
            return f"{len(rows)} CSV rows, expected {self.nodes}"
        worst_r = worst_delta = 0.0
        for row in rows:
            if row["r"] is None or row["delta"] is None:
                return f"truncated node at t = {row['t']!r}, theta = {row['theta']!r}"
            worst_r = max(worst_r, abs(row["r"] - (row["t"] + RING_R0)))
            worst_delta = max(worst_delta, abs(row["delta"]))
        if not worst_r <= RING_R_TOL:
            return f"max |r - (t + r0)| = {worst_r:.3e} > {RING_R_TOL:g}"
        if not worst_delta <= RING_DELTA_TOL:
            return f"max |delta| = {worst_delta:.3e} > {RING_DELTA_TOL:g}"
        return ""


class InfallRing(Workload):
    name = "infall-ring"
    command = "compare"

    def __init__(self, seed: int, workdir: Path, chars: int = 32, t_samples: int = 11):
        rng = random.Random(seed)
        a = rng.uniform(0.2, 0.3)
        p = rng.uniform(0.0, TWO_PI)
        f = f"1 + {a!r}*sin(vartheta + {p!r})"
        text = f"""\
spacetime: {{type: schwarzschild, mass: 1.0}}
initial_data:
  phi: ["0", "2.5", "1.2", "vartheta"]
  psi: ["{f}", "0", "sqrt(1.25)/6.25*abs({f})", "0"]
  theta_range: [0.0, {TWO_PI!r}]
  samples: {chars}
  periodic: true
solver: {{rel_tol: 1.0e-10, abs_tol: 1.0e-12, t_end: 10.0}}
output: {{t_samples: {t_samples}}}
oracle:
  example: 2
  case: auto
  params: {{r0: 2.5, f: "{f}", tau0: 0.0, alpha0: "1.2", sign_alpha: 1}}
compare: {{tol: 1.0e-6}}
"""
        super().__init__(workdir, text, {"a": a, "p": p, "chars": chars,
                                         "t_samples": t_samples})

    def check_pass(self, stdout: str) -> str:
        return "" if _VERDICT_PASS.search(stdout) else "compare verdict is not PASS"


WORKLOADS = {w.name: w for w in (RingDense, InfallRing)}


def make_workload(name: str, seed: int, workdir: Path, small: bool = False) -> Workload:
    """Build a workload; ``small`` shrinks its inputs for the smoke test."""
    cls = WORKLOADS[name]
    return cls(seed, workdir, 8, 5) if small else cls(seed, workdir)
