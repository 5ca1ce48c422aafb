"""End-to-end and per-layer benchmark of korovkin-lab.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process, one operation after
another, against the package under ``src/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(``setup_s``, ``pass_s``, ``peak_rss_mib``); with ``--trace 1`` they are the
per-layer ones from traced passes.  Exits 1 without a result when the
package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 5

IMPORT_TIMER = ("import time\n"
                "t0 = time.perf_counter()\n"
                "import korovkin_lab.cli\n"
                "print(time.perf_counter() - t0)\n")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def import_seconds() -> float:
    """Time to import the CLI module in a fresh interpreter, which every
    ``korovkin-lab`` invocation pays before any work."""
    out = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=_child_env(),
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return float(out.stdout.split()[-1])


def import_split() -> dict[str, float]:
    """Cumulative import seconds of scipy.special and of korovkin_lab, read
    from ``python -X importtime`` in fresh interpreters (median of several)."""
    wanted = {"scipy.special": "setup.scipy_special_import_s",
              "korovkin_lab": "setup.korovkin_lab_import_s"}
    samples: dict[str, list[float]] = {k: [] for k in wanted.values()}
    line = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S.*)$")
    for _ in range(3):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import korovkin_lab.cli"], env=_child_env(), cwd=ROOT,
                             capture_output=True, text=True, check=True)
        seen = {v: 0.0 for v in wanted.values()}
        for row in out.stderr.splitlines():
            m = line.match(row)
            if m and m.group(2).strip() in wanted:
                seen[wanted[m.group(2).strip()]] = int(m.group(1)) * 1e-6
        for k, v in seen.items():
            samples[k].append(v)
    return {k: statistics.median(v) for k, v in samples.items()}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs passes over a workload's operations and keeps the tallies."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []     # failed operations and checks
        self.incorrect = False          # some output check failed
        self.op_seconds: dict[str, list[float]] = {op.label: [] for op in ops}

    def run_pass(self) -> float:
        """One pass over every operation; returns the summed wall time of
        the operations themselves, checks excluded."""
        spent = 0.0
        for op in self.ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:   # a raising operation is a failed one
                spent += time.perf_counter() - t0
                self.failed += 1
                self.errors.append(f"{op.label}: raised {exc!r}")
                continue
            took = time.perf_counter() - t0
            spent += took
            self.op_seconds[op.label].append(took)
            problems = op.check(result)
            if problems:
                self.failed += 1
                self.incorrect = True
                self.errors += [f"{op.label}: {p}" for p in problems]
        return spent


def measure(runner: Runner, seconds: float) -> tuple[list[float], list[float]]:
    """Untraced passes until the next one would overrun ``seconds``, with a
    fresh-interpreter import timed between passes every ``seconds /
    SETUP_SAMPLES``, so that the samples spread over the run."""
    passes: list[float] = []
    imports: list[float] = []
    start = next_import = time.perf_counter()
    while True:
        passes.append(runner.run_pass())
        if time.perf_counter() >= next_import:
            imports.append(import_seconds())
            next_import = time.perf_counter() + seconds / SETUP_SAMPLES
        if time.perf_counter() - start + passes[-1] > seconds:
            break
    while len(imports) < 3:
        imports.append(import_seconds())
    return passes, imports


def measure_traced(runner: Runner, seconds: float, expected: dict, trace_file: Path):
    """Alternate untraced and traced passes.  Per-layer metrics are medians
    over the traced passes; the overhead is the fastest traced pass minus
    the fastest untraced one."""
    from tracing import Tracer, instrumented, layer_metrics

    plain, traced, layers = [], [], []
    mismatches = 0
    start = time.perf_counter()
    while True:
        plain.append(runner.run_pass())
        tr = Tracer()
        with instrumented(tr):
            traced.append(runner.run_pass())
        per_pass = layer_metrics(tr)
        per_pass["cli.artifact_bytes"] = sum(op.artifact_bytes() for op in runner.ops)
        for name, want in expected.items():
            if per_pass[name] != want:
                mismatches += 1
                print(f"count mismatch: {name} = {per_pass[name]}, expected {want}",
                      file=sys.stderr)
        layers.append(per_pass)
        if time.perf_counter() - start + plain[-1] + traced[-1] > seconds:
            break
    trace_file.write_text(json.dumps({"spans": tr.spans, "counts": tr.counts}))
    metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = min(traced) - min(plain)
    metrics["trace.count_mismatches"] = mismatches
    return metrics


UNITS = {"_s": "s", "_mib": "MiB", "_bytes": "bytes"}


def _unit(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "korovkin_lab" / "__init__.py").is_file():
        print(f"error: no korovkin_lab package under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import korovkin_lab
    if Path(korovkin_lab.__file__).resolve().parent != SRC / "korovkin_lab":
        print(f"error: imported korovkin_lab from {korovkin_lab.__file__}",
              file=sys.stderr)
        return 1
    from workloads import WORKLOADS, bernstein_oracle_errors

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(sorted(WORKLOADS)), file=sys.stderr)
        return 2

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops, expected = WORKLOADS[args.workload](args.seed, work)
    runner = Runner(ops)
    runner.run_pass()   # untimed warm-up

    if args.trace:
        metrics = measure_traced(runner, args.seconds, expected,
                                 OUT / f"trace-{args.workload}-{args.seed}.json")
        metrics.update(import_split())
    else:
        passes, imports = measure(runner, args.seconds)
        print(f"pass seconds (median {statistics.median(passes):.3f}): "
              + " ".join(f"{p:.3f}" for p in passes), file=sys.stderr)
        for label, secs in runner.op_seconds.items():
            print(f"op seconds {label}: " + " ".join(f"{t:.4f}" for t in secs),
                  file=sys.stderr)
        print("import seconds: " + " ".join(f"{t:.3f}" for t in imports),
              file=sys.stderr)
        # fastest samples: host contention only ever adds time, and on a
        # shared host it comes in spells longer than a pass (see README)
        metrics = {"pass_s": min(passes), "peak_rss_mib": peak_rss_mib(),
                   "setup_s": min(imports)}
    if args.workload == "bernstein-tables":
        oracle = bernstein_oracle_errors()
        runner.incorrect |= bool(oracle)
        runner.errors += oracle

    for e in runner.errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"{args.workload}: attempted {runner.attempted}, failed {runner.failed}",
          file=sys.stderr)
    print(json.dumps({
        "correct": not runner.incorrect,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
