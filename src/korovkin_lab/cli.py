"""Experiment runner: JSON config in, CSV/JSON artifacts out.

Exit codes: 0 when every verdict matches the scenario's registered
expectation, 2 on a verdict mismatch, 1 on configuration errors.  Outputs
are deterministic for a fixed (config, seed) pair and written atomically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

from .operators import MAX_BERNSTEIN_INDEX
from .scenarios import REGISTRY, ScenarioResult


@dataclass
class ExperimentConfig:
    scenario: str
    method: dict | None = None
    operator: str | None = None
    N: int = 0
    tau: float = 0.0
    epsilon: float | None = None
    grid_m: int = 0
    seed: int = 0
    output_dir: str = "out"
    n0: int = 0


def validate_config(raw: dict) -> tuple[ExperimentConfig | None, list[str]]:
    """Full schema check with field-path messages; every problem is
    reported, not just the first.  Valid configs come back normalized with
    scenario defaults filled in."""
    errors: list[str] = []
    if not isinstance(raw, dict):
        return None, ["config: must be a JSON object"]
    known = {"scenario", "method", "operator", "N", "tau", "epsilon",
             "grid_m", "seed", "output_dir", "n0"}
    for key in sorted(set(raw) - known):
        errors.append(f"{key}: unknown field")

    scenario = raw.get("scenario")
    entry = None
    if scenario is None:
        errors.append("scenario: required")
    elif not isinstance(scenario, str) or scenario not in REGISTRY:
        errors.append(f"scenario: unknown {scenario!r}; available: "
                      + ", ".join(sorted(REGISTRY)))
    else:
        entry = REGISTRY[scenario]
    defaults = entry.defaults if entry else {}

    def number(key, default, *, integer=False, minimum=None, strict=False,
               optional=False):
        v = raw.get(key, defaults.get(key, default))
        if v is None:
            if optional:
                return None
            errors.append(f"{key}: required")
            return default
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or (integer and not isinstance(v, int)):
            errors.append(f"{key}: must be {'an integer' if integer else 'a number'}")
            return default
        if isinstance(v, float) and not math.isfinite(v):
            errors.append(f"{key}: must be a finite number")
            return default
        if minimum is not None and (v <= minimum if strict else v < minimum):
            op = ">" if strict else ">="
            word = "positive" if strict and minimum == 0 else f"{op} {minimum}"
            errors.append(f"{key}: must be {word}")
            return default
        return v

    N = number("N", 100, integer=True, minimum=8)
    tau = number("tau", 0.05, minimum=0, strict=True)
    epsilon = number("epsilon", None, minimum=0, strict=True, optional=True)
    grid_m = number("grid_m", 200, integer=True, minimum=4)
    seed = number("seed", 0, integer=True, minimum=0)
    n0 = number("n0", 0, integer=True, minimum=0)

    method = raw.get("method")
    if method is not None:
        if isinstance(method, dict):
            from .summability import MethodSpec
            try:
                MethodSpec.from_dict(method)
            except (KeyError, TypeError, ValueError) as exc:
                errors.append(f"method: {exc}")
        else:
            errors.append("method: must be an object")
    operator = raw.get("operator")
    if operator is not None and not isinstance(operator, str):
        errors.append("operator: must be a string")
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        errors.append("output_dir: must be a non-empty path")
        output_dir = "out"

    for key in ("method", "operator"):
        if entry and raw.get(key) is not None and key not in entry.reads:
            errors.append(f"{key}: scenario {scenario!r} does not read it")

    if errors:
        return None, sorted(errors)
    cfg = ExperimentConfig(scenario=scenario, method=method, operator=operator,
                           N=N, tau=tau, epsilon=epsilon, grid_m=grid_m,
                           seed=seed, output_dir=output_dir, n0=n0)
    depth = entry.bernstein_depth(cfg) if entry.bernstein_depth else 0
    if depth > MAX_BERNSTEIN_INDEX:
        return None, [f"{'n0' if n0 else 'N'}: the run reaches Bernstein index "
                      f"{depth}, above the cap {MAX_BERNSTEIN_INDEX}"]
    return cfg, []


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_outputs(result: ScenarioResult, cfg: ExperimentConfig) -> None:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "config": asdict(cfg),
        "scenario": result.name,
        "verdicts": result.verdicts,
        "expected": result.expected,
        "matched": result.matched,
        "detail": result.report,
    }
    _atomic_write(out / "report.json",
                  json.dumps(report, sort_keys=True, indent=2) + "\n")
    for fname, text in sorted(result.curves.items()):
        _atomic_write(out / fname, text)
    lines = list(result.summary_lines)
    lines.append("verdicts match expectation" if result.matched else
                 "VERDICT MISMATCH:")
    lines.extend("  " + m for m in result.mismatches())
    _atomic_write(out / "summary.txt", "\n".join(lines) + "\n")


def run(cfg: ExperimentConfig) -> int:
    entry = REGISTRY[cfg.scenario]
    try:
        result = entry.runner(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_outputs(result, cfg)
    for line in result.summary_lines:
        print(line)
    if not result.matched:
        for m in result.mismatches():
            print(f"mismatch -> {m}", file=sys.stderr)
        return 2
    return 0


def _load_config(path: str, overrides: dict) -> tuple[ExperimentConfig | None, list[str]]:
    """Read and validate a config file.  Each ``overrides`` value that is not
    None (a command-line flag) replaces the file's field before validation,
    so it is checked like one."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        return None, [f"config: cannot read {path}: {exc}"]
    except json.JSONDecodeError as exc:
        return None, [f"config: invalid JSON: {exc}"]
    if isinstance(raw, dict):
        raw.update((k, v) for k, v in overrides.items() if v is not None)
    return validate_config(raw)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="korovkin-lab",
        description="scenario runner for operator-approximation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--seed", type=int, default=None)

    sub.add_parser("list-scenarios", help="list registered scenarios")

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name in sorted(REGISTRY):
            print(f"{name}: {REGISTRY[name].description}")
        return 0

    overrides = {}
    if args.command == "run":
        overrides = {"output_dir": args.output_dir, "seed": args.seed}
    cfg, errors = _load_config(args.config, overrides)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(json.dumps(asdict(cfg), sort_keys=True, indent=2))
        return 0

    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
