"""The benchmark's workloads: fixed lists of operations, the output checks
applied to each, and the layer counts each pass must produce.

Every check compares the program's output with a value computed here from
closed forms, never with a value the program itself reports.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from korovkin_lab import cli, korovkin
from korovkin_lab.funcspace import Grid
from korovkin_lab.operators import BernsteinOperators
from korovkin_lab.summability import (
    SHIPPED_MODULI,
    IdealSpec,
    MethodSpec,
    cesaro_matrix,
)

from tracing import DENSE_LIMIT

TOL = 1e-12


def _rows(path: Path) -> list[tuple[int, float]]:
    with path.open() as fh:
        return [(int(r["n"]), float(r["residual"])) for r in csv.DictReader(fh)]


def _curve_errors(label, points, expect, tol=TOL) -> list[str]:
    for n, v in points:
        want = expect(n)
        if not abs(v - want) <= tol * max(1.0, abs(want)):
            return [f"{label}: point at n={n} is {v!r}, expected {want!r}"]
    return [] if points else [f"{label}: empty curve"]


def bernstein_e2_norm_point(n: int) -> float:
    """sup|B_k e2 - e2| = 1/(4k) on a grid through 1/2, so the tail supremum
    over k in (n/3, n] is attained at k = n//3 + 1."""
    return 1.0 / (4 * (n // 3 + 1))


def count_above(N: int, eps: float) -> tuple[int, int]:
    """Range of #{k <= N : 1/(4k) > eps} allowed to a floating-point
    residual: indices with 1/(4k) equal to eps may fall on either side."""
    strict = sum(1 for k in range(1, N + 1) if 1.0 / (4 * k) > eps * (1 + 1e-12))
    tied = sum(1 for k in range(1, N + 1) if abs(1.0 / (4 * k) - eps) <= 1e-12 * eps)
    return strict, strict + tied


# --- scenario checks: (output dir, config) -> list of errors --------------

def check_counterexample(out: Path, cfg: dict) -> list[str]:
    N, n0 = cfg["N"], cfg["n0"]
    squares = [j * j for j in range(1, math.isqrt(N) + 1)]
    errors = []
    for nm in ("e0", "e1", "e2"):
        pts = _rows(out / f"squares_{nm}.csv")
        if [n for n, _ in pts] != squares:
            errors.append(f"squares_{nm}.csv: indices are not the squares up to {N}")
        errors += _curve_errors(f"squares_{nm}.csv", pts, lambda n: 1.0)
    density = (math.isqrt(n0 + N) - math.isqrt(n0)) / N
    got = json.loads((out / "report.json").read_text())["detail"]["statistical_residuals"]
    for nm in ("e0", "e1", "e2"):
        if not abs(got.get(nm, math.nan) - density) <= TOL:
            errors.append(f"statistical residual {nm} = {got.get(nm)!r}, expected {density!r}")
    return errors


def check_f_modulus(out: Path, cfg: dict) -> list[str]:
    N = cfg["N"]
    lo, hi = count_above(N, cfg["epsilon"])
    moduli = {"identity": lambda x: x, "sqrt": math.sqrt, "log1p": math.log1p}
    got = json.loads((out / "report.json").read_text())["detail"]["final_values"]
    errors = []
    for name, f in moduli.items():
        allowed = [f(c) / f(N) for c in range(lo, hi + 1)]
        v = got.get(name, math.nan)
        if not any(abs(v - a) <= TOL * max(1.0, a) for a in allowed):
            errors.append(f"f_statistical[{name}] final value {v!r}, expected one of {allowed}")
    return errors


def check_fejer(out: Path, cfg: dict) -> list[str]:
    # sigma_n cos = n/(n+1) cos: residual 1/(k+1), tail sup at k = n//3 + 1
    return _curve_errors("test_1.csv (cos)", _rows(out / "test_1.csv"),
                         lambda n: 1.0 / (n // 3 + 2))


def check_bernstein_classical(out: Path, cfg: dict) -> list[str]:
    return _curve_errors("test_2.csv (e2)", _rows(out / "test_2.csv"),
                         bernstein_e2_norm_point)


def check_almost(out: Path, cfg: dict) -> list[str]:
    # the mean of (-1)^k over m+1 consecutive terms is +-1/(m+1) for even m
    return _curve_errors("almost_mean.csv", _rows(out / "almost_mean.csv"),
                         lambda m: 1.0 / (m + 1))


def check_cesaro(out: Path, cfg: dict) -> list[str]:
    # even rows average L + (-1)^k g over whole periods: exactly L
    pts = _rows(out / "matrix_mean.csv")
    errors = [f"matrix_mean.csv: odd row {n}" for n, _ in pts if n % 2]
    return errors + _curve_errors("matrix_mean.csv", pts, lambda n: 0.0)


def check_regularity(out: Path, cfg: dict) -> list[str]:
    detail = json.loads((out / "report.json").read_text())["detail"]
    return [f"{name}: final row sum {detail[name]['final_row_sum']!r}, expected 1"
            for name in ("cesaro", "identity")
            if not abs(detail[name]["final_row_sum"] - 1.0) <= TOL]


def check_exit_only(out: Path, cfg: dict) -> list[str]:
    return []


class CliOperation:
    """One scenario run through ``korovkin_lab.cli.main(["run", ...])``,
    config loading and validation included."""

    def __init__(self, label: str, config: dict, check, work: Path):
        self.label = label
        self.config = config
        self._check = check
        self.out = work / label
        self.config_path = work / f"{label}.json"
        self.config_path.write_text(json.dumps(config, sort_keys=True))
        self._report: bytes | None = None

    def run(self) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(["run", "--config", str(self.config_path),
                             "--output-dir", str(self.out)])

    def check(self, rc: int) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        report = (self.out / "report.json").read_bytes()
        if self._report is None:
            self._report = report
        elif report != self._report:
            return ["report.json differs from the previous pass"]
        return self._check(self.out, self.config)

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir())


# --- the library session of method-mix ------------------------------------

def _cube(t):
    return np.asarray(t, dtype=float) ** 3


def _exp(t):
    return np.exp(np.asarray(t, dtype=float))


# Module-level, created once: the same evaluator objects under the same
# names on every call, so a cache keyed by probe name and one keyed by the
# evaluator both hit.
TESTSET = korovkin.KorovkinTestSet.algebraic()
PROBES = [("cube", _cube), ("exp", _exp)]
SESSION_GRID_M = 200
SESSION_GROWTH = (40, 80, 150)
SESSION_EPS = 0.03   # no k has 1/(4k) = 0.03, so exceedance counts are exact
SESSION_P = 2.0
SESSION_METHODS = [
    MethodSpec("norm"),
    MethodSpec("statistical", epsilon=SESSION_EPS),
    MethodSpec("ideal", epsilon=SESSION_EPS, ideal=IdealSpec("zero_density")),
    MethodSpec("strong_wp", p=SESSION_P),
    MethodSpec("a_statistical", epsilon=SESSION_EPS, matrix=cesaro_matrix()),
    MethodSpec("a_strong", matrix=cesaro_matrix()),
    MethodSpec("f_statistical", epsilon=SESSION_EPS, modulus=SHIPPED_MODULI["sqrt"]),
    MethodSpec("f_strong", modulus=SHIPPED_MODULI["log1p"]),
]


def _e2_closed_form(kind: str):
    r = lambda k: 1.0 / (4 * k)
    if kind == "norm":
        return bernstein_e2_norm_point
    if kind == "statistical":
        return lambda n: sum(1 for k in range(1, n + 1) if r(k) > SESSION_EPS) / n
    if kind == "strong_wp":
        return lambda n: sum(r(k) ** SESSION_P for k in range(1, n + 1)) / n
    if kind == "a_strong":   # Cesaro row mean of the residuals
        return lambda n: sum(r(k) for k in range(1, n + 1)) / n
    return None


class SessionOperation:
    """``korovkin_probe`` called repeatedly on one ``BernsteinOperators``
    instance: N grows, then the same table is read under every norm-based
    method kind.  A fresh operator each pass, so each pass builds its table
    once."""

    label = "library-session"

    def __init__(self):
        self._digest: str | None = None

    def run(self):
        ops = BernsteinOperators(Grid.unit(SESSION_GRID_M))
        plan = [(SESSION_METHODS[0], N) for N in SESSION_GROWTH]
        plan += [(m, SESSION_GROWTH[-1]) for m in SESSION_METHODS]
        # looked up on the module at call time so that a traced pass sees it
        return [(m, N, korovkin.korovkin_probe(ops, m, TESTSET, PROBES, N, tau=0.02))
                for m, N in plan]

    def check(self, reports) -> list[str]:
        digest = json.dumps([rep.to_json() for _, _, rep in reports])
        if self._digest is None:
            self._digest = digest
        elif digest != self._digest:
            return ["session reports differ from the previous pass"]
        errors = []
        for method, N, rep in reports:
            expect = _e2_closed_form(method.kind)
            if expect is not None:
                errors += _curve_errors(f"session {method.kind} N={N} e2",
                                        rep.test_curves["e2"].points, expect, 1e-9)
        return errors

    def artifact_bytes(self) -> int:
        return 0


# --- workloads ---------------------------------------------------------------

def _draw(seed: int, k: int) -> list[int]:
    return [int(v) for v in np.random.default_rng(seed % 2 ** 64).integers(0, 2 ** 31, k)]


def _cli_config(scenario: str, seed: int, **fields) -> dict:
    return {"scenario": scenario, "seed": seed, "n0": 0, **fields}


def bernstein_tables(seed: int, work: Path):
    s1, s2 = _draw(seed, 2)
    cex = _cli_config("statistical-counterexample", s1, N=3000, tau=0.05,
                      epsilon=0.5, grid_m=200)
    fmod = _cli_config("f-modulus-sweep", s2, N=2000, tau=0.25, epsilon=0.01,
                       grid_m=200)
    ops = [CliOperation("statistical-counterexample", cex, check_counterexample, work),
           CliOperation("f-modulus-sweep", fmod, check_f_modulus, work)]
    depths = [cex["N"], fmod["N"]]
    counts = {
        "operators.bernstein_dense_calls": sum(min(d, DENSE_LIMIT) for d in depths),
        "operators.bernstein_window_calls": sum(max(d - DENSE_LIMIT, 0) for d in depths),
        "operators.fejer_calls": 0,
        "operators.table_indices_built": sum(depths),
        "operators.table_misses": 2,
        "operators.table_hits": 0,
        # three test functions under norm and statistical, three moduli
        "summability.method_curve_calls": 3 * 2 + 3,
    }
    return ops, counts


# (grid_m, N, tau): the registered grid and one twice as fine.  N keeps the
# pass short, and tau admits the shorter curves: the sin 2t residual
# 2/(n//3+2) must stay below tau over the last quarter of the ladder.
FEJER_GRIDS = ((256, 100, 0.1), (512, 40, 0.2))
FEJER_AUDIT = 5 * 11   # positivity audit: 5 trials at n = 0..10


def fejer_means(seed: int, work: Path):
    seeds = _draw(seed, len(FEJER_GRIDS))
    ops = [CliOperation(f"fejer-trig-m{m}",
                        _cli_config("fejer-trig", s, N=N, tau=tau, grid_m=m),
                        check_fejer, work)
           for (m, N, tau), s in zip(FEJER_GRIDS, seeds)]
    counts = {
        "operators.bernstein_dense_calls": 0,
        "operators.bernstein_window_calls": 0,
        # three test functions and two probes per index, plus the audit
        "operators.fejer_calls": sum(5 * N + FEJER_AUDIT for _, N, _ in FEJER_GRIDS),
        "operators.table_indices_built": sum(N for _, N, _ in FEJER_GRIDS),
        "operators.table_misses": len(FEJER_GRIDS),
        "operators.table_hits": 0,
        "summability.method_curve_calls": 5 * len(FEJER_GRIDS),
    }
    return ops, counts


SQUEEZE_ORDER_ALMOST_TRIALS = 20   # squeeze-audit's almost-kind order trials


def method_mix(seed: int, work: Path):
    s = _draw(seed, 5)
    ops = [
        CliOperation("squeeze-audit", _cli_config("squeeze-audit", s[0], N=1000,
                     tau=0.05, grid_m=50), check_exit_only, work),
        CliOperation("almost-alternating", _cli_config("almost-alternating", s[1],
                     N=1000, tau=0.01, grid_m=50), check_almost, work),
        CliOperation("cesaro-matrix", _cli_config("cesaro-matrix", s[2], N=500,
                     tau=0.01, grid_m=50), check_cesaro, work),
        CliOperation("regularity-audit", _cli_config("regularity-audit", s[3],
                     N=400, tau=0.05, grid_m=50), check_regularity, work),
        CliOperation("bernstein-classical", _cli_config("bernstein-classical", s[4],
                     N=200, tau=0.02, grid_m=200), check_bernstein_classical, work),
        SessionOperation(),
    ]
    classical_n = 200
    session_n = SESSION_GROWTH[-1]
    session_probes = len(SESSION_GROWTH) + len(SESSION_METHODS)
    counts = {
        "operators.bernstein_dense_calls": classical_n + session_n,
        "operators.bernstein_window_calls": 0,
        "operators.fejer_calls": 0,
        "operators.table_indices_built": classical_n + session_n,
        "operators.table_misses": 1 + len(SESSION_GROWTH),
        "operators.table_hits": len(SESSION_METHODS),
        # five curves (three tests, two probes) per probe call, one each for
        # cesaro-matrix and almost-alternating, one per almost order trial
        "summability.method_curve_calls":
            5 + 5 * session_probes + 1 + 1 + SQUEEZE_ORDER_ALMOST_TRIALS,
    }
    return ops, counts


WORKLOADS = {
    "bernstein-tables": bernstein_tables,
    "fejer-means": fejer_means,
    "method-mix": method_mix,
}


def bernstein_oracle_errors() -> list[str]:
    """B_n f against a direct binomial sum for a non-polynomial f, on both
    sides of the dense/window switch and deep in the windowed range."""
    from scipy.stats import binom

    from korovkin_lab.operators import bernstein_apply

    f = lambda t: np.abs(np.asarray(t, dtype=float) - 1.0 / 3.0)
    grid = Grid.unit(200)
    x = grid.nodes
    errors = []
    for n in (DENSE_LIMIT - 1, DENSE_LIMIT, DENSE_LIMIT + 1, 4000):
        k = np.arange(n + 1)
        want = binom.pmf(k[None, :], n, x[:, None]) @ f(k / n)
        got = bernstein_apply(n, f, grid).values
        err = float(np.max(np.abs(got - want)))
        if not err <= 1e-10:
            errors.append(f"B_{n}|t-1/3| differs from the binomial sum by {err:.3g}")
    return errors
