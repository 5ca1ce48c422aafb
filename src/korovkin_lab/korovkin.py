"""Executable convergence probes for positive linear operator sequences.

The central experiment: compare the residual curves of an operator sequence
on a three-function test set against its residual curves on arbitrary
continuous probes, under a chosen summability method.  The two verdicts must
agree — checking the test set is as good as checking every probe.

The module also ships the quantitative machinery behind that equivalence
(continuity budgets and the pointwise parabola bound), a randomized squeeze
harness for the inequality-preservation property of each method, and the
modulated-operator counterexample that separates classical from density-based
convergence.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .funcspace import Grid, sample, sup_values
from .operators import OperatorSequence, named_operator, residual_table
from .summability import (
    KINDS,
    MethodSpec,
    ResidualCurve,
    VERDICT_CONSISTENT,
    VERDICT_INCONSISTENT,
    curve_indices,
    decide_verdict,  # perfbench/tracing.py wraps korovkin.decide_verdict
    method_curve,
    statistical_from_norms,
)

#: denominators below this are reported as undefined ratios, never divided
RATIO_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# test sets


# the test functions, built once so that every test set holds the same
# evaluator objects (the residual-table cache keys by evaluator)
def _e0(t):
    return np.ones_like(np.asarray(t, dtype=float))


def _e1(t):
    return np.asarray(t, dtype=float)


def _e2(t):
    return np.asarray(t, dtype=float) ** 2


@dataclass(frozen=True)
class KorovkinTestSet:
    """The three-function test set of the relevant approximation statement."""

    flavor: str  # "algebraic" | "trigonometric"
    names: tuple[str, str, str]
    evals: tuple[Callable, Callable, Callable]

    @classmethod
    def algebraic(cls) -> "KorovkinTestSet":
        """{1, t, t^2} on [0, 1]."""
        return cls("algebraic", ("e0", "e1", "e2"), (_e0, _e1, _e2))

    @classmethod
    def trigonometric(cls) -> "KorovkinTestSet":
        """{1, cos, sin} on the 2*pi-periodic line."""
        return cls("trigonometric", ("e0", "cos", "sin"), (_e0, np.cos, np.sin))

    def check_grid(self, grid: Grid) -> None:
        if self.flavor == "trigonometric" and not grid.periodic:
            raise ValueError("trigonometric test set needs a periodic grid")
        if self.flavor == "algebraic" and grid.periodic:
            raise ValueError("algebraic test set needs a non-periodic grid")


# ---------------------------------------------------------------------------
# continuity budgets and the parabola bound


@dataclass(frozen=True)
class ContinuityBudget:
    """Quantities controlling |f(t) - f(x)| on the grid: epsilon, a uniform-
    continuity gap delta admissible at epsilon, the bound M = sup|f|, and the
    derived constant C = max(epsilon + M, 2M/delta^2)."""

    epsilon: float
    delta: float
    M: float
    C: float


def estimate_budget(f_eval: Callable, grid: Grid, epsilon: float) -> ContinuityBudget:
    """Largest grid-representable delta with |f(t)-f(x)| <= epsilon whenever
    |t-x| <= delta, plus the derived squeeze constant.

    Scans the per-lag maxima of |f(t)-f(x)| over all node pairs; rejects
    evaluators that oscillate beyond epsilon already at one grid step.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    v = sample(f_eval, grid).values
    M = float(np.max(np.abs(v)))
    if M == 0.0:
        M = epsilon  # f == 0: any delta works, keep C finite and positive
    lag_max = np.array([np.max(np.abs(v[lag:] - v[:-lag]))
                        for lag in range(1, grid.m + 1)])
    running = np.maximum.accumulate(lag_max)
    admissible = np.flatnonzero(running <= epsilon)
    if len(admissible) == 0:
        raise ValueError(
            f"no admissible delta: |f| jumps by {lag_max[0]:.6g} > {epsilon} "
            "within one grid step")
    delta = (admissible[-1] + 1) * grid.spacing
    C = max(epsilon + M, 2.0 * M / delta ** 2)
    return ContinuityBudget(epsilon, delta, M, C)


@dataclass
class PointwiseBoundReport:
    passed: bool
    worst_pair: tuple[float, float]  # (t, x) minimizing slack
    min_slack: float


def check_pointwise_bound(f_eval: Callable, budget: ContinuityBudget,
                          grid: Grid) -> PointwiseBoundReport:
    """Verify |f(t) - f(x)| < epsilon + (2M/delta^2)(t-x)^2 at every node
    pair; report the pair with the least slack."""
    v = sample(f_eval, grid).values
    x = grid.nodes
    gap = np.abs(v[:, None] - v[None, :])
    bound = budget.epsilon + (2.0 * budget.M / budget.delta ** 2) \
        * (x[:, None] - x[None, :]) ** 2
    slack = bound - gap
    i, j = np.unravel_index(np.argmin(slack), slack.shape)
    return PointwiseBoundReport(bool(np.all(slack > 0.0)),
                                (float(x[i]), float(x[j])),
                                float(slack[i, j]))


def bound_ratio_curve(ops: OperatorSequence, f_eval: Callable,
                      testset: KorovkinTestSet,
                      indices: Sequence[int]) -> list[tuple[int, float]]:
    """r_n = sup|L_n f - f| / sum_i sup|L_n e_i - e_i| over the given indices.

    Indices where the denominator underflows RATIO_FLOOR are emitted with
    r_n = nan rather than skipped: an operator exact on the whole test set
    carries no bound information at that index, and hiding that would skew
    the curve.
    """
    testset.check_grid(ops.grid)
    probes = list(zip(testset.names, testset.evals)) + [("f", f_eval)]
    table = residual_table(ops, probes, max(indices))
    return _bound_ratios(table.norms, testset.names, ["f"], indices)


def _bound_ratios(norms: dict, tests: Sequence[str], probes: Sequence[str],
                  indices: Sequence[int]) -> list[tuple[int, float]]:
    """(n, worst probe residual / sum of test residuals) at each index n, or
    nan where the denominator is below RATIO_FLOOR."""
    out = []
    for n in indices:
        D = sum(norms[nm][n - 1] for nm in tests)
        num = max(norms[nm][n - 1] for nm in probes) if probes else 0.0
        out.append((n, float(num / D) if D >= RATIO_FLOOR else math.nan))
    return out


# ---------------------------------------------------------------------------
# the equivalence probe


@dataclass
class KorovkinReport:
    method: MethodSpec
    test_curves: dict[str, ResidualCurve]
    probe_curves: dict[str, ResidualCurve]
    bound_ratios: list[tuple[int, float]]
    verdict_equivalence: bool

    @property
    def tests_consistent(self) -> bool:
        return all(c.verdict == VERDICT_CONSISTENT for c in self.test_curves.values())

    @property
    def probes_consistent(self) -> bool:
        return all(c.verdict == VERDICT_CONSISTENT for c in self.probe_curves.values())

    def to_dict(self) -> dict:
        def curve(c: ResidualCurve):
            return {"points": [[n, v] for n, v in c.points], "verdict": c.verdict}

        return {
            "method": self.method.to_dict(),
            "test_curves": {nm: curve(c) for nm, c in self.test_curves.items()},
            "probe_curves": {nm: curve(c) for nm, c in self.probe_curves.items()},
            "bound_ratios": [[n, None if math.isnan(r) else r]
                             for n, r in self.bound_ratios],
            "verdict_equivalence": self.verdict_equivalence,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_csv_bundle(self) -> dict[str, str]:
        """File-name -> contents map: test_<i>.csv, probe_<name>.csv,
        ratios.csv."""
        bundle = {}
        for i, (nm, c) in enumerate(self.test_curves.items()):
            bundle[f"test_{i}.csv"] = c.to_csv()
        for nm, c in self.probe_curves.items():
            bundle[f"probe_{nm}.csv"] = c.to_csv()
        out = io.StringIO()
        out.write("n,ratio\n")
        for n, r in self.bound_ratios:
            out.write(f"{n},{'' if math.isnan(r) else format(r, '.17g')}\n")
        bundle["ratios.csv"] = out.getvalue()
        return bundle


def korovkin_probe(ops: OperatorSequence, method: MethodSpec,
                   testset: KorovkinTestSet,
                   probes: Sequence[tuple[str, Callable]], N: int, tau: float,
                   n0: int = 0,
                   indices: Sequence[int] | None = None) -> KorovkinReport:
    """Residual curves for the test triple and each probe under one method,
    plus the ratio diagnostic.  ``bound_ratios`` uses the worst probe at each
    index so a single curve bounds them all."""
    testset.check_grid(ops.grid)
    if indices is None:
        indices = curve_indices(N)
    all_probes = list(zip(testset.names, testset.evals)) + list(probes)
    names = [nm for nm, _ in all_probes]
    for i, nm in enumerate(names):
        if nm in names[:i]:
            raise ValueError(f"probe {nm!r}: name already used by the test set "
                             "or another probe")
    kind = KINDS[method.kind]
    table = residual_table(ops, all_probes, n0 + kind.rows(method, indices),
                           keep_values=kind.reads_values)

    def curve(nm: str) -> ResidualCurve:
        rows = table.values[nm] if kind.reads_values else table.norms[nm]
        return method_curve(method, rows, table.limits[nm], N=N, tau=tau, n0=n0,
                            indices=indices)

    test_curves = {nm: curve(nm) for nm in testset.names}
    probe_curves = {nm: curve(nm) for nm, _ in probes}
    ratios = _bound_ratios(table.norms, testset.names, [nm for nm, _ in probes],
                           indices)
    report = KorovkinReport(method, test_curves, probe_curves, ratios, False)
    report.verdict_equivalence = report.tests_consistent == report.probes_consistent
    return report


# ---------------------------------------------------------------------------
# squeeze harness: does the method preserve the three-term domination?


STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_HYPOTHESIS = "hypothesis_violated"


@dataclass
class SqueezeReport:
    method_kind: str
    C: float
    seed: int
    status: str
    detail: str = ""


def _squeeze_norm_sequences(C: float, seed: int, N: int):
    """Three convergent residual-norm sequences with exceedances on the
    perfect squares, and a dominated fourth: d_k = C*(a+b+c)_k*u_k."""
    rng = np.random.default_rng(seed)
    ks = np.arange(1, N + 1)
    squares = np.arange(1, math.isqrt(N) + 1) ** 2
    abc = []
    for _ in range(3):
        r = rng.uniform(0.2, 1.0, N) / ks
        r[squares - 1] += rng.uniform(0.5, 1.5, len(squares))
        abc.append(r)
    a, b, c = abc
    d = C * (a + b + c) * rng.uniform(0.0, 1.0, N)
    return a, b, c, d


def squeeze_trial_norm(methods: Sequence[MethodSpec], C: float, seed: int,
                       N: int = 1000, tamper: bool = False,
                       n0: int = 0) -> list[SqueezeReport]:
    """One randomized trial of the norm-squeeze property, one report per
    method in order.

    Seeds three convergent sequences x, y, z and a fourth w dominated by
    C*(sum of the three residual norms), once for all methods; asserts for
    each the finite-N form of the squeeze given by the kind's
    ``norm_squeeze`` form in ``KINDS``: a union-bound set inclusion at
    threshold epsilon/(3C) for the count-based kinds (the method's epsilon),
    a weighted linear inequality for the strong kinds.
    ``tamper=True`` plants one domination violation and must be reported as
    a hypothesis failure, not a method failure.
    """
    unsupported = [m.kind for m in methods if KINDS[m.kind].norm_squeeze is None]
    if unsupported:
        raise ValueError(f"method kind {unsupported[0]!r} does not support "
                         "the norm squeeze")
    if C <= 0:
        raise ValueError("C must be positive")
    a, b, c, d = (x[n0:] for x in _squeeze_norm_sequences(C, seed, N + n0))
    if tamper:
        j = N // 2
        d[j] = C * (a[j] + b[j] + c[j]) + 0.5

    # the hypothesis itself is checked first: a violated premise is reported
    # as such and the squeeze assertion is skipped
    excess = d - C * (a + b + c)
    if np.any(excess > 1e-12 * (1.0 + np.max(d))):
        detail = f"domination fails at index {int(np.argmax(excess)) + 1}"
        return [SqueezeReport(m.kind, C, seed, STATUS_HYPOTHESIS, detail)
                for m in methods]

    reports = []
    for method in methods:
        bad = KINDS[method.kind].norm_squeeze(method, a, b, c, d, C, N)
        status, detail = (STATUS_FAIL, f"squeeze inequality fails at index "
                          f"{int(bad[0]) + 1}") if len(bad) else (STATUS_PASS, "")
        reports.append(SqueezeReport(method.kind, C, seed, status, detail))
    return reports


def squeeze_trial_order(method: MethodSpec, C: float, seed: int, N: int = 200,
                        grid: Grid | None = None, tau: float = 0.05,
                        n0: int = 0) -> SqueezeReport:
    """One randomized trial of the order-squeeze for the averaging kinds.

    Builds three sequences converging nodewise to smooth limits, and w
    trapped by the two-sided nodewise bound |w_n - w| <= C*S_n with S_n =
    |x_n-x| + |y_n-y| + |z_n-z|.  At every truncation n of a ladder up to the
    largest whose rows fit in the N terms, asserts that the kind's averages
    (its ``average`` in ``KINDS``) keep the bound: |avg(w - w_lim)| <= C*avg(S);
    then that w's residual curve, max|avg(w - w_lim)| at the same n, is
    consistent.
    """
    kind = method.kind
    average = KINDS[kind].average
    if average is None:
        raise ValueError(f"method kind {kind!r} does not support the order squeeze")
    if C < 0:
        raise ValueError("C must be nonnegative")
    grid = grid or Grid.unit(50)
    rng = np.random.default_rng(seed)
    t = grid.nodes
    xbar = np.sin(2.0 * t) + rng.uniform(-1, 1)
    ybar = t ** 2 + rng.uniform(-1, 1)
    zbar = np.cos(3.0 * t)
    wbar = 0.5 * (xbar + ybar)
    if grid.periodic:
        for arr in (xbar, ybar, zbar, wbar):
            arr[-1] = arr[0]

    ks = np.arange(1 + n0, N + n0 + 1, dtype=float)
    decay = 0.3 * (0.5 + rng.uniform(0.0, 1.0, N)) * ks ** -1.5

    def devs():
        shape = rng.uniform(0.5, 1.0, grid.n_nodes)
        if grid.periodic:
            shape[-1] = shape[0]
        return decay[:, None] * shape[None, :]

    dx, dy, dz = devs(), devs(), devs()
    S = np.abs(dx) + np.abs(dy) + np.abs(dz)
    u = rng.uniform(-0.95, 0.95, N)
    W = wbar[None, :] + u[:, None] * C * S

    # nodewise order hypothesis, by construction; checked anyway
    if np.any(np.abs(W - wbar) > C * S + 1e-12):
        return SqueezeReport(kind, C, seed, STATUS_HYPOTHESIS,
                             "order bound fails at a node")

    # W - w and S side by side, so each prefix sum or matrix row is read once
    k = grid.n_nodes
    average_at = average(method, np.hstack([W - wbar, S]))
    # the largest truncation whose rows fit in the N terms (rows(n) - n is fixed)
    top = N - (KINDS[kind].rows(method, [N]) - N)
    pts = []
    for n in curve_indices(top):
        avg = average_at(n)
        dev = avg[..., :k]
        if np.any(np.abs(dev) > C * avg[..., k:] + 1e-12):
            return SqueezeReport(kind, C, seed, STATUS_FAIL,
                                 f"averaged bound fails at truncation {n}")
        pts.append((n, sup_values(dev, grid.periodic)))
    verdict = decide_verdict(pts, tau)
    if verdict != VERDICT_CONSISTENT:
        return SqueezeReport(kind, C, seed, STATUS_FAIL,
                             f"w residual curve verdict {verdict}")
    return SqueezeReport(kind, C, seed, STATUS_PASS)


# ---------------------------------------------------------------------------
# projection negative control: a "method" that does not preserve domination


@dataclass
class ProjectionControlReport:
    xyz_projection_residual: float   # sup residual of x,y,z under the method
    domination_holds: bool
    w_projection_residual: float     # limsup of w's residual under the method
    preservation_fails: bool


def projection_control(grid: Grid | None = None, C: float = 1.0,
                       N: int = 200) -> ProjectionControlReport:
    """Negative control: convergence measured through a least-squares
    projection onto span{1, t, t^2} fails to transfer from a dominating
    triple to the dominated sequence.

    x = y = z are constant sequences living in the projection's kernel (so
    their projected residual is identically ~0), and w oscillates inside the
    span with amplitude small enough that the domination inequality holds,
    yet its projected residual never decays.
    """
    grid = grid or Grid.unit(100)
    t = grid.nodes
    basis = np.vstack([np.ones_like(t), t, t * t]).T
    Q, _ = np.linalg.qr(basis)
    proj = lambda v: Q @ (Q.T @ v)

    cubic = t ** 3
    kernel_part = cubic - proj(cubic)          # component invisible to the method
    xn = kernel_part                           # x_n - x for every n
    xyz_res = float(np.max(np.abs(proj(xn))))

    budget = 3.0 * C * float(np.max(np.abs(xn)))
    w_dev = t * t
    w_dev = w_dev * (0.9 * budget / np.max(np.abs(w_dev)))
    domination = bool(np.max(np.abs(w_dev)) <= C * 3.0 * np.max(np.abs(xn)) + 1e-12)
    # w_n - w = (-1)^n * w_dev: the projected residual is constant in n
    w_res = float(np.max(np.abs(proj(w_dev))))
    return ProjectionControlReport(xyz_res, domination, w_res,
                                   domination and w_res > 100 * max(xyz_res, 1e-15))


# ---------------------------------------------------------------------------
# the modulated-operator counterexample


@dataclass
class CounterexampleReport:
    N: int
    epsilon: float
    square_residuals: dict[str, list[tuple[int, float]]]
    statistical_residuals: dict[str, float]
    norm_verdicts: dict[str, str]
    statistical_verdicts: dict[str, str]
    #: the exceedances have magnitude exactly 1; a threshold at or above 1
    #: cannot see them, which this flag surfaces instead of rejecting
    epsilon_blind: bool = False

    @property
    def separates(self) -> bool:
        return (all(v == VERDICT_INCONSISTENT for v in self.norm_verdicts.values())
                and all(v == VERDICT_CONSISTENT
                        for v in self.statistical_verdicts.values()))


def counterexample_run(N: int, epsilon: float, grid_m: int = 200,
                       tau: float | None = None,
                       n0: int = 0) -> CounterexampleReport:
    """Modulated polynomial operators that double on the perfect squares:
    classically divergent on the test set, yet convergent in density.

    Reports the classical residual at every square index (exactly 1 for each
    test function), the exceedance density at N, and the verdicts under the
    norm and the density methods.
    """
    if N < 100:
        raise ValueError("N must be at least 100")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if grid_m % 2:
        raise ValueError("grid_m must be even")
    if tau is None:
        tau = 0.05
    ops = named_operator("modulated-squares", Grid.unit(grid_m))
    testset = KorovkinTestSet.algebraic()
    table = residual_table(ops, list(zip(testset.names, testset.evals)), N + n0)

    squares = [j * j for j in range(1, math.isqrt(N) + 1)]
    square_res = {nm: [(n, float(table.norms[nm][n - 1])) for n in squares]
                  for nm in testset.names}
    stat_res = {}
    norm_v, stat_v = {}, {}
    for nm in testset.names:
        r = table.norms[nm]
        stat_res[nm] = statistical_from_norms(r[n0:], epsilon, N)
        norm_v[nm] = method_curve(MethodSpec("norm"), r, N=N, tau=tau, n0=n0).verdict
        stat_v[nm] = method_curve(MethodSpec("statistical", epsilon=epsilon), r,
                                  N=N, tau=tau, n0=n0).verdict
    return CounterexampleReport(N, epsilon, square_res, stat_res, norm_v, stat_v,
                                epsilon_blind=epsilon >= 1.0)
