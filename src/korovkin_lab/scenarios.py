"""Registered experiments: each scenario runs one self-contained study with
tuned defaults, produces residual curves as CSV, and declares the verdicts it
expects, so a run doubles as a regression gate (exit code 2 on any verdict
drifting from the registered expectation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .funcspace import Grid, constant, sample
from .korovkin import (
    KorovkinTestSet,
    STATUS_HYPOTHESIS,
    STATUS_PASS,
    counterexample_run,
    korovkin_probe,
    projection_control,
    squeeze_trial_norm,
    squeeze_trial_order,
)
from .operators import named_operator, positivity_audit, residual_table
from .summability import (
    KINDS,
    IdealSpec,
    MethodSpec,
    NAMED_MATRICES,
    SHIPPED_MODULI,
    ModulusSpec,
    VERDICT_CONSISTENT,
    VERDICT_INCONSISTENT,
    cesaro_matrix,
    check_regularity,
    curve_indices,
    identity_matrix,
    method_curve,
)


@dataclass
class ScenarioResult:
    name: str
    verdicts: dict[str, str]
    expected: dict[str, str]
    report: dict
    curves: dict[str, str] = field(default_factory=dict)
    summary_lines: list[str] = field(default_factory=list)

    @property
    def matched(self) -> bool:
        return self.verdicts == self.expected

    def mismatches(self) -> list[str]:
        out = []
        for key in sorted(set(self.expected) | set(self.verdicts)):
            want, got = self.expected.get(key), self.verdicts.get(key)
            if want != got:
                out.append(f"{key}: expected {want}, got {got}")
        return out


def _cubic(t):
    return np.asarray(t, dtype=float) ** 3


def _exp(t):
    return np.exp(np.asarray(t, dtype=float))


def _sin2(t):
    return np.sin(2.0 * np.asarray(t, dtype=float))


def _sinsq(t):
    return np.sin(np.asarray(t, dtype=float)) ** 2


def _method(cfg) -> MethodSpec:
    return MethodSpec.from_dict(cfg.method) if cfg.method else MethodSpec("norm")


def _probe_result(name: str, cfg, ops, testset, probes, expected_verdict: str,
                  extra_summary=()) -> ScenarioResult:
    method = _method(cfg)
    rep = korovkin_probe(ops, method, testset, probes, cfg.N, cfg.tau, n0=cfg.n0)
    verdicts = {f"test_{nm}": c.verdict for nm, c in rep.test_curves.items()}
    verdicts.update({f"probe_{nm}": c.verdict for nm, c in rep.probe_curves.items()})
    verdicts["equivalence"] = "true" if rep.verdict_equivalence else "false"
    expected = {k: expected_verdict for k in verdicts if k != "equivalence"}
    expected["equivalence"] = "true"
    lines = [f"{name}: method={method.kind} N={cfg.N} tau={cfg.tau}"]
    lines += [f"  {k} -> {v}" for k, v in sorted(verdicts.items())]
    lines.extend(extra_summary)
    return ScenarioResult(name, verdicts, expected, report=rep.to_dict(),
                          curves=rep.to_csv_bundle(), summary_lines=lines)


# ---------------------------------------------------------------------------


def run_bernstein_classical(cfg) -> ScenarioResult:
    """Polynomial operators under the plain sup-norm method: the three test
    curves and two probe curves must all be consistent."""
    ops = named_operator("bernstein", Grid.unit(cfg.grid_m))
    return _probe_result("bernstein-classical", cfg, ops,
                         KorovkinTestSet.algebraic(),
                         [("t3", _cubic), ("expt", _exp)], VERDICT_CONSISTENT)


def run_statistical_counterexample(cfg) -> ScenarioResult:
    """Modulated operators that double on the perfect squares: classically
    divergent, density-convergent."""
    rep = counterexample_run(cfg.N, cfg.epsilon, grid_m=cfg.grid_m,
                             tau=cfg.tau, n0=cfg.n0)
    verdicts = {}
    for nm in rep.norm_verdicts:
        verdicts[f"norm_{nm}"] = rep.norm_verdicts[nm]
        verdicts[f"statistical_{nm}"] = rep.statistical_verdicts[nm]
    expected = {f"norm_{nm}": VERDICT_INCONSISTENT for nm in rep.norm_verdicts}
    expected.update({f"statistical_{nm}": VERDICT_CONSISTENT
                     for nm in rep.statistical_verdicts})
    curves = {}
    for nm, pairs in rep.square_residuals.items():
        curves[f"squares_{nm}.csv"] = "n,residual\n" + "".join(
            f"{n},{v:.17g}\n" for n, v in pairs)
    lines = [f"statistical-counterexample: N={cfg.N} epsilon={cfg.epsilon}",
             f"  square count: {math.isqrt(cfg.N)}"]
    lines += [f"  statistical residual {nm} = {v:.6g}"
              for nm, v in sorted(rep.statistical_residuals.items())]
    lines += [f"  norm_{nm} -> {v}" for nm, v in sorted(rep.norm_verdicts.items())]
    report = {
        "N": rep.N, "epsilon": rep.epsilon,
        "statistical_residuals": rep.statistical_residuals,
        "norm_verdicts": rep.norm_verdicts,
        "statistical_verdicts": rep.statistical_verdicts,
        "epsilon_blind": rep.epsilon_blind,
        "square_residual_range": [
            min(v for p in rep.square_residuals.values() for _, v in p),
            max(v for p in rep.square_residuals.values() for _, v in p)],
    }
    return ScenarioResult("statistical-counterexample", verdicts, expected,
                          report, curves, lines)


def run_cesaro_matrix(cfg) -> ScenarioResult:
    """Arithmetic-mean matrix transform of an alternating function sequence:
    the even-row means hit the limit exactly."""
    grid = Grid.unit(cfg.grid_m)
    L = sample(lambda t: 1.0 + np.asarray(t, dtype=float), grid)
    g = sample(lambda t: np.asarray(t, dtype=float) ** 2, grid)
    method = MethodSpec("matrix", matrix=cesaro_matrix())
    indices = [2 * v for v in curve_indices(cfg.N // 2)]
    # row k-1 holds term k = L + (-1)^k g
    signs = (-1.0) ** np.arange(1, cfg.n0 + KINDS["matrix"].rows(method, indices) + 1)
    curve = method_curve(method, L.values + signs[:, None] * g.values, L, N=cfg.N,
                         tau=cfg.tau, n0=cfg.n0, indices=indices)
    verdicts = {"matrix_mean": curve.verdict}
    expected = {"matrix_mean": VERDICT_CONSISTENT}
    lines = [f"cesaro-matrix: N={cfg.N} tau={cfg.tau}",
             f"  even-row residual max = {max(v for _, v in curve.points):.3g}",
             f"  matrix_mean -> {curve.verdict}"]
    report = {"points": curve.points, "verdict": curve.verdict}
    return ScenarioResult("cesaro-matrix", verdicts, expected, report,
                          {"matrix_mean.csv": curve.to_csv()}, lines)


def run_almost_alternating(cfg) -> ScenarioResult:
    """Sliding-window means of (-1)^n: the window residual is exactly
    1/(m+1) at even window lengths, decaying to the limit."""
    grid = Grid.unit(cfg.grid_m)
    L = constant(0.0, grid)
    n_max = 500
    mm = [2 * v for v in curve_indices(cfg.N // 2, start=5)]
    method = MethodSpec("almost", almost_n_max=n_max)
    # row k-1 holds term k, the constant (-1)^k
    signs = (-1.0) ** np.arange(1, cfg.n0 + KINDS["almost"].rows(method, mm) + 1)
    curve = method_curve(method, np.repeat(signs[:, None], grid.n_nodes, axis=1), L,
                         N=cfg.N, tau=cfg.tau, n0=cfg.n0, indices=mm)
    exact = all(abs(v - 1.0 / (m + 1)) <= 1e-12 for m, v in curve.points)
    verdicts = {"almost_mean": curve.verdict,
                "window_residual_exact": "true" if exact else "false"}
    expected = {"almost_mean": VERDICT_CONSISTENT,
                "window_residual_exact": "true"}
    lines = [f"almost-alternating: window lengths {mm[0]}..{mm[-1]}, n_max={n_max}",
             f"  residual at m: exactly 1/(m+1) -> {exact}",
             f"  almost_mean -> {curve.verdict}"]
    report = {"points": curve.points, "verdict": curve.verdict,
              "window_residual_exact": exact}
    return ScenarioResult("almost-alternating", verdicts, expected, report,
                          {"almost_mean.csv": curve.to_csv()}, lines)


def run_fejer_trig(cfg) -> ScenarioResult:
    """Kernel-averaged trigonometric operators on the periodic test set,
    plus a positivity audit of the first operators."""
    ops = named_operator("fejer", Grid.circle(cfg.grid_m))
    result = _probe_result("fejer-trig", cfg, ops,
                           KorovkinTestSet.trigonometric(),
                           [("sin2t", _sin2), ("sinsq", _sinsq)],
                           VERDICT_CONSISTENT)
    audit = positivity_audit(ops, range(0, 11), trials=5, seed=cfg.seed)
    result.verdicts["positivity"] = "pass" if audit.passed else "fail"
    result.expected["positivity"] = "pass"
    result.report["positivity"] = {"indices": audit.indices,
                                   "min_values": audit.min_values,
                                   "passed": audit.passed}
    result.summary_lines.append(f"  positivity audit over n=0..10 -> "
                                f"{'pass' if audit.passed else 'fail'}")
    return result


def run_f_modulus_sweep(cfg) -> ScenarioResult:
    """How a modulus deforms an exceedance density: the polynomial-operator
    residual on the parabola exceeds the threshold on a finite prefix only,
    which the identity and square-root moduli dismiss while the logarithmic
    modulus keeps visible at desk scale (verdict stays indeterminate).  The
    non-modulus x^2 is rejected by the validator as a control."""
    from .summability import VERDICT_INDETERMINATE, is_modulus

    ops = named_operator("bernstein", Grid.unit(cfg.grid_m))
    e2 = lambda t: np.asarray(t, dtype=float) ** 2
    table = residual_table(ops, [("e2", e2)], cfg.N + cfg.n0)
    verdicts, expected, curves, lines = {}, {}, {}, [
        f"f-modulus-sweep: N={cfg.N} tau={cfg.tau} epsilon={cfg.epsilon}"]
    report = {"final_values": {}, "validator": {}}
    for name, want in (("identity", VERDICT_CONSISTENT),
                       ("sqrt", VERDICT_CONSISTENT),
                       ("log1p", VERDICT_INDETERMINATE)):
        method = MethodSpec("f_statistical", epsilon=cfg.epsilon,
                            modulus=SHIPPED_MODULI[name])
        curve = method_curve(method, table.norms["e2"], N=cfg.N, tau=cfg.tau,
                             n0=cfg.n0)
        verdicts[f"f_statistical_{name}"] = curve.verdict
        expected[f"f_statistical_{name}"] = want
        curves[f"f_statistical_{name}.csv"] = curve.to_csv()
        report["final_values"][name] = curve.points[-1][1]
        lines.append(f"  f_statistical[{name}] final residual "
                     f"{curve.points[-1][1]:.4g} -> {curve.verdict}")
    candidates = list(SHIPPED_MODULI.values()) + [
        ModulusSpec("square", lambda x: np.asarray(x) ** 2)]
    for spec in candidates:
        rep = is_modulus(spec)
        verdicts[f"modulus_{spec.name}"] = "pass" if rep.passed else "fail"
        expected[f"modulus_{spec.name}"] = \
            "pass" if spec.name in SHIPPED_MODULI else "fail"
        report["validator"][spec.name] = {
            "passed": rep.passed, "witness": rep.subadditive_witness}
        lines.append(f"  modulus[{spec.name}] -> "
                     f"{'pass' if rep.passed else 'fail'}"
                     + (f" (subadditivity witness {rep.subadditive_witness})"
                        if rep.subadditive_witness else ""))
    return ScenarioResult("f-modulus-sweep", verdicts, expected, report,
                          curves, lines)


SQUEEZE_NORM_METHODS = {
    "statistical": lambda: MethodSpec("statistical", epsilon=0.5),
    "ideal": lambda: MethodSpec("ideal", epsilon=0.5,
                                ideal=IdealSpec("zero_density")),
    "strong_wp": lambda: MethodSpec("strong_wp", p=1.5),
    "a_strong": lambda: MethodSpec("a_strong", matrix=cesaro_matrix()),
    "a_statistical": lambda: MethodSpec("a_statistical", epsilon=0.5,
                                        matrix=identity_matrix()),
    "f_statistical": lambda: MethodSpec("f_statistical", epsilon=0.5,
                                        modulus=SHIPPED_MODULI["sqrt"]),
    "f_strong": lambda: MethodSpec("f_strong", modulus=SHIPPED_MODULI["log1p"]),
}


def run_squeeze_audit(cfg) -> ScenarioResult:
    """Randomized audit of the domination-preservation property across every
    supported method kind, with a planted-violation control and the
    projection negative control."""
    C, seeds = 2.0, 200
    verdicts, expected = {}, {}
    lines = [f"squeeze-audit: {seeds} seeds per kind, C={C}, N={cfg.N}"]
    methods = [make() for make in SQUEEZE_NORM_METHODS.values()]
    seen = {kind: set() for kind in SQUEEZE_NORM_METHODS}
    for s in range(seeds):   # one draw per seed, read by every kind
        for kind, rep in zip(seen, squeeze_trial_norm(methods, C, s, N=cfg.N,
                                                      n0=cfg.n0)):
            seen[kind].add(rep.status)
    for kind in SQUEEZE_NORM_METHODS:
        verdicts[f"norm_{kind}"] = "pass" if seen[kind] == {STATUS_PASS} else "fail"
        expected[f"norm_{kind}"] = "pass"
        lines.append(f"  norm squeeze [{kind}] -> {verdicts[f'norm_{kind}']}")
    for label, method in (("almost", MethodSpec("almost", almost_n_max=50)),
                          ("cesaro", MethodSpec("matrix", matrix=cesaro_matrix())),
                          ("identity", MethodSpec("matrix",
                                                  matrix=identity_matrix()))):
        statuses = {squeeze_trial_order(method, C, s, N=300, n0=cfg.n0).status
                    for s in range(20)}
        verdicts[f"order_{label}"] = "pass" if statuses == {STATUS_PASS} else "fail"
        expected[f"order_{label}"] = "pass"
        lines.append(f"  order squeeze [{label}] -> {verdicts[f'order_{label}']}")
    control, = squeeze_trial_norm([MethodSpec("statistical", epsilon=0.5)],
                                  C, cfg.seed, N=cfg.N, tamper=True)
    verdicts["tamper_control"] = control.status
    expected["tamper_control"] = STATUS_HYPOTHESIS
    lines.append(f"  planted violation -> {control.status}")
    proj = projection_control()
    verdicts["projection_control"] = \
        "fails_preservation" if proj.preservation_fails else "preserves"
    expected["projection_control"] = "fails_preservation"
    lines.append(f"  projection method preserves domination -> "
                 f"{not proj.preservation_fails}")
    report = {"verdicts": verdicts,
              "projection_control": {
                  "xyz_residual": proj.xyz_projection_residual,
                  "w_residual": proj.w_projection_residual,
                  "domination_holds": proj.domination_holds}}
    return ScenarioResult("squeeze-audit", verdicts, expected, report, {}, lines)


def run_regularity_audit(cfg) -> ScenarioResult:
    """Three-condition regularity audit of named summability matrices.
    The registered expectation is that every audited matrix is regular, so
    pointing the audit at a defective matrix exits with a mismatch naming
    the violated condition."""
    names = [cfg.operator] if cfg.operator else ["cesaro", "identity"]
    verdicts, expected, lines = {}, {}, [f"regularity-audit: N={cfg.N}"]
    report = {}
    for name in names:
        rep = check_regularity(NAMED_MATRICES[name](), cfg.N)
        verdicts[name] = "regular" if rep.passed else "irregular"
        expected[name] = "regular"
        report[name] = {"passed": rep.passed,
                        "max_row_sum": rep.max_row_sum,
                        "final_row_sum": rep.final_row_sum,
                        "failures": rep.failures()}
        lines.append(f"  {name}: {'regular' if rep.passed else 'irregular'}")
        for failure in rep.failures():
            lines.append(f"    {failure}")
    return ScenarioResult("regularity-audit", verdicts, expected, report,
                          {}, lines)


@dataclass(frozen=True)
class ScenarioEntry:
    runner: Callable
    description: str
    defaults: dict
    #: largest Bernstein index a run with the given config applies; None for
    #: scenarios that apply no Bernstein operator
    bernstein_depth: Callable | None = None
    #: which of the config's ``method`` and ``operator`` selectors the runner
    #: reads; setting any other is a config error
    reads: tuple[str, ...] = ()


def probe_depth(cfg) -> int:
    # the method's rows at N, where the probe's index ladder ends
    method = _method(cfg)
    return cfg.n0 + KINDS[method.kind].rows(method, [cfg.N])


def _table_depth(cfg) -> int:
    return cfg.N + cfg.n0


REGISTRY: dict[str, ScenarioEntry] = {
    "bernstein-classical": ScenarioEntry(
        run_bernstein_classical,
        "polynomial operators, sup-norm method, algebraic test set",
        {"N": 200, "tau": 0.02, "grid_m": 200}, probe_depth, reads=("method",)),
    "statistical-counterexample": ScenarioEntry(
        run_statistical_counterexample,
        "square-modulated operators: norm-divergent, density-convergent",
        {"N": 3000, "tau": 0.05, "epsilon": 0.5, "grid_m": 200}, _table_depth),
    "cesaro-matrix": ScenarioEntry(
        run_cesaro_matrix,
        "arithmetic-mean matrix transform of an alternating sequence",
        {"N": 500, "tau": 0.01, "grid_m": 50}),
    "almost-alternating": ScenarioEntry(
        run_almost_alternating,
        "sliding-window means of (-1)^n with exact 1/(m+1) residuals",
        {"N": 1000, "tau": 0.01, "grid_m": 50}),
    "fejer-trig": ScenarioEntry(
        run_fejer_trig,
        "kernel-averaged operators on the periodic test set",
        {"N": 250, "tau": 0.08, "grid_m": 256}, reads=("method",)),
    "f-modulus-sweep": ScenarioEntry(
        run_f_modulus_sweep,
        "modulus-deformed exceedance densities plus the modulus validator",
        {"N": 2000, "tau": 0.25, "epsilon": 0.01, "grid_m": 200}, _table_depth),
    "squeeze-audit": ScenarioEntry(
        run_squeeze_audit,
        "randomized domination-preservation audit for every method kind",
        {"N": 1000, "tau": 0.05, "grid_m": 50}),
    "regularity-audit": ScenarioEntry(
        run_regularity_audit,
        "three-condition regularity check of named matrices",
        {"N": 400, "tau": 0.05, "grid_m": 50}, reads=("operator",)),
}
