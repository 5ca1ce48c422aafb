"""End-to-end acceptance gate: ten numbered criteria, each with an explicit
tolerance and runtime budget, printing one PASS line apiece."""

import json
import math
import time

import numpy as np
import pytest

from korovkin_lab.funcspace import Grid, constant, sample, sup_norm
from korovkin_lab.korovkin import (
    KorovkinTestSet,
    bound_ratio_curve,
    check_pointwise_bound,
    counterexample_run,
    estimate_budget,
    korovkin_probe,
    squeeze_trial_norm,
    _squeeze_norm_sequences,
)
from korovkin_lab.operators import (
    bernstein_apply_batch,
    fejer_apply,
    fejer_kernel,
    named_operator,
)
from korovkin_lab.summability import (
    MethodSpec,
    SHIPPED_MODULI,
    ModulusSpec,
    VERDICT_CONSISTENT,
    VERDICT_INCONSISTENT,
    cesaro_matrix,
    check_regularity,
    decide_verdict,
    doubled_cesaro_matrix,
    f_statistical_from_norms,
    identity_matrix,
    is_modulus,
    residual,
    statistical_from_norms,
)
from korovkin_lab.cli import run as cli_run, validate_config


def _stamp(idx: int, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {idx} took {elapsed:.1f}s (budget {budget}s)"
    print(f"ACCEPTANCE-{idx:02d} PASS ({elapsed:.2f}s)")


def e0(t):
    return np.ones_like(np.asarray(t, dtype=float))


def e1(t):
    return np.asarray(t, dtype=float)


def e2(t):
    return np.asarray(t, dtype=float) ** 2


def test_acceptance_01_bernstein_moments():
    start = time.monotonic()
    grid = Grid.unit(200)
    lim1, limt, limt2 = constant(1.0, grid), sample(e1, grid), sample(e2, grid)
    for n in range(1, 101):
        b1, bt, bt2 = bernstein_apply_batch(n, [e0, e1, e2], grid)
        assert sup_norm(b1 - lim1) == 0.0
        assert sup_norm(bt - limt) <= 1e-10
        assert abs(sup_norm(bt2 - limt2) - 1.0 / (4 * n)) <= 1e-10
    _stamp(1, start, 5.0)


def test_acceptance_02_counterexample():
    start = time.monotonic()
    N = 10_000
    rep = counterexample_run(N, 0.5, grid_m=100)
    assert rep.statistical_residuals["e0"] == 0.01
    for pairs in rep.square_residuals.values():
        assert len(pairs) == 100
        for n, v in pairs:
            assert abs(v - 1.0) <= 1e-12
    assert rep.separates
    assert all(v == VERDICT_INCONSISTENT for v in rep.norm_verdicts.values())
    assert all(v == VERDICT_CONSISTENT
               for v in rep.statistical_verdicts.values())
    # the probe layer reaches the same split; one ops instance shares the
    # residual table across both methods
    ops = named_operator("modulated-squares", Grid.unit(100))
    testset = KorovkinTestSet.algebraic()
    norm_probe = korovkin_probe(ops, MethodSpec("norm"), testset,
                                [("e2_probe", e2)], N=N, tau=0.05)
    assert not norm_probe.tests_consistent and not norm_probe.probes_consistent
    assert norm_probe.verdict_equivalence
    stat_probe = korovkin_probe(ops, MethodSpec("statistical", epsilon=0.5),
                                testset, [("e2_probe", e2)], N=N, tau=0.05)
    assert stat_probe.tests_consistent and stat_probe.probes_consistent
    assert stat_probe.verdict_equivalence
    _stamp(2, start, 30.0)


def test_acceptance_03_union_bound_squeeze():
    start = time.monotonic()
    method = MethodSpec("statistical", epsilon=0.5)
    seeds_per_C = 1000 // 3 + 1
    for C in (1.0, 2.0, 10.0):
        for seed in range(seeds_per_C):
            # zero-tolerance set inclusion at threshold epsilon/(3C)
            rep = squeeze_trial_norm(method, C, seed, N=400)
            assert rep.status == "pass", rep
    _stamp(3, start, 20.0)


def test_acceptance_04_matrix_strong_squeeze():
    start = time.monotonic()
    C, N = 2.0, 500
    for A in (cesaro_matrix(), identity_matrix()):
        for seed in range(100):
            a, b, c, d = _squeeze_norm_sequences(C, seed, N)
            s = a + b + c
            for n in (1, 2, 10, 100, 250, 500):
                j, w = A.row_entries(n)
                lhs = float(w @ d[j - 1])
                rhs = C * float(w @ s[j - 1])
                assert lhs <= rhs + 1e-10 * (1.0 + abs(rhs))
            rep = squeeze_trial_norm(MethodSpec("a_strong", matrix=A),
                                     C, seed, N=N)
            assert rep.status == "pass"
    _stamp(4, start, 20.0)


def test_acceptance_05_almost_convergence():
    start = time.monotonic()
    grid = Grid.unit(50)
    seq = lambda n: constant((-1.0) ** n, grid)
    L = constant(0.0, grid)
    points = []
    almost = MethodSpec("almost", almost_n_max=500)
    for m in (10, 100, 1000):
        got = residual(almost, seq, L, m)
        assert got == pytest.approx(1.0 / (m + 1), abs=1e-12)
    for m in range(10, 1001, 42):    # even ladder: 10, 52, 94, ...
        points.append((m, residual(almost, seq, L, m)))
    assert decide_verdict(points, 0.01) == VERDICT_CONSISTENT
    _stamp(5, start, 5.0)


def test_acceptance_06_regularity():
    start = time.monotonic()
    assert check_regularity(cesaro_matrix(), 400).passed
    assert check_regularity(identity_matrix(), 400).passed
    rep = check_regularity(doubled_cesaro_matrix(), 400)
    assert rep.bounded_pass and rep.column_pass and not rep.row_sum_one_pass
    assert abs(rep.final_row_sum - 2.000) <= 1e-12
    _stamp(6, start, 2.0)


def test_acceptance_07_fejer_eigen_relations():
    start = time.monotonic()
    grid = Grid.circle(256)
    cos_s = sample(np.cos, grid)
    u = np.linspace(0.0, 2.0 * math.pi, 16385)
    for n in (9, 99):
        out = fejer_apply(n, [np.cos], grid)[0]
        shrunk = (n / (n + 1.0)) * cos_s
        assert sup_norm(out - shrunk) <= 1e-8
        # independent kernel-quadrature oracle at a few nodes
        for idx in (0, 64, 171):
            x = grid.nodes[idx]
            oracle = np.trapezoid(np.cos(u) * fejer_kernel(n, x - u), u) \
                / (2.0 * math.pi)
            assert out.values[idx] == pytest.approx(oracle, abs=1e-8)
    res = sup_norm(fejer_apply(99, [np.cos], grid)[0] - cos_s)
    assert abs(res - 0.01) <= 1e-8
    _stamp(7, start, 5.0)


def test_acceptance_08_modulus_validator():
    start = time.monotonic()
    assert is_modulus(SHIPPED_MODULI["sqrt"]).passed
    assert is_modulus(SHIPPED_MODULI["log1p"]).passed
    square = is_modulus(ModulusSpec("square", lambda x: np.asarray(x) ** 2))
    assert not square.subadditive
    assert square.subadditive_witness == (1.0, 1.0)
    rng = np.random.default_rng(0)
    ident = SHIPPED_MODULI["identity"]
    for _ in range(50):
        r = rng.uniform(0.0, 1.0, 300)
        a = f_statistical_from_norms(r, ident, 0.3, 300)
        b = statistical_from_norms(r, 0.3, 300)
        assert abs(a - b) <= 1e-12
    _stamp(8, start, 5.0)


def test_acceptance_09_proof_chain():
    start = time.monotonic()
    grid = Grid.unit(200)
    probes = [("t3", lambda t: np.asarray(t, float) ** 3),
              ("absdev", lambda t: np.abs(np.asarray(t, float) - 0.5)),
              ("expt", lambda t: np.exp(np.asarray(t, float)))]
    fine = Grid.unit(1000)   # eps=0.01 needs steps smaller than the jump of e^t
    for _, f in probes:
        for eps in (0.1, 0.01):
            budget = estimate_budget(f, fine, eps)
            assert check_pointwise_bound(f, budget, fine).passed
    ops = named_operator("bernstein", grid)
    testset = KorovkinTestSet.algebraic()
    for _, f in probes:
        pts = bound_ratio_curve(ops, f, testset, list(range(10, 201)))
        vals = [v for _, v in pts if not math.isnan(v)]
        assert vals and max(vals) / min(vals) <= 10.0
    _stamp(9, start, 30.0)


def test_acceptance_10_offset_invariance(tmp_path):
    start = time.monotonic()
    from korovkin_lab.scenarios import REGISTRY
    for name in sorted(REGISTRY):
        verdicts = {}
        for n0 in (0, 10):
            cfg, errors = validate_config(
                {"scenario": name, "n0": n0,
                 "output_dir": str(tmp_path / f"{name}-{n0}")})
            assert errors == []
            assert cli_run(cfg) == 0, f"{name} n0={n0}"
            report = json.loads(
                (tmp_path / f"{name}-{n0}" / "report.json").read_text())
            verdicts[n0] = report["verdicts"]
        assert verdicts[0] == verdicts[10], f"{name}: verdicts changed under offset"
    _stamp(10, start, 60.0)
