"""The benchmark's layer trace (perfbench/tracing.py) wraps library attributes
by name; this checks that every attribute it patches still exists, that a
traced probe records its spans, and that the wrappers are removed again."""

from pathlib import Path

import numpy as np
import pytest

from korovkin_lab import cli, funcspace, korovkin, operators, scenarios, summability
from korovkin_lab.funcspace import Grid
from korovkin_lab.korovkin import KorovkinTestSet
from korovkin_lab.operators import BernsteinOperators, FejerOperators
from korovkin_lab.summability import MethodSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OWNERS = (cli, funcspace.SampledFunction, korovkin, operators, scenarios,
          summability, summability.MatrixSpec)


def test_trace_wraps_this_tree_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    # the callables only: module state such as a lookup table may grow
    before = [{name: v for name, v in vars(owner).items() if callable(v)}
              for owner in OWNERS]
    registry = dict(scenarios.REGISTRY)
    with tracing.instrumented(tracing.Tracer()) as tr:
        # looked up on the module, as the benchmark does, so the wrapper runs
        korovkin.korovkin_probe(BernsteinOperators(Grid.unit(50)), MethodSpec("norm"),
                                KorovkinTestSet.algebraic(),
                                [("t3", lambda t: np.asarray(t) ** 3)], N=20, tau=0.05)
    spans = tr.totals()
    assert spans["operators.residual_table"][2] == 1
    assert spans["summability.method_curve"][2] == 4
    for owner, saved in zip(OWNERS, before):
        now = vars(owner)
        assert all(now.get(name) is value for name, value in saved.items()), owner
    assert all(scenarios.REGISTRY[name] is entry for name, entry in registry.items())


def test_trace_sees_each_fejer_kernel(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    with tracing.instrumented(tracing.Tracer()) as tr:
        korovkin.korovkin_probe(FejerOperators(Grid.circle(64)), MethodSpec("norm"),
                                KorovkinTestSet.trigonometric(),
                                [("sin2t", lambda t: np.sin(2.0 * np.asarray(t)))],
                                N=10, tau=0.1, indices=range(1, 11))
    spans = tr.totals()["operators.fejer"][2]
    assert spans == 10
    # one kernel per index, on the 411 distinct node differences at m = 64
    assert tr.counts["operators.fejer_kernel_elements"] == spans * 411


@pytest.mark.parametrize("fresh_testset", [False, True],
                         ids=["one-test-set", "fresh-test-set-per-call"])
def test_trace_counts_a_growing_probe_session(monkeypatch, fresh_testset):
    # the benchmark's library session reads its table counts off the tables
    # residual_table returns: N grows, then another method reuses the table;
    # a test set built per call holds the same evaluators, so it hits too
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    ops = BernsteinOperators(Grid.unit(50))
    testset = KorovkinTestSet.algebraic()
    probes = [("t3", lambda t: np.asarray(t) ** 3)]
    plan = [(MethodSpec("norm"), 20), (MethodSpec("norm"), 40),
            (MethodSpec("strong_wp", p=2.0), 40)]
    with tracing.instrumented(tracing.Tracer()) as tr:
        for method, N in plan:
            if fresh_testset:
                testset = KorovkinTestSet.algebraic()
            korovkin.korovkin_probe(ops, method, testset, probes, N=N, tau=0.05)
    assert tr.counts["operators.table_indices_built"] == 40
    assert tr.counts["operators.table_misses"] == 2
    assert tr.counts["operators.table_hits"] == 1
    # and the operator really ran once per index
    assert tr.totals()["operators.bernstein_dense"][2] == 40


@pytest.mark.parametrize("name", ["cesaro-matrix", "almost-alternating"])
def test_averaging_scenarios_build_their_stack_at_once(monkeypatch, name):
    # each runner plots one curve from one value stack: no function object
    # per term beyond the limit and the sampled inputs
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    cfg, errors = cli.validate_config({"scenario": name})
    assert errors == []
    with tracing.instrumented(tracing.Tracer()) as tr:
        result = scenarios.REGISTRY[name].runner(cfg)
    assert result.matched
    spans = tr.totals()
    assert spans["summability.method_curve"][2] == 1
    assert spans.get("funcspace.sampled_function", (0.0, 0.0, 0))[2] <= 2


def test_squeeze_audit_draws_once_per_seed(monkeypatch):
    # the benchmark's korovkin.squeeze_trial_norm span covers the whole norm
    # audit: one call per seed for all kinds, plus the planted-violation control
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    cfg, errors = cli.validate_config({"scenario": "squeeze-audit"})
    assert errors == []
    with tracing.instrumented(tracing.Tracer()) as tr:
        result = scenarios.REGISTRY["squeeze-audit"].runner(cfg)
    assert result.matched
    assert tr.totals()["korovkin.squeeze_trial_norm"][2] == 201
