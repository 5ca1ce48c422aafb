"""The benchmark's layer trace (perfbench/tracing.py) wraps library attributes
by name; this checks that every attribute it patches still exists, that a
traced probe records its spans, and that the wrappers are removed again."""

from pathlib import Path

import numpy as np

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
