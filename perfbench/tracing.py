"""Layer trace for the benchmark: spans and counters recorded from outside
the library.

Every span is opened by a wrapper that replaces a module attribute a caller
looks up at call time (``scenarios.residual_table`` as well as
``operators.residual_table``, for example), so nothing under ``src/``
changes.  The wrappers are installed only for a traced pass and removed
afterwards; untimed and untraced passes run the library unmodified.
"""

from __future__ import annotations

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np

# Bernstein indices up to this value take the dense weight-matrix path; the
# split is the library's documented dense/window switch
DENSE_LIMIT = 300


def window_width(n: int) -> int:
    """Width of the binomial window the windowed Bernstein path keeps at
    index n (six standard deviations at x = 1/2 plus a pad of 16 on each
    side).  Used only to report computed element counts."""
    return 2 * (int(6.0 * math.sqrt(0.25 * n)) + 16) + 1


class Tracer:
    """Spans (name, start, end, parent index) and named counters of one
    traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        # (id(ops), probe names) -> (ops, table length); the operator is held
        # so that its id cannot be reused within the pass
        self._tables: dict[tuple, tuple] = {}

    def call(self, name: str, fn, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """name -> (inclusive seconds, self seconds, calls).  Self time is a
        span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[float, float, int]] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            tot, own, calls = out.get(name, (0.0, 0.0, 0))
            out[name] = (tot + end - start, own + end - start - covered, calls + 1)
        return out

    def note_table(self, ops, probes, table) -> None:
        """Count the indices a residual-table call added, read off the
        returned table: a call that adds none is a hit."""
        names = tuple(nm for nm, _ in probes)
        key = (id(ops), names)
        before = self._tables.get(key, (ops, 0))[1]
        after = min(len(table.norms[nm]) for nm in names)
        self._tables[key] = (ops, after)
        built = max(after - before, 0)
        self.add("operators.table_indices_built", built)
        self.add("operators.table_misses" if built else "operators.table_hits")


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-pass layer metrics from one traced pass."""
    tot = tr.totals()

    def total(name):
        return tot.get(name, (0.0, 0.0, 0))[0]

    def own(name):
        return tot.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return tot.get(name, (0.0, 0.0, 0))[2]

    c = tr.counts
    return {
        "cli.validate_config_s": total("cli.validate_config"),
        "cli.write_outputs_s": total("cli.write_outputs"),
        "scenarios.runner_self_s": own("scenarios.runner"),
        "korovkin.korovkin_probe_self_s": own("korovkin.korovkin_probe"),
        "korovkin.counterexample_run_self_s": own("korovkin.counterexample_run"),
        "korovkin.squeeze_trial_norm_s": total("korovkin.squeeze_trial_norm"),
        "korovkin.squeeze_trial_order_s": total("korovkin.squeeze_trial_order"),
        "operators.bernstein_dense_s": total("operators.bernstein_dense"),
        "operators.bernstein_dense_calls": calls("operators.bernstein_dense"),
        "operators.bernstein_window_s": total("operators.bernstein_window"),
        "operators.bernstein_window_calls": calls("operators.bernstein_window"),
        "operators.bernstein_window_elements": c.get("operators.bernstein_window_elements", 0),
        "operators.fejer_s": total("operators.fejer"),
        "operators.fejer_calls": calls("operators.fejer"),
        "operators.fejer_kernel_elements": c.get("operators.fejer_kernel_elements", 0),
        "operators.residual_table_self_s": own("operators.residual_table"),
        "operators.table_indices_built": c.get("operators.table_indices_built", 0),
        "operators.table_hits": c.get("operators.table_hits", 0),
        "operators.table_misses": c.get("operators.table_misses", 0),
        "operators.positivity_audit_s": total("operators.positivity_audit"),
        "funcspace.sampled_functions": calls("funcspace.sampled_function"),
        "funcspace.sampled_function_s": total("funcspace.sampled_function"),
        "summability.method_curve_self_s": own("summability.method_curve"),
        "summability.method_curve_calls": calls("summability.method_curve"),
        "summability.decide_verdict_s": total("summability.decide_verdict"),
        "summability.row_entries_s": total("summability.row_entries"),
        "summability.row_entries_calls": calls("summability.row_entries"),
        "summability.almost_from_values_s": total("summability.almost_from_values"),
    }


@contextmanager
def instrumented(tr: Tracer):
    """Install the layer wrappers for the duration of the block."""
    from korovkin_lab import cli, funcspace, korovkin, operators, scenarios, summability

    def spanned(name, fn):
        def wrapper(*args, **kwargs):
            return tr.call(name, fn, args, kwargs)
        return wrapper

    def bernstein_batch(fn):
        def wrapper(n, f_evals, grid):
            if n <= DENSE_LIMIT:
                return tr.call("operators.bernstein_dense", fn, (n, f_evals, grid), {})
            interior = int(np.count_nonzero((grid.nodes > 0.0) & (grid.nodes < 1.0)))
            tr.add("operators.bernstein_window_elements",
                   len(f_evals) * interior * window_width(n))
            return tr.call("operators.bernstein_window", fn, (n, f_evals, grid), {})
        return wrapper

    def fejer_kernel(fn):
        def wrapper(n, u):
            tr.add("operators.fejer_kernel_elements", int(np.size(u)))
            return fn(n, u)
        return wrapper

    def residual_table(fn):
        def wrapper(ops, probes, *args, **kwargs):
            table = tr.call("operators.residual_table", fn, (ops, probes) + args, kwargs)
            tr.note_table(ops, probes, table)
            return table
        return wrapper

    patches = []   # (owner, attribute, replacement)

    def patch(owners, attr, make):
        wrapped = make(getattr(owners[0], attr))
        patches.extend((owner, attr, wrapped) for owner in owners)

    patch([cli], "validate_config", lambda f: spanned("cli.validate_config", f))
    patch([cli], "write_outputs", lambda f: spanned("cli.write_outputs", f))
    patch([korovkin, scenarios], "korovkin_probe",
          lambda f: spanned("korovkin.korovkin_probe", f))
    patch([korovkin, scenarios], "counterexample_run",
          lambda f: spanned("korovkin.counterexample_run", f))
    patch([korovkin, scenarios], "squeeze_trial_norm",
          lambda f: spanned("korovkin.squeeze_trial_norm", f))
    patch([korovkin, scenarios], "squeeze_trial_order",
          lambda f: spanned("korovkin.squeeze_trial_order", f))
    patch([operators], "bernstein_apply_batch", bernstein_batch)
    patch([operators], "fejer_apply", lambda f: spanned("operators.fejer", f))
    patch([operators], "fejer_kernel", fejer_kernel)
    patch([operators, korovkin, scenarios], "residual_table", residual_table)
    patch([operators, scenarios], "positivity_audit",
          lambda f: spanned("operators.positivity_audit", f))
    patch([funcspace.SampledFunction], "__post_init__",
          lambda f: spanned("funcspace.sampled_function", f))
    patch([summability, korovkin, scenarios], "method_curve",
          lambda f: spanned("summability.method_curve", f))
    patch([summability, korovkin], "decide_verdict",
          lambda f: spanned("summability.decide_verdict", f))
    patch([summability.MatrixSpec], "row_entries",
          lambda f: spanned("summability.row_entries", f))
    patch([summability], "almost_from_values",
          lambda f: spanned("summability.almost_from_values", f))

    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    registry = dict(scenarios.REGISTRY)
    try:
        for owner, attr, wrapped in patches:
            setattr(owner, attr, wrapped)
        for name, entry in registry.items():
            scenarios.REGISTRY[name] = dataclasses.replace(
                entry, runner=spanned("scenarios.runner", entry.runner))
        yield tr
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
        scenarios.REGISTRY.update(registry)
