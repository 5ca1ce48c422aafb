import math
import os
import platform
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korovkin_lab import operators
from korovkin_lab.funcspace import Grid, constant, sample, sup_norm
from korovkin_lab.korovkin import KorovkinTestSet
from korovkin_lab.operators import (
    BernsteinOperators,
    BinarySequence,
    FejerOperators,
    ModulatedOperators,
    MAX_BERNSTEIN_INDEX,
    bernstein_apply,
    fejer_apply,
    fejer_kernel,
    named_operator,
    perfect_squares,
    positivity_audit,
    residual_table,
)

GRID = Grid.unit(200)       # even subinterval count: contains x = 1/2
CIRCLE = Grid.circle(256)


def e0(t):
    return np.ones_like(np.asarray(t, dtype=float))


def e1(t):
    return np.asarray(t, dtype=float)


def e2(t):
    return np.asarray(t, dtype=float) ** 2


class TestBernsteinMoments:
    @pytest.mark.parametrize("n", [1, 2, 7, 50, 100])
    def test_constant_reproduced_exactly(self, n):
        out = bernstein_apply(n, e0, GRID)
        assert sup_norm(out - constant(1.0, GRID)) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 100])
    def test_identity_reproduced(self, n):
        out = bernstein_apply(n, e1, GRID)
        assert sup_norm(out - sample(e1, GRID)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 4, 25, 100])
    def test_parabola_moment_formula(self, n):
        # second moment: x^2 + (x - x^2)/n, so the residual peaks at 1/(4n)
        out = bernstein_apply(n, e2, GRID)
        expect = GRID.nodes ** 2 + (GRID.nodes - GRID.nodes ** 2) / n
        assert np.max(np.abs(out.values - expect)) <= 1e-12
        assert sup_norm(out - sample(e2, GRID)) == pytest.approx(1 / (4 * n),
                                                                 abs=1e-12)

    def test_residual_at_n_100_quarter_percent(self):
        out = bernstein_apply(100, e2, GRID)
        assert sup_norm(out - sample(e2, GRID)) == pytest.approx(0.0025,
                                                                 abs=1e-10)

    def test_endpooints_interpolated(self):
        f = lambda t: np.cos(3.0 * np.asarray(t, dtype=float))
        out = bernstein_apply(17, f, GRID)
        assert out.values[0] == pytest.approx(1.0, abs=1e-15)
        assert out.values[-1] == pytest.approx(math.cos(3.0), abs=1e-15)

    def test_windowed_path_matches_dense_path(self):
        # n just above and below the dense-evaluation cutoff must agree on
        # a probe with no special structure
        f = lambda t: np.exp(np.asarray(t, dtype=float)) \
            * np.sin(3.0 * np.asarray(t, dtype=float))
        coarse = Grid.unit(40)
        lo = bernstein_apply(300, f, coarse).values
        hi = bernstein_apply(301, f, coarse).values
        assert np.max(np.abs(hi - lo)) < 5e-3   # consecutive n, smooth drift
        # direct summation oracle at n=301 on a few nodes
        from scipy.stats import binom
        for x in (0.125, 0.5, 0.8):
            k = np.arange(302)
            oracle = float(binom.pmf(k, 301, x) @ f(k / 301))
            got = bernstein_apply(301, f, coarse).values[
                int(round(x * coarse.m))]
            assert got == pytest.approx(oracle, abs=1e-12)

    def test_non_finite_node_value_named(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match=r"t=0\.0\b"):
                bernstein_apply(5, lambda t: 1.0 / np.asarray(t, dtype=float), GRID)

    def test_validation(self):
        with pytest.raises(ValueError):
            bernstein_apply(0, e0, GRID)
        with pytest.raises(ValueError):
            bernstein_apply(MAX_BERNSTEIN_INDEX + 1, e0, GRID)
        with pytest.raises(ValueError):
            bernstein_apply(5, e0, Grid.circle())


class TestFirstBernsteinUse:
    def test_log_factorial_table(self):
        from scipy.special import gammaln
        table = operators._log_factorial()
        assert np.array_equal(
            table, gammaln(np.arange(1, MAX_BERNSTEIN_INDEX + 2, dtype=float)))
        assert not table.flags.writeable
        assert operators._log_factorial() is table

    def test_first_call_from_threads(self):
        # more threads than cores, released together on an empty cache, with
        # a short switch interval to interleave the cache fill
        expect = operators._log_factorial().copy()
        operators._log_factorial.cache_clear()
        start = threading.Barrier(4)
        outs = [None] * 4

        def work(i):
            start.wait(timeout=30)
            outs[i] = operators._log_factorial()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for got in outs:
            assert np.array_equal(got, expect) and not got.flags.writeable

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the allocator priming acts on glibc malloc")
    def test_windowed_path_does_not_refault(self):
        # each windowed index frees a few MB of temporaries; were they handed
        # back to the kernel between indices, this run would make ~800k
        # minor faults
        script = ("import resource\n"
                  "from korovkin_lab.korovkin import counterexample_run\n"
                  "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                  "counterexample_run(4000, 0.5, grid_m=100)\n"
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt"
                  " - before)\n")
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) < 100_000


class TestBernsteinProperties:
    @given(st.integers(1, 80), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, n, a, b):
        f = lambda t: a * np.asarray(t, float) + b * np.asarray(t, float) ** 2
        lhs = bernstein_apply(n, f, GRID).values
        rhs = a * bernstein_apply(n, e1, GRID).values \
            + b * bernstein_apply(n, e2, GRID).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * (1 + abs(a) + abs(b))

    @given(st.integers(1, 80))
    @settings(max_examples=30, deadline=None)
    def test_positivity_and_bound(self, n):
        f = lambda t: 0.5 + 0.5 * np.sin(7.0 * np.asarray(t, float))
        out = bernstein_apply(n, f, GRID).values
        assert np.min(out) >= -1e-12
        assert np.max(out) <= 1.0 + 1e-12


class TestFejer:
    def test_kernel_nonnegative_and_normalized(self):
        u = np.linspace(-math.pi, math.pi, 4097)
        for n in (0, 1, 5, 32):
            k = fejer_kernel(n, u)
            assert np.min(k) >= -1e-12
            # mean over the period is 1
            assert np.trapezoid(k, u) / (2 * math.pi) == pytest.approx(1.0,
                                                                       abs=1e-4)

    @pytest.mark.parametrize("n", [9, 99])
    def test_eigen_relation_cos_sin(self, n):
        shrink = n / (n + 1)
        for f, name in ((np.cos, "cos"), (np.sin, "sin")):
            out = fejer_apply(n, [f], CIRCLE)[0]
            expect = shrink * sample(f, CIRCLE).values
            assert np.max(np.abs(out.values - expect)) <= 1e-10

    def test_constant_fixed(self):
        out = fejer_apply(25, [lambda t: 2.0], CIRCLE)[0]
        assert sup_norm(out - constant(2.0, CIRCLE)) <= 1e-12

    def test_quadrature_oracle(self):
        # independent dense-trapezoid convolution oracle
        n = 9
        f = lambda t: np.sin(2.0 * t) + 0.3 * np.cos(t)
        out = fejer_apply(n, [f], CIRCLE)[0]
        u = np.linspace(0.0, 2.0 * math.pi, 16385)
        for idx in (0, 50, 128, 200):
            x = CIRCLE.nodes[idx]
            integrand = f(u) * fejer_kernel(n, x - u)
            oracle = np.trapezoid(integrand, u) / (2.0 * math.pi)
            assert out.values[idx] == pytest.approx(oracle, abs=1e-8)

    def test_requires_periodic_grid(self):
        with pytest.raises(ValueError):
            fejer_apply(3, [e0], GRID)

    @pytest.mark.parametrize("m", [4, 5, 7, 64, 255, 256, 257, 512])
    def test_gathered_kernel_is_the_dense_kernel(self, m):
        grid = Grid.circle(m)
        t = grid.nodes[:-1]
        diffs, where = operators._node_differences(grid)
        for n in (0, 1, 9, 99, 127, 128, 250, 1000):
            dense = fejer_kernel(n, t[:, None] - t[None, :])
            assert np.array_equal(fejer_kernel(n, diffs)[where], dense)

    def test_node_differences_cached_and_read_only(self):
        diffs, where = cached = operators._node_differences(Grid.circle(64))
        assert operators._node_differences(Grid.circle(64)) is cached
        for arr in (diffs, where):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_first_call_from_threads(self):
        # more threads than cores, released together on an empty cache, with
        # a short switch interval to interleave the cache fill
        grid = Grid.circle(300)
        fs = [np.cos, lambda t: np.sin(2.0 * t)]
        t = grid.nodes[:-1]
        K = fejer_kernel(17, t[:, None] - t[None, :])
        expect = [K @ f(t) / grid.m for f in fs]
        operators._node_differences.cache_clear()
        start = threading.Barrier(4)
        outs = [None] * 4

        def work(i):
            start.wait(timeout=30)
            outs[i] = [out.values[:-1] for out in fejer_apply(17, fs, grid)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for got in outs:
            assert all(np.array_equal(g, e) for g, e in zip(got, expect))


class TestModulated:
    def test_doubles_exactly_on_squares(self):
        ops = ModulatedOperators(named_operator("bernstein", GRID), perfect_squares())
        for n in (4, 9, 16, 100):
            out = ops.apply_batch(n, [e0])[0]
            assert sup_norm(out - constant(2.0, GRID)) == 0.0
        for n in (2, 3, 5, 99):
            out = ops.apply_batch(n, [e0])[0]
            assert sup_norm(out - constant(1.0, GRID)) == 0.0

    def test_membership_sequence(self):
        z = perfect_squares()
        hits = [n for n in range(1, 101) if z(n)]
        assert hits == [k * k for k in range(1, 11)]

    def test_custom_binary_sequence(self):
        z = BinarySequence(lambda n: n % 3 == 0, "multiples of three")
        assert [z(n) for n in range(1, 7)] == [0, 0, 1, 0, 0, 1]


class TestNamedOperators:
    def test_names(self):
        assert isinstance(named_operator("bernstein"), BernsteinOperators)
        assert isinstance(named_operator("fejer"), FejerOperators)
        assert isinstance(named_operator("modulated-squares"), ModulatedOperators)
        with pytest.raises(ValueError, match="unknown operator"):
            named_operator("volterra")

    @pytest.mark.parametrize("name,grid,indices,fs", [
        ("bernstein", GRID, (37, 4000),
         [e0, e1, e2, lambda t: np.exp(2.0 * t), lambda t: 0.7]),
        ("fejer", CIRCLE, (9, 99),
         [*KorovkinTestSet.trigonometric().evals, lambda t: np.sin(2.0 * t)]),
        ("modulated-squares", GRID, (16, 17), [e0, e1, e2]),
    ], ids=["bernstein", "fejer", "modulated-squares"])
    def test_batch_matches_single(self, name, grid, indices, fs):
        ops = named_operator(name, grid)
        for n in indices:
            outs = ops.apply_batch(n, fs)
            assert len(outs) == len(fs)
            for f, out in zip(fs, outs):
                assert np.array_equal(out.values, ops.apply_batch(n, [f])[0].values)

    @pytest.mark.parametrize("name,indices", [("bernstein", range(1, 12)),
                                              ("fejer", range(0, 11)),
                                              ("modulated-squares", range(1, 12))])
    def test_positivity_audit_passes(self, name, indices):
        ops = named_operator(name)
        report = positivity_audit(ops, indices, trials=4, seed=7)
        assert report.passed
        assert report.witness is None

    def test_batched_audit_keeps_the_draws(self):
        # replay the audit's rng draws and apply each probe on its own
        ops = named_operator("fejer")
        grid = ops.grid
        report = positivity_audit(ops, range(0, 11), trials=5, seed=7)
        rng = np.random.default_rng(7)
        expect = []
        for n in range(0, 11):
            lows = []
            for _ in range(5):
                nb = int(rng.integers(4, 10))
                xs = np.sort(rng.uniform(grid.a, grid.b, nb))
                xs = np.concatenate(([grid.a], xs, [grid.b]))
                ys = rng.uniform(0.0, 1.0, len(xs))
                ys[-1] = ys[0]
                probe = lambda t, xs=xs, ys=ys: np.interp(t, xs, ys)
                lows.append(float(np.min(fejer_apply(n, [probe], grid)[0].values)))
            expect.append(min(lows))
        assert report.min_values == expect


class TestResidualTable:
    def test_norms_match_direct_computation(self):
        ops = named_operator("bernstein", GRID)
        lim = sample(e2, GRID)
        table = residual_table(ops, [("e2", e2)], [lim], 30)
        for n in (1, 7, 30):
            direct = sup_norm(bernstein_apply(n, e2, GRID) - lim)
            assert table.norms["e2"][n - 1] == direct

    def test_incremental_extension_consistent(self):
        ops = named_operator("bernstein", GRID)
        lim = sample(e2, GRID)
        first = residual_table(ops, [("e2", e2)], [lim], 20).norms["e2"].copy()
        second = residual_table(ops, [("e2", e2)], [lim], 40).norms["e2"]
        assert np.array_equal(second[:20], first)
        assert len(second) == 40

    def test_cache_keyed_by_limit_values(self):
        ops = named_operator("bernstein", GRID)
        first = residual_table(ops, [("f", e2)], [sample(e2, GRID)], 10).norms["f"]
        zero = constant(0.0, GRID)
        second = residual_table(ops, [("f", e2)], [zero], 10).norms["f"]
        for n in (1, 10):
            assert second[n - 1] == sup_norm(bernstein_apply(n, e2, GRID) - zero)
        assert not np.array_equal(first, second)

    def test_probe_given_twice_fills_one_row_per_index(self):
        ops = named_operator("bernstein", GRID)
        lim = sample(e2, GRID)
        table = residual_table(ops, [("a", e2), ("b", e2)], [lim, lim], 10,
                               keep_values=True)
        assert len(table.norms["a"]) == 10 and len(table.values["b"]) == 10
        assert table.norms["a"][9] == sup_norm(bernstein_apply(10, e2, GRID) - lim)

    def test_probes_and_limits_must_pair_up(self):
        ops = named_operator("bernstein", GRID)
        with pytest.raises(ValueError):
            residual_table(ops, [("a", e2), ("b", e1)], [sample(e2, GRID)], 5)

    def test_values_kept_on_request(self):
        ops = named_operator("bernstein", Grid.unit(10))
        lim = sample(e1, ops.grid)
        table = residual_table(ops, [("e1", e1)], [lim], 5, keep_values=True)
        assert table.values["e1"].shape == (5, 11)
        assert np.allclose(table.values["e1"][2], lim.values, atol=1e-12)
