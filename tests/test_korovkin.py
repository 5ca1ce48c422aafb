import json
import math

import numpy as np
import pytest

from korovkin_lab.funcspace import Grid, sample
from korovkin_lab.korovkin import (
    ContinuityBudget,
    KorovkinTestSet,
    STATUS_FAIL,
    STATUS_HYPOTHESIS,
    STATUS_PASS,
    bound_ratio_curve,
    check_pointwise_bound,
    counterexample_run,
    estimate_budget,
    korovkin_probe,
    projection_control,
    squeeze_trial_norm,
    squeeze_trial_order,
    _squeeze_norm_sequences,
)
from korovkin_lab.operators import BernsteinOperators, OperatorSequence, named_operator
from korovkin_lab.summability import (
    IdealSpec,
    MatrixSpec,
    MethodSpec,
    SHIPPED_MODULI,
    VERDICT_CONSISTENT,
    VERDICT_INCONSISTENT,
    _a_strong_row_violations,
    cesaro_matrix,
    identity_matrix,
)

GRID = Grid.unit(200)
ALGEBRAIC = KorovkinTestSet.algebraic()


def t3(t):
    return np.asarray(t, dtype=float) ** 3


def expt(t):
    return np.exp(np.asarray(t, dtype=float))


class TestTestSets:
    def test_flavor_grid_matching(self):
        with pytest.raises(ValueError):
            KorovkinTestSet.trigonometric().check_grid(GRID)
        with pytest.raises(ValueError):
            KorovkinTestSet.algebraic().check_grid(Grid.circle())

    def test_sampled_triple(self):
        e0, e1, e2 = ALGEBRAIC.sampled(GRID)
        assert np.all(e0.values == 1.0)
        assert np.allclose(e2.values, e1.values ** 2)


class TestContinuityBudget:
    def test_constant_uses_full_span(self):
        b = estimate_budget(lambda t: np.ones_like(np.asarray(t, float)), GRID, 0.1)
        assert b.M == 1.0
        assert b.delta == pytest.approx(1.0)
        assert b.C == pytest.approx(max(0.1 + 1.0, 2.0 / b.delta ** 2))

    def test_lipschitz_one(self):
        b = estimate_budget(lambda t: np.asarray(t, float), GRID, 0.1)
        assert b.delta == pytest.approx(0.1, abs=2 * GRID.spacing)

    def test_lipschitz_two(self):
        # |t^2 - x^2| <= 2|t - x| on [0,1]; exhaustive pair scan oracle
        b = estimate_budget(lambda t: np.asarray(t, float) ** 2, GRID, 0.1)
        v = GRID.nodes ** 2
        gap = np.abs(v[:, None] - v[None, :])
        dist = np.abs(GRID.nodes[:, None] - GRID.nodes[None, :])
        assert np.max(gap[dist <= b.delta + 1e-15]) <= 0.1
        assert b.delta == pytest.approx(0.05, abs=2 * GRID.spacing)

    def test_oscillation_rejected(self):
        wild = lambda t: np.cos(1000.0 * np.asarray(t, float))
        with pytest.raises(ValueError, match="delta"):
            estimate_budget(wild, GRID, 0.01)


class TestPointwiseBound:
    def test_constant_slack_is_epsilon(self):
        f = lambda t: np.ones_like(np.asarray(t, float))
        b = estimate_budget(f, GRID, 0.1)
        r = check_pointwise_bound(f, b, GRID)
        assert r.passed and r.min_slack == pytest.approx(0.1)

    def test_estimated_budget_always_passes(self):
        for f in (t3, expt, lambda t: np.abs(np.asarray(t, float) - 0.5)):
            b = estimate_budget(f, GRID, 0.1)
            assert check_pointwise_bound(f, b, GRID).passed

    def test_tampered_budget_fails_with_witness(self):
        f = lambda t: np.asarray(t, float) ** 2
        bad = ContinuityBudget(epsilon=0.1, delta=1.0, M=0.01, C=0.11)
        r = check_pointwise_bound(f, bad, GRID)
        assert not r.passed
        t, x = r.worst_pair
        assert abs(f(np.array(t)) - f(np.array(x))) > \
            bad.epsilon + 2 * bad.M / bad.delta ** 2 * (t - x) ** 2


class TestBoundRatios:
    def test_probe_in_test_set_stays_below_one(self):
        ops = named_operator("bernstein", GRID)
        pts = bound_ratio_curve(ops, ALGEBRAIC.evals[2], ALGEBRAIC, [5, 10, 20])
        assert all(v <= 1.0 + 1e-12 for _, v in pts)

    def test_cubic_ratios_bounded(self):
        ops = named_operator("bernstein", GRID)
        pts = bound_ratio_curve(ops, t3, ALGEBRAIC, list(range(5, 51)))
        vals = [v for _, v in pts]
        assert all(not math.isnan(v) for v in vals)
        assert max(vals) < 2.0
        # oracle at n=10: both sides computed directly
        from korovkin_lab.operators import bernstein_apply
        from korovkin_lab.funcspace import sup_norm
        num = sup_norm(bernstein_apply(10, t3, GRID) - sample(t3, GRID))
        e2 = ALGEBRAIC.evals[2]
        den = sup_norm(bernstein_apply(10, e2, GRID) - sample(e2, GRID))
        got = dict(pts)[10]
        assert got == pytest.approx(num / den, rel=1e-9)

    def test_exact_operator_gives_undefined_ratio(self):
        class Exact(OperatorSequence):
            def apply_batch(self, n, f_evals):
                return [sample(f, self.grid) for f in f_evals]

        pts = bound_ratio_curve(Exact(GRID), t3, ALGEBRAIC, [5, 6])
        assert all(math.isnan(v) for _, v in pts)

    def test_matches_probe_ratios(self):
        indices = list(range(5, 51, 5))
        probed = korovkin_probe(named_operator("bernstein", GRID), MethodSpec("norm"),
                                ALGEBRAIC, [("t3", t3)], N=50, tau=0.02,
                                indices=indices)
        pts = bound_ratio_curve(named_operator("bernstein", GRID), t3, ALGEBRAIC,
                                indices)
        assert pts == probed.bound_ratios


class TestKorovkinProbe:
    def test_bernstein_norm_all_consistent(self):
        ops = named_operator("bernstein", GRID)
        rep = korovkin_probe(ops, MethodSpec("norm"), ALGEBRAIC,
                             [("t3", t3), ("expt", expt)], N=200, tau=0.02)
        assert all(c.verdict == VERDICT_CONSISTENT
                   for c in rep.test_curves.values())
        assert all(c.verdict == VERDICT_CONSISTENT
                   for c in rep.probe_curves.values())
        assert rep.verdict_equivalence

    def test_modulated_norm_vacuous_equivalence(self):
        ops = named_operator("modulated-squares", GRID)
        rep = korovkin_probe(ops, MethodSpec("norm"), ALGEBRAIC,
                             [("e0_again", ALGEBRAIC.evals[0])], N=2000, tau=0.05)
        assert all(c.verdict == VERDICT_INCONSISTENT
                   for c in rep.test_curves.values())
        assert rep.verdict_equivalence  # both sides fail together

    def test_modulated_statistical_consistent(self):
        ops = named_operator("modulated-squares", GRID)
        rep = korovkin_probe(ops, MethodSpec("statistical", epsilon=0.1),
                             ALGEBRAIC, [("t3", t3)], N=2000, tau=0.05)
        assert all(c.verdict == VERDICT_CONSISTENT
                   for c in rep.test_curves.values())
        assert rep.verdict_equivalence

    def test_cache_keyed_by_evaluator_not_name(self):
        # two probes share the name "p" on one operator; the second must not
        # read the first one's cached residuals
        exp5 = lambda t: np.exp(5.0 * np.asarray(t, dtype=float))
        ops = BernsteinOperators(Grid.unit(200))
        korovkin_probe(ops, MethodSpec("norm"), ALGEBRAIC, [("p", t3)],
                       N=200, tau=0.02)
        reused = korovkin_probe(ops, MethodSpec("norm"), ALGEBRAIC,
                                [("p", exp5)], N=200, tau=0.02)
        fresh = korovkin_probe(BernsteinOperators(Grid.unit(200)),
                               MethodSpec("norm"), ALGEBRAIC, [("p", exp5)],
                               N=200, tau=0.02)
        assert reused.probe_curves["p"].points == fresh.probe_curves["p"].points
        assert reused.probe_curves["p"].points[-1][1] == pytest.approx(1.665, abs=1e-3)

    @pytest.mark.parametrize("probes,name", [
        ([("e0", t3)], "e0"),
        ([("p", t3), ("p", np.exp)], "p"),
    ], ids=["test-set-name", "probe-name"])
    def test_repeated_probe_name_rejected(self, probes, name):
        # a repeated name lets one limit replace another: a probe "e0" ended
        # the e0 test curve at 1.0, and two probes "p" gave one "p" curve
        ops = named_operator("bernstein", Grid.unit(50))
        with pytest.raises(ValueError, match=f"probe '{name}'"):
            korovkin_probe(ops, MethodSpec("norm"), ALGEBRAIC, probes,
                           N=50, tau=0.02)
        rep = korovkin_probe(ops, MethodSpec("norm"), ALGEBRAIC, [("c", t3)],
                             N=50, tau=0.02)
        assert rep.test_curves["e0"].points[-1][1] == 0.0

    def test_json_and_csv_bundle(self):
        ops = named_operator("bernstein", GRID)
        rep = korovkin_probe(ops, MethodSpec("norm"), ALGEBRAIC,
                             [("t3", t3)], N=200, tau=0.02)
        d = json.loads(rep.to_json())
        assert d["verdict_equivalence"] is True
        assert set(d["test_curves"]) == {"e0", "e1", "e2"}
        bundle = rep.to_csv_bundle()
        assert {"test_0.csv", "test_1.csv", "test_2.csv",
                "probe_t3.csv", "ratios.csv"} <= set(bundle)
        assert bundle["ratios.csv"].startswith("n,ratio\n")


def a_strong_rows_generic(A, a, b, c, d, C, N):
    """Row-loop oracle: 0-based indices of the rows n <= N where
    sum_j alpha_nj d_j > C sum_j alpha_nj (a+b+c)_j."""
    s = a + b + c
    bad = []
    for n in range(1, N + 1):
        j, w = A.row_entries(n)
        lhs = w @ d[j - 1] if len(j) else 0.0
        rhs = C * (w @ s[j - 1]) if len(j) else 0.0
        if lhs > rhs + 1e-10 * (1.0 + abs(rhs)):
            bad.append(n - 1)
    return np.array(bad, dtype=int)


NORM_METHODS = [
    MethodSpec("statistical", epsilon=0.5),
    MethodSpec("ideal", epsilon=0.5, ideal=IdealSpec("zero_density")),
    MethodSpec("strong_wp", p=1.5),
    MethodSpec("a_strong", matrix=cesaro_matrix()),
    MethodSpec("a_statistical", epsilon=0.5, matrix=identity_matrix()),
    MethodSpec("f_statistical", epsilon=0.5, modulus=SHIPPED_MODULI["sqrt"]),
    MethodSpec("f_strong", modulus=SHIPPED_MODULI["log1p"]),
]


class TestSqueezeNorm:
    @pytest.mark.parametrize("method", NORM_METHODS, ids=lambda m: m.kind)
    def test_hundred_seeds_pass(self, method):
        for seed in range(100):
            assert squeeze_trial_norm(method, 2.0, seed, N=500).status == STATUS_PASS

    @pytest.mark.parametrize("C", [1.0, 2.0, 10.0])
    def test_statistical_inclusion_across_constants(self, C):
        m = MethodSpec("statistical", epsilon=0.5)
        for seed in range(50):
            assert squeeze_trial_norm(m, C, seed, N=500).status == STATUS_PASS

    def test_tamper_reports_hypothesis_violation(self):
        m = MethodSpec("statistical", epsilon=0.5)
        r = squeeze_trial_norm(m, 2.0, 3, N=500, tamper=True)
        assert r.status == STATUS_HYPOTHESIS
        assert "index" in r.detail

    def test_unsupported_kind_named(self):
        with pytest.raises(ValueError, match="norm"):
            squeeze_trial_norm(MethodSpec("norm"), 1.0, 0)

    def test_a_strong_fast_paths_match_generic(self):
        a, b, c, d = _squeeze_norm_sequences(2.0, 11, 300)
        d[37] *= 100.0  # force some violations so both paths must agree on them
        for A in (cesaro_matrix(), identity_matrix()):
            fast = _a_strong_row_violations(A, a, b, c, d, 2.0, 300)
            ref = a_strong_rows_generic(A, a, b, c, d, 2.0, 300)
            assert np.array_equal(fast, ref)

    def test_a_strong_fast_path_chosen_by_rows_not_name(self):
        # identity rows under the Cesaro name must not take the Cesaro form
        a, b, c, d = _squeeze_norm_sequences(2.0, 11, 300)
        d[37] *= 100.0
        relabelled = MatrixSpec("cesaro", identity_matrix().row, 1.0)
        got = _a_strong_row_violations(relabelled, a, b, c, d, 2.0, 300)
        ref = a_strong_rows_generic(relabelled, a, b, c, d, 2.0, 300)
        assert list(ref) == [37]
        assert np.array_equal(got, ref)


class TestSqueezeOrder:
    @pytest.mark.parametrize("N", [300, 400])
    def test_almost_windows(self, N):
        # every window length on the ladder 10..N-50, at every start 1..50
        spec = MethodSpec("almost", almost_n_max=50)
        for seed in range(20):
            assert squeeze_trial_order(spec, 2.0, seed, N=N).status == STATUS_PASS

    @pytest.mark.parametrize("A", [cesaro_matrix(), identity_matrix()],
                             ids=lambda a: a.name)
    def test_matrices(self, A):
        spec = MethodSpec("matrix", matrix=A)
        for seed in range(20):
            assert squeeze_trial_order(spec, 2.0, seed, N=300).status == STATUS_PASS

    def test_degenerate_C_zero(self):
        for spec in (MethodSpec("matrix", matrix=cesaro_matrix()),
                     MethodSpec("almost", almost_n_max=50)):
            assert squeeze_trial_order(spec, 0.0, 5, N=300).status == STATUS_PASS

    def test_unsupported_kind_named(self):
        with pytest.raises(ValueError, match="statistical"):
            squeeze_trial_order(MethodSpec("statistical", epsilon=0.5), 1.0, 0)


class TestProjectionControl:
    def test_preservation_fails(self):
        r = projection_control()
        assert r.domination_holds
        assert r.xyz_projection_residual <= 1e-12
        assert r.w_projection_residual > 0.01
        assert r.preservation_fails


class TestCounterexample:
    def test_small_run_separates(self):
        rep = counterexample_run(2000, 0.5)
        assert rep.separates
        # exceedance density is exactly the square count over N
        for nm in ("e0", "e1", "e2"):
            assert rep.statistical_residuals[nm] == math.isqrt(2000) / 2000
        # classical residual is exactly 1 at every square index
        for nm, pairs in rep.square_residuals.items():
            assert len(pairs) == math.isqrt(2000)
            for n, v in pairs:
                assert math.isqrt(n) ** 2 == n
                assert v == pytest.approx(1.0, abs=1e-12)

    def test_large_epsilon_sees_nothing(self):
        # the exceedances have magnitude exactly 1, so a 1.5 threshold counts
        # none of them; the report flags the blindness instead of erroring
        rep = counterexample_run(500, 1.5)
        assert rep.statistical_residuals["e0"] == 0.0
        assert rep.epsilon_blind
        assert not counterexample_run(500, 0.5).epsilon_blind

    def test_validation(self):
        with pytest.raises(ValueError):
            counterexample_run(50, 0.5)
        with pytest.raises(ValueError):
            counterexample_run(200, -0.5)
        with pytest.raises(ValueError):
            counterexample_run(200, 0.5, grid_m=201)
