import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korovkin_lab.funcspace import Grid, constant
from korovkin_lab.summability import (
    KINDS,
    ConnorCheck,
    IdealSpec,
    MatrixSpec,
    MethodSpec,
    SHIPPED_MODULI,
    ModulusSpec,
    VERDICT_CONSISTENT,
    VERDICT_INCONSISTENT,
    VERDICT_INDETERMINATE,
    a_statistical_from_norms,
    a_strong_from_norms,
    almost_from_values,
    cesaro_matrix,
    check_regularity,
    connor_cross_check,
    curve_indices,
    decide_verdict,
    doubled_cesaro_matrix,
    f_statistical_from_norms,
    f_strong_from_norms,
    identity_matrix,
    ideal_from_norms,
    is_modulus,
    matrix_from_values,
    method_curve,
    residual,
    statistical_from_norms,
    strong_wp_from_norms,
)

GRID = Grid.unit(50)
ZERO = constant(0.0, GRID)


def harmonic(N: int) -> np.ndarray:
    """Residual norms 1/k for k = 1..N."""
    return 1.0 / np.arange(1, N + 1)


def square_spiked(N: int) -> np.ndarray:
    """Residual norms 1 at the perfect squares, 1/k elsewhere, k = 1..N."""
    r = harmonic(N)
    r[np.arange(1, math.isqrt(N) + 1) ** 2 - 1] = 1.0
    return r


def alternating(N: int, offset: float = 0.0) -> np.ndarray:
    """Value stack whose term k is the constant offset + (-1)^k, k = 1..N."""
    return np.repeat(offset + (-1.0) ** np.arange(1, N + 1)[:, None], GRID.n_nodes,
                     axis=1)


class TestScalarResiduals:
    def test_norm_residual(self):
        # the identity matrix's row n reads the single residual at n
        pick = MethodSpec("a_strong", matrix=identity_matrix())
        assert residual(pick, harmonic(4), None, 4) == 0.25

    def test_statistical_counts_square_exceedances(self):
        # exceedances over eps=0.5 are exactly the isqrt(N) squares
        for N in (100, 2000, 10000):
            stat = MethodSpec("statistical", epsilon=0.5)
            assert residual(stat, square_spiked(N), None, N) == math.isqrt(N) / N

    def test_statistical_strict_inequality(self):
        r = np.array([0.5, 0.5 + 1e-9, 0.1, 0.9])
        assert statistical_from_norms(r, 0.5, 4) == 0.5

    def test_strong_wp_is_power_mean(self):
        r = harmonic(100)
        expect = sum((1.0 / k) ** 2 for k in range(1, 101)) / 100
        assert strong_wp_from_norms(r, 2.0, 100) == pytest.approx(expect, rel=1e-14)

    def test_offset_reindexes(self):
        # the identity matrix's row n reads the single residual at n + n0
        pick = MethodSpec("a_strong", matrix=identity_matrix())
        assert residual(pick, harmonic(15), None, 5, n0=10) == pytest.approx(1 / 15)
        assert residual(pick, harmonic(4), None, 1, n0=3) == 0.25

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            residual(MethodSpec("statistical", epsilon=0.0), harmonic(10), None, 10)
        with pytest.raises(ValueError):
            residual(MethodSpec("strong_wp", p=-1.0), harmonic(10), None, 10)

    @pytest.mark.parametrize("method", [MethodSpec("statistical", epsilon=0.5),
                                        MethodSpec("strong_wp", p=1.0)],
                             ids=["statistical", "strong_wp"])
    def test_short_table_rejected(self, method):
        # read short, the curve would end at 31/3000 (statistical) or the mean
        # of the first 1000 norms (strong_wp) instead of failing
        r = square_spiked(3000)
        with pytest.raises(ValueError, match=f"^{method.kind} at n=3000 reads 3000 "
                                             "table rows, the table has 1000$"):
            residual(method, r[:1000], None, 3000)
        with pytest.raises(ValueError, match="the table has 1000"):
            method_curve(method, r[:1000], N=3000, tau=0.05)

    def test_offset_counts_toward_table_rows(self):
        pick = MethodSpec("a_strong", matrix=identity_matrix())
        with pytest.raises(ValueError, match="reads 16 table rows, the table has 15"):
            residual(pick, harmonic(15), None, 5, n0=11)
        almost = MethodSpec("almost", almost_n_max=50)
        with pytest.raises(ValueError, match="reads 60 table rows, the table has 59"):
            residual(almost, alternating(59), ZERO, 10)


class TestMatrixMethods:
    def test_cesaro_row_reduces_to_mean(self):
        r = square_spiked(1500)
        diff = abs(a_strong_from_norms(r, cesaro_matrix(), 1500)
                   - strong_wp_from_norms(r, 1.0, 1500))
        assert diff <= 1e-12

    def test_identity_row_reduces_to_norm(self):
        r = harmonic(50)
        assert a_strong_from_norms(r, identity_matrix(), 37) == r[36]

    def test_zero_row_gives_zero(self):
        empty = MatrixSpec("null", lambda n: [])
        assert a_strong_from_norms(np.ones(10), empty, 3) == 0.0

    def test_a_statistical_uses_weak_inequality(self):
        # entries with residual exactly epsilon are counted
        A = identity_matrix()
        r = np.array([0.1, 0.5, 0.9])
        assert a_statistical_from_norms(r, A, 0.5, 2) == 1.0
        assert a_statistical_from_norms(r, A, 0.5, 1) == 0.0

    def test_residual_a_strong_matches_array_path(self):
        r = square_spiked(200)
        direct = residual(MethodSpec("a_strong", matrix=cesaro_matrix()), r, None, 200)
        assert direct == pytest.approx(a_strong_from_norms(r, cesaro_matrix(), 200),
                                       rel=1e-14)

    def test_apply_matrix_averages_nodewise(self):
        g = Grid.unit(10)
        seq = lambda k: constant(float(k), g)
        V = np.array([seq(k).values for k in range(1, 6)])
        out = matrix_from_values(V, cesaro_matrix(), 5)
        assert np.allclose(out, 3.0)

    def test_rows_read_each_row_support(self):
        # row n of this matrix reads columns n and n + 1
        ahead = MatrixSpec("ahead", lambda n: [(n, 0.5), (n + 1, 0.5)])
        for kind, extra in (("a_strong", {}), ("a_statistical", {"epsilon": 0.5}),
                            ("matrix", {})):
            spec = MethodSpec(kind, matrix=ahead, **extra)
            assert KINDS[kind].rows(spec, [10, 50, 20]) == 51
        empty = MethodSpec("a_strong", matrix=MatrixSpec("null", lambda n: []))
        assert KINDS["a_strong"].rows(empty, [7]) == 7

    @pytest.mark.parametrize("kind", ["a_strong", "a_statistical", "matrix"])
    def test_short_table_for_custom_rows_is_value_error(self, kind):
        rows = [[0.0] * (n - 1) + [0.5, 0.5] for n in range(1, 51)]
        extra = {"epsilon": 0.5} if kind == "a_statistical" else {}
        spec = MethodSpec.from_dict({"kind": kind, **extra,
                                     "matrix": {"name": "custom", "rows": rows}})
        table = np.ones((50, GRID.n_nodes)) if KINDS[kind].reads_values else np.ones(50)
        with pytest.raises(ValueError, match="reads 51 table rows, the table has 50"):
            residual(spec, table, ZERO, 50)
        assert residual(spec, table[:-1], ZERO, 48) >= 0.0

    def test_declared_row_sum_guard(self):
        bad = MatrixSpec("lossy", lambda n: [(1, 0.5)], declared_row_sum=1.0)
        with pytest.raises(ValueError, match="declared"):
            bad.row_entries(1)

    def test_negative_entries_rejected(self):
        bad = MatrixSpec("signed", lambda n: [(1, -0.1)])
        with pytest.raises(ValueError, match="negative"):
            bad.row_entries(1)


class TestIdeals:
    def test_zero_density_matches_statistical(self):
        r = square_spiked(2000)
        ideal = IdealSpec("zero_density")
        assert ideal_from_norms(r, ideal, 0.5, 2000) == \
            statistical_from_norms(r, 0.5, 2000)

    def test_finite_sets_tail_count(self):
        # squares in (1000, 2000]: 32^2 .. 44^2, thirteen of them, over N/2
        r = square_spiked(2000)
        assert ideal_from_norms(r, IdealSpec("finite_sets"), 0.5, 2000) == 13 / 1000

    def test_custom_density(self):
        ideal = IdealSpec("custom_density",
                          density=lambda members, N: len(members) / (2 * N))
        r = np.array([1.0, 0.0, 1.0, 0.0])
        assert ideal_from_norms(r, ideal, 0.5, 4) == 0.25

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            IdealSpec("cofinite")


class TestModulusMethods:
    def test_f_strong_harmonic_oracle(self):
        # residuals 1/k, f = sqrt: value is sqrt(H_N)/sqrt(N), H by summation
        N = 10_000
        H = sum(1.0 / k for k in range(1, N + 1))
        got = residual(MethodSpec("f_strong", modulus=SHIPPED_MODULI["sqrt"]),
                       harmonic(N), None, N)
        assert got == pytest.approx(math.sqrt(H) / 100.0, rel=1e-12)

    def test_identity_modulus_reduces_to_statistical(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            r = rng.uniform(0.0, 1.0, 200)
            a = f_statistical_from_norms(r, SHIPPED_MODULI["identity"], 0.3, 200)
            b = statistical_from_norms(r, 0.3, 200)
            assert abs(a - b) <= 1e-12

    def test_identity_modulus_f_strong_is_mean(self):
        r = np.linspace(0.0, 1.0, 100)
        a = f_strong_from_norms(r, SHIPPED_MODULI["identity"], 100)
        assert a == pytest.approx(np.mean(r), rel=1e-14)


class TestModulusValidator:
    @pytest.mark.parametrize("name", ["sqrt", "log1p", "identity"])
    def test_shipped_moduli_pass(self, name):
        assert is_modulus(SHIPPED_MODULI[name]).passed

    def test_square_fails_subadditivity_with_witness(self):
        report = is_modulus(ModulusSpec("square", lambda x: np.asarray(x) ** 2))
        assert not report.passed
        assert not report.subadditive
        assert report.subadditive_witness == (1.0, 1.0)

    def test_step_fails_right_continuity(self):
        step = ModulusSpec("step", lambda x: 0.0 if x == 0 else 1.0 + x)
        report = is_modulus(step)
        assert not report.right_continuous

    def test_bounded_fails_proxy(self):
        arctan = ModulusSpec("arctan", np.arctan)
        assert not is_modulus(arctan).unbounded_proxy


class TestRegularity:
    def test_cesaro_passes(self):
        assert check_regularity(cesaro_matrix(), 400).passed

    def test_identity_passes(self):
        assert check_regularity(identity_matrix(), 400).passed

    def test_doubled_cesaro_fails_only_row_sum(self):
        report = check_regularity(doubled_cesaro_matrix(), 400)
        assert report.bounded_pass and report.column_pass
        assert not report.row_sum_one_pass
        assert abs(report.final_row_sum - 2.0) <= 1e-12
        assert report.failures() and "(iii)" in report.failures()[0]


class TestVerdicts:
    def test_needs_eight_points(self):
        with pytest.raises(ValueError):
            decide_verdict([(n, 0.0) for n in range(1, 8)], 0.1)

    def test_requires_increasing_indices(self):
        pts = [(n, 0.0) for n in [1, 2, 3, 3, 5, 6, 7, 8]]
        with pytest.raises(ValueError):
            decide_verdict(pts, 0.1)

    def test_decaying_curve_is_consistent(self):
        pts = [(n, 1.0 / n) for n in curve_indices(1000)]
        assert decide_verdict(pts, 0.02) == VERDICT_CONSISTENT

    def test_flat_high_curve_is_inconsistent(self):
        pts = [(n, 1.0) for n in curve_indices(1000)]
        assert decide_verdict(pts, 0.02) == VERDICT_INCONSISTENT

    def test_decaying_above_tau_is_indeterminate(self):
        pts = [(n, 1.0 + 10.0 / n) for n in curve_indices(1000)]
        assert decide_verdict(pts, 0.02) == VERDICT_INDETERMINATE

    @given(st.floats(min_value=1e-3, max_value=0.5),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_scaling_decay_always_consistent(self, tau, power):
        pts = [(n, tau * 0.5 * (10.0 / n) ** power) for n in curve_indices(5000)]
        assert decide_verdict(pts, tau) == VERDICT_CONSISTENT


class TestCurves:
    def test_norm_curve_tracks_tail_supremum(self):
        c = method_curve(MethodSpec("norm"), square_spiked(3000), N=3000, tau=0.05)
        # every tail window (n/3, n] contains a perfect square
        assert all(v == 1.0 for _, v in c.points)
        assert c.verdict == VERDICT_INCONSISTENT

    def test_statistical_curve_consistent_on_spikes(self):
        c = method_curve(MethodSpec("statistical", epsilon=0.5), square_spiked(3000),
                         N=3000, tau=0.05)
        assert c.verdict == VERDICT_CONSISTENT
        assert c.points[-1] == (3000, math.isqrt(3000) / 3000)

    @pytest.mark.parametrize("n0", [0, 3, 10])
    def test_verdicts_offset_invariant(self, n0):
        r = square_spiked(3000 + n0)
        stat = method_curve(MethodSpec("statistical", epsilon=0.5), r,
                            N=3000, tau=0.05, n0=n0)
        norm = method_curve(MethodSpec("norm"), r, N=3000, tau=0.05, n0=n0)
        assert stat.verdict == VERDICT_CONSISTENT
        assert norm.verdict == VERDICT_INCONSISTENT

    def test_matrix_curve_on_alternating(self):
        # Cesaro means of 2 + (-1)^k hit the limit exactly at even rows
        L = constant(2.0, GRID)
        even = [2 * n for n in curve_indices(250)]
        c = method_curve(MethodSpec("matrix", matrix=cesaro_matrix()),
                         alternating(500, offset=2.0), L, N=500, tau=0.01,
                         indices=even)
        assert c.verdict == VERDICT_CONSISTENT
        assert max(v for _, v in c.points) <= 1e-12

    def test_almost_curve_on_alternating(self):
        even = [m for m in range(10, 1001, 2)][::12]
        m = MethodSpec("almost", almost_n_max=100)
        c = method_curve(m, alternating(even[-1] + 100), ZERO, N=1000, tau=0.01,
                         indices=even)
        # residual at even window length m is exactly 1/(m+1)
        for mm, v in c.points:
            assert v == pytest.approx(1.0 / (mm + 1), abs=1e-14)
        assert c.verdict == VERDICT_CONSISTENT

    def test_curve_csv_format(self):
        c = method_curve(MethodSpec("norm"), harmonic(100), N=100, tau=0.1)
        lines = c.to_csv().strip().splitlines()
        assert lines[0] == "n,residual"
        n, v = lines[1].split(",")
        assert int(n) == c.points[0][0]
        assert float(v) == c.points[0][1]


class TestAlmost:
    def test_alternating_exact_value(self):
        spec = MethodSpec("almost", almost_n_max=500)
        for m in (10, 100, 1000):
            got = residual(spec, alternating(m + 500), ZERO, m)
            assert got == pytest.approx(1.0 / (m + 1), abs=1e-13)

    def test_odd_window_cancels(self):
        spec = MethodSpec("almost", almost_n_max=50)
        assert residual(spec, alternating(61), ZERO, 11) <= 1e-14

    def test_short_stack_rejected(self):
        V = np.zeros((5, GRID.n_nodes))
        with pytest.raises(ValueError):
            almost_from_values(V, ZERO, 4, 3)


class TestMethodSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            MethodSpec("banach")
        with pytest.raises(ValueError):
            MethodSpec("statistical")          # missing epsilon
        with pytest.raises(ValueError):
            MethodSpec("strong_wp", p=0.0)
        with pytest.raises(ValueError):
            MethodSpec("a_strong")             # missing matrix
        with pytest.raises(ValueError):
            MethodSpec("almost")               # missing n_max

    @pytest.mark.parametrize("spec,field", [
        (dict(kind="norm", epsilon=0.5), "epsilon"),
        (dict(kind="strong_wp", p=2.0, epsilon=0.5), "epsilon"),
        (dict(kind="statistical", epsilon=0.5, matrix=cesaro_matrix()), "matrix"),
        (dict(kind="matrix", matrix=cesaro_matrix(), almost_n_max=5), "almost_n_max"),
    ], ids=["norm-epsilon", "strong_wp-epsilon", "statistical-matrix",
            "matrix-n_max"])
    def test_unread_field_rejected(self, spec, field):
        with pytest.raises(ValueError, match=f"^{spec['kind']} does not read {field!r}$"):
            MethodSpec(**spec)

    def test_json_round_trip(self):
        m = MethodSpec("f_statistical", epsilon=0.5,
                       modulus=SHIPPED_MODULI["sqrt"])
        m2 = MethodSpec.from_json(m.to_json())
        assert (m2.kind, m2.epsilon, m2.modulus.name) == ("f_statistical", 0.5, "sqrt")

    def test_named_matrix_from_json(self):
        m = MethodSpec.from_json(
            '{"kind": "a_strong", "matrix": {"name": "cesaro"}}')
        assert m.matrix.name == "cesaro"

    def test_custom_matrix_rows(self):
        m = MethodSpec.from_dict(
            {"kind": "matrix", "matrix": {"name": "custom",
                                          "rows": [[1.0], [0.5, 0.5]]}})
        j, a = m.matrix.row_entries(2)
        assert list(j) == [1, 2] and list(a) == [0.5, 0.5]

    def test_custom_matrix_round_trips(self):
        d = {"kind": "matrix", "matrix": {"name": "custom",
                                          "rows": [[1.0], [0.5, 0.5]]}}
        m = MethodSpec.from_dict(d)
        assert json.loads(m.to_json()) == d
        assert MethodSpec.from_json(m.to_json()) == m

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_every_kind_round_trips(self, kind):
        custom = {"name": "custom", "rows": [[1.0], [0.25, 0.75], [0.0, 0.5, 0.5]]}
        examples = {
            "norm": {},
            "statistical": {"epsilon": 0.5},
            "ideal": {"epsilon": 0.25, "ideal": {"kind": "finite_sets"}},
            "strong_wp": {"p": 1.5},
            "a_statistical": {"epsilon": 0.5, "matrix": custom},
            "a_strong": {"matrix": {"name": "cesaro"}},
            "f_statistical": {"epsilon": 0.5, "modulus": {"name": "log1p"}},
            "f_strong": {"modulus": {"name": "sqrt"}},
            "almost": {"almost": {"n_max": 20}},
            "matrix": {"matrix": {"name": "doubled-cesaro"}},
        }
        assert set(examples) == set(KINDS)
        m = MethodSpec.from_dict({"kind": kind, **examples[kind]})
        text = m.to_json()
        again = MethodSpec.from_json(text)
        assert again == m
        assert again.to_json() == text

    def test_specs_without_wire_form_rejected_by_field(self):
        custom_ideal = IdealSpec("custom_density",
                                 density=lambda members, N: len(members) / N)
        unshipped = ModulusSpec("square", lambda x: x * x)
        relabelled = MatrixSpec("cesaro", identity_matrix().row, 1.0)
        cases = [(MethodSpec("ideal", epsilon=0.5, ideal=custom_ideal), "ideal:"),
                 (MethodSpec("f_strong", modulus=unshipped), "modulus:"),
                 (MethodSpec("a_strong", matrix=relabelled), "matrix:")]
        for spec, field in cases:
            with pytest.raises(ValueError, match=f"^{field}"):
                spec.to_json()

    @pytest.mark.parametrize("d", [
        {"kind": "almost", "almost": {"m": 3, "n_max": 20}},
        {"kind": "norm", "window": 3},
        {"kind": "f_strong", "modulus": {"name": "sqrt", "scale": 2}},
    ])
    def test_unread_keys_rejected(self, d):
        with pytest.raises(ValueError, match="unknown key"):
            MethodSpec.from_dict(d)

    def test_unknown_modulus_rejected(self):
        with pytest.raises(ValueError, match="modulus"):
            MethodSpec.from_dict({"kind": "f_strong", "modulus": {"name": "exp"}})


class TestConnorCrossCheck:
    def test_no_hard_conflicts_and_design_agreement(self):
        checks = connor_cross_check(n_sequences=100, N=5000, tau=0.02, seed=0)
        assert len(checks) == 100
        assert not any(c.hard_conflict for c in checks)
        for c in checks:
            if c.convergent_design:
                assert c.statistical_verdict == VERDICT_CONSISTENT
                assert c.strong_wp_verdict == VERDICT_CONSISTENT
            else:
                assert c.statistical_verdict != VERDICT_CONSISTENT
                assert c.strong_wp_verdict != VERDICT_CONSISTENT
