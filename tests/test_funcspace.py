import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korovkin_lab.funcspace import (
    Grid,
    GridMismatchError,
    SampledFunction,
    TWO_PI,
    close,
    constant,
    sample,
    sup_norm,
    sup_values,
)

UNIT = Grid.unit(50)


def values(draw_floats=st.floats(-10.0, 10.0)):
    return st.lists(draw_floats, min_size=UNIT.n_nodes, max_size=UNIT.n_nodes)


class TestGrid:
    def test_unit_and_circle_defaults(self):
        u, c = Grid.unit(), Grid.circle()
        assert (u.a, u.b, u.m, u.periodic) == (0.0, 1.0, 200, False)
        assert c.periodic and c.m == 256
        assert c.b - c.a == pytest.approx(TWO_PI)

    def test_nodes_uniform_and_frozen(self):
        g = Grid.unit(10)
        assert np.allclose(np.diff(g.nodes), g.spacing)
        assert g.n_nodes == 11
        with pytest.raises(ValueError):
            g.nodes[0] = 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 3)
        with pytest.raises(ValueError, match="2\\*pi"):
            Grid(0.0, 6.0, 10, periodic=True)


class TestSampledFunction:
    def test_values_frozen_and_copied(self):
        raw = np.zeros(UNIT.n_nodes)
        f = SampledFunction(UNIT, raw)
        raw[0] = 99.0
        assert f.values[0] == 0.0
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            SampledFunction(UNIT, np.zeros(3))
        bad = np.zeros(UNIT.n_nodes)
        bad[7] = np.inf
        with pytest.raises(ValueError, match="node 7"):
            SampledFunction(UNIT, bad)

    def test_periodic_wrap_enforced(self):
        g = Grid.circle(8)
        v = np.arange(9, dtype=float)
        with pytest.raises(ValueError, match="wrap"):
            SampledFunction(g, v)
        v[-1] = v[0]
        SampledFunction(g, v)  # ok

    def test_arithmetic_checks_grids(self):
        f = constant(1.0, UNIT)
        g = constant(1.0, Grid.unit(60))
        with pytest.raises(GridMismatchError):
            f + g

    def test_json_round_trip(self):
        f = sample(lambda t: np.asarray(t, float) ** 2, UNIT)
        g = SampledFunction.from_json(f.to_json())
        assert g.grid == f.grid
        assert np.array_equal(g.values, f.values)

    def test_csv_header_and_precision(self):
        f = constant(1.0 / 3.0, UNIT)
        lines = f.to_csv().splitlines()
        assert lines[0] == "node,value"
        assert float(lines[1].split(",")[1]) == 1.0 / 3.0


class TestSampling:
    def test_vectorized_and_scalar_agree(self):
        vec = sample(lambda t: np.sin(np.asarray(t, float)), UNIT)
        scl = sample(lambda t: math.sin(t), UNIT)
        assert np.allclose(vec.values, scl.values, atol=0)

    def test_non_finite_rejected_with_node(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="t="):
                sample(lambda t: 1.0 / np.asarray(t, float), UNIT)


class TestNorm:
    def test_constant_norm(self):
        assert sup_norm(constant(-2.5, UNIT)) == 2.5

    def test_periodic_excludes_duplicate_endpoint(self):
        g = Grid.circle(8)
        v = np.zeros(9)
        v[0] = v[-1] = 3.0
        f = SampledFunction(g, v)
        # max over distinct nodes counts index 0 once; still 3
        assert sup_norm(f) == 3.0

    def test_stack_drops_periodic_endpoint_of_every_row(self):
        stack = np.zeros((3, 9))
        stack[:, -1] = 5.0
        stack[1, 4] = -2.0
        assert sup_values(stack, periodic=True) == 2.0
        assert sup_values(stack, periodic=False) == 5.0

    @given(values(), values())
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, xs, ys):
        f = SampledFunction(UNIT, xs)
        g = SampledFunction(UNIT, ys)
        assert sup_norm(f + g) <= sup_norm(f) + sup_norm(g) + 1e-12

    @given(values(), st.floats(-5.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_homogeneity(self, xs, c):
        f = SampledFunction(UNIT, xs)
        assert sup_norm(c * f) == pytest.approx(abs(c) * sup_norm(f), rel=1e-12)


class TestOrderAndLattice:
    def test_add_sub_scale(self):
        f = constant(2.0, UNIT)
        g = constant(3.0, UNIT)
        assert np.all((f + g).values == 5.0)
        assert np.all((f - g).values == -1.0)
        assert np.all((-2.0 * f).values == -4.0)


def test_close_combines_tolerances():
    assert close(1.0, 1.0 + 5e-11)
    assert not close(1.0, 1.1)
    assert close(1e8, 1e8 * (1 + 5e-11))
