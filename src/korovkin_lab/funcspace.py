"""Discretized function space: uniform grids, sampled functions and the sup
norm.

A :class:`SampledFunction` is the artifact's stand-in for a continuous
function on [0, 1] or on the 2*pi-periodic line: a vector of node values on a
uniform grid.  All operations are pure and all objects are immutable, so
everything here is safe to share across threads.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

TWO_PI = 2.0 * math.pi

#: default absolute / relative tolerances used throughout the package
DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-10


def close(x: float, y: float, atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> bool:
    """Combined absolute+relative comparison: |x-y| <= atol + rtol*max(|x|,|y|)."""
    return abs(x - y) <= atol + rtol * max(abs(x), abs(y))


class GridMismatchError(ValueError):
    """Raised when two sampled functions live on different grids."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid with m+1 nodes on [a, b].

    Periodic grids model the 2*pi-periodic line: the last node is identified
    with the first, and norms/quadratures drop the duplicate endpoint.
    """

    a: float
    b: float
    m: int
    periodic: bool = False

    def __post_init__(self):
        if not (self.a < self.b):
            raise ValueError(f"grid endpoints must satisfy a < b, got a={self.a}, b={self.b}")
        if self.m < 4:
            raise ValueError(f"grid needs at least 4 subintervals, got m={self.m}")
        if self.periodic and not close(self.b - self.a, TWO_PI, atol=0.0, rtol=1e-12):
            raise ValueError("periodic grids must span exactly 2*pi")

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.linspace(self.a, self.b, self.m + 1)
        x.flags.writeable = False
        return x

    @property
    def spacing(self) -> float:
        return (self.b - self.a) / self.m

    @property
    def n_nodes(self) -> int:
        return self.m + 1

    @classmethod
    def unit(cls, m: int = 200) -> "Grid":
        """Default grid for the [0, 1] statement."""
        return cls(0.0, 1.0, m)

    @classmethod
    def circle(cls, m: int = 256) -> "Grid":
        """Default periodic grid for the trigonometric statement."""
        return cls(0.0, TWO_PI, m, periodic=True)


def _as_values(grid: Grid, values: Iterable[float]) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.n_nodes,):
        raise ValueError(f"expected {grid.n_nodes} node values, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ValueError(f"non-finite value at node {bad} (t={grid.nodes[bad]!r})")
    return v


@dataclass(frozen=True)
class SampledFunction:
    """A real-valued function known by its values at the grid nodes."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = _as_values(self.grid, self.values).copy()
        if self.grid.periodic:
            scale = 1.0 + float(np.max(np.abs(v)))
            if abs(v[-1] - v[0]) > 1e-12 * scale:
                raise ValueError(
                    f"periodic function must wrap: f(a)={v[0]!r} vs f(b)={v[-1]!r}"
                )
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    # -- arithmetic conveniences (grid-checked) ------------------------------

    def _check(self, other: "SampledFunction") -> None:
        if self.grid != other.grid:
            raise GridMismatchError(f"grid mismatch: {self.grid} vs {other.grid}")

    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        self._check(other)
        return SampledFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "SampledFunction") -> "SampledFunction":
        self._check(other)
        return SampledFunction(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "SampledFunction":
        return SampledFunction(self.grid, c * self.values)

    __rmul__ = __mul__

    def __neg__(self) -> "SampledFunction":
        return SampledFunction(self.grid, -self.values)

    # -- serialization -------------------------------------------------------

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("node,value\n")
        for t, v in zip(self.grid.nodes, self.values):
            out.write(f"{t:.17g},{v:.17g}\n")
        return out.getvalue()

    def to_json(self) -> str:
        g = self.grid
        return json.dumps(
            {"a": g.a, "b": g.b, "m": g.m, "periodic": g.periodic,
             "values": list(self.values)}
        )

    @classmethod
    def from_json(cls, text: str) -> "SampledFunction":
        d = json.loads(text)
        grid = Grid(d["a"], d["b"], d["m"], d["periodic"])
        return cls(grid, d["values"])


def evaluate(expr: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """Values of ``expr`` at the points ``x``.

    The evaluator is tried once on the whole array and, if it is not
    numpy-vectorized, called point by point; non-finite results are rejected
    with the offending point named.
    """
    try:
        v = np.asarray(expr(x), dtype=float)
        if v.shape != x.shape:
            raise TypeError
    except Exception:
        v = np.array([float(expr(float(t))) for t in x])
    if not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ValueError(f"evaluator returned non-finite value at t={float(x[bad])!r}")
    return v


def sample(expr: Callable[[float], float], grid: Grid) -> SampledFunction:
    """Evaluate ``expr`` at every grid node (see :func:`evaluate`)."""
    return SampledFunction(grid, evaluate(expr, grid.nodes))


def constant(c: float, grid: Grid) -> SampledFunction:
    return SampledFunction(grid, np.full(grid.n_nodes, float(c)))


def sup_values(values: np.ndarray, periodic: bool) -> float:
    """Maximum of |values| over every entry of a node-value array or stack
    (nodes on the last axis); on a periodic grid the duplicate endpoint is
    excluded."""
    v = values[..., :-1] if periodic else values
    return float(np.max(np.abs(v)))


def sup_norm(f: SampledFunction) -> float:
    """Maximum of |f| over the nodes; the duplicate endpoint of a periodic
    grid is excluded."""
    return sup_values(f.values, f.grid.periodic)
