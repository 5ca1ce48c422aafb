"""Positive linear operator sequences.

Shipped kinds: Bernstein polynomials on [0, 1], Fejer means on the periodic
grid, and the modulated sequence (1 + z_n) * B_n used as the Korovkin
counterexample.  Each family implements one primitive, ``apply_batch(n,
f_evals)``: L_n on a batch of function *evaluators* (callables on reals), so
that Bernstein can read values off the grid; Fejer samples the evaluators onto
its grid and then works purely with quadrature.  The primitive returns the
batch's node values as one ``(len(f_evals), grid.n_nodes)`` array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .funcspace import Grid, SampledFunction, evaluate, sample

MAX_BERNSTEIN_INDEX = 10_000

# index below which the full (n+1) x (m+1) weight matrix is used; above it the
# binomial weights are windowed around the mode (tail mass < 1e-12)
_FULL_MATRIX_LIMIT = 300
_WINDOW_SIGMAS = 6.0
_WINDOW_PAD = 16


@functools.cache
def _log_factorial() -> np.ndarray:
    """log(k!) for k = 0..MAX_BERNSTEIN_INDEX (read-only), built on the first
    Bernstein application so that importing the package does not pay for
    ``scipy.special``."""
    from scipy.special import gammaln

    # Free one untouched 16 MiB block.  On glibc this raises the mmap
    # threshold to 16 MiB and the trim threshold to 32 MiB (the "dynamic mmap
    # threshold" in mallopt(3)), so the few MB of window temporaries each
    # Bernstein index frees stay mapped for the next index instead of being
    # returned to the kernel and faulted in again.  The pages are never
    # written, so this costs no resident memory; elsewhere it is a plain
    # allocate-and-free.
    np.empty(1 << 21)
    table = gammaln(np.arange(1, MAX_BERNSTEIN_INDEX + 2, dtype=float))
    table.flags.writeable = False
    return table


def _bernstein_batch_values(n: int, f_node_values: Sequence[np.ndarray],
                            x: np.ndarray) -> np.ndarray:
    """Apply B_n to several functions given their values at the nodes k/n;
    row p of the result is B_n f_p at the points x.

    The binomial weights are shared across the batch.  Each output value is
    computed as f(anchor) + sum_k w_k * (f_k - f(anchor)) with the anchor at
    the distribution's mode, which makes constants exactly invariant and
    keeps cancellation error proportional to the local variation of f.

    Weights come from the ratio recurrence pmf(k)/pmf(k-1) accumulated in log
    space and anchored at the mode, where the single lgamma evaluation per
    column happens; this avoids large gathers into a factorial table.  For
    n above the full-matrix limit only a window of ~7.5 standard deviations
    around the mode is kept (truncated tail mass below 1e-12).
    """
    lg = _log_factorial()
    interior = (x > 0.0) & (x < 1.0)
    xi = x[interior]
    mode = np.rint(n * xi).astype(np.int64)

    logx = np.log(xi)
    log1mx = np.log1p(-xi)
    logw_mode = (lg[n] - lg[mode] - lg[n - mode]) + mode * logx + (n - mode) * log1mx
    F = np.array(f_node_values)
    anchors = F[:, mode]

    if n <= _FULL_MATRIX_LIMIT:
        # exact full weight matrix, shape (columns, k)
        k = np.arange(n + 1)[None, :]
        logw = (lg[n] - lg[k] - lg[n - k]) + k * logx[:, None] + (n - k) * log1mx[:, None]
        w = np.exp(logw)
        g = F[:, None, :] - anchors[:, :, None]
    else:
        half = int(_WINDOW_SIGMAS * math.sqrt(0.25 * n)) + _WINDOW_PAD
        width = 2 * half + 1
        swv = np.lib.stride_tricks.sliding_window_view
        # pmf ratio table r[k] = pmf(k)/pmf(k-1) / (x/(1-x)), padded with ones
        # outside 1..n so that out-of-range rows stay finite (zeroed below)
        rt = np.ones(n + 2 * half + 1)
        ks = np.arange(1, n + 1, dtype=float)
        rt[half + 1: half + n + 1] = (n + 1.0 - ks) / ks
        lr = swv(rt, width)[mode]
        np.multiply(lr, (xi / (1.0 - xi))[:, None], out=lr)
        np.log(lr, out=lr)
        # flatten the log-ratio outside 0..n so the cumsum plateaus there
        left = np.flatnonzero(mode < half)
        right = np.flatnonzero(mode > n - half)
        for i in left:
            lr[i, : half - mode[i]] = 0.0
        for i in right:
            lr[i, half + (n - mode[i]) + 1:] = 0.0
        w = np.cumsum(lr, axis=1)
        # column `half` of each window is the mode itself
        np.subtract(w, (w[:, half] - logw_mode)[:, None], out=w)
        np.exp(w, out=w)
        for i in left:
            w[i, : half - mode[i]] = 0.0
        for i in right:
            w[i, half + (n - mode[i]) + 1:] = 0.0
        # every probe's node values, edge-extended by `half` on each side
        pad = np.empty((len(F), n + 1 + 2 * half))
        pad[:, :half] = F[:, :1]
        pad[:, half: half + n + 1] = F
        pad[:, half + n + 1:] = F[:, -1:]
        g = swv(pad, width, axis=1)[:, mode]
        g -= anchors[:, :, None]

    out = np.empty((len(F), len(x)))
    out[:, interior] = anchors + np.einsum("iw,piw->pi", w, g)
    if x[0] <= 0.0:
        out[:, x <= 0.0] = F[:, :1]
    if x[-1] >= 1.0:
        out[:, x >= 1.0] = F[:, -1:]
    return out


def bernstein_apply_batch(n: int, f_evals: Sequence[Callable],
                          grid: Grid) -> np.ndarray:
    """B_n f for several f at once, sharing the weight computation: one row
    of node values per f."""
    if n < 1:
        raise ValueError("Bernstein index must be >= 1")
    if n > MAX_BERNSTEIN_INDEX:
        raise ValueError(f"Bernstein index capped at {MAX_BERNSTEIN_INDEX}")
    if grid.periodic or grid.a != 0.0 or grid.b != 1.0:
        raise ValueError("Bernstein operators require a non-periodic grid on [0, 1]")
    kn = np.arange(n + 1) / n
    return _bernstein_batch_values(n, [evaluate(f, kn) for f in f_evals], grid.nodes)


def bernstein_apply(n: int, f_eval: Callable, grid: Grid) -> SampledFunction:
    """Classical Bernstein polynomial B_n f sampled on the grid.

    B_n f(x) = sum_k f(k/n) C(n,k) x^k (1-x)^(n-k); f is evaluated at the
    Bernstein nodes k/n, not at the grid nodes.
    """
    return SampledFunction(grid, bernstein_apply_batch(n, [f_eval], grid)[0])


def fejer_kernel(n: int, u: np.ndarray) -> np.ndarray:
    """Fejer kernel F_n(u) = (1/(n+1)) (sin((n+1)u/2) / sin(u/2))^2."""
    half = 0.5 * np.asarray(u, dtype=float)
    s = np.sin(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (np.sin((n + 1) * half) / s) ** 2 / (n + 1)
    return np.where(np.abs(s) < 1e-12, float(n + 1), val)


@functools.lru_cache(maxsize=8)
def _node_differences(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of t_i - t_j over the grid's nodes, and for each
    (i, j) the position of t_i - t_j among them (both read-only).

    A periodic grid's m^2 differences take only a few thousand distinct
    floats, so a kernel evaluated on them and gathered back is the kernel on
    the full difference matrix, bit for bit.
    """
    t = grid.nodes[:-1]
    u = t[:, None] - t[None, :]
    diffs = np.unique(u)
    where = np.searchsorted(diffs, u)
    diffs.flags.writeable = False
    where.flags.writeable = False
    return diffs, where


def fejer_apply(n: int, f_evals: Sequence[Callable], grid: Grid) -> np.ndarray:
    """Fejer means sigma_n f via trapezoidal quadrature of the kernel
    convolution on the periodic grid: one kernel matrix, one mat-vec per f
    (a single mat-mat would round differently), one row of node values per f
    with the endpoint wrapped."""
    if n < 0:
        raise ValueError("Fejer index must be >= 0")
    if not grid.periodic:
        raise ValueError("Fejer means require a periodic grid")
    fs = [evaluate(f, grid.nodes) for f in f_evals]
    # circulant kernel matrix; (1/2pi) integral becomes a plain mean on the
    # uniform periodic grid
    diffs, where = _node_differences(grid)
    K = fejer_kernel(n, diffs)[where]
    out = np.empty((len(fs), grid.n_nodes))
    for row, f in zip(out, fs):
        row[:-1] = K @ f[:-1] / grid.m
    out[:, -1] = out[:, 0]
    return out


@dataclass(frozen=True)
class BinarySequence:
    """A deterministic 0/1-valued sequence over the positive integers."""

    membership: Callable[[int], int]
    description: str

    def __call__(self, n: int) -> int:
        z = int(self.membership(n))
        if z not in (0, 1):
            raise ValueError(f"binary sequence produced {z!r} at n={n}")
        return z


def perfect_squares() -> BinarySequence:
    return BinarySequence(lambda n: int(math.isqrt(n) ** 2 == n), "perfect squares")


class OperatorSequence:
    """Indexed family n -> positive linear operator; ``apply_batch`` is its
    one primitive, returning a ``(len(f_evals), grid.n_nodes)`` array."""

    def __init__(self, grid: Grid):
        self.grid = grid

    def apply_batch(self, n: int, f_evals: Sequence[Callable]) -> np.ndarray:
        raise NotImplementedError


class BernsteinOperators(OperatorSequence):
    def apply_batch(self, n, f_evals):
        return bernstein_apply_batch(n, f_evals, self.grid)


class FejerOperators(OperatorSequence):
    def apply_batch(self, n, f_evals):
        return fejer_apply(n, f_evals, self.grid)


class ModulatedOperators(OperatorSequence):
    """(1 + z_n) * base_n, the counterexample construction."""

    def __init__(self, base: OperatorSequence, z: BinarySequence):
        super().__init__(base.grid)
        self.base = base
        self.z = z

    def apply_batch(self, n, f_evals):
        return (1 + self.z(n)) * self.base.apply_batch(n, f_evals)


def named_operator(name: str, grid: Grid | None = None) -> OperatorSequence:
    """Operator scenarios addressable by name in the CLI config."""
    if name == "bernstein":
        return BernsteinOperators(grid or Grid.unit())
    if name == "fejer":
        return FejerOperators(grid or Grid.circle())
    if name == "modulated-squares":
        return ModulatedOperators(BernsteinOperators(grid or Grid.unit()),
                                  perfect_squares())
    raise ValueError(f"unknown operator {name!r}; choose from "
                     "bernstein, fejer, modulated-squares")


@dataclass
class PositivityReport:
    indices: list[int]
    min_values: list[float]
    passed: bool
    witness: tuple[int, int, float] | None = None  # (index, trial, value)


def positivity_audit(ops: OperatorSequence, indices: Sequence[int],
                     trials: int, seed: int) -> PositivityReport:
    """Apply each operator to random nonnegative piecewise-linear functions
    and report the minimum output value; pass iff >= -1e-12."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    grid = ops.grid
    mins, witness = [], None
    for n in indices:
        # draw all trials first, keeping the rng order the reported minima
        # depend on, then apply them as one batch
        probes = []
        for _ in range(trials):
            nb = int(rng.integers(4, 10))
            xs = np.sort(rng.uniform(grid.a, grid.b, nb))
            xs = np.concatenate(([grid.a], xs, [grid.b]))
            ys = rng.uniform(0.0, 1.0, len(xs))
            if grid.periodic:
                ys[-1] = ys[0]
            probes.append(lambda t, xs=xs, ys=ys: np.interp(t, xs, ys))
        lows = [float(v) for v in ops.apply_batch(n, probes).min(axis=1)]
        if witness is None:
            witness = next(((n, trial, low) for trial, low in enumerate(lows)
                            if low < -1e-12), None)
        mins.append(min(lows))
    passed = all(v >= -1e-12 for v in mins)
    return PositivityReport(list(indices), mins, passed, witness)


@dataclass
class ResidualTable:
    """Per-index outputs of an operator sequence against fixed probes:
    ``norms[name][i]`` is sup|L_n f - f| at n = i + 1, with f sampled on the
    grid in ``limits[name]``; ``values`` holds the raw node values when
    requested (read by the kinds that work on the node-value stack)."""

    norms: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    limits: dict = field(default_factory=dict)


def residual_table(ops: OperatorSequence, probes: Sequence[tuple[str, Callable]],
                   n_max: int, keep_values: bool = False) -> ResidualTable:
    """Norm residuals of each probe against itself (and optionally node
    values) for n = 1..n_max.

    Results are cached on the operator instance and extended on demand, so
    repeated probes at growing truncations only pay for the new indices.
    The cache is keyed by the evaluator object and its sampled values, never
    by the probe's name, and holds each evaluator so its id stays unique.
    """
    grid = ops.grid
    limits = [sample(f, grid) for _, f in probes]
    lim = np.array([f.values for f in limits])
    keys = [(id(f), v.tobytes()) for (_, f), v in zip(probes, lim)]
    cache = ops.__dict__.setdefault("_residual_cache", {})
    entries = [cache.get(k, (f, np.empty(0), np.empty((0, grid.n_nodes))))
               for k, (_, f) in zip(keys, probes)]
    done = min((min(len(r), len(v)) if keep_values else len(r) for _, r, v in entries),
               default=0)
    if done < n_max:
        nodes = slice(None, -1) if grid.periodic else slice(None)
        norms = np.empty((len(probes), n_max - done))
        vals = np.empty((len(probes), n_max - done, grid.n_nodes)) if keep_values else None
        evals = [f for _, f in probes]
        for i, n in enumerate(range(done + 1, n_max + 1)):
            out = ops.apply_batch(n, evals)
            diff = out - lim
            if not np.all(np.isfinite(diff)):
                raise ValueError(f"operator output at n={n} is not finite")
            norms[:, i] = np.max(np.abs(diff[:, nodes]), axis=1)
            if keep_values:
                vals[:, i] = out
        # a probe given twice writes the same entry twice
        for p, (k, (f, r, v)) in enumerate(zip(keys, entries)):
            cache[k] = (f, np.concatenate([r[:done], norms[p]]),
                        np.concatenate([v[:done], vals[p]]) if keep_values else v)
    table = ResidualTable()
    for (nm, _), k, limit in zip(probes, keys, limits):
        _, table.norms[nm], v = cache[k]
        table.limits[nm] = limit
        if keep_values:
            table.values[nm] = v
    return table
