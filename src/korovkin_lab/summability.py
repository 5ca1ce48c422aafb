"""Summability methods as residual functionals on residual tables.

Each method kind reads one table of a sequence against its candidate limit:
the sup-norm residuals ||L_k f - f|| for k = 1, 2, ..., or, for the averaging
kinds, the node values of the terms themselves (``Kind.reads_values``).  It
maps the table to a nonnegative residual rho(n) whose decay encodes
convergence under the method at finite truncation.  ``decide_verdict`` turns
a residual curve into a consistent / inconsistent / indeterminate verdict.

``residual`` and ``method_curve`` accept an offset ``n0`` that drops the first
n0 rows of the table; verdicts of convergent curves must not depend on it.
"""

from __future__ import annotations

import io
import json
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .funcspace import SampledFunction, evaluate, sup_values

VERDICT_CONSISTENT = "consistent"
VERDICT_INCONSISTENT = "inconsistent"
VERDICT_INDETERMINATE = "indeterminate"

#: truncated matrix rows whose sum strays from the declared total by more
#: than this are rejected
ROW_SUM_DEFICIT_TOL = 1e-8


# ---------------------------------------------------------------------------
# method parameter containers


@dataclass(frozen=True)
class MatrixSpec:
    """Nonnegative summability matrix given row by row.

    ``row(n)`` yields the finite list of (column j, weight) pairs inside the
    declared support; ``declared_row_sum`` (when known) lets the artifact
    reject rows whose truncated sum visibly disagrees with the intended
    infinite-row total.
    """

    name: str
    row: Callable[[int], list[tuple[int, float]]]
    declared_row_sum: float | None = None

    def row_entries(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        entries = self.row(n)
        if entries is None:
            raise ValueError(f"matrix {self.name!r}: row {n} undefined")
        if len(entries) == 0:
            return np.empty(0, dtype=int), np.empty(0)
        j = np.array([e[0] for e in entries], dtype=int)
        a = np.array([e[1] for e in entries], dtype=float)
        if np.any(a < 0.0):
            raise ValueError(f"matrix {self.name!r}: negative entry in row {n}")
        if self.declared_row_sum is not None:
            if abs(a.sum() - self.declared_row_sum) > ROW_SUM_DEFICIT_TOL:
                raise ValueError(
                    f"matrix {self.name!r}: truncated row {n} sums to {a.sum()!r}, "
                    f"declared {self.declared_row_sum!r}")
        return j, a


def _cesaro_row(n: int) -> list[tuple[int, float]]:
    return [(j, 1.0 / n) for j in range(1, n + 1)]


def _identity_row(n: int) -> list[tuple[int, float]]:
    return [(n, 1.0)]


def _doubled_cesaro_row(n: int) -> list[tuple[int, float]]:
    return [(j, 2.0 / n) for j in range(1, n + 1)]


def cesaro_matrix() -> MatrixSpec:
    return MatrixSpec("cesaro", _cesaro_row, declared_row_sum=1.0)


def identity_matrix() -> MatrixSpec:
    return MatrixSpec("identity", _identity_row, declared_row_sum=1.0)


def doubled_cesaro_matrix() -> MatrixSpec:
    # control matrix: violates the row-sum-to-1 regularity condition
    return MatrixSpec("doubled-cesaro", _doubled_cesaro_row, declared_row_sum=2.0)


NAMED_MATRICES = {
    "cesaro": cesaro_matrix,
    "identity": identity_matrix,
    "doubled-cesaro": doubled_cesaro_matrix,
}


@dataclass(frozen=True)
class _RowTable:
    """Rows of a custom matrix as dense lists: row n is ``rows[n - 1]``."""

    rows: tuple[tuple[float, ...], ...]

    def __call__(self, n: int) -> list[tuple[int, float]]:
        if not (1 <= n <= len(self.rows)):
            raise ValueError(f"custom matrix: row {n} undefined")
        return [(j + 1, a) for j, a in enumerate(self.rows[n - 1]) if a != 0.0]


def _finite(v) -> bool:
    """A finite real number; a bool (JSON's ``true``) is not one."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _custom_matrix(rows) -> MatrixSpec:
    if not (isinstance(rows, (list, tuple)) and all(
            isinstance(row, (list, tuple)) and all(_finite(a) and a >= 0 for a in row)
            for row in rows)):
        raise ValueError("matrix rows: must be lists of finite numbers >= 0")
    return MatrixSpec("custom", _RowTable(tuple(tuple(float(a) for a in row)
                                                for row in rows)))


@dataclass(frozen=True)
class ModulusSpec:
    """A candidate modulus function on [0, inf)."""

    name: str
    eval: Callable[[float], float]

    def __call__(self, x):
        return self.eval(x)


SHIPPED_MODULI = {
    "sqrt": ModulusSpec("sqrt", np.sqrt),
    "log1p": ModulusSpec("log1p", np.log1p),
    "identity": ModulusSpec("identity", lambda x: x),
}


@dataclass(frozen=True)
class IdealSpec:
    """Computable stand-in for an ideal of negligible subsets of N.

    ``zero_density`` realizes the density-zero ideal; ``finite_sets`` uses a
    tail-count proxy (exceedances past N/2, normalized by N/2) since eventual
    finiteness is not observable at finite truncation.
    """

    kind: str
    density: Callable[[np.ndarray, int], float] | None = None

    def __post_init__(self):
        if self.kind not in ("finite_sets", "zero_density", "custom_density"):
            raise ValueError(f"unknown ideal kind {self.kind!r}")
        if self.kind == "custom_density" and self.density is None:
            raise ValueError("custom_density ideal needs a density functional")

    def mass(self, members: np.ndarray, horizon: int) -> float:
        """Normalized mass of a finite exceedance set within [1..horizon]."""
        members = np.asarray(members, dtype=int)
        members = members[(members >= 1) & (members <= horizon)]
        if self.kind == "zero_density":
            return len(members) / horizon
        if self.kind == "finite_sets":
            half = horizon // 2
            return float(np.count_nonzero(members > half)) / max(half, 1)
        return float(self.density(members, horizon))


@dataclass(frozen=True)
class MethodSpec:
    """A summability method identified by kind plus parameters."""

    kind: str
    p: float | None = None
    epsilon: float | None = None
    matrix: MatrixSpec | None = None
    modulus: ModulusSpec | None = None
    ideal: IdealSpec | None = None
    almost_n_max: int | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}")
        reads = KINDS[self.kind].fields
        for name in reads:
            holds, message = _FIELD_CHECKS[name]
            if not holds(getattr(self, name)):
                raise ValueError(message.format(self.kind))
        for name in sorted(_FIELD_CHECKS):
            if name not in reads and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} does not read {name!r}")

    # -- JSON wire format ---------------------------------------------------

    def to_dict(self) -> dict:
        """Wire form that :meth:`from_dict` loads back to an equal spec;
        raises ValueError naming the field that has no wire form."""
        d: dict = {"kind": self.kind}
        if self.p is not None:
            d["p"] = self.p
        if self.epsilon is not None:
            d["epsilon"] = self.epsilon
        if self.modulus is not None:
            if SHIPPED_MODULI.get(self.modulus.name) != self.modulus:
                raise ValueError(f"modulus: {self.modulus.name!r} is not a shipped "
                                 "modulus, so it has no JSON form")
            d["modulus"] = {"name": self.modulus.name}
        if self.matrix is not None:
            A, rows = self.matrix, getattr(self.matrix.row, "rows", None)
            if rows is not None and A == _custom_matrix(rows):
                d["matrix"] = {"name": "custom", "rows": [list(r) for r in rows]}
            elif A.name in NAMED_MATRICES and A == NAMED_MATRICES[A.name]():
                d["matrix"] = {"name": A.name}
            else:
                raise ValueError(f"matrix: {A.name!r} is neither a named matrix nor "
                                 "given by rows, so it has no JSON form")
        if self.ideal is not None:
            if self.ideal.density is not None:
                raise ValueError(f"ideal: a {self.ideal.kind} ideal with a density "
                                 "functional has no JSON form")
            d["ideal"] = {"kind": self.ideal.kind}
        if self.almost_n_max is not None:
            d["almost"] = {"n_max": self.almost_n_max}
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "MethodSpec":
        """Load a spec from its wire form; a missing key, or a key this method
        does not read, at the top level or inside a nested object, is a
        ValueError."""
        _known_keys(d, ("kind", "p", "epsilon", "matrix", "modulus", "ideal", "almost"),
                    required=("kind",))
        matrix = None
        if "matrix" in d:
            md = _known_keys(d["matrix"], ("name", "rows"), "matrix")
            name = md.get("name", "custom")
            if name == "custom":
                if "rows" not in md:
                    raise ValueError("missing key 'rows' in matrix")
                matrix = _custom_matrix(md["rows"])
            elif isinstance(name, str) and name in NAMED_MATRICES:
                matrix = NAMED_MATRICES[name]()
            else:
                raise ValueError(f"unknown matrix name {name!r}")
        modulus = None
        if "modulus" in d:
            name = _known_keys(d["modulus"], ("name",), "modulus", required=("name",))["name"]
            if not isinstance(name, str) or name not in SHIPPED_MODULI:
                raise ValueError(f"unknown modulus {name!r}")
            modulus = SHIPPED_MODULI[name]
        ideal = None
        if "ideal" in d:
            ideal = IdealSpec(_known_keys(d["ideal"], ("kind",), "ideal",
                                          required=("kind",))["kind"])
        almost = _known_keys(d.get("almost", {}), ("n_max",), "almost")
        return cls(kind=d["kind"], p=d.get("p"), epsilon=d.get("epsilon"),
                   matrix=matrix, modulus=modulus, ideal=ideal,
                   almost_n_max=almost.get("n_max"))

    @classmethod
    def from_json(cls, text: str) -> "MethodSpec":
        return cls.from_dict(json.loads(text))


def _known_keys(d: dict, keys: tuple[str, ...], where: str = "",
                required: tuple[str, ...] = ()) -> dict:
    """``d`` itself, after checking that it is an object with every key in
    ``required`` and no key outside ``keys``."""
    at = f" in {where}" if where else ""
    if not isinstance(d, dict):
        raise ValueError(f"{where or 'the spec'} must be an object")
    extra = sorted(set(d) - set(keys))
    if extra:
        raise ValueError(f"unknown key {extra[0]!r}{at}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ValueError(f"missing key {missing[0]!r}{at}")
    return d


# ---------------------------------------------------------------------------
# residual functionals (MethodSpec checks their parameters)


def statistical_from_norms(r: np.ndarray, epsilon: float, N: int) -> float:
    return float(np.count_nonzero(r[:N] > epsilon)) / N


def strong_wp_from_norms(r: np.ndarray, p: float, N: int) -> float:
    return float(np.mean(r[:N] ** p))


def a_strong_from_norms(r: np.ndarray, A: MatrixSpec, n: int) -> float:
    j, a = A.row_entries(n)
    return float(a @ r[j - 1])


def a_statistical_from_norms(r: np.ndarray, A: MatrixSpec, epsilon: float,
                             n: int) -> float:
    j, a = A.row_entries(n)
    return float(a[r[j - 1] >= epsilon].sum())


def f_statistical_from_norms(r, modulus: ModulusSpec, epsilon: float, N: int) -> float:
    fn = float(modulus(N))
    if fn == 0.0:
        raise ValueError(f"degenerate modulus {modulus.name!r}: f({N}) = 0")
    count = int(np.count_nonzero(np.asarray(r)[:N] > epsilon))
    return float(modulus(count)) / fn


def f_strong_from_norms(r, modulus: ModulusSpec, N: int) -> float:
    fn = float(modulus(N))
    if fn == 0.0:
        raise ValueError(f"degenerate modulus {modulus.name!r}: f({N}) = 0")
    return float(modulus(float(np.sum(np.asarray(r)[:N])))) / fn


def ideal_from_norms(r: np.ndarray, ideal: IdealSpec, epsilon: float, N: int) -> float:
    members = np.flatnonzero(r[:N] > epsilon) + 1
    return ideal.mass(members, N)


def _prefix_sums(V: np.ndarray) -> np.ndarray:
    """P[k] = V[0] + ... + V[k-1], with P[0] = 0."""
    return np.vstack([np.zeros((1, V.shape[1])), np.cumsum(V, axis=0)])


def _window_means(P: np.ndarray, m: int, n_max: int) -> np.ndarray:
    """Row n-1 is the mean of the length-(m+1) window V[n-1 .. n+m-1], for the
    starts n = 1..n_max, read off the prefix sums P of V."""
    return (P[m + 1: m + n_max + 1] - P[:n_max]) / (m + 1)


def almost_from_values(V: np.ndarray, L: SampledFunction, m: int, n_max: int) -> float:
    """max over 1 <= n <= n_max of sup|mean(V[n..n+m]) - L|; V[k-1] is term k."""
    if m < 0 or n_max < 1:
        raise ValueError("need m >= 0 and n_max >= 1")
    if len(V) < n_max + m:
        raise ValueError("value stack too short for requested windows")
    means = _window_means(_prefix_sums(V), m, n_max)
    return sup_values(means - L.values, L.grid.periodic)


def _window_average(spec: "MethodSpec", V: np.ndarray) -> Callable[[int], np.ndarray]:
    P = _prefix_sums(V)
    return lambda n: _window_means(P, n, spec.almost_n_max)


def matrix_from_values(V: np.ndarray, A: MatrixSpec, n: int) -> np.ndarray:
    j, a = A.row_entries(n)
    return a @ V[j - 1]


# ---------------------------------------------------------------------------
# norm-squeeze forms: each takes residual norms a, b, c, d <= C*(a+b+c) and
# returns the 0-based indices where the finite-N squeeze fails


def _union_bound(exceeds: Callable) -> Callable:
    """Count-based kinds: an index where d exceeds eps must have one of a, b,
    c exceed eps/(3C)."""
    def violations(spec, a, b, c, d, C, N):
        eps = spec.epsilon
        thr = eps / (3.0 * C)
        return np.flatnonzero(exceeds(d, eps) & ~(exceeds(a, thr) | exceeds(b, thr)
                                                  | exceeds(c, thr)))
    return violations


def _power_mean_violations(spec, a, b, c, d, C, N):
    """Weighted linear form: sum d^p <= C^p 3^max(p-1,0) sum (a^p+b^p+c^p)."""
    p = spec.p
    factor = C ** p * 3.0 ** max(p - 1.0, 0.0)
    lhs = np.cumsum(d ** p)
    rhs = factor * (np.cumsum(a ** p) + np.cumsum(b ** p) + np.cumsum(c ** p))
    return np.flatnonzero(lhs > rhs * (1.0 + 1e-12) + 1e-12)


def _modulus_violations(spec, a, b, c, d, C, N):
    """Modulus form: f(sum d) <= ceil(C) (f(sum a) + f(sum b) + f(sum c))."""
    f = lambda x: evaluate(spec.modulus, np.cumsum(x))
    lhs, rhs = f(d), math.ceil(C) * (f(a) + f(b) + f(c))
    return np.flatnonzero(lhs > rhs + 1e-12 * (1.0 + np.abs(rhs)))


def _a_strong_row_violations(A: MatrixSpec, a, b, c, d, C: float, N: int) -> np.ndarray:
    """Rows n <= N where sum_j alpha_nj d_j > C sum_j alpha_nj (a+b+c)_j.

    The Cesaro and identity row rules have closed forms, chosen by the row
    function itself so a relabelled matrix cannot borrow them."""
    s = a + b + c
    if A.row is _cesaro_row:
        lhs, rhs = np.cumsum(d), C * np.cumsum(s)
    elif A.row is _identity_row:
        lhs, rhs = d, C * s
    else:
        rows = [A.row_entries(n) for n in range(1, N + 1)]
        lhs = np.array([w @ d[j - 1] for j, w in rows])
        rhs = C * np.array([w @ s[j - 1] for j, w in rows])
    scale = 1.0 + np.abs(rhs)
    return np.flatnonzero(lhs > rhs + 1e-10 * scale)


def _row_support(spec: "MethodSpec", ns: Sequence[int]) -> int:
    """Table rows that the matrix rows ns read: the largest column, or n
    where that is larger."""
    return max(int(np.max(spec.matrix.row_entries(n)[0], initial=n)) for n in ns)


# ---------------------------------------------------------------------------
# the kind table


@dataclass(frozen=True)
class Kind:
    """One summability kind: ``point(spec, table, L, n)`` is its residual at
    truncation n (the window length for ``almost``), read off the norm table,
    or the node-value stack if ``reads_values``, both starting at index 1;
    ``rows(spec, ns)`` counts the table rows read for the truncations ns;
    ``fields`` names the MethodSpec fields the kind reads, each checked by
    its ``_FIELD_CHECKS`` entry (any other field must be unset);
    ``norm_squeeze`` is the kind's norm-squeeze form (described above).
    For the averaging kinds, ``average(spec, V)`` maps n to the averages the
    kind takes of the value stack V at truncation n: the ``almost_n_max``
    window means of length n+1, or row n of the matrix.  Each squeeze form
    is None where the kind has none."""

    point: Callable[["MethodSpec", np.ndarray, SampledFunction, int], float]
    fields: tuple[str, ...] = ()
    reads_values: bool = False
    rows: Callable[["MethodSpec", Sequence[int]], int] = lambda spec, ns: max(ns)
    norm_squeeze: Callable | None = None
    average: Callable[["MethodSpec", np.ndarray],
                      Callable[[int], np.ndarray]] | None = None


#: MethodSpec field -> (check on its value, error for the kind that reads it)
_FIELD_CHECKS = {
    "almost_n_max": (lambda v: isinstance(v, numbers.Integral)
                     and not isinstance(v, bool) and v >= 1,
                     "{} needs an integer n_max >= 1"),
    "epsilon": (lambda v: _finite(v) and v > 0, "{} needs a finite epsilon > 0"),
    "ideal": (lambda v: v is not None, "{} kind needs an IdealSpec"),
    "matrix": (lambda v: v is not None, "{} needs a matrix"),
    "modulus": (lambda v: v is not None, "{} needs a modulus"),
    "p": (lambda v: _finite(v) and v > 0, "{} needs a finite p > 0"),
}

# the lambdas look their functions up at call time, so a wrapper installed on
# the module attribute (a tracer, say) sees every call
KINDS: dict[str, Kind] = {
    # tail supremum over the proportional window (n/3, n]: decays for
    # convergent sequences yet cannot skip a sparse exceedance set, and the
    # window scales with n so small index offsets cannot flip it
    "norm": Kind(lambda s, r, L, n: float(np.max(r[n // 3: n]))),
    "statistical": Kind(
        lambda s, r, L, n: statistical_from_norms(r, s.epsilon, n),
        fields=("epsilon",),
        norm_squeeze=_union_bound(operator.gt)),
    "ideal": Kind(
        lambda s, r, L, n: ideal_from_norms(r, s.ideal, s.epsilon, n),
        fields=("epsilon", "ideal"),
        norm_squeeze=_union_bound(operator.gt)),
    "strong_wp": Kind(
        lambda s, r, L, n: strong_wp_from_norms(r, s.p, n),
        fields=("p",),
        norm_squeeze=_power_mean_violations),
    "a_statistical": Kind(
        lambda s, r, L, n: a_statistical_from_norms(r, s.matrix, s.epsilon, n),
        fields=("epsilon", "matrix"), rows=_row_support,
        norm_squeeze=_union_bound(operator.ge)),
    "a_strong": Kind(
        lambda s, r, L, n: a_strong_from_norms(r, s.matrix, n),
        fields=("matrix",), rows=_row_support,
        norm_squeeze=lambda s, a, b, c, d, C, N:
            _a_strong_row_violations(s.matrix, a, b, c, d, C, N)),
    "f_statistical": Kind(
        lambda s, r, L, n: f_statistical_from_norms(r, s.modulus, s.epsilon, n),
        fields=("epsilon", "modulus"),
        norm_squeeze=_union_bound(operator.gt)),
    "f_strong": Kind(
        lambda s, r, L, n: f_strong_from_norms(r, s.modulus, n),
        fields=("modulus",),
        norm_squeeze=_modulus_violations),
    "almost": Kind(
        lambda s, V, L, n: almost_from_values(V, L, n, s.almost_n_max),
        fields=("almost_n_max",),
        reads_values=True, rows=lambda s, ns: max(ns) + s.almost_n_max,
        average=_window_average),
    "matrix": Kind(
        lambda s, V, L, n: sup_values(matrix_from_values(V, s.matrix, n) - L.values,
                                      L.grid.periodic),
        fields=("matrix",), rows=_row_support,
        reads_values=True,
        average=lambda s, V: lambda n: matrix_from_values(V, s.matrix, n)),
}


def residual(method: MethodSpec, table: np.ndarray, L: SampledFunction | None,
             n: int, n0: int = 0) -> float:
    """Residual under ``method`` at truncation n, after dropping the first n0
    rows of ``table``: the value ``method_curve`` plots at n.

    ``table`` is the kind's norm table, or its node-value stack when the
    kind ``reads_values`` (then ``L`` is the limit); row k-1 holds term k.
    A table shorter than the rows the kind reads is a ValueError."""
    kind = KINDS[method.kind]
    need = n0 + kind.rows(method, [n])
    if len(table) < need:
        raise ValueError(f"{method.kind} at n={n} reads {need} table rows, "
                         f"the table has {len(table)}")
    return kind.point(method, table[n0:], L, n)


# ---------------------------------------------------------------------------
# validators


@dataclass
class RegularityReport:
    matrix: str
    max_row_sum: float
    row_sum_cap: float
    bounded_pass: bool                       # condition (i)
    column_decay: list[tuple[int, float, float]]  # (j, entry at N, entry at N/2)
    column_pass: bool                        # condition (ii)
    final_row_sum: float
    row_sum_one_pass: bool                   # condition (iii)

    @property
    def passed(self) -> bool:
        return self.bounded_pass and self.column_pass and self.row_sum_one_pass

    def failures(self) -> list[str]:
        out = []
        if not self.bounded_pass:
            out.append(f"condition (i): row sums reach {self.max_row_sum:.6g}, "
                       f"cap {self.row_sum_cap:.6g}")
        if not self.column_pass:
            out.append("condition (ii): some column entry fails to decay")
        if not self.row_sum_one_pass:
            out.append(f"condition (iii): row sum {self.final_row_sum:.6g} != 1")
        return out


def check_regularity(A: MatrixSpec, N: int, row_sum_cap: float = 10.0,
                     row_sum_tol: float = 1e-6,
                     n_columns: int = 20) -> RegularityReport:
    """Finite-N audit of the three regularity conditions: bounded row sums,
    vanishing columns, row sums tending to 1."""
    sums = np.array([A.row_entries(n)[1].sum() for n in range(1, N + 1)])
    half = max(N // 2, 1)

    def entry(n, col):
        j, a = A.row_entries(n)
        return float(a[j == col].sum())

    cols = []
    col_ok = True
    for col in range(1, n_columns + 1):
        late, early = entry(N, col), entry(half, col)
        cols.append((col, late, early))
        if late > early + 1e-12:
            col_ok = False
    return RegularityReport(
        matrix=A.name,
        max_row_sum=float(sums.max()),
        row_sum_cap=row_sum_cap,
        bounded_pass=bool(sums.max() <= row_sum_cap),
        column_decay=cols,
        column_pass=col_ok,
        final_row_sum=float(sums[-1]),
        row_sum_one_pass=bool(abs(sums[-1] - 1.0) <= row_sum_tol),
    )


@dataclass
class ModulusReport:
    name: str
    zero_at_zero: bool
    positive: bool
    subadditive: bool
    subadditive_witness: tuple[float, float] | None
    monotone: bool
    right_continuous: bool
    unbounded_proxy: bool

    @property
    def passed(self) -> bool:
        return (self.zero_at_zero and self.positive and self.subadditive
                and self.monotone and self.right_continuous and self.unbounded_proxy)


DEFAULT_MODULUS_POINTS = (0.0, 1.0, 2.0, 3.0, 5.0, 10.0)


def is_modulus(spec: ModulusSpec,
               sample_points: Sequence[float] = DEFAULT_MODULUS_POINTS) -> ModulusReport:
    """Check the modulus axioms on a finite sample: f(0)=0 and f>0 off 0,
    subadditivity on all pairs, monotonicity, right-continuity at 0, and an
    unboundedness proxy f(1e6) > f(1)."""
    pts = sorted(float(t) for t in sample_points)
    if pts[0] != 0.0 or any(t < 0 for t in pts):
        raise ValueError("sample points must be nonnegative and include 0")
    f = lambda t: float(spec(t))
    zero_ok = abs(f(0.0)) <= 1e-12
    positive = all(f(t) > 0.0 for t in pts if t > 0)
    witness = None
    for xx in pts:
        if witness:
            break
        for yy in pts:
            if f(xx + yy) > f(xx) + f(yy) + 1e-12:
                witness = (xx, yy)
                break
    vals = [f(t) for t in pts]
    monotone = all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
    small = [f(10.0 ** -k) for k in range(1, 13)]
    right_cont = all(b <= a + 1e-12 for a, b in zip(small, small[1:])) \
        and small[-1] <= 1e-3
    # unboundedness proxy: an unbounded f must eventually double f(1);
    # bounded shapes like arctan fail this already at 1e6
    unbounded = f(1e6) > 2.0 * f(1.0)
    return ModulusReport(spec.name, zero_ok, positive, witness is None, witness,
                         monotone, right_cont, unbounded)


# ---------------------------------------------------------------------------
# verdicts and curves


def decide_verdict(points: Sequence[tuple[int, float]], tau: float) -> str:
    """Quartile rule: consistent iff the final quarter is entirely <= tau and
    its median did not grow over the first quarter's; inconsistent iff the
    final quarter stays strictly above tau with non-decreasing medians."""
    if len(points) < 8:
        raise ValueError("need at least 8 residual points")
    ns = [n for n, _ in points]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("residual points must have strictly increasing indices")
    rho = np.array([v for _, v in points], dtype=float)
    if np.any(rho < 0):
        raise ValueError("residuals must be nonnegative")
    q = len(rho) // 4
    first, last = rho[:q], rho[-q:]
    med_first, med_last = float(np.median(first)), float(np.median(last))
    # tiny absolute slack so exactly-convergent curves (medians at rounding
    # noise) are not flipped by which fp crumbs land in which quartile
    slack = 1e-12
    if np.all(last <= tau) and med_last <= med_first + slack:
        return VERDICT_CONSISTENT
    if np.min(last) > tau and med_last >= med_first - slack:
        return VERDICT_INCONSISTENT
    return VERDICT_INDETERMINATE


@dataclass
class ResidualCurve:
    points: list[tuple[int, float]]
    verdict: str

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("n,residual\n")
        for n, v in self.points:
            out.write(f"{n},{v:.17g}\n")
        return out.getvalue()


def curve_indices(N: int, points: int = 24, start: int = 10) -> list[int]:
    """Roughly geometric ladder of integer indices from start to N.

    The ladder starts at 10 by default so that quartile-based verdicts are
    not dominated by the noisy first handful of truncations (which would
    also make them sensitive to index offsets).
    """
    if N < start:
        raise ValueError("N below first index")
    raw = np.unique(np.rint(np.geomspace(start, N, points)).astype(int))
    return [int(v) for v in raw]


def method_curve(method: MethodSpec, table: np.ndarray,
                 L: SampledFunction | None = None, *, N: int, tau: float,
                 n0: int = 0, indices: Sequence[int] | None = None) -> ResidualCurve:
    """Residual curve for a method over a ladder of truncations: ``residual``
    of ``table`` (and ``L``) at each index, ``curve_indices(N)`` by default.

    For the norm kind the plotted value at n is the supremum of the residuals
    over the tail window (n/3, n]: a finite-truncation reading of the limit
    superior over *all* indices rather than a sampled subsequence.
    """
    if indices is None:
        indices = curve_indices(N)
    pts = [(n, residual(method, table, L, n, n0)) for n in indices]
    return ResidualCurve(pts, decide_verdict(pts, tau))


# ---------------------------------------------------------------------------
# Connor-style cross-check between statistical and strong w^1 verdicts


@dataclass
class ConnorCheck:
    seed: int
    convergent_design: bool
    statistical_verdict: str
    strong_wp_verdict: str

    @property
    def hard_conflict(self) -> bool:
        pair = {self.statistical_verdict, self.strong_wp_verdict}
        return pair == {VERDICT_CONSISTENT, VERDICT_INCONSISTENT}


def connor_cross_check(n_sequences: int = 100, N: int = 5000, tau: float = 0.02,
                       seed: int = 0,
                       eps_grid: Sequence[float] = (0.1, 0.2, 0.5)) -> list[ConnorCheck]:
    """Empirical cross-check of the statistical / strong-Cesaro equivalence
    on bounded sequences: verdicts from the two residuals must never be in
    hard conflict; disagreement is surfaced as indeterminate, never hidden."""
    rng = np.random.default_rng(seed)
    out = []
    ks = np.arange(1, N + 1)
    for trial in range(n_sequences):
        convergent = bool(rng.integers(0, 2))
        base = 0.05 * rng.uniform(0.2, 1.0, N) / ks
        r = base.copy()
        if convergent:
            cubes = np.array([k ** 3 for k in range(1, int(round(N ** (1 / 3))) + 2)
                              if k ** 3 <= N])
            r[cubes - 1] += rng.uniform(0.55, 0.95, len(cubes))
        else:
            mask = rng.random(N) < rng.uniform(0.2, 0.5)
            r[mask] += rng.uniform(0.5, 1.0, int(mask.sum()))
        stat_verdicts = set()
        for eps in eps_grid:
            m = MethodSpec("statistical", epsilon=eps)
            stat_verdicts.add(method_curve(m, r, N=N, tau=tau).verdict)
        if stat_verdicts == {VERDICT_CONSISTENT}:
            sv = VERDICT_CONSISTENT
        elif VERDICT_INCONSISTENT in stat_verdicts:
            sv = VERDICT_INCONSISTENT
        else:
            sv = VERDICT_INDETERMINATE
        wp = method_curve(MethodSpec("strong_wp", p=1.0), r, N=N, tau=tau)
        out.append(ConnorCheck(trial, convergent, sv, wp.verdict))
    return out
