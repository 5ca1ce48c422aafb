"""Numerical laboratory for approximation of continuous functions by
positive linear operator sequences under generalized convergence methods."""

from .funcspace import (
    Grid,
    GridMismatchError,
    SampledFunction,
    constant,
    sample,
    sup_norm,
)
from .korovkin import (
    ContinuityBudget,
    KorovkinReport,
    KorovkinTestSet,
    bound_ratio_curve,
    check_pointwise_bound,
    counterexample_run,
    estimate_budget,
    korovkin_probe,
    projection_control,
    squeeze_trial_norm,
    squeeze_trial_order,
)
from .operators import (
    BernsteinOperators,
    BinarySequence,
    FejerOperators,
    ModulatedOperators,
    OperatorSequence,
    bernstein_apply,
    fejer_apply,
    fejer_kernel,
    named_operator,
    perfect_squares,
    positivity_audit,
    residual_table,
)
from .summability import (
    KINDS,
    IdealSpec,
    MatrixSpec,
    MethodSpec,
    ModulusSpec,
    ResidualCurve,
    SHIPPED_MODULI,
    cesaro_matrix,
    check_regularity,
    connor_cross_check,
    decide_verdict,
    identity_matrix,
    is_modulus,
    method_curve,
    residual,
)

__version__ = "0.1.0"
