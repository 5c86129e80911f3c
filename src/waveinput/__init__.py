"""Minimum-norm initial-velocity inputs for the 1-D wave equation TBVP.

Prescribing u(0, .) = f0 and u(T, .) = fT for u_tt = u_xx leaves the
initial velocity v = u_t(0, .) free on the decision interval [-T, T];
everything else follows from a recurrence.  This package builds the
shift sequence that folds the full-window L^p size of v onto the
decision interval, minimizes it in L1 (order-envelope strips) and L2
(closed form), certifies both minimizers by their exact Lagrangian
duals, smooths rough minimizers into C1 inputs with exact endpoint
offsets, and verifies candidate inputs by reconstructing the field and
checking residuals.
"""

from .approx import (
    ApproxRequest,
    ApproxResult,
    PMSEntry,
    approximate_c1,
    pms_sequence,
)
from .errors import (
    ApproxBudgetExceeded,
    BadParams,
    ConfigError,
    DegenerateScaling,
    DomainError,
    GridError,
    OutOfRegion,
    UnknownCatalogEntry,
    UnsupportedNorm,
    WaveInputError,
)
from .functions import (
    C1GridFunction,
    GridFunction,
    SmoothFunction,
    catalog,
    fd_derivative,
    from_samples,
    integrate,
    lp_norm,
    sample,
    simpson_weights,
)
from .l1 import (
    OrderEnvelopes,
    StripSolution,
    construct_h,
    ms_endpoint_check,
    order_envelopes,
    select_strip,
    strip_lower_bound,
)
from .l2 import L2Solution, a1_constant, l2_minimizer, l2_ms_check
from .oracle import OracleReport, l1_oracle, l2_oracle
from .tbvp import (
    ProblemSpec,
    ShiftSequence,
    SolutionField,
    dalembert,
    extend_input,
    full_norm,
    segment_integrals,
    shift_sequence,
)
from .verify import VerificationReport, convergence_study, verify_solution

__version__ = "0.1.0"

__all__ = [
    "ApproxBudgetExceeded",
    "ApproxRequest",
    "ApproxResult",
    "BadParams",
    "C1GridFunction",
    "ConfigError",
    "DegenerateScaling",
    "DomainError",
    "GridError",
    "GridFunction",
    "L2Solution",
    "OracleReport",
    "OrderEnvelopes",
    "OutOfRegion",
    "PMSEntry",
    "ProblemSpec",
    "ShiftSequence",
    "SmoothFunction",
    "SolutionField",
    "StripSolution",
    "UnknownCatalogEntry",
    "UnsupportedNorm",
    "VerificationReport",
    "WaveInputError",
    "a1_constant",
    "approximate_c1",
    "catalog",
    "construct_h",
    "convergence_study",
    "dalembert",
    "extend_input",
    "fd_derivative",
    "from_samples",
    "full_norm",
    "integrate",
    "l1_oracle",
    "l2_minimizer",
    "l2_ms_check",
    "l2_oracle",
    "lp_norm",
    "ms_endpoint_check",
    "order_envelopes",
    "pms_sequence",
    "sample",
    "segment_integrals",
    "select_strip",
    "shift_sequence",
    "simpson_weights",
    "strip_lower_bound",
    "verify_solution",
]
