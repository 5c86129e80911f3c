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

import importlib

__version__ = "0.1.0"

# module -> the public names it provides; each module loads on first access
_EXPORTS = {
    "approx": ("ApproxResult", "PMSEntry", "approximate_c1", "pms_sequence"),
    "errors": (
        "ApproxBudgetExceeded",
        "BadParams",
        "ConfigError",
        "DomainError",
        "GridError",
        "OutOfRegion",
        "UnknownCatalogEntry",
        "UnsupportedNorm",
        "WaveInputError",
    ),
    "functions": (
        "C1GridFunction",
        "GridFunction",
        "SmoothFunction",
        "catalog",
        "from_samples",
        "integrate",
        "lp_norm",
        "sample",
        "simpson_weights",
    ),
    "l1": (
        "OrderEnvelopes",
        "StripSolution",
        "construct_h",
        "ms_endpoint_check",
        "order_envelopes",
        "select_strip",
        "strip_lower_bound",
    ),
    "l2": ("L2Solution", "l2_minimizer", "l2_ms_check"),
    "oracle": ("Answer", "OracleReport", "answer", "l1_oracle", "l2_oracle"),
    "tbvp": (
        "ProblemSpec",
        "ShiftSequence",
        "SolutionField",
        "dalembert",
        "extend_input",
        "full_norm",
        "segment_integrals",
        "shift_sequence",
    ),
    "verify": ("VerificationReport", "verify_solution"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
