"""Post-hoc verification of candidate inputs and their solution fields.

Checks are grouped into: feasibility of the integral constraint, PDE
residual of the reconstructed field, boundary matching at t = 0 and t = T,
seam smoothness of the extension at the period boundaries, and the
per-period equilibrium identity.  The verdict is deliberately coarse:

* infeasible     -- the integral constraint fails (nothing else matters),
* MS_candidate   -- feasible and the extension is numerically C1 across
                    every seam (the endpoint relations hold on the grid),
* pseudo_MS      -- feasible but some seam carries a value or derivative
                    jump; the exceptional set is a union of grid cells
                    around the seams, which has vanishing measure under
                    refinement.

A note on the residual stencil: the reconstructed field is exactly a sum
of one-variable functions of x + t and x - t, so a five-point cross with
equal time and space spacing cancels algebraically no matter how wrong
those one-variable functions are.  The time step here is twice the space
step, which breaks that degeneracy; the leading residual term is then
(dt^2 - dx^2)/12 * u_xxxx = h^2/4 * u_xxxx, an honest second-order probe
of the field.  Stencil points and boundary snapshots are window nodes, so
each value is a slice of a row of the field's node table (``level``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .functions import GridFunction, fd_derivative, integrate
from .tbvp import ProblemSpec, SolutionField, dalembert, segment_integrals

SEAM_TOL = 1e-6
FEAS_TOL = 1e-8
TIME_LEVELS = 9  # time levels sampled by the PDE residual check


@dataclass
class VerificationReport:
    """Checks and verdict of ``verify_solution``.  ``boundary0_max`` is 0 by
    construction (the t = 0 row is (F + F)/2 + (C - C)/2 = F exactly), so it
    is reported but does not enter the verdict."""

    pde_residual_max: float
    boundary0_max: float
    boundaryT_max: float
    seam_value_jumps: list
    seam_deriv_jumps: list
    equilibrium_residuals: np.ndarray
    classification: str
    feasibility_residual: float = 0.0
    pde_budget: float = 0.0
    kink_cells: list = field(default_factory=list)


def _pde_residual(field_: SolutionField, spec: ProblemSpec):
    """Max |d2_t u - d2_x u| over node-aligned interior samples."""
    h = field_.v_full.h
    m_max = int(np.floor((spec.T / h - 2.0) / 2.0))
    if m_max < 1:
        return 0.0, 0.0
    levels = np.unique(np.linspace(1, m_max, min(TIME_LEVELS, m_max)).round().astype(int))
    worst = 0.0
    u_scale = 1.0
    for m in levels:
        # rows 2m - 2, 2m and 2m + 2, each cut to the nodes 2m + 2 .. N - 3 - 2m
        row = field_.level(2 * m)
        u_c = row[2:-2]
        d2t = field_.level(2 * m + 2) - 2 * u_c + field_.level(2 * m - 2)[4:-4]
        d2x = row[3:-1] - 2 * u_c + row[1:-3]
        resid = d2t / (4 * h * h) - d2x / (h * h)
        worst = max(worst, float(np.max(np.abs(resid))))
        u_scale = max(u_scale, float(np.max(np.abs(u_c))))
    return worst, u_scale


def _kink_cells(v: GridFunction, d2: np.ndarray) -> list:
    s = np.abs(d2) / v.h
    med = float(np.median(s))
    thresh = max(10.0 * med, 1e-6 * max(1.0, float(np.max(np.abs(v.values)))))
    xs = v.xs[1:-1]
    return [float(x) for x in xs[s > thresh]]


def verify_solution(v: GridFunction, spec: ProblemSpec) -> VerificationReport:
    """Run every check against the input and classify the outcome.

    The PDE budget has two terms: 100 h^2 scaled by the sampled field
    magnitude (the usual truncation allowance for smooth inputs) plus
    h/2 times the measured curvature bound max|d2 v|/h^2 of the input.
    The second term is what lets honestly C1 inputs pass: a narrow C1
    patch bends hard, its third derivative jumps at the patch ends, and
    the stencil feels that as an O(h * jump) residual along the
    characteristics through those points.  For a fixed C2 input both
    terms vanish with refinement, so the budget stays grid-order; for
    rough inputs the residual grows like 1/h^2 while the budget only
    grows like 1/h, so noise still fails the gate.  Seam jumps are
    measured branch-aware (each period keeps its own translate of v, so
    a jump is exactly the violation of the corresponding endpoint
    relation, not a discretization artifact).
    """
    shifts = spec.shifts(v.n)
    feas = abs(integrate(v) - spec.A)

    field_ = dalembert(v, spec)
    pde_max, u_scale = _pde_residual(field_, spec)
    d2 = np.diff(v.values, 2)
    curvature = float(np.max(np.abs(d2))) / v.h ** 2
    pde_budget = 100.0 * u_scale * field_.v_full.h ** 2 + 0.5 * v.h * curvature

    g = field_.v_full
    b0 = float(np.max(np.abs(field_.level(0) - spec.f0.value(g.xs))))
    half = (v.n - 1) // 2  # T in node units
    bT = float(np.max(np.abs(field_.level(half) - spec.fT.value(g.xs[half : g.n - half]))))

    # the seam after period row i joins the end of branch i to the start of i + 1
    branches = field_.branch
    dv = fd_derivative(v.values, v.h)
    x_seams = ((2 * np.arange(-spec.K1, spec.K2) + 1) * spec.T).tolist()
    deriv_jumps = np.abs((dv[-1] - shifts.d_ends[:-1, 1]) - (dv[0] - shifts.d_ends[1:, 0]))
    seam_vals = list(zip(x_seams, np.abs(branches[:-1, -1] - branches[1:, 0]).tolist()))
    seam_ders = list(zip(x_seams, deriv_jumps.tolist()))

    seg = segment_integrals(spec)
    eq = np.array([abs(integrate(v.with_values(b)) - s) for b, s in zip(branches, seg)])

    if feas > FEAS_TOL:
        verdict = "infeasible"
    elif (
        all(j <= SEAM_TOL for _, j in seam_vals)
        and all(j <= SEAM_TOL for _, j in seam_ders)
        and bT <= SEAM_TOL
        and pde_max <= pde_budget
    ):
        verdict = "MS_candidate"
    else:
        verdict = "pseudo_MS"

    return VerificationReport(
        pde_max, b0, bT, seam_vals, seam_ders, eq, verdict,
        feasibility_residual=feas,
        pde_budget=pde_budget,
        kink_cells=_kink_cells(v, d2),
    )


def convergence_study(v, spec: ProblemSpec, grids):
    """PDE residual of the field reconstructed from v at several grids.

    v is a SmoothFunction so it can be sampled on each grid; returns a
    list of (n, pde_residual_max) pairs for the given increasing odd n.
    """
    from .functions import sample

    out = []
    for n in grids:
        vg = sample(v, -spec.T, spec.T, n)
        field_ = dalembert(vg, spec)
        resid, _ = _pde_residual(field_, spec)
        out.append((n, resid))
    return out
