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
of the field (and all five stencil points stay on table nodes).
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
    g = field_.v_full
    h = g.h
    m_max = int(np.floor((spec.T / h - 2.0) / 2.0))
    if m_max < 1:
        return 0.0, 0.0
    levels = np.unique(np.linspace(1, m_max, min(TIME_LEVELS, m_max)).round().astype(int))
    worst = 0.0
    u_scale = 1.0
    for m in levels:
        t = 2 * m * h
        i0 = 2 * m + 2
        i1 = g.n - 1 - (2 * m + 2)
        if i1 <= i0:
            continue
        xs = g.xs[i0 : i1 + 1]
        u_c = field_.u(t, xs)
        u_tp = field_.u(t + 2 * h, xs)
        u_tm = field_.u(t - 2 * h, xs)
        u_xp = field_.u(t, xs + h)
        u_xm = field_.u(t, xs - h)
        resid = (u_tp - 2 * u_c + u_tm) / (4 * h * h) - (u_xp - 2 * u_c + u_xm) / (h * h)
        worst = max(worst, float(np.max(np.abs(resid))))
        u_scale = max(u_scale, float(np.max(np.abs(u_c))))
    return worst, u_scale


def _kink_cells(v: GridFunction) -> list:
    s = np.abs(np.diff(v.values, 2)) / v.h
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
    curvature = float(np.max(np.abs(np.diff(v.values, 2)))) / v.h ** 2 if v.n > 2 else 0.0
    pde_budget = 100.0 * u_scale * field_.v_full.h ** 2 + 0.5 * v.h * curvature

    g = field_.v_full
    b0 = float(np.max(np.abs(field_.u(0.0, g.xs) - spec.f0.value(g.xs))))
    half = (v.n - 1) // 2  # T in node units
    xsT = g.xs[half : g.n - half]
    bT = float(np.max(np.abs(field_.u(spec.T, xsT) - spec.fT.value(xsT))))

    dv = fd_derivative(v.values, v.h)
    seam_vals = []
    seam_ders = []
    for i, k in enumerate(range(-spec.K1, spec.K2)):
        x_seam = (2 * k + 1) * spec.T
        left = v.values[-1] - shifts.values[i, -1]
        right = v.values[0] - shifts.values[i + 1, 0]
        seam_vals.append((x_seam, abs(left - right)))
        dleft = dv[-1] - shifts.d_ends[i, 1]
        dright = dv[0] - shifts.d_ends[i + 1, 0]
        seam_ders.append((x_seam, abs(dleft - dright)))

    seg = segment_integrals(spec)
    branches = v.values[None, :] - shifts.values
    eq = np.array([abs(integrate(v.with_values(b)) - s) for b, s in zip(branches, seg)])

    if feas > FEAS_TOL:
        verdict = "infeasible"
    elif (
        all(j <= SEAM_TOL for _, j in seam_vals)
        and all(j <= SEAM_TOL for _, j in seam_ders)
        and b0 <= 1e-8
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
        kink_cells=_kink_cells(v),
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
