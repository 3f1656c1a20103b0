"""Newton-Krylov continuity solver for the pointwise phase equation.

Solves Theta(chi0 + i ddbar u) = target + c on a flat torus for the pair
(u mean-zero, c real).  Each damped Newton step solves the linearized system
with GMRES preconditioned by the exact inverse of the flat
quarter-Laplacian; a backtracking line search keeps the pointwise phase above
the supercritical floor (n-2) pi/2.  Constant targets are reached by an
adaptive continuation from the initial phase field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .errors import (
    DimensionMismatch,
    LinearSolveStalled,
    MaxItersExceeded,
    PathStalled,
    PhaseFloorViolated,
    PhaseOutOfRange,
)
from .torus import (
    HermitianFormField,
    ScalarField,
    TorusGrid,
    _check_metric_positive,
    _density,
    _hessian_planes,
    _kernel_planes,
    i_ddbar,
    inverse_laplacian_quarter,
    theta_field,
)

DT_MIN = 1.0 / 1024.0
DT_MAX = 0.25
FAST_STAGE_ITERS = 4  # continuation doubles dt after a stage this fast


@dataclass
class DhymProblem:
    """One instance of the phase equation on a torus.

    target is either a ScalarField h(x) or a constant angle; its values must
    stay in [(n-2) pi/2 + eps0, n pi/2) pointwise.  omega is checked
    positive-definite here, once; the solver's state evaluations and kernels
    rely on that check.
    """

    grid: TorusGrid
    omega: HermitianFormField
    chi0: HermitianFormField
    target: ScalarField | float
    eps0: float

    def __post_init__(self):
        if self.eps0 <= 0.0:
            raise PhaseOutOfRange(f"eps0={self.eps0:.6g} must be positive")
        for f in (self.omega, self.chi0):
            if f.grid != self.grid:
                raise DimensionMismatch("form fields live on a different grid")
        if isinstance(self.target, ScalarField) and self.target.grid != self.grid:
            raise DimensionMismatch("target field lives on a different grid")
        _check_metric_positive(self.omega.values, self.grid.n)
        lo = self.phase_floor + self.eps0
        hi = self.grid.n * np.pi / 2
        vals = self.target_values()
        if vals.min() < lo - 1e-12 or vals.max() >= hi:
            raise PhaseOutOfRange(
                f"target range [{vals.min():.6g}, {vals.max():.6g}] outside "
                f"[{lo:.6g}, {hi:.6g})"
            )

    @property
    def phase_floor(self) -> float:
        return (self.grid.n - 2) * np.pi / 2

    def target_values(self) -> np.ndarray:
        if isinstance(self.target, ScalarField):
            return self.target.values
        return np.full(self.grid.shape, float(self.target))


@dataclass
class SolverConfig:
    tol: float = 1e-10
    max_iters: int = 40
    krylov_tol: float = 1e-12
    krylov_iters: int = 400
    line_search_halvings: int = 40


@dataclass
class SolveReport:
    """Solution state with convergence diagnostics.

    newton_trace rows: (residual_sup, step_length, min_phase_margin).
    continuity_trace rows: (t, stage_constant, iterations).
    iterate_rows: flat per-iterate rows
    (iteration, residual_sup, min_phase, t, stage_constant) for trace export.
    """

    u: ScalarField
    c: float
    residual_sup: float
    converged: bool
    newton_trace: list[tuple[float, float, float]] = field(default_factory=list)
    continuity_trace: list[tuple[float, float, int]] = field(default_factory=list)
    iterate_rows: list[tuple[int, float, float, float, float]] = field(
        default_factory=list
    )


@dataclass
class StateEval:
    """What one evaluation derives from a state (u, c).

    chi is the form chi0 + i ddbar u, residual is Theta(chi) - target - c
    pointwise, residual_sup its sup norm, and min_phase/max_phase the
    extremes of the pointwise phase Theta(chi).
    """

    chi: HermitianFormField
    residual: ScalarField
    residual_sup: float
    min_phase: float
    max_phase: float


def evaluate_state(u: ScalarField, c: float, prob: DhymProblem) -> StateEval:
    """Build chi0 + i ddbar u once and derive the residual and phase range."""
    chi = HermitianFormField(
        prob.grid, prob.chi0.values + i_ddbar(u).values, _symmetrized=True
    )
    theta = np.angle(_density(prob.omega, chi))
    res = ScalarField(prob.grid, theta - prob.target_values() - c)
    return StateEval(
        chi=chi,
        residual=res,
        residual_sup=float(np.max(np.abs(res.values))),
        min_phase=float(theta.min()),
        max_phase=float(theta.max()),
    )


def residual(u: ScalarField, c: float, prob: DhymProblem) -> ScalarField:
    """Theta(chi0 + i ddbar u) - target - c, pointwise."""
    return evaluate_state(u, c, prob).residual


def linearization_kernel(chi: HermitianFormField, prob: DhymProblem) -> np.ndarray:
    """Real weight planes of the linearized operator, shape (n^2,) + grid.

    K = (omega + chi omega^-1 chi)^-1 at the state whose form is chi (see
    evaluate_state).  The derivative of the phase in direction v is
    tr(K i ddbar v) = sum_j K_jj v_jj + sum_{j<k} 2 Re(K_jk conj(v_jk)), so
    the planes [K_jj for each j, then 2 Re K_jk and 2 Im K_jk for each j < k]
    pair one to one with the Hessian planes of v (torus._hessian_planes).
    """
    return _kernel_planes(prob.omega, chi)


def apply_linearized(kernel: np.ndarray, v_values: np.ndarray, grid: TorusGrid):
    """tr(K i ddbar v): the kernel's weight planes times v's Hessian planes."""
    planes = _hessian_planes(v_values, grid)
    out = kernel[0] * next(planes)
    for weight, plane in zip(kernel[1:], planes):
        out += weight * plane
    return out


def linearized_apply(u: ScalarField, v: ScalarField, prob: DhymProblem) -> ScalarField:
    """Directional derivative of the residual at state u in direction v."""
    kernel = linearization_kernel(evaluate_state(u, 0.0, prob).chi, prob)
    return ScalarField(prob.grid, apply_linearized(kernel, v.values, prob.grid))


def verify_supercritical(u: ScalarField, prob: DhymProblem) -> dict:
    """Minimum pointwise phase and whether it clears the floor plus eps0."""
    min_phase = evaluate_state(u, 0.0, prob).min_phase
    floor = prob.phase_floor
    return {
        "min_phase": min_phase,
        "margin": min_phase - floor,
        "ok": bool(min_phase > floor + prob.eps0 - 1e-12),
    }


def manufactured_problem(
    u_star: ScalarField,
    omega: HermitianFormField,
    chi0: HermitianFormField,
    eps0: float,
) -> DhymProblem:
    """Problem whose exact solution is u_star (up to its mean) with c = 0.

    The target is the discrete phase field of chi0 + i ddbar u_star; raises
    PhaseOutOfRange if that field leaves the admissible band.
    """
    grid = u_star.grid
    chi = HermitianFormField(
        grid, chi0.values + i_ddbar(u_star).values, _symmetrized=True
    )
    target = theta_field(omega, chi)
    return DhymProblem(grid=grid, omega=omega, chi0=chi0, target=target, eps0=eps0)


def _solve_inner(
    kernel: np.ndarray,
    rhs: np.ndarray,
    grid: TorusGrid,
    cfg: SolverConfig,
) -> np.ndarray:
    """Solve P L du = rhs on the mean-zero subspace (P = mean projector)."""
    npts = grid.num_points
    shape = grid.shape

    def project(x):
        return x - x.mean()

    def matvec(x):
        v = project(x.reshape(shape))
        out = apply_linearized(kernel, v, grid)
        return project(out).ravel()

    def precond(x):
        v = x.reshape(shape)
        return project(inverse_laplacian_quarter(v, grid)).ravel()

    b = project(rhs).ravel()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(shape)

    restart = min(60, cfg.krylov_iters)
    cycles = max(1, cfg.krylov_iters // 60)
    x, info = spla.gmres(
        spla.LinearOperator((npts, npts), matvec=matvec),
        b,
        rtol=max(cfg.krylov_tol, 1e-14),
        atol=0.0,
        restart=restart,
        maxiter=cycles,
        M=spla.LinearOperator((npts, npts), matvec=precond),
    )
    achieved = float(np.linalg.norm(matvec(x) - b))
    if not np.isfinite(achieved) or achieved > max(10.0 * cfg.krylov_tol, 1e-9) * bnorm:
        raise LinearSolveStalled(
            f"gmres residual {achieved:.3e} vs rhs norm {bnorm:.3e} after at most "
            f"{restart * cycles} iterations ({cycles} cycles of {restart}, "
            f"gmres info {info})"
        )
    return project(x.reshape(shape))


def newton_solve(
    prob: DhymProblem,
    u0: ScalarField | None = None,
    cfg: SolverConfig | None = None,
) -> SolveReport:
    """Damped Newton on the augmented unknown (u mean-zero, c).

    Each step solves the linearized system on the mean-zero subspace with the
    flat-Laplacian preconditioner and recovers the constant shift from the
    residual mean; the backtracking line search halves the step until the sup
    residual decreases and the minimum pointwise phase stays above the
    supercritical floor.
    """
    cfg = cfg or SolverConfig()
    grid = prob.grid
    if u0 is None:
        u0 = ScalarField(grid, np.zeros(grid.shape))
    u_vals = u0.values - u0.values.mean()
    c = 0.0
    floor = prob.phase_floor

    state = evaluate_state(ScalarField(grid, u_vals), c, prob)
    if state.min_phase < floor:
        raise PhaseFloorViolated(
            "initial state is not supercritical for this problem"
        )

    trace: list[tuple[float, float, float]] = [
        (state.residual_sup, 0.0, state.min_phase - floor)
    ]
    c_hist: list[float] = [c]

    for _ in range(cfg.max_iters):
        if state.residual_sup <= cfg.tol:
            break
        res = state.residual.values
        kernel = linearization_kernel(state.chi, prob)
        du = _solve_inner(kernel, -res, grid, cfg)
        dc = float(res.mean() + apply_linearized(kernel, du, grid).mean())
        del kernel  # the line search needs only (du, dc)

        step = 1.0
        floor_blocked = False
        for _ in range(cfg.line_search_halvings):
            trial_u = u_vals + step * du
            trial_u -= trial_u.mean()
            trial_c = c + step * dc
            trial = evaluate_state(ScalarField(grid, trial_u), trial_c, prob)
            if trial.min_phase > floor and trial.residual_sup < state.residual_sup:
                u_vals, c, state = trial_u, trial_c, trial
                trace.append((state.residual_sup, step, state.min_phase - floor))
                c_hist.append(c)
                break
            floor_blocked = trial.min_phase <= floor
            step *= 0.5
        else:
            # the shortest trial decides why the step was blocked
            if floor_blocked:
                raise PhaseFloorViolated(
                    "no step length preserves the supercritical phase floor"
                )
            raise MaxItersExceeded(
                f"line search stalled at residual_sup={state.residual_sup:.3e}"
            )
    else:
        if state.residual_sup > cfg.tol:
            raise MaxItersExceeded(
                f"residual_sup={state.residual_sup:.3e} > tol={cfg.tol:.3e} after "
                f"{cfg.max_iters} iterations"
            )

    u_vals = u_vals - u_vals.mean()
    rows = [
        (i, sup, margin + floor, 1.0, float(ci))
        for i, ((sup, _, margin), ci) in enumerate(zip(trace, c_hist))
    ]
    return SolveReport(
        u=ScalarField(grid, u_vals),
        c=float(c),
        residual_sup=state.residual_sup,
        converged=bool(state.residual_sup <= cfg.tol),
        newton_trace=trace,
        iterate_rows=rows,
    )


def continuity_solve(prob: DhymProblem, cfg: SolverConfig | None = None) -> SolveReport:
    """March a constant-target problem from the initial phase field.

    The stage target at time t is (1-t) Theta0 + t h_hat; the step doubles
    after fast stages and halves on failure within [1/1024, 1/4].  Stage
    solutions warm-start the next stage.  The final stage constant is the
    shift c_1, reported as a diagnostic (it vanishes for h_hat equal to the
    averaged angle of (omega, chi0), up to discretization).
    """
    cfg = cfg or SolverConfig()
    if isinstance(prob.target, ScalarField):
        raise PhaseOutOfRange("continuity_solve needs a constant target")
    grid = prob.grid
    h_hat = float(prob.target)
    theta0 = np.angle(_density(prob.omega, prob.chi0))
    if theta0.min() < prob.phase_floor + prob.eps0 - 1e-12:
        raise PhaseFloorViolated("initial phase field is not supercritical")

    u = ScalarField(grid, np.zeros(grid.shape))
    t = 0.0
    dt = DT_MAX
    continuity_trace: list[tuple[float, float, int]] = [(0.0, 0.0, 0)]
    newton_trace: list[tuple[float, float, float]] = []
    iterate_rows: list[tuple[int, float, float, float, float]] = []

    while t < 1.0:
        t_next = min(1.0, t + dt)
        stage_target = ScalarField(
            grid, (1.0 - t_next) * theta0 + t_next * h_hat
        )
        stage_prob = DhymProblem(
            grid=grid,
            omega=prob.omega,
            chi0=prob.chi0,
            target=stage_target,
            eps0=prob.eps0,
        )
        try:
            report = newton_solve(stage_prob, u0=u, cfg=cfg)
        except (MaxItersExceeded, LinearSolveStalled, PhaseFloorViolated):
            dt *= 0.5
            if dt < DT_MIN:
                raise PathStalled(
                    f"continuation step underflowed {DT_MIN:g} at t={t:.6g}"
                )
            continue
        u, c = report.u, report.c
        iters = len(report.newton_trace) - 1
        newton_trace.extend(report.newton_trace)
        base = len(iterate_rows)
        iterate_rows.extend(
            (base + i, sup, phase, t_next, float(c))
            for i, (_, sup, phase, _, _) in enumerate(report.iterate_rows)
        )
        continuity_trace.append((t_next, c, iters))
        t = t_next
        if iters <= FAST_STAGE_ITERS:
            dt = min(2.0 * dt, DT_MAX)

    # the loop ends only after a successful stage, so report is the last one
    return SolveReport(
        u=report.u,
        c=report.c,
        residual_sup=report.residual_sup,
        converged=report.converged,
        newton_trace=newton_trace,
        continuity_trace=continuity_trace,
        iterate_rows=iterate_rows,
    )
