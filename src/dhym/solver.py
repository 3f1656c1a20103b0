"""Newton-Krylov continuity solver for the pointwise phase equation.

Solves Theta(chi0 + i ddbar u) = target + c on a flat torus for the pair
(u mean-zero, c real).  Each damped Newton step solves the linearized system
with GMRES, right-preconditioned by the exact inverse of the flat
quarter-Laplacian: the preconditioner is fused into the operator's
transforms, so one Krylov iteration costs 1 + n^2 real transforms, gmres
minimizes the true linear residual and its own last product settles the
step.  The inner tolerance follows an Eisenstat-Walker forcing schedule
(loose while Newton is far from the root, krylov_tol once the residual is
at or below FORCING_SWITCH).  A backtracking line search keeps the pointwise
phase above the supercritical floor (n-2) pi/2.  Constant targets are
reached by an adaptive continuation from the initial phase field: its first
attempt is the whole path (DT_MAX = 1), and it halves the step only when a
stage fails.

The solver state is plane-native: a DhymProblem holds omega and chi0 as
HermitianFormFields, whose only data are their n^2 real planes (a form
equal at every point is one point), and each trial form
chi = chi0 + i ddbar u is n^2 planes; the phase and the kernel weight
planes come in closed form from them.  No (..., n, n) complex array is
built on the solve path.  Entries of omega and chi0, and of the potentials
u_star and u0, are bounded by torus.FORM_ENTRY_MAX, checked before any
transform, so that the closed forms cannot overflow.

A solve either raises a SolverError or returns a SolveReport: the solution
u and one Iterate per accepted state, from which c, residual_sup and the
continuation stages are read.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse.linalg as spla

from .errors import (
    ConfigError,
    DimensionMismatch,
    LinearSolveStalled,
    MaxItersExceeded,
    PathStalled,
    PhaseFloorViolated,
    PhaseOutOfRange,
)
from .torus import (
    FORM_ENTRY_MAX,
    HermitianFormField,
    ScalarField,
    TorusGrid,
    _check_bounded,
    _check_metric_positive,
    _hessian_planes,
    _kernel_weights,
    _phase_planes,
    _plus_hessian,
    inverse_laplacian_quarter,
)

DT_MIN = 1.0 / 1024.0
DT_MAX = 1.0  # continuation first tries the whole path
FAST_STAGE_ITERS = 4  # continuation doubles dt after a stage this fast
ETA_MAX = 0.1  # loosest relative gmres tolerance of a Newton step
FORCING_SWITCH = 1e-4  # residual_sup at or below which gmres solves to krylov_tol
LINE_SEARCH_HALVINGS = 40  # trial step lengths 1, 1/2, ..., 2^-39 per Newton step


@dataclass(eq=False)
class DhymProblem:
    """One instance of the phase equation on a torus.

    target is either a ScalarField h(x) or a constant angle; its values must
    stay in [(n-2) pi/2 + eps0, n pi/2) pointwise.  omega is checked
    positive-definite here, once, and the entries of omega and chi0 are
    checked against FORM_ENTRY_MAX; the solver's state evaluations and
    kernels rely on these checks and read only the forms' planes.
    """

    grid: TorusGrid
    omega: HermitianFormField
    chi0: HermitianFormField
    target: ScalarField | float
    eps0: float

    def __post_init__(self):
        if not self.eps0 > 0.0:  # so that NaN fails too
            raise PhaseOutOfRange(f"eps0={self.eps0:.6g} must be positive")
        for f in (self.omega, self.chi0):
            if f.grid != self.grid:
                raise DimensionMismatch("form fields live on a different grid")
        _check_bounded(omega=self.omega.planes, chi0=self.chi0.planes)
        _check_metric_positive(self.omega.planes, self.grid.n)
        self._check_target()

    def with_target(self, target: ScalarField | float) -> DhymProblem:
        """This problem with another target.  The forms are shared, and
        omega is not checked again."""
        other = copy.copy(self)
        other.target = target
        other._check_target()
        return other

    def _check_target(self) -> None:
        if isinstance(self.target, ScalarField) and self.target.grid != self.grid:
            raise DimensionMismatch("target field lives on a different grid")
        lo = self.phase_floor + self.eps0
        hi = self.grid.n * np.pi / 2
        vals = self.target_values()
        if not (vals.min() >= lo - 1e-12 and vals.max() < hi):
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

    def __post_init__(self):
        # positive comparisons, so that NaN fails; gmres would accept the
        # zero iterate at a relative tolerance of 1 or more
        if not (
            self.tol > 0
            and 0 < self.krylov_tol < 1
            and self.max_iters >= 1
            and self.krylov_iters >= 1
        ):
            raise ConfigError("solver tolerances must be positive, with krylov_tol below 1")


@dataclass(frozen=True)
class Iterate:
    """One accepted Newton state and the step that reached it.

    residual_sup, min_phase and max_phase belong to the state; step is the
    accepted line-search length, krylov_iters the gmres iterations run and
    eta the relative tolerance asked for (all 0 for a solve's starting
    state).  t is the continuation time and c the stage constant: 1 and the
    state's own c in a Newton solve, the stage's t and final c in a
    continuation.
    """

    residual_sup: float
    min_phase: float
    max_phase: float
    step: float
    krylov_iters: int
    eta: float
    t: float
    c: float


@dataclass
class SolveReport:
    """A converged solve: the solution u and the states that reached it.

    iterates: one record per accepted state, each solve's (or continuation
    stage's) starting state included; no accepted step has length 0, so a
    continuation stage starts at each iterate with step == 0.  c and
    residual_sup are those of the last iterate.
    failed_attempts: (t, exception class name) of each continuation stage
    attempt that failed and made the step halve, in order.
    """

    u: ScalarField
    iterates: list[Iterate]
    failed_attempts: list[tuple[float, str]] = field(default_factory=list)

    @property
    def c(self) -> float:
        return self.iterates[-1].c

    @property
    def residual_sup(self) -> float:
        return self.iterates[-1].residual_sup


@dataclass
class StateEval:
    """What one evaluation derives from a state (u, c).

    chi holds the n^2 real planes of the form chi0 + i ddbar u, shape
    (n^2,) + grid; residual is Theta(chi) - target - c pointwise,
    residual_sup its sup norm, and min_phase/max_phase the extremes of the
    pointwise phase Theta(chi).
    """

    chi: np.ndarray
    residual: ScalarField
    residual_sup: float
    min_phase: float
    max_phase: float


def evaluate_state(u: ScalarField, c: float, prob: DhymProblem) -> StateEval:
    """Build the planes of chi0 + i ddbar u once and derive the residual and
    phase range from them."""
    chi = _plus_hessian(prob.chi0.planes, u.values, prob.grid)
    theta = _phase_planes(prob.omega.planes, chi, prob.grid.n)
    res = theta - prob.target_values()
    res -= c  # in place: one plane less at the peak
    res = ScalarField(prob.grid, res)
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


def linearization_kernel(chi: np.ndarray, prob: DhymProblem) -> np.ndarray:
    """Real weight planes of the linearized operator, shape (n^2,) + grid.

    K = (omega + chi omega^-1 chi)^-1 at the state whose form has the planes
    chi (see evaluate_state), in closed form (torus._kernel_weights).  The
    derivative of the phase in direction v is
    tr(K i ddbar v) = sum_j K_jj v_jj + sum_{j<k} 2 Re(K_jk conj(v_jk)), so
    the planes [K_jj for each j, then 2 Re K_jk and 2 Im K_jk for each j < k]
    pair one to one with the Hessian planes of v (torus._hessian_planes).
    """
    return _kernel_weights(prob.omega.planes, chi, prob.grid.n)


def apply_linearized(
    kernel: np.ndarray, v_values: np.ndarray, grid: TorusGrid, preconditioned: bool = False
):
    """tr(K i ddbar v): the kernel's weight planes times v's Hessian planes.

    With preconditioned, v is replaced by inverse_laplacian_quarter(v) inside
    the same transforms: this is the right-preconditioned Krylov operator.
    """
    planes = _hessian_planes(v_values, grid, preconditioned)
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

    The target is the discrete phase field of chi0 + i ddbar u_star, from
    the same planes and formulas as evaluate_state; raises PhaseOutOfRange
    if that field leaves the admissible band.  The entries of omega, chi0
    and u_star are bounded before the target is computed; the DhymProblem
    checks that omega is positive-definite.
    """
    grid = u_star.grid
    _check_bounded(omega=omega.planes, chi0=chi0.planes, u_star=u_star.values)
    chi = _plus_hessian(chi0.planes, u_star.values, grid)
    target = ScalarField(grid, _phase_planes(omega.planes, chi, grid.n))
    del chi  # freed before the problem is built
    return DhymProblem(grid=grid, omega=omega, chi0=chi0, target=target, eps0=eps0)


def _forcing_term(sup: float, prev_sup: float | None, cfg: SolverConfig) -> float:
    """Relative gmres tolerance for a Newton step at residual sup.

    Eisenstat-Walker choice 2, eta = min(0.1, 0.9 (sup / prev_sup)^2), with
    0.1 on the first step of a solve, floored at krylov_tol and at
    0.1 tol / sup so that the last step is not oversolved.  At or below
    FORCING_SWITCH every step solves to krylov_tol, which keeps the final
    iterates at round-off.
    """
    if sup <= FORCING_SWITCH:
        return cfg.krylov_tol
    eta = ETA_MAX if prev_sup is None else min(ETA_MAX, 0.9 * (sup / prev_sup) ** 2)
    return max(eta, cfg.krylov_tol, 0.1 * cfg.tol / sup)


def _solve_inner(
    kernel: np.ndarray,
    rhs: np.ndarray,
    grid: TorusGrid,
    cfg: SolverConfig,
    eta: float,
) -> tuple[np.ndarray, float, int]:
    """Solve P L du = rhs on the mean-zero subspace (P = mean projector).

    gmres runs on the right-preconditioned operator P L M^-1, with M the
    flat quarter-Laplacian, so it minimizes the true residual of
    du = M^-1 y; its last product, on the returned y, also gives mean(L du).
    Returns du, mean(L du) (for the constant shift) and the gmres iteration
    count; raises LinearSolveStalled unless the residual is at most eta
    (floored at 1e-14) times the rhs norm.
    """
    npts = grid.num_points
    shape = grid.shape

    def project(x):
        return x - x.mean()

    last_y = last_mean = None  # gmres's latest operator input and its mean(L du)

    def matvec(y):
        nonlocal last_y, last_mean
        out = apply_linearized(kernel, y.reshape(shape), grid, preconditioned=True)
        last_y, last_mean = y, out.mean()
        return (out - last_mean).ravel()

    b = project(rhs).ravel()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(shape), 0.0, 0

    pr_norms: list[float] = []  # one relative residual per gmres iteration
    rtol = max(eta, 1e-14)
    restart = min(60, cfg.krylov_iters)
    cycles = max(1, cfg.krylov_iters // 60)
    y, info = spla.gmres(
        spla.LinearOperator((npts, npts), matvec=matvec, dtype=float),
        b,
        rtol=rtol,
        atol=0.0,
        restart=restart,
        maxiter=cycles,
        callback=pr_norms.append,
        callback_type="pr_norm",
    )
    if info != 0:
        raise LinearSolveStalled(
            f"gmres missed rtol {rtol:.3e} on rhs norm {bnorm:.3e} after at most "
            f"{restart * cycles} iterations ({cycles} cycles of {restart}, "
            f"gmres info {info})"
        )
    if y is not last_y:
        raise RuntimeError("gmres returned an iterate its last operator call did not see")
    du = project(inverse_laplacian_quarter(y.reshape(shape), grid))
    return du, float(last_mean), len(pr_norms)


def newton_solve(
    prob: DhymProblem,
    u0: ScalarField | None = None,
    cfg: SolverConfig | None = None,
) -> SolveReport:
    """Damped Newton on the augmented unknown (u mean-zero, c).

    Each step solves the linearized system on the mean-zero subspace with the
    flat-Laplacian preconditioner, to the relative tolerance that
    _forcing_term picks, and recovers the constant shift from the residual
    mean; the backtracking line search halves the step until the sup
    residual decreases and the minimum pointwise phase stays above the
    supercritical floor.
    """
    cfg = cfg or SolverConfig()
    grid = prob.grid
    if u0 is None:
        u0 = ScalarField(grid, np.zeros(grid.shape))
    _check_bounded(u0=u0.values)
    u_vals = u0.values - u0.values.mean()
    c = 0.0
    floor = prob.phase_floor

    state = evaluate_state(ScalarField(grid, u_vals), c, prob)
    if state.min_phase < floor:
        raise PhaseFloorViolated(
            "initial state is not supercritical for this problem"
        )

    iterates = [
        Iterate(state.residual_sup, state.min_phase, state.max_phase, 0.0, 0, 0.0, 1.0, c)
    ]

    for _ in range(cfg.max_iters):
        if state.residual_sup <= cfg.tol:
            break
        res = state.residual.values
        prev_sup = iterates[-2].residual_sup if len(iterates) > 1 else None
        eta = _forcing_term(state.residual_sup, prev_sup, cfg)
        kernel = linearization_kernel(state.chi, prob)
        du, l_du_mean, krylov_iters = _solve_inner(kernel, -res, grid, cfg, eta)
        dc = float(res.mean() + l_du_mean)
        del kernel  # the line search needs only (du, dc)

        step = 1.0
        floor_blocked = False
        for _ in range(LINE_SEARCH_HALVINGS):
            trial_u = u_vals + step * du
            trial_u -= trial_u.mean()
            trial_c = c + step * dc
            trial = evaluate_state(ScalarField(grid, trial_u), trial_c, prob)
            if trial.min_phase > floor and trial.residual_sup < state.residual_sup:
                u_vals, c, state = trial_u, trial_c, trial
                iterates.append(Iterate(
                    state.residual_sup, state.min_phase, state.max_phase, step,
                    krylov_iters, eta, 1.0, c,
                ))
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

    return SolveReport(ScalarField(grid, u_vals - u_vals.mean()), iterates)


def continuity_solve(prob: DhymProblem, cfg: SolverConfig | None = None) -> SolveReport:
    """March a constant-target problem from the initial phase field.

    The stage target at time t is (1-t) Theta0 + t h_hat.  The first
    attempt is the full step to t = 1 (DT_MAX); a failed stage halves the
    step, down to DT_MIN = 1/1024, and a fast stage doubles it again, up to
    DT_MAX.  Each failed attempt is recorded in failed_attempts.  Stage
    solutions warm-start the next stage.  The final stage constant is the
    shift c_1, reported as a diagnostic (it vanishes for h_hat equal to the
    averaged angle of (omega, chi0), up to discretization).
    """
    cfg = cfg or SolverConfig()
    if isinstance(prob.target, ScalarField):
        raise PhaseOutOfRange("continuity_solve needs a constant target")
    grid = prob.grid
    h_hat = float(prob.target)
    # a constant omega and chi0 give a one-point phase; spread it over the grid
    theta0 = np.broadcast_to(
        _phase_planes(prob.omega.planes, prob.chi0.planes, grid.n), grid.shape
    )
    if theta0.min() < prob.phase_floor + prob.eps0 - 1e-12:
        raise PhaseFloorViolated("initial phase field is not supercritical")

    u = ScalarField(grid, np.zeros(grid.shape))
    t = 0.0
    dt = DT_MAX
    iterates: list[Iterate] = []
    failed_attempts: list[tuple[float, str]] = []

    while t < 1.0:
        t_next = min(1.0, t + dt)
        stage_target = ScalarField(grid, (1.0 - t_next) * theta0 + t_next * h_hat)
        stage_prob = prob.with_target(stage_target)
        try:
            report = newton_solve(stage_prob, u0=u, cfg=cfg)
        except (MaxItersExceeded, LinearSolveStalled, PhaseFloorViolated) as exc:
            failed_attempts.append((t_next, type(exc).__name__))
            dt *= 0.5
            if dt < DT_MIN:
                raise PathStalled(
                    f"continuation step underflowed {DT_MIN:g} at t={t:.6g}"
                )
            continue
        u = report.u
        iterates.extend(replace(it, t=t_next, c=report.c) for it in report.iterates)
        t = t_next
        if len(report.iterates) - 1 <= FAST_STAGE_ITERS:
            dt = min(2.0 * dt, DT_MAX)

    return SolveReport(u, iterates, failed_attempts)
