"""Newton-Krylov continuity solver for the pointwise phase equation.

Solves Theta(chi0 + i ddbar u) = target + c on a flat torus for the pair
(u mean-zero, c real).  Each damped Newton step solves the linearized system
with GMRES, right-preconditioned by the exact inverse of the flat
quarter-Laplacian: the preconditioner is fused into the operator's
transforms (apply_linearized is L M^-1, the operator's one form), so one
Krylov iteration costs 1 + n^2 real transforms, gmres minimizes the true
linear residual and its own last product settles the step.  That product
gives the constant shift, du by one inverse transform of its spectrum, and
the n^2 Hessian planes H(du).  Since i ddbar is linear, the form of the
trial state at step length s is chi + s H(du), so line-search trials cost
no transform; the u a solve returns is evaluated once more from its own
transforms, and that state is the one reported.  The inner tolerance
follows an Eisenstat-Walker forcing schedule (loose while Newton is far
from the root, KRYLOV_TOL once the residual is at or below
FORCING_SWITCH).  A backtracking line search keeps the pointwise phase
above the supercritical floor (n-2) pi/2.  Constant targets are reached by
an adaptive continuation from the initial phase field: its first attempt
is the whole path (DT_MAX = 1), and it halves the step only when a stage
fails.

Solves from u = 0 (newton_solve without u0, and continuity_solve) run
coarse to fine, by nested iteration (Brandt, Math. Comp. 31 (1977);
Allgower, Boehmer, Potra and Rheinboldt, SIAM J. Numer. Anal. 23 (1986)):
the problem is injected onto N/2, ..., 8 (the even grid points of its
varying planes and field target), the coarsest problem is solved directly,
and each finer grid starts Newton from the coarser u, prolonged by
zero-padding its half spectrum, and its c.  A level whose data a coarser
grid resolves (a band-limited target, say) starts at a residual at
round-off and takes no step, so the gain depends on the target's spectrum;
otherwise the finer levels' steps correct the discretization difference,
from residuals below FORCING_SWITCH.  Checks of the problem's own data come
first, on its own grid, and a failure on any level falls back to the
direct solve.

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
from collections.abc import Callable
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
    SolverError,
)
from .torus import (
    FORM_ENTRY_MAX,
    HermitianFormField,
    ScalarField,
    TorusGrid,
    _check_bounded,
    _check_metric_positive,
    _hessian_planes,
    _inverse_laplacian_spectrum,
    _kernel_weights,
    _phase_planes,
    _plus_hessian,
    fftn,
    ifftn,
)

DT_MIN = 1.0 / 1024.0
DT_MAX = 1.0  # continuation first tries the whole path
FAST_STAGE_ITERS = 4  # continuation doubles dt after a stage this fast
ETA_MAX = 0.1  # loosest relative gmres tolerance of a Newton step
FORCING_SWITCH = 1e-4  # residual_sup at or below which gmres solves to KRYLOV_TOL
KRYLOV_TOL = 1e-12  # tightest relative gmres tolerance of a Newton step
GMRES_RESTART = 60  # gmres restarts after this many iterations
GMRES_CYCLES = 6  # and stalls after this many restart cycles
LINE_SEARCH_HALVINGS = 40  # trial step lengths 1, 1/2, ..., 2^-39 per Newton step
# a warm solve's step from a residual at or below this lands at round-off
ROUND_OFF_FROM = 1e-8


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

    def __post_init__(self):
        if not self.tol > 0:  # so that NaN fails too
            raise ConfigError(f"solver tol={self.tol!r} must be positive")
        if not self.max_iters >= 1:
            raise ConfigError(f"solver max_iters={self.max_iters!r} must be at least 1")


@dataclass(frozen=True)
class Iterate:
    """One accepted Newton state and the step that reached it.

    residual_sup, min_phase and max_phase belong to the state: a step's
    state is its trial form chi + step H(du), and a solve's last state is
    its returned u, evaluated from its own transforms.  step is the
    accepted line-search length, krylov_iters the gmres iterations run and
    eta the relative tolerance asked for (all 0 for a solve's starting
    state).  t is the continuation time and c the stage constant: 1 and the
    state's own c in a Newton solve, the stage's t and final c in a
    continuation.  N is the grid of the state's level (see _nested_solve).
    """

    residual_sup: float
    min_phase: float
    max_phase: float
    step: float
    krylov_iters: int
    eta: float
    t: float
    c: float
    N: int


@dataclass
class SolveReport:
    """A converged solve: the solution u and the states that reached it.

    iterates: one record per accepted state, each solve's (or continuation
    stage's, or level's) starting state included, coarsest level first.  No
    accepted step has length 0, so a continuation stage starts at each
    iterate with step == 0 on the continuation's level, which is the first
    iterate's N; each finer level starts at its first iterate with that N.
    c and residual_sup are those of the last iterate, which is u's own.
    failed_attempts: (t, exception class name, N) of each continuation
    stage attempt that failed and made the step halve, in order, after the
    failed level of a coarse-to-fine solve that fell back (t = 1.0).
    """

    u: ScalarField
    iterates: list[Iterate]
    failed_attempts: list[tuple[float, str, int]] = field(default_factory=list)

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
    """Build the planes of chi0 + i ddbar u once (1 + n^2 transforms) and
    derive the residual and phase range from them."""
    return _evaluate_planes(_plus_hessian(prob.chi0.planes, u.values, prob.grid), c, prob)


def _evaluate_planes(chi: np.ndarray, c: float, prob: DhymProblem) -> StateEval:
    """The state whose form has the planes chi, at no transform."""
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


def apply_linearized(kernel: np.ndarray, v_values: np.ndarray, grid: TorusGrid):
    """The right-preconditioned Krylov operator L M^-1 v, L v = tr(K i ddbar v).

    M is the flat quarter-Laplacian: v's half spectrum is divided by its
    symbol (torus._inverse_laplacian_spectrum), and the kernel's weight
    planes multiply the Hessian planes of that quotient, at 1 + n^2
    transforms in all.  Returns the product, the half spectrum of M^-1 v
    and the list of its n^2 Hessian planes.
    """
    spectrum = _inverse_laplacian_spectrum(v_values, grid)
    # all planes before the product, so that the product's plane is not yet
    # allocated while the transforms run: a lower peak
    planes = list(_hessian_planes(spectrum, grid))
    out = kernel[0] * planes[0]
    for weight, plane in zip(kernel[1:], planes[1:]):
        out += weight * plane
    return out, spectrum, planes


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


def _forcing_term(sup: float, prev_sup: float | None, tol: float, warm: bool = False) -> float:
    """Relative gmres tolerance for a Newton step at residual sup.

    Eisenstat-Walker choice 2, eta = min(0.1, 0.9 (sup / prev_sup)^2), with
    0.1 on the first step of a solve, floored at KRYLOV_TOL and at
    0.1 tol / sup so that the last step is not oversolved.  At or below
    FORCING_SWITCH every step solves to KRYLOV_TOL, which keeps the final
    iterates at round-off.  A warm solve, one that starts from a coarser
    level's solution, takes eta = min(0.1, sup) floored at KRYLOV_TOL: a
    step from sup then lands near sup^2 (Dembo, Eisenstat and Steihaug,
    SIAM J. Numer. Anal. 19 (1982)), and its first steps, already below
    FORCING_SWITCH, are not solved to KRYLOV_TOL.
    """
    if warm:
        return max(min(ETA_MAX, sup), KRYLOV_TOL)
    if sup <= FORCING_SWITCH:
        return KRYLOV_TOL
    eta = ETA_MAX if prev_sup is None else min(ETA_MAX, 0.9 * (sup / prev_sup) ** 2)
    return max(eta, KRYLOV_TOL, 0.1 * tol / sup)


def _solve_inner(
    kernel: np.ndarray, res: np.ndarray, grid: TorusGrid, eta: float
) -> tuple[np.ndarray, float, int, list[np.ndarray]]:
    """Solve P L du = -res on the mean-zero subspace (P = mean projector).

    gmres runs on the right-preconditioned operator P L M^-1, with M the
    flat quarter-Laplacian, so it minimizes the true residual of
    du = M^-1 y; its last product, on the returned y, also gives mean(L du),
    the half spectrum of M^-1 y and its Hessian planes.  Returns du (one
    inverse transform of that spectrum), mean(L du) (for the constant
    shift), the gmres iteration count and the n^2 Hessian planes of du;
    raises LinearSolveStalled unless, within GMRES_CYCLES restart cycles of
    GMRES_RESTART iterations, the residual is at most eta times the rhs
    norm.
    """
    npts = grid.num_points
    shape = grid.shape

    # gmres's latest operator input, its mean(L du), and the spectrum and
    # Hessian planes of M^-1 of that input
    last = None

    def matvec(y):
        nonlocal last
        last = None  # the previous call's planes go before the new ones are built
        out, spectrum, planes = apply_linearized(kernel, y.reshape(shape), grid)
        m = out.mean()
        out -= m
        last = (y, m, spectrum, planes)
        return out.ravel()

    b = (res.mean() - res).ravel()  # bitwise P(-res)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        zero = np.zeros(shape)
        return zero, 0.0, 0, [zero] * grid.n ** 2

    pr_norms: list[float] = []  # one relative residual per gmres iteration
    y, info = spla.gmres(
        spla.LinearOperator((npts, npts), matvec=matvec, dtype=float),
        b,
        rtol=eta,
        atol=0.0,
        restart=GMRES_RESTART,
        maxiter=GMRES_CYCLES,
        callback=pr_norms.append,
        callback_type="pr_norm",
    )
    if info != 0:
        raise LinearSolveStalled(
            f"gmres missed rtol {eta:.3e} on rhs norm {bnorm:.3e} after at most "
            f"{GMRES_RESTART * GMRES_CYCLES} iterations ({GMRES_CYCLES} cycles of "
            f"{GMRES_RESTART}, gmres info {info})"
        )
    if last is None or y is not last[0]:
        raise RuntimeError("gmres returned an iterate its last operator call did not see")
    _, l_du_mean, spectrum, planes = last
    du = ifftn(spectrum, shape)
    du -= du.mean()
    return du, float(l_du_mean), len(pr_norms), planes


def _trial_chi(chi: np.ndarray, hess: list[np.ndarray], step: float) -> np.ndarray:
    """Planes of chi + step H, for the Hessian planes H of a direction: the
    form of the trial state at that step, since i ddbar is linear and blind
    to the mean."""
    out = np.empty_like(chi)
    for j, plane in enumerate(hess):
        np.multiply(plane, step, out=out[j])
        out[j] += chi[j]
    return out


def _newton_step(
    state: StateEval,
    u_vals: np.ndarray,
    c: float,
    prob: DhymProblem,
    eta: float,
) -> tuple[np.ndarray, float, StateEval, Iterate]:
    """One damped Newton step from the state of (u_vals, c): the new u, c,
    state and its Iterate.

    The gmres solve returns du with its Hessian planes H(du), so every
    line-search trial is evaluated from chi + step H(du) at no transform.
    The accepted state's form therefore carries round-off that the u it
    belongs to does not; newton_solve re-evaluates the u it returns.
    """
    res = state.residual.values
    kernel = linearization_kernel(state.chi, prob)
    du, l_du_mean, krylov_iters, hess = _solve_inner(kernel, res, prob.grid, eta)
    dc = float(res.mean() + l_du_mean)
    del kernel, res  # the line search needs only (du, dc) and H(du)

    floor = prob.phase_floor
    step = 1.0
    for _ in range(LINE_SEARCH_HALVINGS):
        trial_c = c + step * dc
        trial = _evaluate_planes(_trial_chi(state.chi, hess, step), trial_c, prob)
        if trial.min_phase > floor and trial.residual_sup < state.residual_sup:
            trial_u = u_vals + step * du
            trial_u -= trial_u.mean()
            return trial_u, trial_c, trial, Iterate(
                trial.residual_sup, trial.min_phase, trial.max_phase, step,
                krylov_iters, eta, 1.0, trial_c, prob.grid.N,
            )
        floor_blocked = trial.min_phase <= floor
        del trial  # before the next trial's planes are built
        step *= 0.5
    # the shortest trial decides why the step was blocked
    if floor_blocked:
        raise PhaseFloorViolated("no step length preserves the supercritical phase floor")
    raise MaxItersExceeded(f"line search stalled at residual_sup={state.residual_sup:.3e}")


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
    supercritical floor.  When the steps stop, at tol or after max_iters,
    the returned u is evaluated once more from its own transforms, and that
    state replaces the last Iterate's residual_sup and phase range; if its
    residual is above tol and steps remain, Newton continues from it.

    Without u0 the solve starts at u = 0 and, above the coarsest grid, runs
    coarse to fine (_nested_solve); with u0 it runs on prob's grid alone.
    """
    cfg = cfg or SolverConfig()
    if u0 is None:
        if _initial_phase(prob).min() < prob.phase_floor:
            raise PhaseFloorViolated("initial state is not supercritical for this problem")
        return _nested_solve(
            prob, cfg, lambda level: _newton(level, np.zeros(level.grid.shape), 0.0, cfg)
        )
    _check_bounded(u0=u0.values)
    return _newton(prob, u0.values - u0.values.mean(), 0.0, cfg)


def _newton(
    prob: DhymProblem,
    u_vals: np.ndarray,
    c: float,
    cfg: SolverConfig,
    warm: bool = False,
) -> SolveReport:
    """newton_solve's iteration from the mean-zero u_vals and c.

    A warm solve starts from a coarser level's solution: its forcing term
    is the warm one (_forcing_term), and once at tol it takes one more step
    if its last step started above ROUND_OFF_FROM.  That step ends the
    solve without error if its line search finds no decrease.
    """
    grid = prob.grid
    state = evaluate_state(ScalarField(grid, u_vals), c, prob)
    if state.min_phase < prob.phase_floor:
        raise PhaseFloorViolated(
            "initial state is not supercritical for this problem"
        )

    iterates = [
        Iterate(state.residual_sup, state.min_phase, state.max_phase, 0.0, 0, 0.0, 1.0, c, grid.N)
    ]
    steps = 0
    exact = True  # state was evaluated from u_vals' own transforms
    polish = warm  # one step past tol remains allowed
    while True:
        if state.residual_sup <= cfg.tol or steps >= cfg.max_iters:
            if not exact:
                u_vals = u_vals - u_vals.mean()  # the u that is returned
                state = evaluate_state(ScalarField(grid, u_vals), c, prob)
                exact = True
                iterates[-1] = replace(
                    iterates[-1],
                    residual_sup=state.residual_sup,
                    min_phase=state.min_phase,
                    max_phase=state.max_phase,
                )
                continue
            if not (
                polish
                and state.residual_sup <= cfg.tol
                and steps
                and iterates[-2].residual_sup > ROUND_OFF_FROM
            ):
                break
            polish = False
        prev_sup = iterates[-2].residual_sup if len(iterates) > 1 else None
        eta = _forcing_term(state.residual_sup, prev_sup, cfg.tol, warm)
        try:
            u_vals, c, state, it = _newton_step(state, u_vals, c, prob, eta)
        except MaxItersExceeded:
            if state.residual_sup > cfg.tol:
                raise
            break  # the step past tol found no decrease
        iterates.append(it)
        steps += 1
        exact = False

    if state.residual_sup > cfg.tol:
        raise MaxItersExceeded(
            f"residual_sup={state.residual_sup:.3e} > tol={cfg.tol:.3e} after "
            f"{cfg.max_iters} iterations"
        )
    return SolveReport(ScalarField(grid, u_vals), iterates)


def _initial_phase(prob: DhymProblem) -> np.ndarray:
    """The phase field of chi0, the state u = 0, at no transform (one point
    when omega and chi0 are constant)."""
    return _phase_planes(prob.omega.planes, prob.chi0.planes, prob.grid.n)


def continuity_solve(prob: DhymProblem, cfg: SolverConfig | None = None) -> SolveReport:
    """March a constant-target problem from the initial phase field.

    The stage target at time t is (1-t) Theta0 + t h_hat.  The first
    attempt is the full step to t = 1 (DT_MAX); a failed stage halves the
    step, down to DT_MIN = 1/1024, and a fast stage doubles it again, up to
    DT_MAX.  Each failed attempt is recorded in failed_attempts.  Stage
    solutions warm-start the next stage.  The final stage constant is the
    shift c_1, reported as a diagnostic (it vanishes for h_hat equal to the
    averaged angle of (omega, chi0), up to discretization).  Above the
    coarsest grid the continuation runs there, and Newton carries its
    solution to prob's grid (_nested_solve).
    """
    cfg = cfg or SolverConfig()
    if isinstance(prob.target, ScalarField):
        raise PhaseOutOfRange("continuity_solve needs a constant target")
    if _initial_phase(prob).min() < prob.phase_floor + prob.eps0 - 1e-12:
        raise PhaseFloorViolated("initial phase field is not supercritical")
    return _nested_solve(prob, cfg, lambda level: _continuation(level, cfg))


def _continuation(prob: DhymProblem, cfg: SolverConfig) -> SolveReport:
    """continuity_solve's march on prob's grid, its checks passed."""
    grid = prob.grid
    h_hat = float(prob.target)
    # a constant omega and chi0 give a one-point phase; spread it over the grid
    theta0 = np.broadcast_to(_initial_phase(prob), grid.shape)
    u = ScalarField(grid, np.zeros(grid.shape))
    t = 0.0
    dt = DT_MAX
    iterates: list[Iterate] = []
    failed_attempts: list[tuple[float, str, int]] = []

    while t < 1.0:
        t_next = min(1.0, t + dt)
        stage_target = ScalarField(grid, (1.0 - t_next) * theta0 + t_next * h_hat)
        stage_prob = prob.with_target(stage_target)
        try:
            report = newton_solve(stage_prob, u0=u, cfg=cfg)
        except (MaxItersExceeded, LinearSolveStalled, PhaseFloorViolated) as exc:
            failed_attempts.append((t_next, type(exc).__name__, grid.N))
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


# ---------------------------------------------------------------------------
# coarse to fine
# ---------------------------------------------------------------------------

COARSEST_N = 8  # the smallest N of a TorusGrid


def _inject(prob: DhymProblem) -> DhymProblem:
    """prob on the grid of half the points per axis: the even points of
    its varying planes and field target; collapsed forms and a constant
    target pass through."""
    grid = TorusGrid(prob.grid.n, prob.grid.N // 2)
    even = (slice(None, None, 2),) * (2 * grid.n)

    def form(f: HermitianFormField) -> HermitianFormField:
        if f.planes.shape[1:] != prob.grid.shape:
            return HermitianFormField._of_planes(grid, f.planes)
        return HermitianFormField._of_planes(grid, f.planes[(slice(None),) + even].copy())

    target = prob.target
    if isinstance(target, ScalarField):
        target = ScalarField(grid, target.values[even].copy())
    return DhymProblem(grid, form(prob.omega), form(prob.chi0), target, prob.eps0)


def _prolong(u_vals: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """A field on the grid of half grid's points per axis, carried to grid by
    zero-padding its half spectrum; the coarse Nyquist modes are dropped, so
    injecting the result gives back a Nyquist-free field."""
    half = grid.N // 4  # the coarse grid's Nyquist wavenumber
    coarse = fftn(u_vals)
    # fftfreq order: wavenumbers 0..half-1 and -half+1..-1 of every full axis
    # keep their value; the half axis keeps 0..half-1
    src = np.r_[0:half, half + 1 : 2 * half]
    dst = np.r_[0:half, grid.N - half + 1 : grid.N]
    axes = [src] * (2 * grid.n - 1) + [np.arange(half)]
    fine = np.zeros(grid.shape[:-1] + (grid.N // 2 + 1,), dtype=complex)
    fine[np.ix_(*[dst] * (2 * grid.n - 1), np.arange(half))] = coarse[np.ix_(*axes)]
    fine *= 2 ** (2 * grid.n)  # the point count's ratio, which the transforms scale by
    return ifftn(fine, grid.shape)


def _nested_solve(
    prob: DhymProblem, cfg: SolverConfig, direct: Callable[[DhymProblem], SolveReport]
) -> SolveReport:
    """Solve prob coarse to fine (nested iteration).

    prob is injected onto N/2, ..., COARSEST_N; direct solves the coarsest
    problem, and on each finer grid a warm Newton solve (_newton) runs to
    the same tol from the coarser u, prolonged, and its c.  The report
    holds every level's iterates, coarsest first.  A SolverError on any
    level falls back to direct(prob), whose report then lists the failure
    first in failed_attempts, as (1.0, class name, the level's N).  At
    N = COARSEST_N, direct(prob) is the solve.
    """
    levels = [prob]
    while levels[-1].grid.N > COARSEST_N:
        levels.append(_inject(levels[-1]))
    level = levels.pop()
    if level is prob:
        return direct(prob)
    try:
        report = direct(level)
        while levels:
            level = levels.pop()
            u = _prolong(report.u.values, level.grid)
            fine = _newton(level, u - u.mean(), report.c, cfg, warm=True)
            report = SolveReport(fine.u, report.iterates + fine.iterates, report.failed_attempts)
    except SolverError as exc:
        report = direct(prob)
        report.failed_attempts.insert(0, (1.0, type(exc).__name__, level.grid.N))
    return report
