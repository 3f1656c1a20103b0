"""Newton-Krylov solver: residual, linearization, manufactured and continuity runs."""

import re
import warnings

import numpy as np
import pytest

from dhym.errors import (
    BadRange,
    ConfigError,
    LinearSolveStalled,
    MaxItersExceeded,
    NotPositiveDefinite,
    PathStalled,
    PhaseFloorViolated,
    PhaseOutOfRange,
)
from dhym.solver import (
    FORM_ENTRY_MAX,
    DhymProblem,
    SolverConfig,
    continuity_solve,
    evaluate_state,
    linearization_kernel,
    linearized_apply,
    manufactured_problem,
    newton_solve,
    residual,
    verify_supercritical,
)
from dhym.torus import (
    HermitianFormField,
    ScalarField,
    TorusGrid,
    constant_form_field,
    hat_theta,
    i_ddbar,
    identity_metric,
    integrate,
    isotropic_form_field,
    inverse_laplacian_quarter,
    laplacian_quarter,
    theta_field,
)


def _grid1(N=32):
    return TorusGrid(1, N)


def _simple_problem(g, chi_level=0.3, target=0.3, eps0=0.5):
    return DhymProblem(
        grid=g,
        omega=identity_metric(g),
        chi0=constant_form_field(g, chi_level * np.eye(g.n)),
        target=float(target),
        eps0=eps0,
    )


def _varying_chi0(g):
    x1, y1 = g.axis_coordinate("x1"), g.axis_coordinate("y1")
    return isotropic_form_field(g, ScalarField(g, 0.5 + 0.2 * np.cos(x1) + 0.1 * np.sin(y1)))


def _random_band_limited(g, rng, amp=0.1):
    vals = np.zeros(g.shape)
    axes = [f"{c}{j + 1}" for j in range(g.n) for c in ("x", "y")]
    for axis in axes:
        coord = g.axis_coordinate(axis)
        for freq in (1, 2):
            vals = vals + amp * rng.uniform(-1, 1) * np.cos(
                freq * coord + rng.uniform(0, 2 * np.pi)
            )
    return ScalarField(g, vals - vals.mean())


# --- residual -------------------------------------------------------------------


def test_residual_zero_at_exact_solution():
    g = _grid1()
    om = identity_metric(g)
    chi0 = constant_form_field(g, [[0.3]])
    prob = DhymProblem(g, om, chi0, theta_field(om, chi0), eps0=0.5)
    res = residual(ScalarField(g, np.zeros(g.shape)), 0.0, prob)
    assert np.max(np.abs(res.values)) == 0.0


def test_residual_n1_reduction():
    g = _grid1()
    prob = _simple_problem(g, chi_level=0.0, target=0.2)
    rng = np.random.default_rng(0)
    u = _random_band_limited(g, rng)
    res = residual(u, 0.0, prob)
    hess = i_ddbar(u).values[..., 0, 0].real
    expect = np.arctan(hess) - 0.2
    assert np.max(np.abs(res.values - expect)) <= 1e-12


def test_residual_manufactured_is_zero():
    g = _grid1(64)
    ustar = ScalarField(g, 0.3 * np.cos(g.axis_coordinate("x1")))
    prob = manufactured_problem(
        ustar, identity_metric(g), constant_form_field(g, [[0.2]]), eps0=0.5
    )
    res = residual(ustar, 0.0, prob)
    assert np.max(np.abs(res.values)) <= 1e-11


# --- linearization -----------------------------------------------------------------


def test_linearized_is_quarter_laplacian_at_flat_state():
    g = _grid1()
    prob = _simple_problem(g, chi_level=0.0, target=0.2)
    rng = np.random.default_rng(1)
    v = _random_band_limited(g, rng)
    out = linearized_apply(ScalarField(g, np.zeros(g.shape)), v, prob)
    assert np.max(np.abs(out.values - laplacian_quarter(v.values, g))) <= 1e-12


def test_linearized_constant_direction_is_zero():
    g = _grid1()
    prob = _simple_problem(g)
    out = linearized_apply(
        ScalarField(g, np.zeros(g.shape)), ScalarField(g, np.full(g.shape, 3.0)), prob
    )
    assert np.max(np.abs(out.values)) <= 1e-13


def test_linearized_matches_finite_difference():
    rng = np.random.default_rng(2)
    for n, N in ((1, 32), (2, 8)):
        g = TorusGrid(n, N)
        prob = _simple_problem(g, chi_level=0.3, target=0.3 * n, eps0=0.2)
        for _ in range(10):
            u = _random_band_limited(g, rng)
            v = _random_band_limited(g, rng)
            lin = linearized_apply(u, v, prob).values
            eps = 1e-5
            rp = residual(ScalarField(g, u.values + eps * v.values), 0.0, prob).values
            rm = residual(ScalarField(g, u.values - eps * v.values), 0.0, prob).values
            fd = (rp - rm) / (2 * eps)
            assert np.max(np.abs(lin - fd)) / max(1e-12, np.max(np.abs(fd))) <= 1e-6


def test_linearized_symmetric_at_constant_state_and_elliptic_sign():
    # at constant-coefficient states the operator is exactly self-adjoint in
    # L^2; its quadratic form carries the elliptic (negative Laplacian-like)
    # sign on mean-zero fields
    g = _grid1()
    prob = _simple_problem(g, chi_level=0.4, target=0.4)
    u0 = ScalarField(g, np.zeros(g.shape))
    rng = np.random.default_rng(4)
    for _ in range(50):
        v = _random_band_limited(g, rng)
        w = _random_band_limited(g, rng)
        lv = linearized_apply(u0, v, prob)
        lw = linearized_apply(u0, w, prob)
        sym = integrate(ScalarField(g, lv.values * w.values)) - integrate(
            ScalarField(g, v.values * lw.values)
        )
        assert abs(sym) <= 1e-9
        quad = integrate(ScalarField(g, lv.values * v.values))
        assert quad < 0.0


# --- newton -------------------------------------------------------------------------


def test_newton_trivial_start_is_converged():
    g = _grid1()
    om = identity_metric(g)
    chi0 = constant_form_field(g, [[0.3]])
    prob = DhymProblem(g, om, chi0, theta_field(om, chi0), eps0=0.5)
    rep = newton_solve(prob)
    assert rep.residual_sup <= SolverConfig().tol
    assert len(rep.iterates) == 1
    assert rep.c == 0.0
    assert np.max(np.abs(rep.u.values)) == 0.0


def test_newton_manufactured_n1():
    g = _grid1(64)
    ustar = ScalarField(g, 0.3 * np.cos(g.axis_coordinate("x1")))
    prob = manufactured_problem(
        ustar, identity_metric(g), constant_form_field(g, [[0.2]]), eps0=0.5
    )
    rep = newton_solve(prob, cfg=SolverConfig(tol=1e-11))
    aligned = ustar.values - ustar.values.mean()
    assert rep.residual_sup <= 1e-8
    assert np.max(np.abs(rep.u.values - aligned)) <= 1e-9
    assert abs(rep.u.values.mean()) <= 1e-13
    for it in rep.iterates:
        assert it.min_phase - prob.phase_floor > 0.0


def test_newton_manufactured_n2_small():
    g = TorusGrid(2, 16)
    ustar = ScalarField(
        g,
        0.1 * np.cos(g.axis_coordinate("x1")) + 0.05 * np.cos(g.axis_coordinate("y2")),
    )
    prob = manufactured_problem(
        ustar, identity_metric(g), constant_form_field(g, 0.3 * np.eye(2)), eps0=0.3
    )
    rep = newton_solve(prob, cfg=SolverConfig(tol=1e-11))
    aligned = ustar.values - ustar.values.mean()
    assert rep.residual_sup <= 1e-8
    assert np.max(np.abs(rep.u.values - aligned)) <= 1e-6


def test_newton_rejects_subcritical_start():
    g = TorusGrid(2, 8)
    om = identity_metric(g)
    chi0 = constant_form_field(g, -2.0 * np.eye(2))  # negative phase state
    prob = DhymProblem(g, om, chi0, float(np.pi / 2), eps0=0.1)
    with pytest.raises(PhaseFloorViolated):
        newton_solve(prob)


def test_newton_starved_krylov_stalls():
    g = _grid1()
    ustar = ScalarField(g, 0.3 * np.cos(g.axis_coordinate("x1")))
    prob = manufactured_problem(
        ustar, identity_metric(g), constant_form_field(g, [[0.2]]), eps0=0.5
    )
    with pytest.raises(LinearSolveStalled):
        newton_solve(prob, cfg=SolverConfig(tol=1e-11, krylov_iters=1))


@pytest.mark.parametrize("krylov_iters,cap,cycles", [(400, 360, 6), (100, 60, 1)])
def test_stalled_message_reports_gmres_cap(monkeypatch, krylov_iters, cap, cycles):
    import scipy.sparse.linalg as spla

    def no_progress(A, b, **kwargs):
        # scipy's gmres reports an unmet tolerance as info = maxiter
        return np.zeros_like(b), kwargs["maxiter"]

    monkeypatch.setattr(spla, "gmres", no_progress)
    g = _grid1()
    ustar = ScalarField(g, 0.3 * np.cos(g.axis_coordinate("x1")))
    prob = manufactured_problem(
        ustar, identity_metric(g), constant_form_field(g, [[0.2]]), eps0=0.5
    )
    with pytest.raises(
        LinearSolveStalled,
        match=rf"after at most {cap} iterations \({cycles} cycles of 60, gmres info {cycles}\)",
    ):
        newton_solve(prob, cfg=SolverConfig(krylov_iters=krylov_iters))


def _manufactured_n1():
    g = _grid1(64)
    ustar = ScalarField(g, 0.3 * np.cos(g.axis_coordinate("x1")))
    return manufactured_problem(
        ustar, identity_metric(g), constant_form_field(g, [[0.2]]), eps0=0.5
    )


def test_forcing_tightens_to_krylov_tol_below_switch(monkeypatch):
    import scipy.sparse.linalg as spla

    import dhym.solver as solver

    rtols = []
    gmres = spla.gmres

    def spy(A, b, **kwargs):
        rtols.append(kwargs["rtol"])
        return gmres(A, b, **kwargs)

    monkeypatch.setattr(spla, "gmres", spy)
    cfg = SolverConfig(tol=1e-11)
    rep = newton_solve(_manufactured_n1(), cfg=cfg)
    assert rep.residual_sup <= cfg.tol
    sups = [it.residual_sup for it in rep.iterates[: len(rtols)]]
    assert len(rtols) == len(rep.iterates) - 1
    assert rtols == [it.eta for it in rep.iterates[1:]]
    loose = [r for r, sup in zip(rtols, sups) if sup > solver.FORCING_SWITCH]
    tight = [r for r, sup in zip(rtols, sups) if sup <= solver.FORCING_SWITCH]
    assert loose and tight
    assert all(r > cfg.krylov_tol for r in loose)
    assert tight == [cfg.krylov_tol] * len(tight)


def test_loose_step_accepts_residual_within_eta(monkeypatch):
    import scipy.sparse.linalg as spla

    gmres = spla.gmres
    reached = []

    def meets_eta_only(A, b, **kwargs):
        # the near-exact solution, shrunk so its relative residual is rtol / 2
        x, info = gmres(A, b, **dict(kwargs, rtol=1e-14))
        x = (1.0 - 0.5 * kwargs["rtol"]) * x
        reached.append(np.linalg.norm(A.matvec(x) - b) / np.linalg.norm(b))
        return x, info

    monkeypatch.setattr(spla, "gmres", meets_eta_only)
    cfg = SolverConfig(tol=1e-11)
    rep = newton_solve(_manufactured_n1(), cfg=cfg)
    assert rep.residual_sup <= cfg.tol
    assert reached[0] > 1e3 * cfg.krylov_tol
    assert reached[0] <= rep.iterates[1].eta


def test_iterates_count_operator_applications(monkeypatch):
    import dhym.solver as solver

    applies = []
    apply_orig = solver.apply_linearized

    def counting_apply(kernel, v_values, grid, **kw):
        applies.append(kw.get("preconditioned", False))
        return apply_orig(kernel, v_values, grid, **kw)

    monkeypatch.setattr(solver, "apply_linearized", counting_apply)
    g = TorusGrid(2, 8)
    ustar = ScalarField(
        g,
        0.1 * np.cos(g.axis_coordinate("x1")) + 0.05 * np.sin(g.axis_coordinate("y2")),
    )
    prob = manufactured_problem(
        ustar, identity_metric(g), constant_form_field(g, 0.3 * np.eye(2)), eps0=0.3
    )
    rep = newton_solve(prob, cfg=SolverConfig(tol=1e-11))
    assert rep.residual_sup <= 1e-11 and len(rep.iterates) > 1
    iters = [it.krylov_iters for it in rep.iterates[1:]]
    assert all(0 < k < 60 for k in iters)  # one restart cycle per step
    # each step adds the cycle-end residual of its one restart cycle
    assert all(applies)
    assert sum(iters) == len(applies) - len(iters)


def test_solve_inner_rejects_iterate_the_operator_never_saw(monkeypatch):
    import scipy.sparse.linalg as spla

    gmres = spla.gmres

    def copied_iterate(A, b, **kwargs):
        # a converged solve whose iterate comes back as a copy: mean(L du)
        # was not computed from the returned array
        x, info = gmres(A, b, **kwargs)
        assert info == 0
        return x.copy(), info

    monkeypatch.setattr(spla, "gmres", copied_iterate)
    with pytest.raises(RuntimeError, match="last operator call"):
        newton_solve(_manufactured_n1())


def test_iterates_hold_the_computed_min_phase(monkeypatch):
    import dhym.solver as solver

    phases = []
    evaluate = solver.evaluate_state

    def recording(u, c, prob):
        state = evaluate(u, c, prob)
        phases.append(state.min_phase)
        return state

    monkeypatch.setattr(solver, "evaluate_state", recording)
    g = _grid1()
    ustar = ScalarField(g, 0.3 * np.cos(g.axis_coordinate("x1")))
    prob = manufactured_problem(
        ustar, identity_metric(g), constant_form_field(g, [[0.2]]), eps0=0.5
    )
    rep = newton_solve(prob)
    assert rep.residual_sup <= SolverConfig().tol and len(rep.iterates) > 1
    # n=1 puts the floor at -pi/2, where margin + floor would not round-trip
    assert all(it.min_phase in phases for it in rep.iterates)


def test_newton_iteration_budget():
    g = _grid1()
    ustar = ScalarField(g, 0.3 * np.cos(g.axis_coordinate("x1")))
    prob = manufactured_problem(
        ustar, identity_metric(g), constant_form_field(g, [[0.2]]), eps0=0.5
    )
    with pytest.raises(MaxItersExceeded):
        newton_solve(prob, cfg=SolverConfig(tol=1e-14, max_iters=1))


@pytest.mark.parametrize(
    "kw",
    [
        pytest.param({"krylov_tol": 2.0}, id="krylov_tol-2"),
        pytest.param({"tol": float("nan"), "max_iters": 3}, id="tol-nan"),
        pytest.param({"krylov_tol": float("nan")}, id="krylov_tol-nan"),
        pytest.param({"max_iters": 0}, id="max_iters-0"),
        pytest.param({"krylov_iters": 0}, id="krylov_iters-0"),
    ],
)
def test_solver_config_refuses_bad_fields(kw):
    # at krylov_tol >= 1 gmres returns its zero iterate without an operator
    # call, and no residual ever meets a NaN tol
    with pytest.raises(ConfigError, match="krylov_tol below 1"):
        newton_solve(_manufactured_n1(), cfg=SolverConfig(**kw))


@pytest.mark.parametrize("name", ["omega", "chi0"])
def test_problem_bounds_form_entries(name):
    g = TorusGrid(2, 8)
    forms = {"omega": identity_metric(g), "chi0": constant_form_field(g, 0.3 * np.eye(2))}
    # an off-diagonal entry: the closed forms square it
    forms[name] = constant_form_field(g, forms[name].values[(0,) * 4] + [[0, 2e64], [2e64, 0]])
    ustar = ScalarField(g, 0.1 * np.cos(g.axis_coordinate("x1")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any product overflows
        with pytest.raises(BadRange, match=name):
            DhymProblem(g, forms["omega"], forms["chi0"], 0.5, eps0=0.1)
        with pytest.raises(BadRange, match=name):
            manufactured_problem(ustar, forms["omega"], forms["chi0"], eps0=0.1)


def test_problem_accepts_form_entries_at_the_bound():
    g = TorusGrid(2, 8)
    chi0 = constant_form_field(g, [[0.5, FORM_ENTRY_MAX], [FORM_ENTRY_MAX, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prob = DhymProblem(g, identity_metric(g), chi0, 0.5, eps0=0.1)
        state = evaluate_state(ScalarField(g, np.zeros(g.shape)), 0.0, prob)
        linearization_kernel(state.chi, prob)
    # eigenvalues 0.5 +- 1e64: the phase is arctan(1e64) + arctan(-1e64) = 0
    assert abs(state.min_phase) <= 1e-12 and abs(state.max_phase) <= 1e-12


@pytest.mark.parametrize("eps0,target", [(float("nan"), 0.3), (0.5, float("nan"))])
def test_problem_refuses_nan(eps0, target):
    with pytest.raises(PhaseOutOfRange):
        _simple_problem(_grid1(8), target=target, eps0=eps0)


def test_continuity_path_stalls_when_stages_cannot_converge():
    g = _grid1()
    x = g.axis_coordinate("x1")
    om = identity_metric(g)
    chi0 = isotropic_form_field(g, ScalarField(g, 0.5 + 0.2 * np.cos(x)))
    hhat = float(np.arctan(0.5))
    prob = DhymProblem(g, om, chi0, hhat, eps0=0.25)
    with pytest.raises(PathStalled):
        continuity_solve(prob, cfg=SolverConfig(tol=1e-16, max_iters=2))


def test_newton_floor_blocked_step_raises_phase_floor(monkeypatch):
    import dhym.solver as solver

    # a full Newton step of this problem crosses the phase floor, and with
    # one trial allowed the line search cannot shorten it
    monkeypatch.setattr(solver, "LINE_SEARCH_HALVINGS", 1)
    g = TorusGrid(2, 8)
    x1, y1, x2 = (g.axis_coordinate(a) for a in ("x1", "y1", "x2"))
    ustar = ScalarField(g, 1.2 * np.cos(x1) * np.cos(x2) + 0.36 * np.sin(y1))
    prob = manufactured_problem(
        ustar, identity_metric(g), constant_form_field(g, 0.35 * np.eye(2)), eps0=1e-3
    )
    with pytest.raises(PhaseFloorViolated):
        newton_solve(prob)


def test_newton_evaluates_each_trial_state_once(monkeypatch):
    import dhym.solver as solver
    import dhym.torus as torus

    counts = {"evaluate": 0, "forward": 0, "matvec": 0, "precondition": 0}
    evaluate_orig, fftn_orig = solver.evaluate_state, torus.fftn
    apply_orig, inverse_orig = solver.apply_linearized, solver.inverse_laplacian_quarter

    def counting_evaluate(u, c, prob):
        counts["evaluate"] += 1
        return evaluate_orig(u, c, prob)

    def counting_fftn(values):
        counts["forward"] += 1
        return fftn_orig(values)

    def counting_apply(kernel, v_values, grid, **kw):
        counts["matvec"] += 1
        return apply_orig(kernel, v_values, grid, **kw)

    def counting_inverse(rhs, grid):
        counts["precondition"] += 1
        return inverse_orig(rhs, grid)

    g = TorusGrid(2, 8)
    ustar = ScalarField(
        g,
        0.1 * np.cos(g.axis_coordinate("x1")) + 0.05 * np.sin(g.axis_coordinate("y2")),
    )
    prob = manufactured_problem(
        ustar, identity_metric(g), constant_form_field(g, 0.3 * np.eye(2)), eps0=0.3
    )
    monkeypatch.setattr(solver, "evaluate_state", counting_evaluate)
    monkeypatch.setattr(torus, "fftn", counting_fftn)
    monkeypatch.setattr(solver, "apply_linearized", counting_apply)
    monkeypatch.setattr(solver, "inverse_laplacian_quarter", counting_inverse)
    rep = newton_solve(prob, cfg=SolverConfig(tol=1e-11))
    assert rep.residual_sup <= 1e-11 and len(rep.iterates) > 1
    # an accepted step of length 2^-m is the (m+1)-th trial of its line search
    trials = sum(1 + round(-np.log2(it.step)) for it in rep.iterates[1:])
    assert counts["evaluate"] == 1 + trials
    # every forward transform outside the matvecs and the one M^-1 apply per
    # step belongs to a state evaluation: one per trial, each done once
    steps = len(rep.iterates) - 1
    assert counts["matvec"] > 0 and counts["precondition"] == steps
    assert counts["forward"] - counts["matvec"] - counts["precondition"] == 1 + trials


@pytest.mark.parametrize("n", [1, 2])
def test_problem_rejects_non_positive_omega(n):
    g = TorusGrid(n, 8)
    vals = np.broadcast_to(np.eye(n, dtype=complex), g.shape + (n, n)).copy()
    idx = (1, 2, 3, 4)[: 2 * n]
    vals[idx + (n - 1, n - 1)] = -1.0
    omega = HermitianFormField(g, vals, _symmetrized=True)
    chi0 = constant_form_field(g, 0.3 * np.eye(n))
    with pytest.raises(NotPositiveDefinite, match=re.escape(f"grid index {idx}")):
        DhymProblem(g, omega, chi0, float(n * np.pi / 4), eps0=0.1)


def test_newton_checks_omega_once_per_problem(monkeypatch):
    import dhym.solver as solver
    import dhym.torus as torus

    g = TorusGrid(2, 8)
    ustar = ScalarField(g, 0.1 * np.cos(g.axis_coordinate("x1")))
    omega = identity_metric(g)
    chi0 = constant_form_field(g, 0.3 * np.eye(2))
    target = theta_field(
        omega, HermitianFormField(g, chi0.values + i_ddbar(ustar).values, _symmetrized=True)
    )

    calls = []
    check = torus._check_metric_positive

    def counting_check(values, n):
        calls.append(n)
        check(values, n)

    monkeypatch.setattr(torus, "_check_metric_positive", counting_check)
    monkeypatch.setattr(solver, "_check_metric_positive", counting_check)
    prob = DhymProblem(g, omega, chi0, target, eps0=0.3)
    assert len(calls) == 1
    rep = newton_solve(prob, cfg=SolverConfig(tol=1e-11))
    assert rep.residual_sup <= 1e-11 and len(rep.iterates) > 1
    assert len(calls) == 1


def test_continuation_stages_reuse_the_problem_planes(monkeypatch):
    import dhym.solver as solver
    import dhym.torus as torus

    g = TorusGrid(2, 8)
    omega, chi0 = identity_metric(g), _varying_chi0(g)
    prob = DhymProblem(g, omega, chi0, hat_theta(omega, chi0).hat_theta, eps0=0.2)

    calls = []
    check = torus._check_metric_positive

    def counting_check(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(torus, "_check_metric_positive", counting_check)
    monkeypatch.setattr(solver, "_check_metric_positive", counting_check)
    # four Newton steps per stage: the whole path fails and the step halves
    rep = continuity_solve(prob, cfg=SolverConfig(tol=1e-11, max_iters=4))
    assert rep.residual_sup <= 1e-11 and sum(it.step == 0.0 for it in rep.iterates) > 1
    # every stage problem shares the parent's forms and its omega check
    assert calls == []


# --- supercritical check --------------------------------------------------------------


def test_verify_supercritical_constant_field():
    g = TorusGrid(2, 8)
    om = identity_metric(g)
    chi = constant_form_field(g, np.tan(np.pi / 3) * np.eye(2))
    prob = DhymProblem(g, om, chi, float(2 * np.pi / 3), eps0=0.1)
    rep = verify_supercritical(ScalarField(g, np.zeros(g.shape)), prob)
    assert rep["ok"]
    assert abs(rep["min_phase"] - 2 * np.pi / 3) <= 1e-12


def test_verify_supercritical_negative_state():
    g = TorusGrid(2, 8)
    om = identity_metric(g)
    chi = constant_form_field(g, -np.eye(2))
    # the probe problem starts at a state below the floor: verify_supercritical
    # checks the state, not the target
    prob = DhymProblem(g, om, chi, float(np.pi / 2), eps0=0.1)
    rep = verify_supercritical(ScalarField(g, np.zeros(g.shape)), prob)
    assert not rep["ok"]


# --- manufactured problems -------------------------------------------------------------


def test_manufactured_trivial_target():
    g = _grid1()
    om = identity_metric(g)
    chi0 = constant_form_field(g, [[0.3]])
    prob = manufactured_problem(ScalarField(g, np.zeros(g.shape)), om, chi0, eps0=0.5)
    assert np.max(np.abs(prob.target_values() - np.arctan(0.3))) <= 1e-15


def test_manufactured_amplitude_sweep_hits_band_edge():
    g = _grid1(32)
    om = identity_metric(g)
    chi0 = constant_form_field(g, [[0.2]])
    x = g.axis_coordinate("x1")
    good = ScalarField(g, 0.3 * np.cos(x))
    manufactured_problem(good, om, chi0, eps0=0.5)  # fine
    first_bad = None
    for amp in np.arange(0.5, 16.0, 0.5):
        try:
            manufactured_problem(ScalarField(g, amp * np.cos(x)), om, chi0, eps0=0.5)
        except PhaseOutOfRange:
            first_bad = amp
            break
    # the band edge needs arctan(0.2 - amp/4) < -pi/2 + 0.5, i.e.
    # amp > 4 (0.2 + cot(0.5)) ~ 8.1
    assert first_bad is not None
    assert first_bad >= 4 * (0.2 + 1.0 / np.tan(0.5)) - 0.5


# --- continuity -------------------------------------------------------------------------


def test_continuity_trivial_path():
    g = _grid1()
    om = identity_metric(g)
    chi0 = constant_form_field(g, [[0.4]])
    hhat = float(np.arctan(0.4))
    prob = DhymProblem(g, om, chi0, hhat, eps0=0.5)
    rep = continuity_solve(prob)
    assert rep.residual_sup <= 1e-12
    assert abs(rep.c) <= 1e-14


def test_continuity_reaches_averaged_angle():
    g = _grid1(64)
    x = g.axis_coordinate("x1")
    om = identity_metric(g)
    chi0 = isotropic_form_field(g, ScalarField(g, 0.5 + 0.2 * np.cos(x)))
    hhat = hat_theta(om, chi0).hat_theta
    prob = DhymProblem(g, om, chi0, hhat, eps0=0.25)
    rep = continuity_solve(prob, cfg=SolverConfig(tol=1e-11))
    assert rep.residual_sup <= 1e-11
    assert abs(rep.c) <= 1e-8
    chi = HermitianFormField(g, chi0.values + i_ddbar(rep.u).values, _symmetrized=True)
    theta = theta_field(om, chi).values
    assert theta.max() - theta.min() <= 1e-8
    # n=1 oracle: the final Hessian solves a single Poisson problem
    oracle = inverse_laplacian_quarter(np.tan(hhat) - (0.5 + 0.2 * np.cos(x)), g)
    oracle -= oracle.mean()
    assert np.max(np.abs(oracle - rep.u.values)) <= 1e-8


def test_continuity_stage_constants_nonpositive_when_target_dominates():
    g = _grid1(64)
    x = g.axis_coordinate("x1")
    om = identity_metric(g)
    chi0 = isotropic_form_field(g, ScalarField(g, 0.5 + 0.2 * np.cos(x)))
    hdom = float(np.arctan(0.7)) + 0.05
    prob = DhymProblem(g, om, chi0, hdom, eps0=0.25)
    rep = continuity_solve(prob, cfg=SolverConfig(tol=1e-11))
    assert rep.residual_sup <= 1e-11
    for it in rep.iterates:
        assert it.c <= 1e-12
        assert it.min_phase > prob.phase_floor


def test_continuity_iterates_carry_their_stage():
    g = _grid1()
    x = g.axis_coordinate("x1")
    om = identity_metric(g)
    chi0 = isotropic_form_field(g, ScalarField(g, 0.5 + 0.2 * np.cos(x)))
    prob = DhymProblem(g, om, chi0, hat_theta(om, chi0).hat_theta, eps0=0.25)
    # three Newton steps per stage: the path halves, then doubles again
    rep = continuity_solve(prob, cfg=SolverConfig(tol=1e-11, max_iters=3))
    # each stage records its starting state (step 0), then one state per Newton step
    starts = [i for i, it in enumerate(rep.iterates) if it.step == 0.0]
    stages = [rep.iterates[a:b] for a, b in zip(starts, starts[1:] + [None])]
    assert rep.residual_sup <= 1e-11 and starts[0] == 0 and len(stages) > 1
    # every state of a stage carries the stage's t and final c
    assert all(len({(it.t, it.c) for it in stage}) == 1 for stage in stages)
    ts = [stage[0].t for stage in stages]
    assert ts == sorted(set(ts)) and ts[-1] == 1.0
    assert stages[-1][-1].c == rep.c


def test_continuity_takes_the_whole_path_in_one_stage():
    # continuation-n2's chi0 shape at N=8: diagonal modes along x1 and x2,
    # a complex off-diagonal mode along y1
    g = TorusGrid(2, 8)
    x1, y1, x2 = (g.axis_coordinate(a) for a in ("x1", "y1", "x2"))
    vals = np.zeros(g.shape + (2, 2), dtype=complex)
    vals[..., 0, 0] = 0.5 + 0.2 * np.cos(x1)
    vals[..., 1, 1] = 0.5 + 0.15 * np.cos(x2)
    vals[..., 0, 1] = np.exp(0.7j) * 0.05 * np.cos(y1)
    vals[..., 1, 0] = np.conj(vals[..., 0, 1])
    om, chi0 = identity_metric(g), HermitianFormField(g, vals)
    prob = DhymProblem(g, om, chi0, hat_theta(om, chi0).hat_theta, eps0=0.2)
    rep = continuity_solve(prob, cfg=SolverConfig(tol=1e-11))
    assert rep.residual_sup <= 1e-11 and rep.failed_attempts == []
    assert sum(it.step == 0.0 for it in rep.iterates) == 1  # one stage
    assert len(rep.iterates) - 1 <= 5  # Newton steps
    assert abs(rep.c) <= 1e-12


def test_continuity_records_failed_attempts():
    g = TorusGrid(2, 8)
    om, chi0 = identity_metric(g), _varying_chi0(g)
    prob = DhymProblem(g, om, chi0, hat_theta(om, chi0).hat_theta, eps0=0.2)
    rep = continuity_solve(prob, cfg=SolverConfig(tol=1e-11, max_iters=4))
    assert rep.residual_sup <= 1e-11
    assert rep.failed_attempts == [(1.0, "MaxItersExceeded")]
    assert [it.t for it in rep.iterates if it.step == 0.0] == [0.5, 1.0]


def test_continuity_multi_start_uniqueness():
    g = _grid1(64)
    x = g.axis_coordinate("x1")
    y = g.axis_coordinate("y1")
    om = identity_metric(g)
    chi0 = isotropic_form_field(g, ScalarField(g, 0.5 + 0.2 * np.cos(x)))
    hhat = hat_theta(om, chi0).hat_theta
    prob = DhymProblem(g, om, chi0, hhat, eps0=0.25)
    results = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        u0 = ScalarField(
            g,
            0.05 * np.cos(x + rng.uniform(0, 2 * np.pi))
            + 0.03 * np.sin(y + rng.uniform(0, 2 * np.pi)),
        )
        rep = newton_solve(prob, u0=u0, cfg=SolverConfig(tol=1e-11))
        assert rep.residual_sup <= 1e-11
        results.append(rep)
    diff = np.max(np.abs(results[0].u.values - results[1].u.values))
    assert diff <= 1e-8
    assert abs(results[0].c - results[1].c) <= 1e-10


def test_continuity_requires_constant_target():
    g = _grid1()
    om = identity_metric(g)
    chi0 = constant_form_field(g, [[0.3]])
    prob = DhymProblem(g, om, chi0, theta_field(om, chi0), eps0=0.4)
    with pytest.raises(PhaseOutOfRange):
        continuity_solve(prob)
