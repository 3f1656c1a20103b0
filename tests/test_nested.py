"""Coarse-to-fine solves: transfer operators, agreement with the direct
solve, levels that take no step, fallback and where nesting does not apply."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dhym.solver as solver
from dhym.cli import main
from dhym.errors import MaxItersExceeded, PathStalled, PhaseFloorViolated, SolverError
from dhym.solver import (
    DhymProblem,
    SolverConfig,
    continuity_solve,
    manufactured_problem,
    newton_solve,
)
from dhym.torus import (
    ScalarField,
    TorusGrid,
    constant_form_field,
    fftn,
    hat_theta,
    i_ddbar,
    identity_metric,
    ifftn,
    isotropic_form_field,
)

CFG = SolverConfig(tol=1e-11)


def _direct(prob, cfg=CFG):
    """The solve on prob's grid alone: an explicit start u = 0."""
    return newton_solve(prob, u0=ScalarField(prob.grid, np.zeros(prob.grid.shape)), cfg=cfg)


def _field_n2_target():
    """The field-n2 solve pin's target at n=2 N=16: not band-limited."""
    g = TorusGrid(2, 16)
    x1, y2, x2 = (g.axis_coordinate(a) for a in ("x1", "y2", "x2"))
    p = np.random.default_rng(2026).uniform(0, 2 * np.pi, 3)
    bump = np.exp(np.cos(x1 + p[0]) + np.sin(y2 + p[1]))
    target = 2 * np.arctan(0.3) + 0.08 * (bump - bump.mean()) + 0.03 * np.cos(x1 + 2 * x2 + p[2])
    chi0 = constant_form_field(g, 0.3 * np.eye(2))
    return DhymProblem(g, identity_metric(g), chi0, ScalarField(g, target), eps0=0.2)


def _bump_n1_target(varying_chi0=False):
    """An n=1 N=32 target whose spectrum is not band-limited."""
    g = TorusGrid(1, 32)
    x1, y1 = g.axis_coordinate("x1"), g.axis_coordinate("y1")
    bump = np.exp(np.cos(x1) + np.sin(y1))
    level = 0.4 + 0.1 * np.cos(x1 + y1) if varying_chi0 else np.full(g.shape, 0.3)
    chi0 = isotropic_form_field(g, ScalarField(g, level))
    target = ScalarField(g, np.arctan(level.mean()) + 0.1 * (bump - bump.mean()))
    return DhymProblem(g, identity_metric(g), chi0, target, eps0=0.2)


def _manufactured_n2(big_n):
    g = TorusGrid(2, big_n)
    x1, y2 = g.axis_coordinate("x1"), g.axis_coordinate("y2")
    ustar = ScalarField(g, 0.1 * np.cos(x1) + 0.05 * np.sin(y2))
    return manufactured_problem(
        ustar, identity_metric(g), constant_form_field(g, 0.3 * np.eye(2)), eps0=0.3
    )


def _steps_by_level(rep):
    steps = {}
    for it in rep.iterates:
        steps[it.N] = steps.get(it.N, 0) + (it.step != 0.0)
    return steps


def _solve_report(tmp_path, n, big_n, extra):
    """`dhym solve` of a band-limited manufactured config; its report.txt."""
    u_star = "0.3 cos x1" if n == 1 else "0.1 cos x1 + 0.05 sin y2"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"""
[grid]
n = {n}
N = {big_n}

[fields]
omega = id
chi0 = iso 0.3
u_star = {u_star}
{extra}
[target]
kind = manufactured

[problem]
eps0 = 0.3

[solver]
tol = 1e-11

[output]
dir = {tmp_path / "out"}
""")
    assert main(["solve", str(cfg)]) == 0
    lines = (tmp_path / "out" / "report.txt").read_text().splitlines()
    return dict(ln.split(" = ") for ln in lines)


# --- transfer operators -----------------------------------------------------------


@pytest.mark.parametrize("n,big_n", [(1, 16), (1, 64), (2, 16)])
def test_injecting_a_prolonged_field_returns_it(n, big_n):
    coarse = TorusGrid(n, big_n // 2)
    vals = np.random.default_rng(big_n + n).standard_normal(coarse.shape)
    # clear every coarse Nyquist mode: the half axis's last plane and the
    # middle plane of each full axis
    spectrum = fftn(vals)
    spectrum[..., -1] = 0.0
    for axis in range(2 * n - 1):
        np.moveaxis(spectrum, axis, 0)[coarse.N // 2] = 0.0
    vals = ifftn(spectrum, coarse.shape)
    fine = solver._prolong(vals, TorusGrid(n, big_n))
    assert fine.shape == TorusGrid(n, big_n).shape
    assert np.max(np.abs(fine[(slice(None, None, 2),) * (2 * n)] - vals)) <= 1e-14


def test_prolonging_a_band_limited_field_samples_it_on_the_fine_grid():
    def field(g):
        x1, y1, x2, y2 = (g.axis_coordinate(a) for a in ("x1", "y1", "x2", "y2"))
        return 0.3 * np.cos(x1 - 2 * y2) + 0.2 * np.sin(3 * y1) * np.cos(x2) + 0.1

    fine = solver._prolong(field(TorusGrid(2, 16)), TorusGrid(2, 32))
    assert np.max(np.abs(fine - field(TorusGrid(2, 32)))) <= 1e-14


def test_injection_takes_the_even_points_and_keeps_constants():
    g = TorusGrid(2, 16)
    x1 = g.axis_coordinate("x1")
    chi0 = isotropic_form_field(g, ScalarField(g, 0.5 + 0.2 * np.cos(x1)))
    prob = DhymProblem(g, identity_metric(g), chi0, 1.0, eps0=0.2)
    coarse = solver._inject(prob)
    even = (slice(None, None, 2),) * 4
    assert coarse.grid == TorusGrid(2, 8) and coarse.target == 1.0
    assert coarse.omega.planes.shape == (4, 1, 1, 1, 1)
    assert np.array_equal(coarse.omega.planes, prob.omega.planes)
    assert np.array_equal(coarse.chi0.planes, chi0.planes[(slice(None),) + even])
    field = solver._inject(_field_n2_target())
    assert np.array_equal(field.target.values, _field_n2_target().target.values[even])


# --- nested against direct ----------------------------------------------------------


@pytest.mark.parametrize("make", [_field_n2_target, _bump_n1_target])
def test_nested_agrees_with_direct(make):
    prob = make()
    nested, direct = newton_solve(prob, cfg=CFG), _direct(prob)
    assert {it.N for it in direct.iterates} == {prob.grid.N}
    # coarsest level first, and the finest level takes steps: the target is
    # not resolved by a coarser grid
    grids = [it.N for it in nested.iterates]
    assert grids == sorted(grids) and grids[0] == 8 and grids[-1] == prob.grid.N
    assert _steps_by_level(nested)[prob.grid.N] > 0
    assert nested.residual_sup <= CFG.tol and nested.failed_attempts == []
    assert np.max(np.abs(nested.u.values - direct.u.values)) <= 1e-13
    assert abs(nested.c - direct.c) <= 1e-13


def test_nested_ends_at_round_off_where_direct_stops_at_tol():
    prob = _bump_n1_target(varying_chi0=True)
    direct = _direct(prob)
    # direct's last step started near 1e-6 and stopped near 1e-12; one more
    # step from its u takes it to round-off
    assert 1e-13 < direct.residual_sup <= CFG.tol
    reference = newton_solve(prob, u0=direct.u, cfg=SolverConfig(tol=1e-13))
    nested = newton_solve(prob, cfg=CFG)
    assert nested.residual_sup <= 1e-13
    assert np.max(np.abs(nested.u.values - reference.u.values)) <= 1e-13
    assert abs(nested.c - reference.c) <= 1e-13


def _exp_bump_n1(scale):
    """n=1 N=32: the target's spectrum decays like scale^k / k!, so the N=16
    solution leaves a residual near 1e-6 on N=32 at scale 0.7."""
    g = TorusGrid(1, 32)
    bump = np.exp(scale * (np.cos(g.axis_coordinate("x1")) + np.sin(g.axis_coordinate("y1"))))
    target = ScalarField(g, np.arctan(0.3) + 0.1 * (bump - bump.mean()))
    return DhymProblem(g, identity_metric(g), constant_form_field(g, [[0.3]]), target, eps0=0.2)


def test_finest_level_steps_past_tol_from_above_round_off():
    prob = _exp_bump_n1(0.7)
    rep = newton_solve(prob, cfg=CFG)
    finest = [it.residual_sup for it in rep.iterates if it.N == 32]
    # one step from above ROUND_OFF_FROM reached tol but not round-off; one
    # more step took it there
    assert len(finest) == 3 and finest[0] > solver.ROUND_OFF_FROM
    assert 1e-13 < finest[1] <= CFG.tol and finest[2] <= 1e-13
    reference = newton_solve(prob, u0=rep.u, cfg=SolverConfig(tol=1e-13))
    assert np.max(np.abs(rep.u.values - reference.u.values)) <= 1e-13


def test_a_step_past_tol_that_finds_no_decrease_ends_the_solve(monkeypatch):
    prob = _exp_bump_n1(0.7)
    step = solver._newton_step
    stalled = []

    def stalled_past_tol(state, *args):
        if state.residual_sup <= CFG.tol:
            stalled.append(args[2].grid.N)
            raise MaxItersExceeded("line search stand-in")
        return step(state, *args)

    monkeypatch.setattr(solver, "_newton_step", stalled_past_tol)
    rep = newton_solve(prob, cfg=CFG)
    finest = [it.residual_sup for it in rep.iterates if it.N == 32]
    assert stalled[-1] == 32 and len(finest) == 2
    assert 1e-13 < rep.residual_sup <= CFG.tol and rep.failed_attempts == []


def test_band_limited_problem_takes_no_step_on_its_finest_level():
    prob = _manufactured_n2(16)
    rep = newton_solve(prob, cfg=CFG)
    steps = _steps_by_level(rep)
    assert steps[8] > 0 and steps[16] == 0
    assert [it.N for it in rep.iterates if it.step == 0.0] == [8, 16]
    assert rep.residual_sup <= CFG.tol


def test_continuation_runs_on_the_coarsest_grid():
    g = TorusGrid(1, 32)
    omega = identity_metric(g)
    chi0 = isotropic_form_field(g, ScalarField(g, 0.5 + 0.2 * np.cos(g.axis_coordinate("x1"))))
    prob = DhymProblem(g, omega, chi0, hat_theta(omega, chi0).hat_theta, eps0=0.25)
    rep = continuity_solve(prob, cfg=CFG)
    path = [it for it in rep.iterates if it.N == 8]
    assert rep.iterates[: len(path)] == path and [it.t for it in path][-1] == 1.0
    assert [(it.N, it.step) for it in rep.iterates[len(path):]] == [(16, 0.0), (32, 0.0)]
    # c carries across levels: the continuation's final constant, to round-off
    assert abs(rep.c - path[-1].c) <= 1e-14 and rep.residual_sup <= CFG.tol


def _drawn_problem(n, big_n, omega_kind, seed, amp):
    """A manufactured problem whose u_star is three random Fourier modes plus
    an exp bump, so its spectrum is not band-limited, scaled so that the
    largest entry of i ddbar u_star is amp."""
    g = TorusGrid(n, big_n)
    rng = np.random.default_rng(seed)
    x = [g.axis_coordinate(a) for a in g.axis_names]

    def wave():
        k = rng.integers(-2, 3, len(x))
        return np.cos(sum(kj * xj for kj, xj in zip(k, x)) + rng.uniform(0, 2 * np.pi))

    u = sum(rng.uniform(-1, 1) * wave() for _ in range(3))
    u = u + rng.uniform(0, 1) * np.exp(wave() + wave())
    u *= amp / np.max(np.abs(i_ddbar(ScalarField(g, u)).planes))
    if omega_kind == "id":
        omega = identity_metric(g)
    elif omega_kind == "exp":
        omega = isotropic_form_field(g, ScalarField(g, np.exp(0.3 * wave())))
    else:  # constant and, at n=2, anisotropic
        omega = constant_form_field(g, np.diag([1.0, 2.0][-n:]))
    chi0 = constant_form_field(g, 0.5 * np.eye(n))
    return manufactured_problem(ScalarField(g, u), omega, chi0, eps0=0.05)


def _solve_or_raise(solve, prob):
    try:
        return solve(prob)
    except SolverError as exc:
        return exc


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    grid=st.sampled_from([(1, 16), (1, 32), (2, 8), (2, 16)]),
    omega_kind=st.sampled_from(["id", "exp", "diag"]),
    seed=st.integers(0, 2**32 - 1),
    amp=st.floats(0.01, 0.3),
)
def test_nested_agrees_with_direct_on_drawn_problems(grid, omega_kind, seed, amp):
    prob = _drawn_problem(*grid, omega_kind, seed, amp)
    direct = _solve_or_raise(_direct, prob)
    nested = _solve_or_raise(lambda p: newton_solve(p, cfg=CFG), prob)
    if isinstance(direct, SolverError):
        # a failed level falls back to the direct solve, so nested either
        # fails alike or converged on a path the direct one could not take
        assert type(nested) is type(direct) or (
            not isinstance(nested, SolverError) and nested.residual_sup <= CFG.tol
        )
        return
    assert not isinstance(nested, SolverError), nested
    assert direct.residual_sup <= CFG.tol and nested.residual_sup <= CFG.tol
    assert np.max(np.abs(nested.u.values - direct.u.values)) <= 1e-8
    assert abs(nested.c - direct.c) <= 1e-8


# --- fallback -------------------------------------------------------------------------


def test_coarse_failure_falls_back_to_the_direct_solve(monkeypatch):
    prob = _field_n2_target()
    direct = _direct(prob)
    newton = solver._newton

    def failing_coarse(level, *args, **kwargs):
        if level.grid.N < prob.grid.N:
            raise MaxItersExceeded("coarse level stand-in")
        return newton(level, *args, **kwargs)

    monkeypatch.setattr(solver, "_newton", failing_coarse)
    rep = newton_solve(prob, cfg=CFG)
    assert rep.failed_attempts == [(1.0, "MaxItersExceeded", 8)]
    assert np.array_equal(rep.u.values, direct.u.values) and rep.c == direct.c
    assert rep.iterates == direct.iterates


def test_coarse_continuation_failure_falls_back(monkeypatch):
    g = TorusGrid(1, 16)
    omega = identity_metric(g)
    chi0 = isotropic_form_field(g, ScalarField(g, 0.5 + 0.2 * np.cos(g.axis_coordinate("x1"))))
    prob = DhymProblem(g, omega, chi0, hat_theta(omega, chi0).hat_theta, eps0=0.25)
    continuation = solver._continuation

    def stalling_coarse(level, cfg):
        if level.grid.N < g.N:
            raise PathStalled("coarse level stand-in")
        return continuation(level, cfg)

    monkeypatch.setattr(solver, "_continuation", stalling_coarse)
    rep = continuity_solve(prob, cfg=CFG)
    direct = continuation(prob, CFG)
    assert rep.failed_attempts == [(1.0, "PathStalled", 8)] + direct.failed_attempts
    assert np.array_equal(rep.u.values, direct.u.values) and rep.iterates == direct.iterates


def test_fallback_reports_no_coarse_level(tmp_path, monkeypatch):
    newton = solver._newton

    def failing_coarse(level, *args, **kwargs):
        if level.grid.N == 8:
            raise MaxItersExceeded("coarse level stand-in")
        return newton(level, *args, **kwargs)

    monkeypatch.setattr(solver, "_newton", failing_coarse)
    report = _solve_report(tmp_path, 1, 32, "")
    assert report["coarse_levels"] == "0" and report["continuity_failed_attempts"] == "1"


# --- where nesting does not apply ---------------------------------------------------------


@pytest.mark.parametrize(
    "n,big_n,extra,levels",
    [
        (2, 8, "", 0),  # already the coarsest grid
        (1, 32, "u0 = 0.05 sin x1\n", 0),  # an explicit start
        (1, 32, "", 2),  # solved on 8 and 16 first
    ],
)
def test_coarse_levels_in_the_report(tmp_path, n, big_n, extra, levels):
    report = _solve_report(tmp_path, n, big_n, extra)
    assert int(report["coarse_levels"]) == levels
    assert int(report["newton_iterations"]) == int(report["newton_steps"]) + 1 + levels


def test_refusals_come_before_any_coarse_work(monkeypatch):
    # the phase of chi0 dips below the floor 0 at one odd grid point, which
    # no coarser grid holds
    g = TorusGrid(2, 16)
    s = np.full(g.shape, 0.4)
    s[1, 3, 5, 7] = -0.4
    prob = DhymProblem(g, identity_metric(g), isotropic_form_field(g, ScalarField(g, s)), 0.8,
                       eps0=0.2)
    monkeypatch.setattr(solver, "_inject", lambda prob: pytest.fail("coarse work started"))
    with pytest.raises(PhaseFloorViolated, match="initial state is not supercritical"):
        newton_solve(prob, cfg=CFG)
    with pytest.raises(PhaseFloorViolated, match="initial phase field is not supercritical"):
        continuity_solve(prob, cfg=CFG)
