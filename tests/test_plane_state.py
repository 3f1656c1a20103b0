"""Memory and path guards of the solver's plane-native state.

A HermitianFormField holds only its n^2 real planes, and the solver carries
every trial form as planes too, taking the phase and the kernel weight
planes in closed form from them (tested against LAPACK in test_torus.py).
These guards keep the solve path free of complex (..., n, n) arrays: no
solve, and no averaged angle from a config, may materialize a form's
values.  Memory is counted in real planes of num_points * 8 bytes.
"""

import tracemalloc

import numpy as np

import dhym.torus as torus
from dhym.cli import main
from dhym.fieldio import write_field
from dhym.runconfig import parse_form_spec
from dhym.solver import (
    DhymProblem,
    SolverConfig,
    continuity_solve,
    evaluate_state,
    linearization_kernel,
    manufactured_problem,
    newton_solve,
)
from dhym.torus import (
    ScalarField,
    TorusGrid,
    constant_form_field,
    hat_theta,
    identity_metric,
    isotropic_form_field,
)


def _peak_planes(call, g) -> float:
    """tracemalloc peak of call(), result included, in real planes."""
    call()  # warm the cached wavenumber vectors
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (g.num_points * 8)


def _manufactured_n2(g):
    x1, y2 = g.axis_coordinate("x1"), g.axis_coordinate("y2")
    ustar = ScalarField(g, 0.1 * np.cos(x1) + 0.05 * np.cos(y2))
    prob = manufactured_problem(
        ustar, identity_metric(g), constant_form_field(g, 0.3 * np.eye(2)), eps0=0.3
    )
    return prob, ScalarField(g, 0.5 * ustar.values)


def test_state_evaluation_and_kernel_memory():
    g = TorusGrid(2, 16)
    prob, u = _manufactured_n2(g)
    state = evaluate_state(u, 0.0, prob)
    # the form's four planes, the phase, the residual and transform buffers
    assert _peak_planes(lambda: evaluate_state(u, 0.0, prob), g) <= 10
    # four weight planes plus the determinant and a temporary
    assert _peak_planes(lambda: linearization_kernel(state.chi, prob), g) <= 8


def test_problem_holds_constant_forms_as_points():
    g = TorusGrid(2, 16)

    def build():
        # the form fields exist only while the problem is built
        return DhymProblem(
            g, parse_form_spec("id", g), parse_form_spec("iso 0.3", g), 1.0, eps0=0.3
        )

    build()
    tracemalloc.start()
    try:
        prob = build()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < g.num_points * 8
    assert prob.omega.planes.shape == prob.chi0.planes.shape == (4, 1, 1, 1, 1)


def _refuse(form):
    raise AssertionError("a complex (..., n, n) form was materialized")


def _forbid_complex_forms(monkeypatch):
    monkeypatch.setattr(torus.HermitianFormField, "values", property(_refuse))


def _varying_chi0(g):
    x1, y1 = g.axis_coordinate("x1"), g.axis_coordinate("y1")
    return isotropic_form_field(g, ScalarField(g, 0.5 + 0.2 * np.cos(x1) + 0.1 * np.sin(y1)))


def test_newton_solve_builds_no_complex_form(monkeypatch):
    g = TorusGrid(2, 8)
    ustar = ScalarField(g, 0.1 * np.cos(g.axis_coordinate("x1")))
    prob = manufactured_problem(ustar, identity_metric(g), _varying_chi0(g), eps0=0.3)
    _forbid_complex_forms(monkeypatch)
    rep = newton_solve(prob, cfg=SolverConfig(tol=1e-11))
    assert rep.residual_sup <= 1e-11 and len(rep.iterates) > 1


def test_continuity_solve_builds_no_complex_form(monkeypatch):
    g = TorusGrid(2, 8)
    omega, chi0 = identity_metric(g), _varying_chi0(g)
    prob = DhymProblem(g, omega, chi0, hat_theta(omega, chi0).hat_theta, eps0=0.2)
    _forbid_complex_forms(monkeypatch)
    rep = continuity_solve(prob, cfg=SolverConfig(tol=1e-11))
    assert rep.residual_sup <= 1e-11 and rep.iterates[-1].t == 1.0


def test_cli_runs_materialize_no_form(tmp_path, monkeypatch, capsys):
    g = TorusGrid(2, 8)
    write_field(tmp_path / "chi0.dhym", _varying_chi0(g))
    body = "[grid]\nn = 2\nN = 8\n[problem]\neps0 = {eps0}\n[solver]\ntol = 1e-11\n"
    manufactured = tmp_path / "man.cfg"
    manufactured.write_text(
        body.format(eps0=0.3)
        + "[fields]\nomega = id\nchi0 = iso 0.3\nu_star = 0.1 cos x1 + 0.05 cos y2\n"
        + f"[target]\nkind = manufactured\n[output]\ndir = {tmp_path / 'man'}\n"
    )
    continuation = tmp_path / "cont.cfg"
    continuation.write_text(
        body.format(eps0=0.2)
        + f"[fields]\nomega = id\nchi0 = file {tmp_path / 'chi0.dhym'}\n"
        + f"[target]\nkind = hat-theta\n[output]\ndir = {tmp_path / 'cont'}\n"
    )
    _forbid_complex_forms(monkeypatch)
    assert main(["solve", str(manufactured)]) == 0
    assert main(["solve", str(continuation)]) == 0
    assert "method = continuity" in (tmp_path / "cont" / "report.txt").read_text()
    assert main(["angle", "--config", str(manufactured)]) == 0
    assert "hat_theta = " in capsys.readouterr().out


def test_newton_steps_hold_no_earlier_step(monkeypatch):
    import dhym.solver as solver

    g = TorusGrid(2, 16)
    prob, _ = _manufactured_n2(g)
    live = []  # traced bytes at each step's kernel build
    kernel = solver.linearization_kernel

    def measuring(chi, prob):
        live.append(tracemalloc.get_traced_memory()[0])
        return kernel(chi, prob)

    monkeypatch.setattr(solver, "linearization_kernel", measuring)
    newton_solve(prob, cfg=SolverConfig(tol=1e-11))  # warm the caches
    live.clear()
    tracemalloc.start()
    try:
        rep = newton_solve(prob, cfg=SolverConfig(tol=1e-11))
    finally:
        tracemalloc.stop()
    assert rep.residual_sup <= 1e-11 and len(live) > 1
    # a step's du, Hessian planes, trial states and kernel are gone by the
    # next step: what is live then is the state, u and the iterates
    assert max(live) - live[0] <= g.num_points * 8
