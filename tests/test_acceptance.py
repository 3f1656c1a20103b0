"""Acceptance criteria, one test per criterion, with stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion including the measured runtime.
"""

import time

import numpy as np

from dhym.hermitian import (
    dF,
    eig_pair,
    eig_pair_batch,
    eigenvalue_derivatives,
    lagrangian_angle_det,
    spectral_function_derivatives,
    symmetrize,
    theta_arctan,
)
from dhym.phase import (
    PhaseSpec,
    csub_bounded_oracle,
    is_csub_pointwise,
    level_set_sample_batch,
)
from dhym.solver import (
    DhymProblem,
    SolverConfig,
    continuity_solve,
    manufactured_problem,
    newton_solve,
)
from dhym.surfaces import catalog, conformal_bound, trace_formula, InvariantMetric
from dhym.torus import (
    HermitianFormField,
    ScalarField,
    TorusGrid,
    constant_form_field,
    hat_theta,
    i_ddbar,
    identity_metric,
    isotropic_form_field,
    theta_field,
)


def _report(num: int, budget: float, elapsed: float, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed <= budget, f"criterion {num} runtime {elapsed:.1f}s > {budget:.0f}s"


def _random_hermitian_batch(rng, count, n):
    a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return symmetrize(a)


def _random_hpd_batch(rng, count, n):
    a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return np.einsum("bij,bkj->bik", a, np.conj(a)) + 0.5 * np.eye(n)


def test_criterion_01_operator_consistency():
    start = time.time()
    rng = np.random.default_rng(1)
    count = 10_000
    worst_angle = 0.0
    worst_det = 0.0
    for n in (1, 2, 3, 4):
        omegas = _random_hpd_batch(rng, count, n)
        chis = _random_hermitian_batch(rng, count, n)
        lams, _ = eig_pair_batch(omegas, chis)
        theta = np.sum(np.arctan(lams), axis=1)
        lam_mats = np.linalg.solve(omegas, chis)
        dets = np.linalg.det(np.eye(n) + 1j * lam_mats)
        lifted = np.angle(dets) + 2 * np.pi * np.round(
            (theta - np.angle(dets)) / (2 * np.pi)
        )
        worst_angle = max(worst_angle, float(np.max(np.abs(theta - lifted))))
        mod2 = np.abs(dets) ** 2
        ref = np.linalg.det(np.eye(n) + np.einsum("bij,bjk->bik", lam_mats, lam_mats)).real
        worst_det = max(
            worst_det, float(np.max(np.abs(mod2 - ref) / (1.0 + np.abs(ref))))
        )
    ok = worst_angle <= 1e-12 and worst_det <= 1e-12
    _report(
        1,
        10.0,
        time.time() - start,
        ok,
        f"angle gap {worst_angle:.2e}, |det|^2 identity {worst_det:.2e} (rel)",
    )


def test_criterion_02_derivative_formulas():
    start = time.time()
    rng = np.random.default_rng(2)
    worst_first = 0.0
    worst_second = 0.0
    for n in (2, 3, 4):
        for _ in range(100):
            lam = np.sort(rng.uniform(-2.0, 2.5, n))[::-1] + np.arange(n)[::-1] * 0.5
            mat = np.diag(lam)
            h = _random_hermitian_batch(rng, 1, n)[0]
            eps1, eps2 = 1e-5, 1e-4

            def evals(m):
                return eig_pair(np.eye(n), m).lambdas

            # eigenvalue first and second derivatives
            first, second = eigenvalue_derivatives(mat)
            fd1 = (evals(mat + eps1 * h) - evals(mat - eps1 * h)) / (2 * eps1)
            p1 = np.einsum("ipq,pq->i", first.astype(complex), h).real
            worst_first = max(worst_first, np.max(np.abs(fd1 - p1)) / max(1, np.max(np.abs(p1))))
            fd2 = (evals(mat + eps2 * h) - 2 * evals(mat) + evals(mat - eps2 * h)) / eps2**2
            p2 = np.einsum("ipqrs,pq,rs->i", second, h, h).real
            worst_second = max(worst_second, np.max(np.abs(fd2 - p2)) / max(1, np.max(np.abs(p2))))

            # spectral-function tensors for both eigenvalue functions
            for f_id in ("arctan_sum", "log_max"):
                sd = spectral_function_derivatives(f_id, mat, c_eps=4.0)

                def func(m):
                    es = eig_pair(np.eye(n), m)
                    if f_id == "arctan_sum":
                        return theta_arctan(es.lambdas)
                    return float(np.log(4.0 + es.lambdas[0]))

                fd1 = (func(mat + eps1 * h) - func(mat - eps1 * h)) / (2 * eps1)
                p1 = float(np.einsum("ij,ij->", sd.first, h).real)
                worst_first = max(worst_first, abs(fd1 - p1) / max(1, abs(p1)))
                fd2 = (func(mat + eps2 * h) - 2 * func(mat) + func(mat - eps2 * h)) / eps2**2
                p2 = float(np.einsum("ijrs,ij,rs->", sd.second, h, h).real)
                worst_second = max(worst_second, abs(fd2 - p2) / max(1, abs(p2)))

            # determinant-form derivative kernel
            dfm = dF(eig_pair(np.eye(n), mat))
            fdd = (
                lagrangian_angle_det(np.eye(n), mat + eps1 * h)
                - lagrangian_angle_det(np.eye(n), mat - eps1 * h)
            ) / (2 * eps1)
            pd = float(np.trace(dfm @ h).real)
            worst_first = max(worst_first, abs(fdd - pd) / max(1, abs(pd)))
    ok = worst_first <= 1e-6 and worst_second <= 1e-4
    _report(
        2,
        30.0,
        time.time() - start,
        ok,
        f"first-order rel err {worst_first:.2e} (<=1e-6), "
        f"second-order {worst_second:.2e} (<=1e-4)",
    )


def test_criterion_03_supercritical_arithmetic():
    start = time.time()
    rng = np.random.default_rng(3)
    samples = 100_000
    violations = 0
    configs = 0
    for n in (2, 3):
        for sigma in ((n - 2) * np.pi / 2 + 0.2, (n - 1) * np.pi / 2, n * np.pi / 2 - 0.2):
            spec = PhaseSpec(n, sigma, 0.2)
            pts = np.empty((0, n))
            while pts.shape[0] < samples:
                free = np.tan(
                    rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, (2 * samples, n - 1))
                )
                pts = np.concatenate([pts, level_set_sample_batch(spec, free)])
            pts = pts[:samples]
            violations += int(np.sum(pts[:, -2] + pts[:, -1] < np.tan(0.1) - 1e-12))
            e1 = np.sum(pts, axis=1)
            violations += int(np.sum(e1 < -1e-12))
            if n == 3:
                e2 = 0.5 * (e1**2 - np.sum(pts**2, axis=1))
                violations += int(np.sum(e2 < -1e-12))
            configs += 1
    ok = violations == 0 and configs == 6
    _report(
        3,
        60.0,
        time.time() - start,
        ok,
        f"{configs} configs x {samples} level-set samples, {violations} violations",
    )


def test_criterion_04_subsolution_equivalence():
    start = time.time()
    rng = np.random.default_rng(4)
    disagreements = 0
    stability_failures = 0
    lattice_failures = 0
    for n in (2, 3):
        for _ in range(1000):
            mus = rng.uniform(-5.0, 5.0, n)
            h = rng.uniform((n - 2) * np.pi / 2 + 0.1, n * np.pi / 2 - 0.1)
            verdict = is_csub_pointwise(mus, h)
            if verdict.is_csub != csub_bounded_oracle(mus, h):
                disagreements += 1
            if verdict.is_csub:
                eps = verdict.worst_margin  # the uniform slack of the verdict
                hi_ok = h + 0.9 * eps < n * np.pi / 2
                if hi_ok and not is_csub_pointwise(mus, h + 0.9 * eps).is_csub:
                    stability_failures += 1
                h2 = rng.uniform((n - 2) * np.pi / 2 + 0.1, n * np.pi / 2 - 0.1)
                if is_csub_pointwise(mus, h2).is_csub:
                    if not (
                        is_csub_pointwise(mus, max(h, h2)).is_csub
                        and is_csub_pointwise(mus, min(h, h2)).is_csub
                    ):
                        lattice_failures += 1
    ok = disagreements == 0 and stability_failures == 0 and lattice_failures == 0
    _report(
        4,
        120.0,
        time.time() - start,
        ok,
        f"2000 instances: {disagreements} criterion/oracle disagreements, "
        f"{stability_failures} stability, {lattice_failures} lattice failures",
    )


def test_criterion_05_angle_invariance():
    start = time.time()
    rng = np.random.default_rng(5)
    worst = 0.0
    for n in (1, 2):
        grid = TorusGrid(n, 32)
        omega = identity_metric(grid)
        chi0 = constant_form_field(grid, 0.4 * np.eye(n))
        base = hat_theta(omega, chi0)
        assert base.branch_certificate < np.pi / 2
        basis = []
        for j in range(n):
            for coord_name in (f"x{j + 1}", f"y{j + 1}"):
                coord = grid.axis_coordinate(coord_name)
                for freq in (1, 2):
                    basis.append(np.cos(freq * coord))
                    basis.append(np.sin(freq * coord))
        basis = np.stack(basis)
        for _ in range(100):
            vals = np.tensordot(rng.uniform(-0.2, 0.2, basis.shape[0]), basis, 1)
            shifted = hat_theta(omega, chi0 + i_ddbar(ScalarField(grid, vals)))
            worst = max(worst, abs(shifted.hat_theta - base.hat_theta))
    ok = worst <= 1e-10
    _report(
        5,
        60.0,
        time.time() - start,
        ok,
        f"max |angle shift| over 100 Hessian perturbations per n: {worst:.2e}",
    )


def test_angle_shifts_off_kahler_metrics():
    """The averaged angle is a class invariant only when ddbar omega = 0.

    At n=2 the conformal metric e^f Id with non-constant f is not Kahler,
    and acceptance-05-style Hessian perturbations move hat_theta by far
    more than round-off; on the identity metric they do not.
    """
    grid = TorusGrid(2, 16)
    f = 0.5 * np.cos(grid.axis_coordinate("x1")) + 0.3 * np.sin(grid.axis_coordinate("x2"))
    conformal = isotropic_form_field(grid, ScalarField(grid, np.exp(f)))
    chi0 = constant_form_field(grid, 0.4 * np.eye(2))
    basis = np.stack([
        trig(freq * grid.axis_coordinate(axis))
        for axis in grid.axis_names for freq in (1, 2) for trig in (np.cos, np.sin)
    ])
    rng = np.random.default_rng(5)
    perturbations = []
    for _ in range(5):
        vals = np.tensordot(rng.uniform(-0.2, 0.2, basis.shape[0]), basis, 1)
        perturbations.append(chi0 + i_ddbar(ScalarField(grid, vals)))

    def shifts(omega):
        base = hat_theta(omega, chi0).hat_theta
        return [abs(hat_theta(omega, chi).hat_theta - base) for chi in perturbations]

    assert min(shifts(conformal)) > 1e-4
    assert max(shifts(identity_metric(grid))) <= 1e-10


def test_criterion_06_manufactured_solutions():
    start = time.time()
    # n = 1 at N = 64, band-limited exact discrete solution
    g1 = TorusGrid(1, 64)
    ustar1 = ScalarField(g1, 0.3 * np.cos(g1.axis_coordinate("x1")))
    prob1 = manufactured_problem(
        ustar1, identity_metric(g1), constant_form_field(g1, [[0.2]]), eps0=0.5
    )
    rep1 = newton_solve(prob1, cfg=SolverConfig(tol=1e-11))
    err1 = float(np.max(np.abs(rep1.u.values - (ustar1.values - ustar1.values.mean()))))

    # n = 2 at N = 32
    g2 = TorusGrid(2, 32)
    ustar2 = ScalarField(
        g2,
        0.1 * np.cos(g2.axis_coordinate("x1")) + 0.05 * np.cos(g2.axis_coordinate("y2")),
    )
    prob2 = manufactured_problem(
        ustar2, identity_metric(g2), constant_form_field(g2, 0.3 * np.eye(2)), eps0=0.3
    )
    rep2 = newton_solve(prob2, cfg=SolverConfig(tol=1e-11))
    err2 = float(np.max(np.abs(rep2.u.values - (ustar2.values - ustar2.values.mean()))))

    # spectral refinement: an analytic, non-band-limited exact solution keeps
    # the discretization error observable, so halving h must crush it
    amp, a = 0.4, 1.6

    def exact_u(x):
        return amp / (a + np.cos(x))

    def exact_hessian(x):
        return 0.25 * amp * (np.cos(x) * (a + np.cos(x)) + 2 * np.sin(x) ** 2) / (
            a + np.cos(x)
        ) ** 3

    errs = {}
    for big_n in (16, 32):
        g = TorusGrid(1, big_n)
        x = g.axis_coordinate("x1")
        target = ScalarField(g, np.arctan(0.2 + exact_hessian(x)))
        prob = DhymProblem(
            g, identity_metric(g), constant_form_field(g, [[0.2]]), target, eps0=0.5
        )
        rep = newton_solve(prob, cfg=SolverConfig(tol=1e-12))
        exact = exact_u(x)
        errs[big_n] = float(np.max(np.abs(rep.u.values - (exact - exact.mean()))))
    ratio = errs[16] / errs[32]

    ok = (
        rep1.residual_sup <= 1e-8
        and err1 <= 1e-9
        and rep2.residual_sup <= 1e-8
        and err2 <= 1e-6
        and ratio >= 100.0
    )
    _report(
        6,
        300.0,
        time.time() - start,
        ok,
        f"n=1 err {err1:.2e} (<=1e-9), n=2 err {err2:.2e} (<=1e-6), "
        f"refinement N=16->32 error drop x{ratio:.0f} (>=100)",
    )


def test_criterion_07_continuity_method():
    start = time.time()
    g = TorusGrid(1, 64)
    x = g.axis_coordinate("x1")
    omega = identity_metric(g)
    chi0 = isotropic_form_field(g, ScalarField(g, 0.5 + 0.2 * np.cos(x)))
    h_hat = hat_theta(omega, chi0).hat_theta
    prob = DhymProblem(g, omega, chi0, h_hat, eps0=0.25)
    rep = continuity_solve(prob, cfg=SolverConfig(tol=1e-11))
    chi = HermitianFormField(g, chi0.values + i_ddbar(rep.u).values, _symmetrized=True)
    theta = theta_field(omega, chi).values
    spread = float(theta.max() - theta.min())
    floor = prob.phase_floor
    min_phases_ok = all(it.min_phase > floor for it in rep.iterates)

    # dominating-target path: every stage constant must be non-positive
    h_dom = float(np.arctan(0.7)) + 0.05
    prob_dom = DhymProblem(g, omega, chi0, h_dom, eps0=0.25)
    rep_dom = continuity_solve(prob_dom, cfg=SolverConfig(tol=1e-11))
    theta0 = theta_field(omega, chi0).values
    # continuation may reach t = 1 in one stage, so the stage problems at
    # t = 0.25, 0.5, 0.75 are also solved here, each warm-started from the last;
    # each continuation stage starts at an iterate with step 0
    samples = [(it.t, it.c) for it in rep_dom.iterates if it.step == 0.0]
    u_prev = None
    for t in (0.25, 0.5, 0.75):
        stage_target = ScalarField(g, (1 - t) * theta0 + t * h_dom)
        stage = newton_solve(
            prob_dom.with_target(stage_target), u0=u_prev, cfg=SolverConfig(tol=1e-11)
        )
        samples.append((t, stage.c))
        u_prev = stage.u
    bt_ok = True
    for t, c_t in samples:
        target_t = (1 - t) * theta0 + t * h_dom
        if np.min(target_t - theta0) >= 0.0:  # stage target dominates
            bt_ok = bt_ok and c_t <= 1e-12

    ok = (
        rep.residual_sup <= 1e-11
        and abs(rep.c) <= 1e-8
        and spread <= 1e-8
        and min_phases_ok
        and rep_dom.residual_sup <= 1e-11
        and bt_ok
    )
    _report(
        7,
        300.0,
        time.time() - start,
        ok,
        f"|c1| = {abs(rep.c):.2e} (<=1e-8), final phase spread {spread:.2e} "
        f"(<=1e-8), iterate floors ok={min_phases_ok}, dominated-path b_t<=1e-12 ok={bt_ok}",
    )


def test_criterion_08_uniqueness():
    start = time.time()
    worst = 0.0
    for n, big_n in ((1, 64), (2, 16)):
        g = TorusGrid(n, big_n)
        omega = identity_metric(g)
        x = g.axis_coordinate("x1")
        chi0 = isotropic_form_field(g, ScalarField(g, 0.5 + 0.2 * np.cos(x)))
        h_hat = hat_theta(omega, chi0).hat_theta
        prob = DhymProblem(g, omega, chi0, h_hat, eps0=0.2)
        sols = []
        for seed in (101, 202):
            rng = np.random.default_rng(seed)
            vals = np.zeros(g.shape)
            for j in range(n):
                for name in (f"x{j + 1}", f"y{j + 1}"):
                    coord = g.axis_coordinate(name)
                    vals = vals + 0.04 * rng.uniform(-1, 1) * np.cos(
                        coord + rng.uniform(0, 2 * np.pi)
                    )
            rep = newton_solve(prob, u0=ScalarField(g, vals), cfg=SolverConfig(tol=1e-11))
            assert rep.residual_sup <= 1e-11
            sols.append(rep.u.values)
        worst = max(worst, float(np.max(np.abs(sols[0] - sols[1]))))
    ok = worst <= 1e-8
    _report(
        8,
        300.0,
        time.time() - start,
        ok,
        f"max sup difference between independent starts: {worst:.2e} (<=1e-8)",
    )


def test_criterion_09_surface_catalog():
    start = time.time()
    worst_jacobi = 0.0
    for alpha in (1.0, -1.0, 2.0, -2.0):
        for beta in (0.0, 1.0):
            worst_jacobi = max(
                worst_jacobi, catalog("inoue-sm", alpha=alpha, beta=beta).jacobi_residual()
            )
    for q in (0.0, 0.5, -0.5):
        worst_jacobi = max(worst_jacobi, catalog("inoue-pm", q=q).jacobi_residual())
    worst_jacobi = max(worst_jacobi, catalog("kodaira").jacobi_residual())

    trace_ok = (
        trace_formula(InvariantMetric(1.0, 1.0), 1.0) == 1.0
        and trace_formula(InvariantMetric(2.0, 1.0), 2.0) == 2.0
    )

    rng = np.random.default_rng(9)
    bound_violations = 0
    for _ in range(10_000):
        l1, l2 = rng.uniform(0.01, 6.0, 2)
        m, big_m = np.sort(rng.uniform(0.2, 3.0, 2))
        g = np.exp(rng.uniform(np.log(m), np.log(big_m), 8))
        sampled = np.arctan(g * l1) + np.arctan(g * l2)
        if np.any(sampled < conformal_bound(l1, l2, m, big_m) - 1e-12):
            bound_violations += 1

    ok = worst_jacobi <= 1e-14 and trace_ok and bound_violations == 0
    _report(
        9,
        10.0,
        time.time() - start,
        ok,
        f"jacobi residual {worst_jacobi:.1e} (<=1e-14), trace formula exact: "
        f"{trace_ok}, conformal bound violations: {bound_violations}/10000",
    )


def test_criterion_10_cli_determinism(tmp_path):
    start = time.time()
    from dhym.cli import main
    from dhym.fieldio import read_field, write_field

    cfg_text = """
[grid]
n = 1
N = 32

[fields]
omega = id
chi0 = iso 0.2
u_star = 0.3 cos x1

[target]
kind = manufactured

[problem]
eps0 = 0.5

[solver]
tol = 1e-10

[output]
dir = {out}
"""
    outs = []
    for tag in ("a", "b"):
        cfg = tmp_path / f"{tag}.cfg"
        out = tmp_path / f"out_{tag}"
        cfg.write_text(cfg_text.format(out=out))
        assert main(["solve", str(cfg)]) == 0
        outs.append(out)
    same_solution = (outs[0] / "solution.dhym").read_bytes() == (
        outs[1] / "solution.dhym"
    ).read_bytes()
    same_trace = (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()

    def lines(p):
        return [
            ln for ln in (p / "report.txt").read_text().splitlines()
            if not ln.startswith("timestamp")
        ]

    same_report = lines(outs[0]) == lines(outs[1])

    field = read_field(outs[0] / "solution.dhym")
    write_field(tmp_path / "rt.dhym", field)
    round_trip = (tmp_path / "rt.dhym").read_bytes() == (
        outs[0] / "solution.dhym"
    ).read_bytes()

    ok = same_solution and same_trace and same_report and round_trip
    _report(
        10,
        10.0,
        time.time() - start,
        ok,
        f"artifacts byte-identical: {same_solution and same_trace and same_report}, "
        f"field round-trip bit-exact: {round_trip}",
    )
