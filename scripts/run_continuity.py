#!/usr/bin/env python3
"""Continuation run to a constant phase target on the one-dimensional torus.

Targets the averaged angle of the initial pair, for which the final constant
shift should vanish up to solver tolerance; prints the stage schedule.
"""

import numpy as np

from dhym.solver import DhymProblem, SolverConfig, continuity_solve, evaluate_state
from dhym.torus import (
    ScalarField,
    TorusGrid,
    hat_theta,
    identity_metric,
    isotropic_form_field,
)


def main():
    grid = TorusGrid(1, 64)
    x = grid.axis_coordinate("x1")
    omega = identity_metric(grid)
    chi0 = isotropic_form_field(grid, ScalarField(grid, 0.5 + 0.2 * np.cos(x)))
    angle = hat_theta(omega, chi0)
    print(f"target angle = {angle.hat_theta:.12g} (modulus {angle.modulus:.6g})")

    prob = DhymProblem(grid, omega, chi0, angle.hat_theta, eps0=0.25)
    report = continuity_solve(prob, cfg=SolverConfig(tol=1e-11))

    print(f"{'t':>8} {'stage constant':>16} {'iters':>6}")
    # each stage starts at an iterate with step 0, then takes one per Newton step
    starts = [i for i, it in enumerate(report.iterates) if it.step == 0.0]
    for a, b in zip(starts, starts[1:] + [len(report.iterates)]):
        it = report.iterates[a]
        print(f"{it.t:>8.4f} {it.c:>16.3e} {b - a - 1:>6}")
    print(f"failed stage attempts = {len(report.failed_attempts)}")
    final = evaluate_state(report.u, report.c, prob)
    print(f"gmres iterations = {sum(it.krylov_iters for it in report.iterates)}")
    print(f"residual_sup = {report.residual_sup:.3e}")
    print(f"|c1| = {abs(report.c):.3e}")
    print(f"final phase spread = {final.max_phase - final.min_phase:.3e}")


if __name__ == "__main__":
    main()
