#!/usr/bin/env python3
"""Manufactured-solution convergence study on the one-dimensional torus.

Solves the phase equation against an analytic target built from a smooth,
non-band-limited exact solution and prints the recovered sup error per grid
size.  Spectral accuracy shows as error collapse between successive N.
"""

import numpy as np

from dhym.solver import DhymProblem, SolverConfig, newton_solve
from dhym.torus import ScalarField, TorusGrid, constant_form_field, identity_metric

AMPLITUDE = 0.4
POLE = 1.6
CHI_LEVEL = 0.2


def exact_solution(x):
    return AMPLITUDE / (POLE + np.cos(x))


def exact_hessian(x):
    num = np.cos(x) * (POLE + np.cos(x)) + 2.0 * np.sin(x) ** 2
    return 0.25 * AMPLITUDE * num / (POLE + np.cos(x)) ** 3


def main():
    print(f"{'N':>4} {'residual_sup':>14} {'sup error':>14} {'iters':>6}")
    prev = None
    for big_n in (8, 16, 32, 64):
        grid = TorusGrid(1, big_n)
        x = grid.axis_coordinate("x1")
        target = ScalarField(grid, np.arctan(CHI_LEVEL + exact_hessian(x)))
        prob = DhymProblem(
            grid,
            identity_metric(grid),
            constant_form_field(grid, [[CHI_LEVEL]]),
            target,
            eps0=0.5,
        )
        report = newton_solve(prob, cfg=SolverConfig(tol=1e-12))
        exact = exact_solution(x)
        err = float(np.max(np.abs(report.u.values - (exact - exact.mean()))))
        drop = f"  (x{prev / err:,.0f} drop)" if prev else ""
        print(
            f"{big_n:>4} {report.residual_sup:>14.3e} {err:>14.3e} "
            f"{len(report.iterates) - 1:>6}{drop}"
        )
        prev = err


if __name__ == "__main__":
    main()
