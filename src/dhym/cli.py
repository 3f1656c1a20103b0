"""Command-line interface: solve, check, surface, region, angle.

Exit codes: 0 success, 1 a check suite reported failures, 2 configuration
error, 3 solver failure.  All randomness flows from the config seed;
identical config and seed reproduce byte-identical artifacts except for
the timestamp line in the report, which comparisons should exclude.  The
environment variable DHYM_THREADS caps the number of FFT worker threads
(0 or unset = automatic); a value that is not an integer is a
configuration error (exit 2) for every subcommand.
"""

from __future__ import annotations

import argparse
import csv
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigError, DhymError, SolverError
from .fieldio import read_field, write_field
from .hermitian import (
    EigenSystem,
    dF,
    eig_pair_batch,
    eigenvalue_derivatives,
    lagrangian_angle_det,
    spectral_function_derivatives,
    symmetrize,
)
from .phase import (
    PhaseSpec,
    csub_bounded_oracle,
    dichotomy_kappa_estimate,
    is_csub_pointwise,
    level_set_sample_batch,
)
from .runconfig import RunConfig, load_config, parse_form_spec, parse_grid, parse_scalar_spec
from .solver import (
    DhymProblem,
    SolverConfig,
    continuity_solve,
    manufactured_problem,
    newton_solve,
)
from .surfaces import (
    InvariantMetric,
    SURFACE_NAMES,
    catalog,
    csub_on_surface,
    trace_formula,
)
from .torus import (
    ScalarField,
    TorusGrid,
    _fft_workers,
    constant_form_field,
    hat_theta,
    i_ddbar,
    identity_metric,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _build_solver_config(cfg: RunConfig) -> SolverConfig:
    krylov = cfg.get("solver", "krylov", "gmres")
    if krylov != "gmres":
        raise ConfigError(f"unknown krylov method {krylov!r}; only gmres is supported")
    return SolverConfig(
        tol=cfg.get_float("solver", "tol", SolverConfig.tol),
        max_iters=cfg.get_int("solver", "max_iters", SolverConfig.max_iters),
        krylov_tol=cfg.get_float("solver", "krylov_tol", SolverConfig.krylov_tol),
        krylov_iters=cfg.get_int("solver", "krylov_iters", SolverConfig.krylov_iters),
    )


def _build_problem(cfg: RunConfig) -> DhymProblem:
    grid = parse_grid(cfg)
    omega = parse_form_spec(cfg.get("fields", "omega", "id"), grid)
    chi0 = parse_form_spec(cfg.require("fields", "chi0"), grid)
    eps0 = cfg.get_float("problem", "eps0")
    if eps0 is None:
        raise ConfigError("config needs [problem] eps0")
    kind = cfg.get("target", "kind", "constant")
    if kind == "constant":
        value = cfg.get_float("target", "value")
        if value is None:
            raise ConfigError("target kind=constant needs value")
        target: ScalarField | float = value
    elif kind == "hat-theta":
        target = hat_theta(omega, chi0).hat_theta
    elif kind == "field":
        path = cfg.require("target", "path")
        f = read_field(path)
        if not isinstance(f, ScalarField) or f.grid != grid:
            raise ConfigError(f"target field {path} does not match the grid")
        target = f
    elif kind == "manufactured":
        u_star = parse_scalar_spec(cfg.require("fields", "u_star"), grid)
        return manufactured_problem(u_star, omega, chi0, eps0)
    else:
        raise ConfigError(f"unknown target kind {kind!r}")
    return DhymProblem(grid=grid, omega=omega, chi0=chi0, target=target, eps0=eps0)


def _write_report(path: Path, pairs: list[tuple[str, str]]) -> None:
    with open(path, "w") as fh:
        fh.write(f"timestamp = {datetime.now(timezone.utc).isoformat()}\n")
        for key, value in pairs:
            fh.write(f"{key} = {value}\n")


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    prob = _build_problem(cfg)
    sc = _build_solver_config(cfg)
    method = cfg.get("solver", "method")
    if method is None:
        method = "continuity" if not isinstance(prob.target, ScalarField) else "newton"
    if method not in ("newton", "continuity"):
        raise ConfigError(f"unknown solver method {method!r}")
    if method == "continuity" and isinstance(prob.target, ScalarField):
        raise ConfigError("continuity method needs a constant target")
    out_dir = Path(cfg.get("output", "dir", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)

    u0 = None
    u0_spec = cfg.get("fields", "u0")
    if u0_spec is not None:
        u0 = parse_scalar_spec(u0_spec, prob.grid)

    if method == "continuity":
        report = continuity_solve(prob, cfg=sc)
        stages = sum(it.step == 0.0 for it in report.iterates)
    else:
        report = newton_solve(prob, u0=u0, cfg=sc)
        stages = 0

    write_field(out_dir / "solution.dhym", report.u)
    final = report.iterates[-1]  # the solver's last accepted state
    pairs = [
        ("converged", "true"),  # an unconverged solve raises
        ("method", method),
        ("grid_n", str(prob.grid.n)),
        ("grid_N", str(prob.grid.N)),
        ("residual_sup", _fmt(report.residual_sup)),
        ("c", _fmt(report.c)),
        ("abs_c", _fmt(abs(report.c))),
        ("mean_u", _fmt(report.u.values.mean())),
        ("min_phase", _fmt(final.min_phase)),
        ("max_phase", _fmt(final.max_phase)),
        ("newton_iterations", str(len(report.iterates))),
        ("krylov_iters", str(sum(it.krylov_iters for it in report.iterates))),
        ("continuity_stages", str(stages)),
        ("continuity_failed_attempts", str(len(report.failed_attempts))),
        ("final_residual_sup", _fmt(report.residual_sup)),
    ]
    _write_report(out_dir / "report.txt", pairs)
    with open(out_dir / "trace.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "residual_sup", "min_phase", "t", "b_t"])
        for i, it in enumerate(report.iterates):
            writer.writerow([i, _fmt(it.residual_sup), _fmt(it.min_phase), _fmt(it.t), _fmt(it.c)])
    print(f"converged=True residual_sup={report.residual_sup:.3e} "
          f"c={report.c:.3e} artifacts in {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_derivatives(samples: int, rng) -> list[dict]:
    eps1, eps2 = 1e-5, 1e-4
    rows = []
    for n in (2, 3, 4):
        mats, hs = [], []
        for _ in range(samples):
            lam = np.sort(rng.uniform(-2.0, 2.5, n))[::-1]
            lam += np.arange(n)[::-1] * 0.5  # enforce comfortable gaps
            mats.append(np.diag(lam))
            hs.append(
                symmetrize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            )
        mats, hs = np.array(mats), np.array(hs)
        # every sample's finite-difference stencil, solved in one batch
        stencil = np.stack(
            [mats + eps1 * hs, mats - eps1 * hs, mats + eps2 * hs, mats, mats - eps2 * hs],
            axis=1,
        )
        eye = np.broadcast_to(np.eye(n), (5 * samples, n, n))
        vals, frames = eig_pair_batch(eye, stencil.reshape(-1, n, n))
        vals, frames = vals.reshape(samples, 5, n), frames.reshape(samples, 5, n, n)
        theta = np.sum(np.arctan(vals), axis=-1)
        d1 = (vals[:, 0] - vals[:, 1]) / (2 * eps1)
        d2 = (vals[:, 2] - 2 * vals[:, 3] + vals[:, 4]) / eps2**2
        dt1 = (theta[:, 0] - theta[:, 1]) / (2 * eps1)
        dt2 = (theta[:, 2] - 2 * theta[:, 3] + theta[:, 4]) / eps2**2

        worst_first = worst_second = 0.0
        failures = 0
        for s, (mat, h) in enumerate(zip(mats, hs)):
            first, second = eigenvalue_derivatives(mat)
            p1 = np.einsum("ipq,pq->i", first.astype(complex), h).real
            e1 = np.max(np.abs(d1[s] - p1)) / max(1.0, np.max(np.abs(p1)))
            p2 = np.einsum("ipqrs,pq,rs->i", second, h, h).real
            e2 = np.max(np.abs(d2[s] - p2)) / max(1.0, np.max(np.abs(p2)))

            sd = spectral_function_derivatives("arctan_sum", mat)
            pt1 = np.einsum("ij,ij->", sd.first, h).real
            et1 = abs(dt1[s] - pt1) / max(1.0, abs(pt1))
            pt2 = np.einsum("ijrs,ij,rs->", sd.second, h, h).real
            et2 = abs(dt2[s] - pt2) / max(1.0, abs(pt2))

            dfm = dF(EigenSystem(vals[s, 3], frames[s, 3]))
            dd1 = (
                lagrangian_angle_det(np.eye(n), mat + eps1 * h)
                - lagrangian_angle_det(np.eye(n), mat - eps1 * h)
            ) / (2 * eps1)
            pd1 = float(np.trace(dfm @ h).real)
            ed1 = abs(dd1 - pd1) / max(1.0, abs(pd1))

            worst_first = max(worst_first, e1, et1, ed1)
            worst_second = max(worst_second, e2, et2)
            if max(e1, et1, ed1) > 1e-6 or max(e2, et2) > 1e-4:
                failures += 1
        rows.append(
            {
                "case": f"n={n}",
                "samples": samples,
                "failures": failures,
                "worst": max(worst_first, worst_second),
                "threshold": 1e-4,
            }
        )
    return rows


def _suite_subsolution(samples: int, rng) -> list[dict]:
    rows = []
    for n in (2, 3):
        failures = 0
        worst = np.inf
        for _ in range(samples):
            mus = rng.uniform(-5.0, 5.0, n)
            h = rng.uniform((n - 2) * np.pi / 2 + 0.1, n * np.pi / 2 - 0.1)
            verdict = is_csub_pointwise(mus, h)
            if verdict.is_csub != csub_bounded_oracle(mus, h):
                failures += 1
            worst = min(worst, abs(verdict.worst_margin))
        rows.append(
            {
                "case": f"n={n}",
                "samples": samples,
                "failures": failures,
                "worst": worst,
                "threshold": 0.0,
            }
        )
    return rows


def _suite_level_set_arithmetic(samples: int, rng, eps0: float) -> list[dict]:
    rows = []
    for n in (2, 3):
        for sigma in (
            (n - 2) * np.pi / 2 + 0.2,
            (n - 1) * np.pi / 2,
            n * np.pi / 2 - 0.2,
        ):
            spec = PhaseSpec(n, sigma, min(eps0, sigma - (n - 2) * np.pi / 2))
            points = np.empty((0, n))
            while points.shape[0] < samples:
                free = np.tan(
                    rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, (4 * samples, n - 1))
                )
                points = np.concatenate(
                    [points, level_set_sample_batch(spec, free)], axis=0
                )
            points = points[:samples]
            thresh = np.tan(spec.eps0 / 2) - 1e-12
            viol_i = int(np.sum(points[:, -2] + points[:, -1] < thresh))
            e1 = np.sum(points, axis=1)
            viol_ii = int(np.sum(e1 < -1e-12))
            if n >= 3:
                e2 = 0.5 * (e1**2 - np.sum(points**2, axis=1))
                viol_ii += int(np.sum(e2 < -1e-12))
            rows.append(
                {
                    "case": f"n={n},sigma={sigma:.4f}",
                    "samples": samples,
                    "failures": viol_i + viol_ii,
                    "worst": float(np.min(points[:, -2] + points[:, -1] - thresh)),
                    "threshold": 0.0,
                }
            )
    return rows


def _suite_invariance(samples: int, rng, grid_n: int, grid_N: int) -> list[dict]:
    grid = TorusGrid(grid_n, grid_N)
    omega = identity_metric(grid)
    chi0 = constant_form_field(grid, 0.4 * np.eye(grid_n))
    base = hat_theta(omega, chi0).hat_theta
    worst = 0.0
    failures = 0
    for _ in range(samples):
        vals = np.zeros(grid.shape)
        for axis in grid.axis_names:
            coord = grid.axis_coordinate(axis)
            for freq in (1, 2):
                vals = vals + rng.uniform(-0.2, 0.2) * np.cos(
                    freq * coord + rng.uniform(0, 2 * np.pi)
                )
        chi = chi0 + i_ddbar(ScalarField(grid, vals))
        delta = abs(hat_theta(omega, chi).hat_theta - base)
        worst = max(worst, delta)
        if delta > 1e-10:
            failures += 1
    return [
        {
            "case": f"n={grid_n},N={grid_N}",
            "samples": samples,
            "failures": failures,
            "worst": worst,
            "threshold": 1e-10,
        }
    ]


def _suite_dichotomy(samples: int, seed: int, sigma: float, eps0: float, delta: float, radius: float) -> list[dict]:
    spec = PhaseSpec(2, sigma, eps0)
    kappa = dichotomy_kappa_estimate(
        np.eye(2), spec, delta, radius, samples=samples, seed=seed
    )
    return [
        {
            "case": f"sigma={sigma:.4f},R={radius:g}",
            "samples": samples,
            "failures": 0 if kappa > 0 else 1,
            "worst": kappa,
            "threshold": 0.0,
        }
    ]


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    suite = cfg.get("check", "suite")
    if suite not in ("subsolution", "lemma23", "invariance", "derivatives", "prop21"):
        raise ConfigError(f"unknown check suite {suite!r}")
    samples = cfg.get_int("check", "samples", 100)
    seed = cfg.get_int("check", "seed", 0)
    if samples < 1:
        raise ConfigError("samples must be positive")
    rng = np.random.default_rng(seed)

    if suite == "derivatives":
        rows = _suite_derivatives(samples, rng)
    elif suite == "subsolution":
        rows = _suite_subsolution(samples, rng)
    elif suite == "lemma23":
        eps0 = cfg.get_float("check", "eps0", 0.2)
        if eps0 <= 0:
            raise ConfigError("lemma23 needs eps0 > 0")
        rows = _suite_level_set_arithmetic(samples, rng, eps0)
    elif suite == "invariance":
        rows = _suite_invariance(
            samples,
            rng,
            cfg.get_int("check", "n", 1),
            cfg.get_int("check", "N", 32),
        )
    else:
        sigma = cfg.get_float("check", "sigma", np.pi / 2 + 0.2)
        eps0 = cfg.get_float("check", "eps0", 0.2)
        delta = cfg.get_float("check", "delta", 0.05)
        radius = cfg.get_float("check", "radius", 10.0)
        if eps0 <= 0:
            raise ConfigError("prop21 needs eps0 > 0")
        rows = _suite_dichotomy(samples, seed, sigma, eps0, delta, radius)

    out_dir = Path(cfg.get("output", "dir", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"check_{suite}.csv"
    total_failures = 0
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "case", "samples", "failures", "worst", "threshold"])
        for row in rows:
            writer.writerow(
                [suite, row["case"], row["samples"], row["failures"],
                 _fmt(row["worst"]), _fmt(row["threshold"])]
            )
            total_failures += row["failures"]
    print(f"suite={suite} failures={total_failures} report={out_path}")
    return EXIT_OK if total_failures == 0 else 1


def _require_finite(args, *options: str) -> None:
    for option in options:
        value = getattr(args, option)
        if not np.isfinite(value):
            raise ConfigError(f"--{option} must be finite, got {value!r}")


def cmd_surface(args) -> int:
    _require_finite(args, "alpha", "beta", "q", "c", "m", "M", "w11", "w22", "w12re", "w12im")
    params = {}
    if args.name == "inoue-sm":
        params = {"alpha": args.alpha, "beta": args.beta}
    elif args.name == "inoue-pm":
        params = {"q": args.q}
    model = catalog(args.name, **params)
    metric = InvariantMetric(args.w11, args.w22, complex(args.w12re, args.w12im))

    print(f"surface = {model.name}")
    print(f"parameters = {model.parameters}")
    print(f"bc_generator = {model.bc_generator}  (dim H^{{1,1}} = {model.bc_dim})")
    print(f"jacobi_residual = {model.jacobi_residual():.3e}")
    print(f"j_squared_residual = {model.j_squared_residual():.3e}")
    print("brackets:")
    c = model.structure_constants
    for i in range(4):
        for j in range(i + 1, 4):
            if np.any(c[i, j] != 0.0):
                terms = " + ".join(
                    f"{c[i, j, k]:g} e{k + 1}" for k in range(4) if c[i, j, k] != 0.0
                )
                print(f"  [e{i + 1}, e{j + 1}] = {terms}")
    print("invariant (1,0)-forms (coefficients in e^1..e^4):")
    for row, label in zip(model.invariant_forms, ("phi1", "phi2")):
        print(f"  {label} = {np.array2string(row, precision=6)}")
    print(f"trace_formula(c={args.c:g}) = {trace_formula(metric, args.c):.12g}")
    verdict = csub_on_surface(
        args.name, metric, args.c, m=args.m, big_m=args.M, **params
    )
    print(f"lambdas = ({verdict.lambdas[0]:.12g}, {verdict.lambdas[1]:.12g})")
    print(f"phase_bound = {verdict.phase_bound:.12g}")
    print(f"csub_certified = {str(verdict.csub_certified).lower()}")
    if verdict.trivial:
        print("trivial solution: zero class solves the equation with phase 0")
    return EXIT_OK


def cmd_region(args) -> int:
    if args.resolution < 2 or args.resolution > 2048:
        raise ConfigError(f"resolution {args.resolution} outside 2..2048")
    _require_finite(args, "sigma", "scale", "offset")
    sigma = args.sigma
    scale = args.scale
    lo = -np.pi / 2 * scale + args.offset
    hi = np.pi * scale + args.offset
    coords = np.linspace(lo, hi, args.resolution)
    cell = coords[1] - coords[0]
    l1 = coords[:, None]
    l2 = coords[None, :]
    total = np.arctan(l1) + np.arctan(l2)
    grad1 = 1.0 / (1.0 + l1**2)
    grad2 = 1.0 / (1.0 + l2**2)
    near = np.abs(total - sigma) <= 0.5 * cell * (grad1 + grad2)
    # subsolution criterion for n = 2: both complementary angles clear
    margin1 = np.arctan(l2) - (sigma - np.pi / 2)
    margin2 = np.arctan(l1) - (sigma - np.pi / 2)
    csub = (margin1 > 0.0) & (margin2 > 0.0)
    labels = np.where(near, 2, np.where(csub, 1, 0))

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda1", "lambda2", "label"])
        for i in range(args.resolution):
            for j in range(args.resolution):
                writer.writerow([_fmt(coords[i]), _fmt(coords[j]), int(labels[i, j])])
    counts = {int(k): int(v) for k, v in zip(*np.unique(labels, return_counts=True))}
    print(f"region grid {args.resolution}x{args.resolution} sigma={sigma:g} "
          f"counts={counts} -> {out}")
    return EXIT_OK


def cmd_angle(args) -> int:
    if args.omega and args.chi:
        omega = read_field(args.omega)
        chi = read_field(args.chi)
        if isinstance(omega, ScalarField) or isinstance(chi, ScalarField):
            raise ConfigError("angle needs two hermitian-form field files")
        if omega.grid != chi.grid:
            raise ConfigError("field grids differ")
    elif args.config:
        cfg = load_config(args.config)
        grid = parse_grid(cfg)
        omega = parse_form_spec(cfg.get("fields", "omega", "id"), grid)
        chi = parse_form_spec(cfg.require("fields", "chi0"), grid)
    else:
        raise ConfigError("angle needs either two field files or --config")
    result = hat_theta(omega, chi)
    print(f"hat_theta = {result.hat_theta:.15g}")
    print(f"modulus = {result.modulus:.15g}")
    print(f"branch_certificate = {result.branch_certificate:.15g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhym",
        description="Phase-equation laboratory on flat complex tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the solver from a config file")
    p_solve.add_argument("config")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("config")
    p_check.set_defaults(func=cmd_check)

    p_surface = sub.add_parser("surface", help="print a surface model report")
    p_surface.add_argument("name", metavar="name",
                           help=f"one of {', '.join(SURFACE_NAMES)}")
    p_surface.add_argument("--alpha", type=float, default=1.0)
    p_surface.add_argument("--beta", type=float, default=0.0)
    p_surface.add_argument("--q", type=float, default=0.0)
    p_surface.add_argument("--c", type=float, default=1.0)
    p_surface.add_argument("--m", type=float, default=1.0)
    p_surface.add_argument("--M", type=float, default=1.0)
    p_surface.add_argument("--w11", type=float, default=1.0)
    p_surface.add_argument("--w22", type=float, default=1.0)
    p_surface.add_argument("--w12re", type=float, default=0.0)
    p_surface.add_argument("--w12im", type=float, default=0.0)
    p_surface.set_defaults(func=cmd_surface)

    p_region = sub.add_parser("region", help="classify the n=2 eigenvalue plane")
    p_region.add_argument("--sigma", type=float, default=np.pi / 2)
    p_region.add_argument("--resolution", type=int, default=256)
    p_region.add_argument("--scale", type=float, default=1.0)
    p_region.add_argument("--offset", type=float, default=0.0)
    p_region.add_argument("--out", default="region.csv")
    p_region.set_defaults(func=cmd_region)

    p_angle = sub.add_parser("angle", help="averaged angle of a field pair")
    p_angle.add_argument("omega", nargs="?", default=None)
    p_angle.add_argument("chi", nargs="?", default=None)
    p_angle.add_argument("--config", default=None)
    p_angle.set_defaults(func=cmd_angle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _fft_workers()  # rejects a malformed DHYM_THREADS before any work
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except DhymError as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
