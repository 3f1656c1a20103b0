"""Command-line interface: solve, check, surface, region, angle.

Exit codes: 0 success, 1 a check suite reported failures, 2 configuration
error, 3 solver failure.  All randomness flows from [check] seed (a
non-negative integer; `dhym solve` draws nothing); identical config and
seed reproduce byte-identical artifacts except for the timestamp line in
the report, which comparisons should exclude.  Grids below 2^18
points (every n=1 grid, n=2 up to N=16) transform on one thread; on the
rest the environment variable DHYM_THREADS caps the number of FFT worker
threads (0 or unset = automatic).  A DHYM_THREADS that is not an integer
>= 0 is a configuration error (exit 2) for every subcommand, whatever the
grid.
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
    _angle_total,
    csub_bounded_oracle_batch,
    dichotomy_kappa_estimate,
    is_csub_batch,
    level_set_arithmetic,
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
    )


def _build_problem(cfg: RunConfig) -> DhymProblem:
    kind = cfg.get("target", "kind", "constant")
    # a key that only another kind reads is refused before any field is read
    for section, key, reader in [("fields", "u_star", "manufactured"),
                                 ("target", "value", "constant"), ("target", "path", "field")]:
        if kind != reader and cfg.get(section, key) is not None:
            raise ConfigError(f"[{section}] {key} is read only by [target] kind = {reader}")
    grid = parse_grid(cfg)
    omega = parse_form_spec(cfg.get("fields", "omega", "id"), grid)
    chi0 = parse_form_spec(cfg.require("fields", "chi0"), grid)
    eps0 = cfg.get_float("problem", "eps0")
    if eps0 is None:
        raise ConfigError("config needs [problem] eps0")
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
    u0_spec = cfg.get("fields", "u0")
    if method == "continuity" and u0_spec is not None:
        raise ConfigError("[fields] u0 is read only by method = newton, not by continuity")
    out_dir = Path(cfg.get("output", "dir", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)

    u0 = None
    if u0_spec is not None:
        u0 = parse_scalar_spec(u0_spec, prob.grid)

    if method == "continuity":
        report = continuity_solve(prob, cfg=sc)
        # a stage starts at each unstepped iterate of the continuation's
        # level, the first iterate's; finer levels start at one each too
        level = report.iterates[0].N
        stages = sum(it.step == 0.0 and it.N == level for it in report.iterates)
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
        ("newton_steps", str(sum(it.step != 0.0 for it in report.iterates))),
        ("krylov_iters", str(sum(it.krylov_iters for it in report.iterates))),
        ("continuity_stages", str(stages)),
        ("continuity_failed_attempts", str(len(report.failed_attempts))),
        ("coarse_levels", str(len({it.N for it in report.iterates} - {prob.grid.N}))),
        ("final_residual_sup", _fmt(report.residual_sup)),
    ]
    _write_report(out_dir / "report.txt", pairs)
    with open(out_dir / "trace.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "residual_sup", "min_phase", "t", "b_t", "N"])
        for i, it in enumerate(report.iterates):
            writer.writerow(
                [i, _fmt(it.residual_sup), _fmt(it.min_phase), _fmt(it.t), _fmt(it.c), it.N]
            )
    print(f"converged=True residual_sup={report.residual_sup:.3e} "
          f"c={report.c:.3e} artifacts in {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_derivatives(cfg: RunConfig, samples: int, rng) -> list[tuple]:
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
        rows.append((f"n={n}", failures, max(worst_first, worst_second)))
    return rows


# rows per batched criterion and oracle call, so memory does not grow with samples
_SUBSOLUTION_BLOCK = 4096


def _suite_subsolution(cfg: RunConfig, samples: int, rng) -> list[tuple]:
    rows = []
    for n in (2, 3):
        lo, hi = (n - 2) * np.pi / 2 + 0.1, n * np.pi / 2 - 0.1
        failures = 0
        worst = np.inf
        for start in range(0, samples, _SUBSOLUTION_BLOCK):
            count = min(_SUBSOLUTION_BLOCK, samples - start)
            # one row per sample: n mus in [-5, 5], then h in [lo, hi]
            draws = rng.uniform([-5.0] * n + [lo], [5.0] * n + [hi], (count, n + 1))
            mus, h = draws[:, :n], draws[:, n]
            margin, _ = is_csub_batch(mus, h)
            failures += int(np.sum((margin > 0.0) != csub_bounded_oracle_batch(mus, h)))
            worst = min(worst, float(np.min(np.abs(margin))))
        rows.append((f"n={n}", failures, worst))
    return rows


def _level_set_points(spec: PhaseSpec, samples: int, rng) -> np.ndarray:
    """The first samples level-set points completed from uniform free angles.

    Draws 4 * samples rows of n - 1 angles at a time.  A row whose angle sum
    is not within pi/2 of sigma (plus 1e-9, far above the round-off of
    arctan(tan(a))) is dropped before its tangents are taken:
    level_set_sample_batch would reject its residual angle anyway.
    """
    points = np.empty((0, spec.n))
    while points.shape[0] < samples:
        angles = rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, (4 * samples, spec.n - 1))
        near = np.abs(_angle_total(angles) - spec.sigma) < np.pi / 2 + 1e-9
        # np.compress takes rows by a mask several times faster than indexing
        free = np.tan(np.compress(near, angles, axis=0))
        points = np.concatenate([points, level_set_sample_batch(spec, free)], axis=0)
    return points[:samples]


def _check_eps0(cfg: RunConfig) -> float:
    eps0 = cfg.get_float("check", "eps0", 0.2)
    if eps0 <= 0:
        raise ConfigError(f"[check] eps0 = {eps0!r} must be > 0")
    return eps0


def _suite_level_set_arithmetic(cfg: RunConfig, samples: int, rng) -> list[tuple]:
    eps0 = _check_eps0(cfg)
    rows = []
    for n in (2, 3):
        for sigma in (
            (n - 2) * np.pi / 2 + 0.2,
            (n - 1) * np.pi / 2,
            n * np.pi / 2 - 0.2,
        ):
            spec = PhaseSpec(n, sigma, min(eps0, sigma - (n - 2) * np.pi / 2))
            margin, counts = level_set_arithmetic(_level_set_points(spec, samples, rng), spec)
            failures = int(np.sum(margin < 0.0)) + int(np.sum(counts))
            rows.append((f"n={n},sigma={sigma:.4f}", failures, float(np.min(margin))))
    return rows


def _suite_invariance(cfg: RunConfig, samples: int, rng) -> list[tuple]:
    grid_n, grid_N = cfg.get_int("check", "n", 1), cfg.get_int("check", "N", 32)
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
    return [(f"n={grid_n},N={grid_N}", failures, worst)]


def _suite_dichotomy(cfg: RunConfig, samples: int, rng) -> list[tuple]:
    sigma = cfg.get_float("check", "sigma", np.pi / 2 + 0.2)
    spec = PhaseSpec(2, sigma, _check_eps0(cfg))
    delta = cfg.get_float("check", "delta", 0.05)
    radius = cfg.get_float("check", "radius", 10.0)
    # the estimate draws from [check] seed itself, not from rng
    kappa = dichotomy_kappa_estimate(
        np.eye(2), spec, delta, radius, samples=samples, seed=cfg.get_int("check", "seed", 0)
    )
    return [(f"sigma={sigma:.4f},R={radius:g}", 0 if kappa > 0 else 1, kappa)]


# suite: (run, the CSV's threshold column, the [check] keys run reads besides
# suite, samples and seed); cmd_check refuses any other key
_SUITES = {
    "derivatives": (_suite_derivatives, 1e-4, ()),
    "subsolution": (_suite_subsolution, 0.0, ()),
    "lemma23": (_suite_level_set_arithmetic, 0.0, ("eps0",)),
    "invariance": (_suite_invariance, 1e-10, ("n", "N")),
    "prop21": (_suite_dichotomy, 0.0, ("sigma", "eps0", "delta", "radius")),
}


# memory grows with samples (derivatives about 11 kB a sample, lemma23 and
# prop21 about 0.35 kB), so the largest run stays near 1.1 GiB peak RSS
CHECK_SAMPLES_MAX = 100_000


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    suite = cfg.get("check", "suite")
    if suite not in _SUITES:
        raise ConfigError(f"unknown check suite {suite!r}")
    run, threshold, keys = _SUITES[suite]
    for key in cfg.sections["check"]:
        if key not in ("suite", "samples", "seed", *keys):
            raise ConfigError(f"[check] {key} is not read by suite = {suite}")
    samples = cfg.get_int("check", "samples", 100)
    if not 1 <= samples <= CHECK_SAMPLES_MAX:
        raise ConfigError(f"[check] samples = {samples} outside [1, {CHECK_SAMPLES_MAX}]")
    seed = cfg.get_int("check", "seed", 0)
    if seed < 0:  # numpy's generators refuse it
        raise ConfigError(f"[check] seed = {seed} must be >= 0")
    rows = run(cfg, samples, np.random.default_rng(seed))

    out_dir = Path(cfg.get("output", "dir", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"check_{suite}.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "case", "samples", "failures", "worst", "threshold"])
        writer.writerows(
            [suite, case, samples, failures, _fmt(worst), _fmt(threshold)]
            for case, failures, worst in rows
        )
    total_failures = sum(failures for _, failures, _ in rows)
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
