"""The four benchmark workloads: seeded inputs, one operation, its gate.

Every workload drives dhym only through ``dhym.cli.main`` and the public
``dhym.*`` names.  It generates its inputs from a seeded generator: config
text, and ``.dhym`` field files written with ``dhym.fieldio.write_field``.
Inside one run every operation repeats the same seeded problem (angle-sweep
draws a fresh perturbation of the same size instead), so per-operation
counts repeat exactly and repeated solves must give identical artifacts.

A workload exposes:
  prepare()        write the seeded inputs; returns bytes that identify them
  setup()          the program's one-time set-up (timed as part of setup_s)
  next_input()     per-operation input, generated outside the timer
  run(inp)         the timed operation
  check(inp, out)  the correctness gate: None if passed, else the reason
"""

from __future__ import annotations

import contextlib
import csv
import io
import struct
from pathlib import Path

import numpy as np

import dhym
import dhym.cli
import dhym.fieldio

TWO_PI = 2.0 * np.pi
AXES = ("x1", "y1", "x2", "y2")


def _cli(*argv: str) -> int:
    """dhym.cli.main with its console output captured, so stdout stays ours."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return dhym.cli.main(list(argv))


def _read_report(path: Path) -> dict[str, str]:
    pairs = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


def _read_scalar_dhym(path: Path, n: int, big_n: int) -> np.ndarray:
    """Independent reader of a scalar .dhym file (header <4sIBBI, float64 payload)."""
    raw = path.read_bytes()
    header = struct.Struct("<4sIBBI")
    magic, _, kind, fn, fbig_n = header.unpack_from(raw)
    if (magic, kind, fn, fbig_n) != (b"DHYM", 0, n, big_n):
        raise ValueError(f"{path.name}: unexpected header {magic!r} {kind} {fn} {fbig_n}")
    return np.frombuffer(raw, dtype="<f8", offset=header.size).reshape((big_n,) * (2 * n))


def _axis_values(big_n: int, n: int, axis: str, fn: str, freq: int) -> np.ndarray:
    """fn(freq * coordinate) on one axis, broadcast-ready like TorusGrid.axis_coordinate."""
    coords = np.arange(big_n) * (TWO_PI / big_n)
    shape = [1] * (2 * n)
    shape[AXES.index(axis)] = big_n
    return (np.cos if fn == "cos" else np.sin)(freq * coords).reshape(shape)


def _config(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, body in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in body.items())
        lines.append("")
    return "\n".join(lines)


class Workload:
    """Shared plumbing: a work directory and the seeded generator."""

    def __init__(self, workdir: Path, rng: np.random.Generator, smoke: bool):
        self.workdir = workdir
        self.rng = rng
        self.smoke = smoke
        workdir.mkdir(parents=True, exist_ok=True)

    def identity(self, text: str) -> bytes:
        """Input bytes with the per-run work directory left out."""
        return text.replace(str(self.workdir), "<work>").encode()

    def setup(self) -> None:
        pass

    def next_input(self):
        return None


class _SolveWorkload(Workload):
    """One `dhym solve` of a fixed seeded config; repeated solves must match."""

    def __init__(self, *args):
        super().__init__(*args)
        self.config_path = self.workdir / "run.cfg"
        self.out_dir = self.workdir / "out"
        self._first: tuple[bytes, bytes] | None = None

    def run(self, inp) -> int:
        return _cli("solve", str(self.config_path))

    def check(self, inp, code) -> str | None:
        if code != 0:
            return f"dhym solve exited {code}"
        report = _read_report(self.out_dir / "report.txt")
        reason = self.check_solution(report)
        if reason:
            return reason
        artifacts = (
            (self.out_dir / "solution.dhym").read_bytes(),
            (self.out_dir / "trace.csv").read_bytes(),
        )
        if self._first is None:
            self._first = artifacts
        elif artifacts != self._first:
            return "repeated same-seed solve changed solution.dhym or trace.csv"
        return None


class ManufacturedN2(_SolveWorkload):
    """Newton/gmres solve of an n=2 manufactured problem at N=32 (acceptance 06)."""

    n, big_n, tol, err_max = 2, 32, 1e-11, 1e-6

    def prepare(self) -> bytes:
        big_n = 8 if self.smoke else self.big_n
        self.big_n = big_n
        # one frequency-1 mode on an axis of z1 and one on an axis of z2, with
        # the amplitudes of acceptance 06 and seeded axes and phases
        terms = []
        for amp, axes in ((0.1, ("x1", "y1")), (0.05, ("x2", "y2"))):
            axis = axes[int(self.rng.integers(2))]
            phase = float(self.rng.uniform(0.0, TWO_PI))
            terms.append((float(amp * np.cos(phase)), "cos", 1, axis))
            terms.append((float(amp * np.sin(phase)), "sin", 1, axis))
        spec = " + ".join(f"{a!r} {fn} {f} {axis}" for a, fn, f, axis in terms)
        u_star = np.zeros((big_n,) * 4)
        for amp, fn, freq, axis in terms:
            u_star = u_star + amp * _axis_values(big_n, self.n, axis, fn, freq)
        self.u_star = u_star - u_star.mean()
        text = _config({
            "grid": {"n": self.n, "N": big_n},
            "fields": {"omega": "id", "chi0": "iso 0.3", "u_star": spec},
            "target": {"kind": "manufactured"},
            "problem": {"eps0": 0.3},
            "solver": {"method": "newton", "krylov": "gmres", "tol": self.tol},
            "output": {"dir": self.out_dir},
        })
        self.config_path.write_text(text)
        return self.identity(text)

    def check_solution(self, report: dict[str, str]) -> str | None:
        if float(report["residual_sup"]) > self.tol:
            return f"residual_sup {report['residual_sup']} > tol {self.tol:g}"
        u = _read_scalar_dhym(self.out_dir / "solution.dhym", self.n, self.big_n)
        err = float(np.max(np.abs(u - self.u_star)))
        if err > self.err_max:
            return f"manufactured sup error {err:.3e} > {self.err_max:g}"
        return None


class ContinuationN2(_SolveWorkload):
    """Continuation to a constant target at n=2 N=16 from a chi0 field file."""

    n, big_n, eps0 = 2, 16, 0.2

    def prepare(self) -> bytes:
        big_n = 8 if self.smoke else self.big_n
        n, rng = self.n, self.rng

        def mode(amp, axis):
            phase = rng.uniform(0.0, TWO_PI)
            return amp * (np.cos(phase) * _axis_values(big_n, n, axis, "cos", 1)
                          + np.sin(phase) * _axis_values(big_n, n, axis, "sin", 1))

        # diagonal 0.5 + a frequency-1 mode of amplitude 0.2 along x1 (0.15
        # along x2 on the second entry), off-diagonal a 0.05 mode along y1
        # with a seeded complex phase: every pencil eigenvalue stays >= 0.25,
        # so the initial phase clears eps0.  The seed moves the modes (their
        # phases) but not their shape, so the solver's work barely varies.
        shape = (big_n,) * 4
        d1 = 0.5 + np.broadcast_to(mode(0.2, "x1"), shape)
        d2 = 0.5 + np.broadcast_to(mode(0.15, "x2"), shape)
        off = np.exp(1j * rng.uniform(0.0, TWO_PI)) * np.broadcast_to(mode(0.05, "y1"), shape)
        chi0 = np.empty(shape + (2, 2), dtype=complex)
        chi0[..., 0, 0], chi0[..., 1, 1] = d1, d2
        chi0[..., 0, 1], chi0[..., 1, 0] = off, np.conj(off)
        grid = dhym.TorusGrid(n, big_n)
        chi0_path = self.workdir / "chi0.dhym"
        dhym.fieldio.write_field(chi0_path, dhym.HermitianFormField(grid, chi0))
        # averaged angle: Arg of the integral of det(Id + i chi0), lifted to
        # the branch of the mean pointwise phase
        det = (1 + 1j * d1) * (1 + 1j * d2) + np.abs(off) ** 2
        half = 0.5 * (d1 + d2)
        radius = np.sqrt((0.5 * (d1 - d2)) ** 2 + np.abs(off) ** 2)
        theta0 = np.arctan(half + radius) + np.arctan(half - radius)
        principal = float(np.angle(det.sum()))
        target = principal + TWO_PI * np.round((theta0.mean() - principal) / TWO_PI)
        self.floor = (n - 2) * np.pi / 2
        text = _config({
            "grid": {"n": n, "N": big_n},
            "fields": {"omega": "id", "chi0": f"file {chi0_path}"},
            "target": {"kind": "constant", "value": repr(float(target))},
            "problem": {"eps0": self.eps0},
            "solver": {"tol": 1e-11},
            "output": {"dir": self.out_dir},
        })
        self.config_path.write_text(text)
        return self.identity(text) + chi0_path.read_bytes()

    def check_solution(self, report: dict[str, str]) -> str | None:
        if report.get("converged") != "true" or report.get("method") != "continuity":
            return f"continuation did not converge: {report.get('converged')}"
        with open(self.out_dir / "trace.csv", newline="") as fh:
            phases = [float(row["min_phase"]) for row in csv.DictReader(fh)]
        if not phases or min(phases) <= self.floor:
            return f"iterate min_phase {min(phases, default=float('nan'))} not above floor"
        return None


class AngleSweep(Workload):
    """Averaged angle after a seeded Hessian perturbation (acceptance 05, n=2 N=32)."""

    n, big_n, shift_max = 2, 32, 1e-10

    def prepare(self) -> bytes:
        big_n = 8 if self.smoke else self.big_n
        self.grid = dhym.TorusGrid(self.n, big_n)
        self.omega = dhym.identity_metric(self.grid)
        self.chi0 = dhym.constant_form_field(self.grid, 0.4 * np.eye(self.n))
        # cos and sin at frequencies 1 and 2 on each real axis
        self.modes = [
            [_axis_values(big_n, self.n, axis, fn, freq)
             for freq in (1, 2) for fn in ("cos", "sin")]
            for axis in AXES
        ]
        # the generator state fixes every perturbation the run will draw
        return f"angle-sweep N={big_n} {self.rng.bit_generator.state}".encode()

    def setup(self) -> None:
        self.base = dhym.hat_theta(self.omega, self.chi0).hat_theta

    def next_input(self):
        coeffs = self.rng.uniform(-0.2, 0.2, 16).reshape(4, 4)
        vals = np.zeros(self.grid.shape)
        for axis_modes, axis_coeffs in zip(self.modes, coeffs):
            vals = vals + sum(c * m for c, m in zip(axis_coeffs, axis_modes))
        return dhym.ScalarField(self.grid, vals)

    def run(self, v):
        chi = dhym.HermitianFormField(
            self.grid, self.chi0.values + dhym.i_ddbar(v).values, _symmetrized=True
        )
        return dhym.hat_theta(self.omega, chi).hat_theta

    def check(self, v, angle) -> str | None:
        shift = abs(angle - self.base)
        if not shift <= self.shift_max:
            return f"angle shift {shift:.3e} > {self.shift_max:g}"
        return None


class CheckSuites(Workload):
    """One round of `dhym check` for derivatives, subsolution, lemma23, prop21."""

    SAMPLES = {"derivatives": 150, "subsolution": 4000, "lemma23": 10000, "prop21": 20000}
    SMOKE_SAMPLES = {"derivatives": 4, "subsolution": 50, "lemma23": 50, "prop21": 1000}

    def prepare(self) -> bytes:
        samples = self.SMOKE_SAMPLES if self.smoke else self.SAMPLES
        self.out_dir = self.workdir / "out"
        self.configs = []
        texts = []
        for suite, count in samples.items():
            text = _config({
                "check": {"suite": suite, "samples": count,
                          "seed": int(self.rng.integers(2**31))},
                "output": {"dir": self.out_dir},
            })
            path = self.workdir / f"{suite}.cfg"
            path.write_text(text)
            self.configs.append((suite, path))
            texts.append(text)
        return self.identity("".join(texts))

    def run(self, inp) -> list[int]:
        return [_cli("check", str(path)) for _, path in self.configs]

    def check(self, inp, codes) -> str | None:
        for (suite, _), code in zip(self.configs, codes):
            if code != 0:
                return f"dhym check {suite} exited {code}"
            with open(self.out_dir / f"check_{suite}.csv", newline="") as fh:
                failures = sum(int(row["failures"]) for row in csv.DictReader(fh))
            if failures:
                return f"dhym check {suite} reported {failures} failures"
        return None


WORKLOADS = {
    "manufactured-n2": ManufacturedN2,
    "continuation-n2": ContinuationN2,
    "angle-sweep": AngleSweep,
    "check-suites": CheckSuites,
}
