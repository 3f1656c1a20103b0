"""Span tracing of the dhym layers from outside the package.

The tracer wraps public functions of the package while an operation runs
and restores them afterwards.  A module that imported a name binds its own
reference (``solver`` and ``cli`` import ``i_ddbar``, ``fftn``, ``residual``
and others by name), so every binding of the same function object in every
loaded ``dhym`` module is replaced, not only the one in the defining module.
The Krylov call is traced through the ``scipy.sparse.linalg`` attributes
that ``dhym.solver`` looks up at call time.

Each span records name, start, end, parent span, whether it raised, and an
optional size (transformed points for FFTs, file bytes for field I/O).
Spans stay in memory and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import importlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _array_points(args):
    return int(args[0].size)


def _path_bytes(args):
    return os.path.getsize(args[0])


# (layer span name, module that defines the name, attribute, size probe)
SPANS = [
    ("torus.fft", "dhym.torus", "fftn", _array_points),
    ("torus.fft", "dhym.torus", "ifftn", _array_points),
    ("torus.i_ddbar", "dhym.torus", "i_ddbar", None),
    ("torus.eta_inverse_values", "dhym.torus", "eta_inverse_values", None),
    ("torus.theta_field", "dhym.torus", "theta_field", None),
    ("torus.pencil_eigenvalues", "dhym.torus", "pencil_eigenvalues", None),
    ("torus.hat_theta", "dhym.torus", "hat_theta", None),
    ("torus.inverse_laplacian_quarter", "dhym.torus", "inverse_laplacian_quarter", None),
    ("solver.apply_linearized", "dhym.solver", "apply_linearized", None),
    ("solver.residual", "dhym.solver", "residual", None),
    ("solver.linearization_kernel", "dhym.solver", "linearization_kernel", None),
    ("solver.newton_solve", "dhym.solver", "newton_solve", None),
    ("solver.continuity_solve", "dhym.solver", "continuity_solve", None),
    ("solver.krylov", "scipy.sparse.linalg", "gmres", None),
    ("solver.krylov", "scipy.sparse.linalg", "cg", None),
    ("hermitian.eig_pair", "dhym.hermitian", "eig_pair", None),
    ("hermitian.eigenvalue_derivatives", "dhym.hermitian", "eigenvalue_derivatives", None),
    ("hermitian.spectral_function_derivatives", "dhym.hermitian",
     "spectral_function_derivatives", None),
    ("hermitian.lagrangian_angle_det", "dhym.hermitian", "lagrangian_angle_det", None),
    ("phase.level_set_sample_batch", "dhym.phase", "level_set_sample_batch", None),
    ("phase.is_csub_pointwise", "dhym.phase", "is_csub_pointwise", None),
    ("phase.csub_bounded_oracle", "dhym.phase", "csub_bounded_oracle", None),
    ("phase.dichotomy_kappa_estimate", "dhym.phase", "dichotomy_kappa_estimate", None),
    ("cli.main", "dhym.cli", "main", None),
    ("runconfig.load_config", "dhym.runconfig", "load_config", None),
    ("runconfig.parse_scalar_spec", "dhym.runconfig", "parse_scalar_spec", None),
    ("runconfig.parse_form_spec", "dhym.runconfig", "parse_form_spec", None),
    ("fieldio.read_field", "dhym.fieldio", "read_field", _path_bytes),
    ("fieldio.write_field", "dhym.fieldio", "write_field", _path_bytes),
]
SPAN_NAMES = list(dict.fromkeys(name for name, *_ in SPANS))
SIZED = {"torus.fft": ("points", "count"),
         "fieldio.read_field": ("bytes", "B"),
         "fieldio.write_field": ("bytes", "B")}
# counts that must repeat exactly between identical operations
EXACT_UNITS = ("count", "B")

DERIVED = [
    ("solver.newton_steps", "count"),
    ("solver.matvecs_per_step", "ratio"),
    ("solver.line_search.trials", "count"),
    ("solver.line_search.accept_ratio", "ratio"),
    ("solver.state_evals_per_trial", "ratio"),
    ("solver.continuation.stages", "count"),
    ("solver.continuation.failed_attempts", "count"),
]
OVERHEAD = [
    ("trace.untraced_op_s", "s"),
    ("trace.traced_op_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in SIZED:
            field, unit = SIZED[name]
            units[f"{name}.{field}"] = unit
    units.update(DERIVED)
    units.update(OVERHEAD)
    return units


class Tracer:
    """Collects nested spans while installed; restores every binding after."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, raised, size]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, original, probe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, False, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if probe is not None:
                rec[5] = probe(args)
            return result

        return traced

    def install(self) -> None:
        owners = [m for key, m in sorted(sys.modules.items())
                  if key == "dhym" or key.startswith("dhym.")]
        for name, module_name, attr, probe in SPANS:
            home = importlib.import_module(module_name)
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, probe)
            for owner in [home] + owners:
                if getattr(owner, attr, None) is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def write_spans(path, tracers: list[Tracer]) -> None:
    """Write the spans of every traced operation as one CSV file."""
    with open(path, "w") as fh:
        fh.write("op,index,name,start_s,end_s,parent,raised,size\n")
        for op, tracer in enumerate(tracers):
            for i, (name, start, end, parent, raised, size) in enumerate(tracer.spans):
                fh.write(f"{op},{i},{name},{start!r},{end!r},{parent},{int(raised)},{size}\n")


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Per-layer calls, self time, sizes and solver ratios over a span list.

    Self time is a span's duration minus the durations of its direct
    children.  Newton iterations are the linearization kernels built
    directly by newton_solve; a line-search trial is a residual evaluated
    directly by newton_solve after its first one.  An iteration counts as
    accepted when another iteration or a normal return follows it, so the
    last iteration of a newton_solve that raised counts as rejected.
    """
    calls, self_s, size = Counter(), defaultdict(float), Counter()
    children = defaultdict(list)
    for i, (name, start, end, parent, _, span_size) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start
        size[name] += span_size
        if parent >= 0:
            self_s[spans[parent][0]] -= end - start
            children[parent].append(i)

    steps = trials = accepted = stages = failed_stages = state_evals = 0
    for i, (name, _, _, parent, raised, _) in enumerate(spans):
        if name == "torus.i_ddbar" and (
            parent < 0 or spans[parent][0] != "solver.apply_linearized"
        ):
            state_evals += 1
        if name != "solver.newton_solve":
            continue
        if parent >= 0 and spans[parent][0] == "solver.continuity_solve":
            failed_stages += raised
            stages += not raised
        kinds = [spans[c][0] for c in children[i]]
        iters = kinds.count("solver.linearization_kernel")
        steps += iters
        trials += max(0, kinds.count("solver.residual") - 1)
        accepted += iters - 1 if raised and iters else iters

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        if name in SIZED:
            out[f"{name}.{SIZED[name][0]}"] = size[name]
    out["solver.newton_steps"] = steps
    out["solver.matvecs_per_step"] = (
        calls["solver.apply_linearized"] / steps if steps else 0.0
    )
    out["solver.line_search.trials"] = trials
    out["solver.line_search.accept_ratio"] = accepted / trials if trials else 0.0
    out["solver.state_evals_per_trial"] = state_evals / trials if trials else 0.0
    out["solver.continuation.stages"] = stages
    out["solver.continuation.failed_attempts"] = failed_stages
    return out
