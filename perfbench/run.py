#!/usr/bin/env python3
"""dhym benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a dhym checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced operations and
reports the per-layer metrics and the tracing overhead.  ``--smoke`` shrinks
every workload (n=2 N=8, small suites, at most a few operations) for the
benchmark's own tests.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the run's environment and diagnostics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

IMPORT_REPEATS = 7  # fresh interpreters timing `import dhym, dhym.cli`
SETUP_REPEATS = 5  # in-process repeats of the workload's one-time set-up
SMOKE_OPS = 2  # timed (or traced) operations per smoke run

END_TO_END_UNITS = {
    "op_s_p50": "s",
    "op_s_p90": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import dhym, dhym.cli; "
    "print(repr(time.perf_counter() - t))"
)


def _import_seconds() -> float:
    """Median wall time of `import dhym, dhym.cli` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default), exact at the ends."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def _cache_sizes() -> dict[str, str]:
    """Cache sizes by level, read-only from /sys (empty where unavailable)."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(dhym) -> dict:
    import numpy
    import scipy

    fft_workers = getattr(dhym.torus, "_fft_workers", None)
    # a checkout without .git has no commit to read; the digest of the
    # package sources still identifies the code that was measured
    sources = hashlib.sha256()
    for path in sorted((SRC / "dhym").glob("*.py")):
        sources.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "DHYM_THREADS": os.environ.get("DHYM_THREADS"),
        "fft_workers": fft_workers() if fft_workers else None,
        "caches": _cache_sizes(),
        "git_commit": _git_commit(),
        "src_sha256": sources.hexdigest(),
    }


def _operate(workload, tracer=None):
    """One operation: input outside the timer, the timed call, then the gate."""
    inp = workload.next_input()
    reason = None
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        out = workload.run(inp)
    except Exception as exc:  # any exception is a failed operation
        out, reason = None, f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if reason is None:
        try:
            reason = workload.check(inp, out)
        except Exception as exc:
            reason = f"gate raised {type(exc).__name__}: {exc}"
    return elapsed, reason


def _end_to_end(workload, seconds, max_ops, import_s, failures):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - start)
    _, reason = _operate(workload)  # warm-up: gated, not timed
    failures.append(reason)
    times = []
    deadline = perf_counter() + seconds
    while not times or (perf_counter() < deadline and len(times) < max_ops):
        elapsed, reason = _operate(workload)
        times.append(elapsed)
        failures.append(reason)
    completed = sum(r is None for r in failures[-len(times):])
    metrics = {
        "op_s_p50": statistics.median(times),
        "op_s_p90": _quantile(times, 0.9),
        "ops_per_s": completed / sum(times),
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = END_TO_END_UNITS
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}, len(times)


def _per_layer(workload, seconds, max_ops, failures, spans_path):
    from tracing import EXACT_UNITS, Tracer, layer_totals, metric_units, write_spans

    workload.setup()
    _, reason = _operate(workload)  # warm-up: gated, not traced
    failures.append(reason)
    plain, traced, tracers = [], [], []
    deadline = perf_counter() + seconds
    while not traced or (perf_counter() < deadline and len(traced) < max_ops):
        elapsed, reason = _operate(workload)
        plain.append(elapsed)
        failures.append(reason)
        tracer = Tracer()
        elapsed, reason = _operate(workload, tracer)
        traced.append(elapsed)
        failures.append(reason)
        tracers.append(tracer)

    units = metric_units()
    per_op = [layer_totals(t.spans) for t in tracers]
    exact = [k for k, u in units.items() if u in EXACT_UNITS and k in per_op[0]]
    consistent = all(
        [totals[k] for k in exact] == [per_op[0][k] for k in exact] for totals in per_op
    )
    values = {k: sum(totals[k] for totals in per_op) / len(per_op) for k in per_op[0]}
    values["trace.untraced_op_s"] = statistics.median(plain)
    values["trace.traced_op_s"] = statistics.median(traced)
    values["trace.overhead_ratio"] = values["trace.traced_op_s"] / values["trace.untraced_op_s"]

    OUT.mkdir(exist_ok=True)
    write_spans(spans_path, tracers)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return metrics, len(traced), consistent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and at most a few operations")
    args = parser.parse_args(argv)

    if not (SRC / "dhym" / "__init__.py").is_file():
        print(f"perfbench: no dhym package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import dhym
    from workloads import WORKLOADS

    if Path(dhym.__file__).resolve().parent != (SRC / "dhym").resolve():
        print(f"perfbench: imported dhym from {dhym.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = 0.0 if args.trace else _import_seconds()

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    max_ops = SMOKE_OPS if args.smoke else sys.maxsize
    failures: list[str | None] = []
    try:
        workload = WORKLOADS[args.workload](
            workdir, np.random.default_rng(args.seed), args.smoke
        )
        digest = hashlib.sha256(workload.prepare()).hexdigest()
        consistent = True
        if args.trace:
            tag = "-smoke" if args.smoke else ""
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}{tag}.csv"
            metrics, samples, consistent = _per_layer(
                workload, args.seconds, max_ops, failures, spans_path
            )
        else:
            metrics, samples = _end_to_end(
                workload, args.seconds, max_ops, import_s, failures
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    failed = sum(r is not None for r in failures)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "samples": samples,
        "fail_rate": {"value": failed / len(failures), "unit": "ratio"},
        "failure_reasons": sorted({r for r in failures if r is not None})[:5],
        "trace_counts_repeat": consistent,
        "input_sha256": digest,
        "env": _environment(dhym),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": len(failures),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
