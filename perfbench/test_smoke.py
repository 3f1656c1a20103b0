"""Smoke tests of the benchmark itself, on tiny inputs (n=2 N=8).

    python -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and three times traced in smoke mode.  The
tests check that every metric named in BENCHMARK.json is printed with its
unit, that traced counts repeat exactly for a repeated seed, that another
seed gives other inputs, and that the benchmark refuses to run without the
package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from tracing import EXACT_UNITS  # noqa: E402


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    info, result = json.loads(info_line)["info"], json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, info["failure_reasons"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return info, result


def _units(result) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_printed_with_units(workload):
    info, result = _parse(_run(workload, 1, 0))
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["fail_rate"] == {"value": 0.0, "unit": "ratio"}
    env = info["env"]
    for key in ("nproc", "python", "numpy", "scipy", "DHYM_THREADS", "fft_workers",
                "caches", "git_commit"):
        assert key in env


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_and_seeds_differ(workload):
    info_a, a = _parse(_run(workload, 1, 1))
    info_b, b = _parse(_run(workload, 1, 1))
    info_c, _ = _parse(_run(workload, 2, 1))
    assert _units(a) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert info_a["trace_counts_repeat"] and info_b["trace_counts_repeat"]
    exact = [k for k, m in a["metrics"].items() if m["unit"] in EXACT_UNITS]
    assert [a["metrics"][k]["value"] for k in exact] == [b["metrics"][k]["value"] for k in exact]
    assert info_a["input_sha256"] == info_b["input_sha256"] != info_c["input_sha256"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(NAMES[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
