"""Every function the benchmark's tracer wraps must exist under its name."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracing_spans_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for _, module, attr, _ in tracing.SPANS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
