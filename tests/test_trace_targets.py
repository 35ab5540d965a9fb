"""The benchmark's per-layer tracer wraps package functions by module
attribute; a target that no longer resolves makes a traced run report
``correct: false``, so every one must exist and be callable."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for _, module, attr, _ in tracing.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_trace_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
