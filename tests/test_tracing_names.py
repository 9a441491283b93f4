"""Every program name that the benchmark's per-layer tracer wraps must
still exist; a missing one breaks every traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_names():
    tracing = _tracing()
    return ([(module, function) for module, function, _ in tracing.SPANS]
            + [("linalg", function) for function in tracing.LEAVES])


@pytest.mark.parametrize("module,function", _wrapped_names())
def test_traced_name_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"cryarr.{module}"), function))
