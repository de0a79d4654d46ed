"""The benchmark's tracer wraps library functions by name (``spinbench/
tracing.py``), so a rename in ``spinref`` must fail here rather than crash
every traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "spinbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("spinbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_spinref_function():
    names = _load_tracing().traced_names()
    assert names
    for name in names:
        module, attr = name.split(".")
        obj = getattr(importlib.import_module(f"spinref.{module}"), attr, None)
        assert inspect.isfunction(obj), f"traced name {name} is not a spinref function"
