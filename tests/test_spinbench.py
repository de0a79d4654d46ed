"""The benchmark calls spinref by name: its tracer wraps library functions
(``spinbench/tracing.py``) and its workloads call the public API
(``spinbench/workloads.py``).  A rename or signature change in ``spinref``
must fail here rather than crash or fail every benchmark run."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

SPINBENCH = Path(__file__).resolve().parents[1] / "spinbench"


def _load(name):
    """Import ``spinbench/<name>.py`` without touching the file.  Registered
    in ``sys.modules`` first: the dataclasses of a module look it up there."""
    spec = importlib.util.spec_from_file_location(f"spinbench_{name}", SPINBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("tracing")


def test_every_traced_name_is_a_spinref_function():
    names = _load_tracing().traced_names()
    assert names
    for name in names:
        module, attr = name.split(".")
        obj = getattr(importlib.import_module(f"spinref.{module}"), attr, None)
        assert inspect.isfunction(obj), f"traced name {name} is not a spinref function"


@pytest.mark.parametrize("workload", ["direct", "blocks", "verify", "compile"])
def test_workload_first_op_passes_its_checks(workload):
    result = _load("workloads").WORKLOADS[workload](2024, 0)
    assert result.cases > 0 and result.bits > 0
