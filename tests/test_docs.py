"""Every spinref attribute that the docs name in backticks exists: the docs'
counterpart of test_imports.py, so that code which moves or is deleted
leaves no reference to itself behind in README.md or a docstring."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinref"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
# `cooling._round`, ``spinref.thermal.stride_spread``, ``perms.apply_to(bits, p)``
QUALIFIED = re.compile(r"`+(?:spinref\.)?(%s)\.(\w+)" % "|".join(MODULES))
# a private name of the docstring's own module, such as ``_transpose``
PRIVATE = re.compile(r"``(_[A-Za-z]\w*)``")


def _docstrings(path):
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node)
            if doc:
                yield getattr(node, "name", path.stem), doc


def _missing(text, own=None):
    names = [(m[1], m[2]) for m in QUALIFIED.finditer(text)]
    if own is not None:
        names += [(own, m[1]) for m in PRIVATE.finditer(text)]
    return sorted({f"{module}.{attr}" for module, attr in names
                   if not hasattr(importlib.import_module(f"spinref.{module}"), attr)})


def test_readme_names_only_attributes_that_exist():
    assert _missing((ROOT / "README.md").read_text()) == []


@pytest.mark.parametrize("module", MODULES)
def test_docstrings_name_only_attributes_that_exist(module):
    missing = [(where, name) for where, doc in _docstrings(PACKAGE / f"{module}.py")
               for name in _missing(doc, module)]
    assert missing == []


def test_a_deleted_attribute_is_caught():
    assert _missing("reads columns (`cooling._read_columns`) and ``perms.apply_to(b, p)``") == [
        "cooling._read_columns",
    ]
    assert _missing("the kernel ``_round`` and ``_no_such_kernel``", "cooling") == [
        "cooling._no_such_kernel",
    ]
