"""Every imported name is read: the repository has no linter, so this is
the guard against imports left behind when code moves or is deleted."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def _unread_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read and name != "*")


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert _unread_imports(ast.parse(path.read_text(), str(path))) == []
