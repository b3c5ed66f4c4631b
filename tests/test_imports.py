"""Every module-level import in ``src/repro`` is used by its module.

No linter ships with the project, so this is the check that keeps
unused imports out: it parses each non-``__init__`` module (packages
re-export through their ``__init__``) and fails on a name a top-level
``import`` binds that the module never reads.  A read is a name in
code, the root of an attribute chain, a name inside a quoted
annotation, or an entry of ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _bound_names(tree: ast.Module):
    """(name, line) for every name a module-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _annotation_names(annotation: ast.AST):
    """Names read by an annotation, quoted parts included."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(quoted)


def _read_names(tree: ast.Module):
    """Every name the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield from _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield from _annotation_names(node.returns)
        elif (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            yield from (elt.value for elt in node.value.elts)


def unused_imports(path: Path):
    """(name, line) for each module-level import ``path`` never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = set(_read_names(tree))
    return [(name, line) for name, line in _bound_names(tree) if name not in read]


def test_modules_are_found():
    assert len(MODULES) > 50


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES]
)
def test_no_unused_module_level_import(path):
    assert unused_imports(path) == []


def test_scanner_flags_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import Dict, List, Optional\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Optional[int]') -> Dict[str, int]:\n"
        "    return {'a': osp.sep}\n"
    )
    assert unused_imports(module) == [("os", 2), ("List", 4)]
