"""Every attribute ``src/repro`` assigns on ``self`` is read somewhere.

An attribute that is written but never read is state nothing uses: a
counter bumped on every access that no report shows, or a copy of a
constructor argument that nothing consults.  This check parses every
module under ``src/repro`` for ``self.<name>`` stores and fails on a
name that no module of ``src/repro``, ``benchmarks``, ``examples`` or
``tests`` reads.  A read is an attribute load (of any object: the check
matches by name) or a string constant equal to the name (``getattr``,
a field table).  A store is not a read, and neither is a load inside a
statement that updates the same attribute (``self.n += 1``,
``self.counts[k] = self.counts.get(k, 0) + 1``).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
READERS = [ROOT / name for name in ("src/repro", "benchmarks", "examples", "tests")]


def _self_stores(tree: ast.AST):
    """(name, line) for every ``self.<name>`` assignment target."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            yield node.attr, node.lineno


def _updated_name(target: ast.AST):
    """The attribute an assignment target writes into: ``x.a`` or
    ``x.a[k]`` (any depth of subscripts) update ``a``."""
    while isinstance(target, ast.Subscript):
        target = target.value
    return target.attr if isinstance(target, ast.Attribute) else None


def _reads(tree: ast.AST) -> Set[str]:
    """Every attribute name ``tree`` reads, self-updates excluded."""
    updates = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {_updated_name(target) for target in targets}
            updates.update(
                id(sub)
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and sub.attr in names
            )
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if id(node) not in updates:
                out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def write_only(
    modules: Iterable[Path], readers: Iterable[Path]
) -> List[Tuple[Path, int, str]]:
    """(module, line, name) for each ``self.<name>`` store in ``modules``
    whose name nothing under ``readers`` reads."""
    read: Set[str] = set()
    for directory in readers:
        for path in directory.rglob("*.py"):
            read |= _reads(_parse(path))
    return [
        (path, line, name)
        for path in sorted(modules)
        for name, line in _self_stores(_parse(path))
        if name not in read
    ]


def test_no_write_only_attribute():
    assert write_only(SRC.rglob("*.py"), READERS) == []


def test_scanner_flags_write_only_state(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "class C:\n"
        "    def __init__(self, n):\n"
        "        self.kept = n\n"
        "        self.named = 0\n"
        "        self.bumped = 0\n"
        "        self.counts = {}\n"
        "    def step(self, k):\n"
        "        self.bumped += 1\n"
        "        self.counts[k] = self.counts.get(k, 0) + 1\n"
        "        return self.kept + getattr(self, 'named')\n"
    )
    assert write_only([module], [tmp_path]) == [
        (module, 5, "bumped"),
        (module, 6, "counts"),
        (module, 8, "bumped"),
    ]
