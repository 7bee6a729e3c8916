"""No package module imports a name it never uses: the F401 rule of a
linter, checked with ``ast`` so the suite needs none installed.  A
deliberate re-export is listed in ``REEXPORTS`` and marked
``# noqa: F401`` on its import line."""

import ast
from pathlib import Path

import pytest

import orbitduality

MODULES = sorted(Path(orbitduality.__file__).parent.glob("*.py"))

# module -> the names it imports only for others to read through it
REEXPORTS = {
    # perfbench/worker.py calls both as orbits.<name>
    "orbits": {"bvls_dual", "special_piece_of"},
}


def _imports(tree):
    """Each name an import binds, with its line; ``__future__`` binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def _used(tree):
    """The names the module reads, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        note = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            names |= _used(ast.parse(note.value, mode="eval"))
    return names


def unused_imports(source: str) -> dict[str, int]:
    """Each imported name the source never reads, with its import line."""
    tree = ast.parse(source)
    used = _used(tree)
    return {name: line for name, line in _imports(tree) if name not in used}


def test_the_guard_finds_a_dead_import():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path as osp\n"
        "from .rootdata import Coweight, RootSystem, root_system\n"
        "def f(x: 'RootSystem') -> int:\n"
        "    return root_system(json.dumps(x))\n"
    )
    assert unused_imports(source) == {"osp": 2, "Coweight": 3}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used_or_a_marked_reexport(path):
    source = path.read_text(encoding="utf-8")
    unused = unused_imports(source)
    assert set(unused) == REEXPORTS.get(path.stem, set())
    lines = source.splitlines()
    assert all("# noqa: F401" in lines[n - 1] for n in unused.values())
