"""No private helper outlives its callers: each function, method or class
in the package whose name has one leading underscore (a dunder is not
private here) is named somewhere in the package outside its own
definition.  Checked with ``ast``, like ``test_unused_imports``, so a
rewrite that leaves its old helper behind fails here.  Names are matched
as names: two private definitions sharing one name count as used when
either is."""

import ast
from collections import Counter

from test_unused_imports import MODULES

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _names(tree):
    """Each name the tree reads: a variable, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def private_definitions(sources: dict[str, str]):
    """``(module, definition node)`` for each private definition."""
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, DEFINITIONS) and _is_private(node.name):
                yield module, node


def orphans(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private definition that nothing outside its
    own body names; a helper that only calls itself is an orphan."""
    named = Counter(n for s in sources.values() for n in _names(ast.parse(s)))
    return [
        f"{module}.{node.name}"
        for module, node in private_definitions(sources)
        if named[node.name] == sum(n == node.name for n in _names(node))
    ]


def test_the_guard_finds_an_orphaned_helper():
    sources = {
        "a": (
            "def _used():\n    pass\n"
            "def _loops(n):\n    return _loops(n - 1)\n"
            "class _Box:\n"
            "    def _peek(self):\n        pass\n"
            "    def __len__(self):\n        return 0\n"
            "    def _size(self):\n        return len(self)\n"
            "def f(box):\n    return box._size()\n"
        ),
        "b": "from .a import _used, _Box\n_used()\n",
    }
    assert orphans(sources) == ["a._loops", "a._peek"]


def test_every_private_helper_is_named_outside_its_definition():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert len(list(private_definitions(sources))) > 0
    assert orphans(sources) == []
