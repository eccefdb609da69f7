"""Every private function or class of the package is referenced by a package module.

A private definition is a ``def`` or ``class`` whose name starts with one
underscore (two-underscore names, the dunder methods, are called by Python).
A reference is a name read, an attribute or an imported name anywhere in
``src/semifix``, matched by name alone; a definition that only its own body
names counts as referenced.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semifix"


def private_definitions(trees):
    """(module, line, name) of every private def or class in the trees, and the
    set of names the trees refer to."""
    defined, referenced = [], set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return defined, referenced


def unreferenced(trees):
    defined, referenced = private_definitions(trees)
    return [d for d in defined if d[2] not in referenced]


def test_package_references_every_private_definition():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    assert len(trees) >= 10
    assert len(private_definitions(trees)[0]) >= 40
    assert [f"{module}:{lineno}: {name}" for module, lineno, name in unreferenced(trees)] == []


def test_guard_sees_an_unreferenced_private_definition():
    trees = {
        "a.py": ast.parse(
            "def _used(): pass\ndef _imported(): pass\ndef _method_only(): pass\n"
            "def _dead(): pass\nclass _Dead:\n    def __init__(self): pass\n"
            "    def _attr(self): return self._attr\n"
            "def _recursive(k): return _recursive(k - 1)\ndef public(): return _used()\n"
        ),
        "b.py": ast.parse("from .a import _imported\ndef f(x): return x._method_only\n"),
    }
    assert unreferenced(trees) == [("a.py", 4, "_dead"), ("a.py", 5, "_Dead")]
