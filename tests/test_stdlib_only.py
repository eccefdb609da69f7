"""The package imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semifix"


def imported_modules(tree):
    """Top-level names of every absolute import in a module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"semifix"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    outside = [
        f"{path.name}:{lineno}: {name}"
        for path in sources
        for lineno, name in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if name not in allowed
    ]
    assert outside == []


def test_guard_sees_a_stray_import():
    tree = ast.parse("import os\ndef f():\n    import numpy as np\nfrom .matrix import Matrix\n")
    assert [name for _, name in imported_modules(tree)] == ["os", "numpy"]
