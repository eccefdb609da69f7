"""Every name a package module imports is used in that module.

``__init__.py`` is left out: its imports are the package's public names.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semifix"


def unused_imports(tree):
    """(line, name) of every name an import binds that the module never reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(lineno, name) for lineno, name in bound if name not in used]


def test_package_modules_use_every_import():
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(sources) >= 9
    unused = [
        f"{path.name}:{lineno}: {name}"
        for path in sources
        for lineno, name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []


def test_guard_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport random\nfrom collections import Counter as C, defaultdict\n"
        "from . import walks\n"
        "def f(x: C) -> None:\n    return os.path.join(walks.x, random.random())\n"
    )
    assert unused_imports(tree) == [(4, "defaultdict")]
