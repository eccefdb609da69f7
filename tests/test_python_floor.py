"""Every module of the package parses as Python 3.10, the oldest version the package declares.

``ast.parse`` with ``feature_version`` rejects grammar newer than the given
version (``except*``, ``type`` aliases, generic parameter lists), so a module
that used it would fail to import on a Python that ``pyproject.toml`` claims.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semifix"


def test_pyproject_declares_python_3_10():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^requires-python = ">=3\.10"$', text, re.M)


def test_package_parses_as_python_3_10():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_feature_version_rejects_newer_grammar():
    for source in ("try:\n    pass\nexcept* ValueError:\n    pass\n", "type T = int\n"):
        try:
            ast.parse(source, feature_version=(3, 10))
        except SyntaxError:
            continue
        raise AssertionError(f"parsed as 3.10: {source!r}")
