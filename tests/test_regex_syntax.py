"""The regular expressions in the package use no syntax newer than Python 3.10.

Possessive quantifiers (``*+``, ``++``, ``?+``, ``{m,n}+``) and atomic groups
(``(?>...)``) arrived in 3.11's ``re``; under 3.10 they fail to compile, so a
module that used one would not import on a Python the package claims to support.
"""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semifix"
NEWER_SYNTAX = ("*+", "++", "?+", "}+", "(?>")


def compile_calls(tree):
    """Every ``re.compile(...)`` call in ``tree``."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "compile"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "re"
    ]


def compiled_patterns(calls, namespace):
    """(line, pattern) of each call, its pattern evaluated in ``namespace``."""
    return [(c.lineno, eval(ast.unparse(c.args[0]), dict(namespace))) for c in calls]


def newer_syntax(patterns):
    return [(line, mark) for line, p in patterns for mark in NEWER_SYNTAX if mark in p]


def test_package_patterns_compile_under_python_3_10():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        calls = compile_calls(ast.parse(path.read_text(encoding="utf-8")))
        if not calls:
            continue  # importing __main__ would run the command line
        module = importlib.import_module(f"semifix.{path.stem}")
        patterns = compiled_patterns(calls, vars(module))
        found += [f"{path.name}:{line}: {mark}" for line, mark in newer_syntax(patterns)]
        if path.stem == "frontend":
            assert len(patterns) >= 2  # the token and the fact-line patterns
    assert found == []


def test_guard_sees_newer_syntax():
    tree = ast.parse(
        "import re\n_N = r'\\d'\n"
        "A = re.compile(rf'{_N}++')\nB = re.compile(r'(?>a|b)c')\nC = re.compile(r'a+b*')\n"
    )
    patterns = compiled_patterns(compile_calls(tree), {"_N": r"\d"})
    assert newer_syntax(patterns) == [(3, "++"), (4, "(?>")]
