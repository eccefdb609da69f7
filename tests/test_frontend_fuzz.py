"""Fuzz the program front end: text drawn from grammar fragments must end in a
ParseError or a program, and `semifix run` on it must exit with a documented
code and an `error:` line, never a traceback."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semifix import ParseError, parse_program
from semifix.cli import main

FRAGMENTS = (
    "T", "E", "F", "X", "Y", "Z", "a", "b", "c", "_", "0", "12", "3.5", "inf",
    "(", ")", ",", ".", ":-", ":", "+", "*", "=", "[", "]", "/", "-",
    " ", "\t", "\r", "\n", "%", "% note\n", "@", "@semiring ", "trop", "bool", "capped:3",
    "é",  # a Unicode letter
    "٣",  # a decimal digit outside ASCII
    "²",  # numeric, but not a decimal digit
)
# whole statements, so that a share of the drawn programs parse and run
STATEMENTS = (
    "T(X,Y) :- E(X,Y) + T(X,Z)*E(Z,Y).\n", "T(X) :- E(X).\n", "T(Y) :- F(Y) + T(X)*E(X,Y).\n",
    "E(a,b) = 3.\n", "E(b,c).\n", "E(c,a) = 1/2.\n", "E(a,a) = inf.\n", "F(a) = 0.\n",
    "E(b,é) = 2.5.\n", "E(a,٣) = 1.\n", "@semiring bool\n",
)

programs = st.lists(
    st.one_of(st.sampled_from(STATEMENTS), st.sampled_from(FRAGMENTS)), max_size=24
).map("".join)


@settings(max_examples=400)
@given(programs)
def test_parse_program_raises_only_parse_errors(text):
    try:
        parse_program(text)
    except ParseError:
        pass


@pytest.fixture(scope="module")
def program_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "p.dl"


@pytest.mark.filterwarnings("ignore:duplicate fact")
@settings(max_examples=150, deadline=None)
@given(text=programs)
def test_run_exits_with_a_documented_code(program_path, text):
    program_path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["run", str(program_path), "--semiring", "trop", "--cap", "50"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ")
