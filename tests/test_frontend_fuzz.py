"""Fuzz the program front end: text drawn from grammar fragments must end in a
ParseError or a program, the same one the token-only reference parser gives,
and `semifix run` on it must exit with a documented code and an `error:` line,
never a traceback."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semifix import ParseError, parse_program
from semifix.cli import main

from reference import reference_parse_program

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

# lines that are, or nearly are, one ground fact, without their line ends
FACT_LINES = (
    "E(a,b)=3.", "E(a, b) = 3.", "E(X,b) = 1.", "E(a,b) = [1,2].", "E(a) = 1.5",
    "E(a,b) = 1/2.", "E(a,b) = 1.5.", "E(c,a).", "E(a) = 1 2.", "E(a) = in f.",
    "E(_b, 7) = x_1 .\t", "E(a,b) = [1.5,a/2].", "E(a, b) = [1, 2].", "E(1.5.2).",
    "E(a) = 1.5.2.", "E(a) = [[1]].", "F(a) = 0. % c", " F(b).", "E(a,é) = 1.",
)
# "\n" twice, as the common line end; the last three leave a statement open
LINE_ENDS = ("\n", "\r\n", "\n", "T(X) :-\n", "T(X,Y) :- E(X,Y) +\n", "E(a) =\n")

programs = st.lists(
    st.one_of(st.sampled_from(STATEMENTS), st.sampled_from(FRAGMENTS), st.sampled_from(FACT_LINES)),
    max_size=24,
).map("".join)
# whole lines, most of them facts; the last may have no line end
fact_texts = st.lists(
    st.tuples(st.sampled_from(FACT_LINES + STATEMENTS), st.sampled_from(LINE_ENDS)).map("".join),
    max_size=12,
).map("".join) | st.lists(st.sampled_from(FACT_LINES + LINE_ENDS), max_size=12).map("".join)


@settings(max_examples=400)
@given(programs)
def test_parse_program_raises_only_parse_errors(text):
    try:
        parse_program(text)
    except ParseError:
        pass


def parsed(parse, text):
    """The program and every rule, atom and fact position, or the error text."""
    try:
        program = parse(text)
    except ParseError as exc:
        return str(exc)
    atoms = [a for r in program.rules for a in (r.head, *(a for p in r.body for a in p.atoms))]
    positions = (
        [r.pos for r in program.rules], [a.pos for a in atoms], [f.pos for f in program.facts],
        program.semiring_pos,
    )
    return program, positions


@settings(max_examples=600)
@given(st.one_of(programs, fact_texts))
def test_parse_program_matches_the_token_only_reference(text):
    assert parsed(parse_program, text) == parsed(reference_parse_program, text)


@pytest.fixture(scope="module")
def program_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "p.dl"


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


# TSV fragments as bytes, so that a row can hold a byte that is not UTF-8
TSV_FRAGMENTS = (
    b"E", b"T", b"F", b"a", b"b", b"c", b"\t", b"\n", b" ", b"#", b"# note\n",
    b"1", b"3/4", b"2.5", b"inf", b"x", b"-1", b"1/0", b"[1]", b"1e5000", b"2E3",
    b"9" * 4301,  # over Python's digit limit for int(str)
    b"\xff",
)
TSV_ROWS = (
    b"E\ta\tb\t3\n", b"E\tb\tc\t1/2\n", b"E\tc\ta\n", b"E\ta\n",  # the last two are short
    b"E\ta\tb\tc\t1\n", b"T\ta\tb\t1\n", b"E\tb\tc\t1e5000\n",
)

tsv_texts = st.lists(
    st.one_of(st.sampled_from(TSV_ROWS), st.sampled_from(TSV_FRAGMENTS)), max_size=16
).map(b"".join)


@pytest.fixture(scope="module")
def tsv_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("tsv")
    program = root / "p.dl"
    program.write_text("T(X,Y) :- E(X,Y) + T(X,Z)*E(Z,Y).\n", encoding="utf-8")
    return program, root / "facts.tsv"


@settings(max_examples=150, deadline=None)
@given(data=tsv_texts)
def test_run_on_tsv_facts_exits_with_a_documented_code(tsv_paths, data):
    program, facts = tsv_paths
    facts.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["run", str(program), str(facts), "--semiring", "trop", "--cap", "50"])
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.getvalue().startswith("error: ")
