"""Fuzz the matrix-file entry points: text drawn from matrix-file lines must
load or raise a SemifixError, and `semifix analyze` and `semifix oracle` on it
must exit with a documented code and an `error:` line, never a traceback."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semifix import SemifixError, load_system
from semifix.cli import main

# repeated entries weight the draw toward files that load
PREAMBLES = (
    "semiring trop\nn 3\n", "semiring trop\nn 2\n", "# atom 0 T(a,b)\nsemiring trop\nn 1\n",
    "semiring trop\nn 3\n", "semiring bool\nn 2\n", "semiring capped:3\nn 3\n",
    "semiring trop_p:1\nn 2\n", "",
)
# trop literals, and a few that other carriers read
LITERALS = (
    "0", "1", "2", "12", "3/4", "1/2", "5/6", "0.5", "2.25", "inf", "1" * 40, "1" * 40 + "/3",
    "7/" + "1" * 30, "true", "O", "[1,2]",
)
# lines that break a file wherever they stand: bad indices and literals,
# headers again, unknown keys and missing fields
ODD_LINES = (
    "A 0 3 1", "A -1 0 1", "b 5 1", "A x 0 1", "b 1.5 1", "A 0 0 1/0", "A 0 0 -1", "b 0 -1/2",
    "A 0 0 abc", "b 0 3 4", "A 0 0 " + "1" * 5000, "b 0 1/" + "7" * 5000, "semiring trop",
    "semiring nope", "semiring", "n 0", "n 4", "n -1", "n x", "n 2000000", "n", "# atom 1 x",
    "# comment", "", "c 0 1", "A 0", "b",
)

index = st.sampled_from(("0", "1", "2"))
literal = st.sampled_from(LITERALS)
entry_line = st.one_of(
    st.builds("A {} {} {}".format, index, index, literal),
    st.builds("b {} {}".format, index, literal),
)


def _matrix_file(head, lines, odd, at):
    if odd is not None:
        lines.insert(at, odd)
    return head + "\n".join(lines) + "\n"


# entry lines after a header pair, and at most one odd line, so that a share
# of the drawn files load
matrix_files = st.builds(
    _matrix_file,
    st.sampled_from(PREAMBLES),
    st.lists(entry_line, max_size=8),
    st.none() | st.sampled_from(ODD_LINES),
    st.integers(0, 8),
)


# literals over Python's 4300-digit limit for int(), which raises ValueError
OVER_THE_DIGIT_LIMIT = (
    "semiring trop\nn 1\nA 0 0 " + "1" * 5000 + "\n",
    "semiring trop_p:1\nn 1\nb 0 [" + "1" * 5000 + "]\n",
)


@settings(max_examples=150)
@given(matrix_files)
@example(OVER_THE_DIGIT_LIMIT[0])
@example(OVER_THE_DIGIT_LIMIT[1])
def test_load_system_raises_only_semifix_errors(text):
    try:
        load_system(text)
    except SemifixError:
        pass


@pytest.fixture(scope="module")
def matrix_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "m.txt"


@pytest.mark.parametrize(
    "command",
    [["analyze"], ["oracle", "--i", "0", "--j", "0", "--h", "3"]],
    ids=["analyze", "oracle"],
)
@settings(max_examples=120, deadline=None)
@given(text=matrix_files)
@example(text=OVER_THE_DIGIT_LIMIT[0])
def test_matrix_commands_exit_with_a_documented_code(matrix_path, command, text):
    matrix_path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(command[:1] + [str(matrix_path)] + command[1:])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ")
