"""Fuzz the matrix-file entry points: text drawn from matrix-file lines must
load or raise a SemifixError, the same system or error that the reference
reader, which splits every line, gives; and `semifix analyze` and `semifix
oracle` on it must exit with a documented code and an `error:` line, never a
traceback."""

import io
from collections import Counter
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semifix import SemifixError, load_system
from semifix.cli import main
from semifix.semirings import semiring_from_id

from reference import reference_load_system

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
    "# comment", "", "c 0 1", "A 0", "b", "A " + "1" * 5000 + " 0 1", "b " + "1" * 5000 + " 1",
    "# atom \u00b2 x", "# atom " + "1" * 5000 + " x",
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


# Lines for the differential test, each built from the parts below. Blanks
# and digits outside ASCII, signs, long indices, literals with inner blanks
# and lines of other kinds all leave the one-match path for the split path.
# Each carrier's literals include its zero ("inf", "false", "[]", "O"), which
# drops its entry or the entry it is added to, and repeat, so that each text
# is seen to be parsed once.
CARRIER_LITERALS = {
    "trop": ("0", "1", "2", "3/4", "inf", "0.5"),
    "bool": ("true", "false"),
    "trop_p:1": ("[1, 2]", "[1,2]", "[0]", "[]", "[ 1 ]", "[inf,3/4]"),
    "capped:3": ("0", "1", "2", "3", "O"),
}
ODD_LITERALS = ("1/0", "abc", "1 2", "4", "true")
INDICES = ("0", "1", "2") * 4 + ("00", "+1", "+3", "0000001", "00000001", "\u0663", "\u0661", "x")
BLANKS = (" ", " ", "\t", "  ", " \t ")
EDGES = ("", "", "", " ", "\t", " \t", "\u00a0")  # around a line
LINE_ENDS = ("\n", "\n", "\n", "\r\n", "\r", "\f")
LABELS = ("T(a,b)", "v(0)", "p()", "x y", "a\tb", "q")


def _line(lead, parts, blanks, trail):
    return lead + "".join(p + b for p, b in zip(parts, blanks)) + parts[-1] + trail


def _parts_line(parts):
    return st.builds(
        _line, st.sampled_from(EDGES), st.just(parts),
        st.lists(st.sampled_from(BLANKS), min_size=len(parts) - 1, max_size=len(parts) - 1),
        st.sampled_from(EDGES),
    )


def _entry(carrier):
    index = st.sampled_from(INDICES)
    literal = st.sampled_from(CARRIER_LITERALS[carrier] * 3 + ODD_LITERALS)
    return st.one_of(
        st.tuples(st.just("A"), index, index, literal),
        st.tuples(st.just("b"), index, literal),
    ).flatmap(_parts_line)


# a `# atom` line keeps to spaces and tabs: a line with another blank in it
# is a comment to load_system, while the reference splits it as a label
label_line = st.builds(
    "{}#{}atom{}{}{}{}{}".format,
    st.sampled_from(("", " ", "\t")), st.sampled_from(("", " ")), st.sampled_from(BLANKS),
    st.sampled_from(INDICES + ("\u00b2",)), st.sampled_from(BLANKS), st.sampled_from(LABELS),
    st.sampled_from(("", " ", "\t")),
)
header_line = st.one_of(
    st.sampled_from(tuple(CARRIER_LITERALS)).map("semiring {}".format),
    st.sampled_from(("1", "2", "3", "03", "+2")).map("n {}".format),
).flatmap(lambda line: _parts_line(tuple(line.split())))
other_line = st.sampled_from(("", "# comment", "#", "# atom", "# atom 1", "c 0 1", "A 0", "b"))


def _file(carrier, n_line, lines, ends):
    return f"semiring {carrier}\n{n_line}" + "".join(map("".join, zip(lines, ends)))


# mostly entries of the file's carrier after its headers, so that a share of
# the files load; or, a quarter of the time, lines in any order
in_order = st.sampled_from(tuple(CARRIER_LITERALS)).flatmap(
    lambda carrier: st.builds(
        _file, st.just(carrier), st.sampled_from(("n 3\n", "n 3\n", "n 2\n", " n\t3 \r\n")),
        st.lists(
            st.one_of(*[_entry(carrier)] * 10, *[label_line] * 3, header_line, other_line),
            max_size=12,
        ),
        st.lists(st.sampled_from(LINE_ENDS), min_size=12, max_size=12),
    )
)
any_order = st.lists(
    st.one_of(_entry("trop"), label_line, header_line).flatmap(
        lambda line: st.sampled_from(LINE_ENDS).map(line.__add__)
    ),
    max_size=8,
).map("".join)
diff_files = st.one_of(in_order, in_order, in_order, any_order)


def loaded(load, text):
    """The system's parts, or the error's type, text, line and column."""
    try:
        s = load(text)
    except SemifixError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)
    return s.semiring.id, s.n, list(s.A.entries()), s.b, s.atoms


@settings(max_examples=600)
@given(diff_files)
@example("semiring trop_p:1\nn 2\n# atom 1 v(1)\nA 0 1 [3/4]\nA 0 1 [3/4]\nA\t1 0  [1, 2]\nb 1 [] \n")
@example("semiring trop\nn 2\nA 0 0 1\nA 0 0 inf\nb 0 2\nb 0 inf\nb 1 0\n")
@example("semiring bool\nn 2\nA 0 1 true\nA 00 1 true\nA 0 \u0661 true\nb +1 true\n")
@example("semiring bool\nn 2\n# atom 00000001 q\nb 1 true\u00a0\nA 0 0 false\t\n")
@example("semiring bool\nn 2\nb 1 true\nA 0 0 abc\u00a0\n")
def test_load_system_matches_the_split_reference(text):
    counts: Counter = Counter()
    with ExitStack() as stack:
        for carrier in map(semiring_from_id, CARRIER_LITERALS):
            def counted(literal, parse=carrier.parse):
                counts[literal] += 1
                return parse(literal)
            stack.enter_context(mock.patch.object(carrier, "parse", counted))
        got = loaded(load_system, text)
    assert got == loaded(reference_load_system, text)
    assert all(c == 1 for c in counts.values()), counts


def test_atom_labels_read_ascii_blanks_and_digits_only():
    text = (
        "# atom \u00b2 x\nsemiring bool\nn 4\n#atom 0 p(a)\n\t# atom\t001   q r \t\n"
        "# atom\u00a02 s\n# atom 3\u00a0t\n"
    )
    assert load_system(text).atom_labels() == ("p(a)", "q r", "x2", "x3")


def test_analyze_and_oracle_read_an_atom_comment_with_a_non_ascii_index(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# atom \u00b2 x\nsemiring bool\nn 1\n", encoding="utf-8")
    for argv in (["analyze", str(path)], ["oracle", str(path), "--i", "0", "--j", "0", "--h", "1"]):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) == 0
