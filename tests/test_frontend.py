import itertools
import random

import pytest

from semifix import (
    EDBInstance,
    GroundedLinearSystem,
    GroundedPolynomialSystem,
    GroundingError,
    MalformedElement,
    Matrix,
    ParseError,
    build_edb,
    classify_linearity,
    ground,
    naive_eval_general,
    naive_eval_linear,
    parse_facts_tsv,
    parse_program,
    semiring_from_id,
)
from semifix.errors import MalformedLiteral
from semifix.frontend import (
    Atom, Const, FactStmt, Product, Program, Rule, Var, program_fact_entries, tokenize,
    tsv_fact_entries,
)
from semifix.generators import random_edge_instance
from semifix.semirings import TropSemiring

from conftest import ALL_IDS, GF2Semiring, seeded_elements
from reference import (
    as_monomial_system, assert_columns_are_the_rows_transposed, max_degree, print_program,
)

TC = "T(X,Y) :- E(X,Y) + T(X,Z)*E(Z,Y).\n"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_tc_rule_shape():
    p = parse_program(TC)
    assert len(p.rules) == 1
    rule = p.rules[0]
    assert rule.head == Atom("T", (Var("X"), Var("Y")))
    assert len(rule.body) == 2
    assert rule.body[0] == Product((Atom("E", (Var("X"), Var("Y"))),))
    assert rule.body[1] == Product(
        (Atom("T", (Var("X"), Var("Z"))), Atom("E", (Var("Z"), Var("Y"))))
    )


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_program("T(X,Y) :- E(X,Y.\n")
    assert err.value.line == 1
    assert err.value.col is not None


def test_parse_rejects_unbound_head_variable():
    with pytest.raises(ParseError, match="unbound"):
        parse_program("P(X,Y) :- Q(X).")
    # bound in one product but not the other is still an error
    with pytest.raises(ParseError, match="unbound"):
        parse_program("P(X,Y) :- Q(X,Y) + Q(X,X).")


def test_parse_rejects_arity_clash():
    with pytest.raises(ParseError, match="arity"):
        parse_program("P(X) :- Q(X,X) + Q(X).")


def test_parse_rejects_variable_in_fact():
    with pytest.raises(ParseError, match="variable"):
        parse_program("E(a,X) = 3.")


def test_parse_directive_and_facts():
    p = parse_program("@semiring trop\nT(X,Y) :- E(X,Y).\nE(a,b) = 3/2.\nE(b,c).\n")
    assert p.semiring_id == "trop"
    assert p.facts[0].literal == "3/2"
    assert p.facts[1].literal is None
    with pytest.raises(ParseError, match="duplicate"):
        parse_program("@semiring bool\n@semiring trop\nP(X) :- Q(X).")


def test_parse_decimal_literal_before_terminator():
    p = parse_program("E(a,b) = 2.5.\n")
    assert p.facts[0].literal == "2.5"


def test_parse_bag_literal_fact():
    p = parse_program("E(a,b) = [3,7].\n")
    assert p.facts[0].literal == "[3,7]"


@pytest.mark.parametrize(
    "text, semiring_id, literal",
    [
        ("T(X) :- E(X).\nE(a) = [1, 2 ].\n", None, "[1,2]"),
        ("T(X) :- E(X).\nE(a) = 3 / 4.\n", None, "3/4"),
        ("T(X) :- E(X).\nE(a) = 2.5.\n", None, "2.5"),
        ("@semiring trop% c\nT(X) :- E(X).\nE(a) = 1.\n", "trop", "1"),
    ],
)
def test_literal_text_joins_its_tokens(text, semiring_id, literal):
    p = parse_program(text)
    assert p.semiring_id == semiring_id
    assert p.facts[0].literal == literal


@pytest.mark.parametrize(
    "text, at",
    [
        ("E(a) = 1 2.\n", (1, 10)), ("E(a) = in f.\n", (1, 11)),
        ("E(a) = 1\n2.\n", (2, 1)), ("E(a) = [1 2].\n", (1, 11)),
    ],
)
def test_a_blank_between_literal_words_is_an_error(text, at):
    # joined, "1 2" would read as 12 and "in f" as inf
    with pytest.raises(ParseError, match="unexpected blank before") as err:
        parse_program(text)
    assert (err.value.line, err.value.col) == at


def test_a_fact_line_is_one_token():
    text = "T(X) :- E(X).\nE(a, b) = 3.\nE(c,d)=[1,2].  \r\n E(d).\nE(X).\nE(e) = 1.5"
    tokens = tokenize(text)
    # an indented fact, a variable argument and a missing '.' take the token path
    assert [t[2] for t in tokens if t[0] == "FACT"] == [2, 3]
    assert {t[2] for t in tokens if t[0] != "FACT"} == {1, 4, 5, 6}
    assert tokens[-1] == ("EOF", "", 6, 11)


def test_fact_lines_parse_to_positioned_facts():
    p = parse_program("T(X,Y) :- E(X,Y).\nE(a, b) = 3.\nE(c,d)=[1,2].\r\nE(e,1.5).")
    assert p.facts == (
        FactStmt("E", ("a", "b"), "3"), FactStmt("E", ("c", "d"), "[1,2]"),
        FactStmt("E", ("e", "1.5"), None),
    )
    assert [f.pos for f in p.facts] == [(2, 1), (3, 1), (4, 1)]


def test_a_fact_line_inside_a_statement_is_read_token_by_token():
    p = parse_program("T(a) :-\nE(a).\nE(a) =\nF(b).\n")
    assert p.rules[0].body[0].atoms[0] == Atom("E", (Const("a"),))
    assert p.rules[0].body[0].atoms[0].pos == (2, 1)
    assert p.facts == (FactStmt("E", ("a",), "F(b)"),)
    with pytest.raises(ParseError, match="expected '.' at end of rule, got 'E'") as err:
        parse_program("T(X) :- E(X)\nE(a).\n")
    assert (err.value.line, err.value.col) == (2, 1)


@pytest.mark.parametrize(
    "text, message",
    [
        # "²" is a word character outside ASCII, so the line takes the token path
        ("E(a) = [\u00b2].\n", "line 1, col 9: unexpected character '\u00b2'"),
        # a lexical error anywhere wins over an earlier syntax error
        ("T(X) :- .\nE(a) = 1.\n$", "line 3, col 1: unexpected character '$'"),
    ],
)
def test_fact_line_errors_keep_their_positions(text, message):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert str(err.value) == message


def test_a_duplicate_fact_line_warns_at_its_line():
    text = "T(X) :- E(X).\nE(a) = 1.\nE(a) = 2.\n"
    assert [t[0] for t in tokenize(text)][-3:] == ["FACT", "FACT", "EOF"]
    with pytest.warns(UserWarning) as record:
        build_edb(semiring_from_id("trop"), program_fact_entries(parse_program(text)))
    assert [str(w.message) for w in record] == [
        "line 3, col 1: duplicate fact for E(a); values combined additively"
    ]


def test_names_may_continue_with_numeric_characters():
    p = parse_program("T(X) :- E(X).\nE(a\u00b2).\n")
    assert p.facts[0].args == ("a\u00b2",)


def test_comments_ignored():
    p = parse_program("% header\nP(X) :- Q(X). % trailing\n% done\n")
    assert len(p.rules) == 1


def test_numbers_allowed_as_constants():
    p = parse_program("E(1,2) = true.\n")
    assert p.facts[0].args == ("1", "2")


def test_parser_rejects_garbage_gracefully():
    rng = random.Random(8)
    alphabet = "TXYZabc(),.:%-+*=[]/ \n\t@0123456789"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 60)))
        try:
            parse_program(text)
        except ParseError:
            pass  # anything else propagates and fails the test


def test_print_parse_roundtrip():
    texts = [
        TC,
        "@semiring capped:4\nP(X) :- Q(X)*R(X,Y) + S(X).\nQ(a) = 2.\nS(b).\n",
        "T(X,Y) :- E(X,Y).\nE(a,b) = [1,2].\n",
    ]
    for text in texts:
        once = parse_program(text)
        again = parse_program(print_program(once))
        assert once == again


# ---------------------------------------------------------------------------
# Linearity
# ---------------------------------------------------------------------------

def test_classify_tc_linear():
    assert classify_linearity(parse_program(TC)).linear


def test_classify_nonlinear():
    report = classify_linearity(parse_program("T(X,Y) :- T(X,Z)*T(Z,Y)."))
    assert not report.linear
    assert (0, 0, 2) in report.product_idb_counts


def test_classify_pure_edb_linear():
    p = parse_program("P(X) :- Q(X)*R(X,Y) + S(X).")
    assert classify_linearity(p).linear


# ---------------------------------------------------------------------------
# EDB instances
# ---------------------------------------------------------------------------

def test_active_domain():
    s = semiring_from_id("bool")
    db = build_edb(s, [("E", ("a", "b"), None), ("E", ("b", "c"), None)])
    assert db.active_domain == ("a", "b", "c")
    assert build_edb(s, []).active_domain == ()
    assert build_edb(s, [("E", ("a", "a"), None)]).active_domain == ("a",)


def test_duplicate_facts_combine_with_warning():
    s = semiring_from_id("trop")
    with pytest.warns(UserWarning, match="combined"):
        db = build_edb(s, [("E", ("a", "b"), "3"), ("E", ("a", "b"), "2")])
    assert db.facts[("E", ("a", "b"))] == s.parse("2")


def test_malformed_literal_names_its_position_when_the_entry_has_one():
    s = semiring_from_id("trop")
    with pytest.raises(MalformedElement) as bare:
        build_edb(s, [("E", ("a", "b"), "x")])
    assert not isinstance(bare.value, ParseError)
    with pytest.raises(MalformedLiteral) as placed:
        build_edb(s, [("E", ("a", "b"), "3", (1, 1)), ("E", ("b", "c"), "x", (7, 2))])
    assert isinstance(placed.value, MalformedElement)
    assert (placed.value.line, placed.value.col) == (7, 2)
    with pytest.raises(MalformedLiteral, match="line 2, col 1"):
        parse_facts_tsv(s, "E\ta\tb\t1\nE\tb\tc\t-1\n")


def test_facts_tsv():
    s = semiring_from_id("trop")
    db = parse_facts_tsv(s, "# comment\nE\ta\tb\t3\nE\tb\tc\t1/2\n")
    assert db.facts[("E", ("b", "c"))] == s.parse("1/2")
    with pytest.raises(ParseError):
        parse_facts_tsv(s, "E a b 3\n")


@pytest.mark.parametrize(
    "row, col",
    [
        ("E\ta\t\tb\t1", 5),  # an empty argument
        ("E\ta\t \tb\t1", 5),  # a blank one
        ("E\ta\tb\t\t1", 7),  # an empty column just before the literal
        ("\tE\ta\tb\t1", 1),  # no predicate
    ],
)
def test_tsv_empty_column_before_the_literal_raises_at_it(row, col):
    s = semiring_from_id("trop")
    with pytest.raises(ParseError) as err:
        parse_facts_tsv(s, f"E\ta\tb\t1\n{row}\n")
    assert str(err.value) == f"line 2, col {col}: empty column before the literal"


# the padded rows miss _TSV_ROW, so they take the split path that drops trailing blank columns
@pytest.mark.parametrize(
    "row", ["E\ta\tb\t1\t", "E\ta\tb\t1\t \t", "E\ta\tb\t1  \r", "E \ta\tb\t1\t\t", " E\ta\tb\t1\t \t"]
)
def test_tsv_blank_columns_after_the_literal_are_ignored(row):
    s = semiring_from_id("trop")
    assert parse_facts_tsv(s, row + "\n").facts == {("E", ("a", "b")): 1}


def _lexer_reads(text):
    """The kind of the one token ``tokenize`` reads all of ``text`` as, or None."""
    try:
        tokens = tokenize(text)[:-1]  # without EOF
    except ParseError:
        return None
    return tokens[0][0] if len(tokens) == 1 and tokens[0][1] == text else None


TSV_FIELDS = [
    "a", "_x", "B2", "Abc", "v1_2", "\u00e9t\u00e9", "12", "1.5", "\u0661\u0662",
    "a b", "a)", "d,e", "1a", "1.", ".5", "-1", "x.y", "a%", "\u00bd", "e\u0301", "a#b", "'a'",
]


@pytest.mark.parametrize("field", TSV_FIELDS)
def test_tsv_fields_are_the_program_lexers_names_and_numbers(field):
    # a predicate is one NAME token (a VAR or an IDENT), an argument one NAME or NUMBER
    kind = _lexer_reads(field)
    name, value = kind in ("VAR", "IDENT"), kind in ("VAR", "IDENT", "NUMBER")
    if name:
        assert tsv_fact_entries(f"{field}\ta\t1") == [(field, ("a",), "1", (1, 1))]
    else:
        with pytest.raises(ParseError, match="^line 1, col 1: predicate .* is not a name$"):
            tsv_fact_entries(f"{field}\ta\t1")
    for row in (f"E\t{field}\t1", f"E\t {field} \t1"):  # one match, then the split path
        if value:
            assert tsv_fact_entries(row) == [("E", (field,), "1", (1, 1))]
        else:
            with pytest.raises(ParseError, match="^line 1, col 3: argument .* is not a name or a number$"):
                tsv_fact_entries(row)


def test_tsv_fields_check_every_row():
    text = "E\ta\tb\t1\nE\tb\tc d\t2\n"
    with pytest.raises(ParseError, match=r"^line 2, col 5: argument 'c d' is not a name or a number$"):
        tsv_fact_entries(text)


def test_build_edb_parses_each_distinct_literal_once():
    s = TropSemiring()  # a private instance, so counting wraps no shared carrier
    parsed = []
    parse = s.parse
    s.parse = lambda text: parsed.append(text) or parse(text)
    entries = [
        ("E", ("a", "b"), "3", (1, 1)), ("E", ("b", "c"), "3", (2, 1)),
        ("E", ("a", "b"), "1/2", (3, 1)), ("E", ("c", "d"), None, (4, 1)),
        ("E", ("d", "a"), "1/2", (5, 1)),
    ]
    with pytest.warns(UserWarning) as record:
        db = build_edb(s, entries)
    assert parsed == ["3", "1/2"]
    assert [str(w.message) for w in record] == [
        "line 3, col 1: duplicate fact for E(a,b); values combined additively"
    ]
    assert db.facts == {
        ("E", ("a", "b")): s.parse("1/2"), ("E", ("b", "c")): 3,
        ("E", ("c", "d")): 0, ("E", ("d", "a")): s.parse("1/2"),
    }
    # a repeated bad literal raises at its first line
    with pytest.raises(MalformedLiteral, match="^line 2, col 1: "):
        parse_facts_tsv(s, "E\ta\tb\t1\nE\tb\tc\tx\nE\tc\td\tx\n")


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

def test_ground_apsp_entries():
    s = semiring_from_id("trop")
    db = build_edb(s, [("E", ("a", "b"), "3"), ("E", ("b", "c"), "4")])
    sys_ = ground(parse_program(TC), db)
    assert isinstance(sys_, GroundedLinearSystem)
    i_ab = sys_.index[("T", ("a", "b"))]
    i_ac = sys_.index[("T", ("a", "c"))]
    assert sys_.b[i_ab] == s.parse("3")
    assert sys_.A.get(i_ac, i_ab) == s.parse("4")


def test_ground_tc_entries():
    s = semiring_from_id("bool")
    db = build_edb(s, [("E", ("a", "b"), None), ("E", ("b", "c"), None)])
    sys_ = ground(parse_program(TC), db)
    assert sys_.b[sys_.index[("T", ("a", "b"))]] is True
    assert sys_.b[sys_.index[("T", ("b", "c"))]] is True
    assert sys_.A.get(sys_.index[("T", ("a", "c"))], sys_.index[("T", ("a", "b"))]) is True


def test_ground_two_edge_path_is_small_after_pruning():
    s = semiring_from_id("bool")
    db = build_edb(s, [("E", ("a", "b"), None), ("E", ("b", "c"), None)])
    sys_ = ground(parse_program(TC), db)
    assert sys_.n_raw == 9
    assert sys_.n == 3
    assert len(list(sys_.A.entries())) == 1
    assert sum(1 for v in sys_.b if v != s.zero) == 2


def test_ground_empty_edb():
    s = semiring_from_id("bool")
    sys_ = ground(parse_program(TC), build_edb(s, []))
    assert sys_.n == 0
    trace = naive_eval_linear(sys_)
    assert trace.stability_index == 0
    assert trace.fixpoint == ()
    psys = ground(parse_program("T(X,Y) :- E(X,Y) + T(X,Z)*T(Z,Y)."), build_edb(s, []))
    assert isinstance(psys, GroundedPolynomialSystem) and psys.n == 0
    assert naive_eval_general(psys).fixpoint == ()


def test_ground_rejects_idb_fact():
    s = semiring_from_id("bool")
    db = build_edb(s, [("T", ("a", "b"), None), ("E", ("a", "b"), None)])
    with pytest.raises(GroundingError, match="derived"):
        ground(parse_program(TC), db)


def test_edb_positions_name_each_fact_s_first_entry():
    s = semiring_from_id("bool")
    entries = [("E", ("a", "b"), None, (3, 1)), ("E", ("a", "b"), None, (5, 1)), ("T", ("a",), None)]
    with pytest.warns(UserWarning, match="duplicate"):
        db = build_edb(s, entries)
    assert db.positions == {("E", ("a", "b")): (3, 1), ("T", ("a",)): (None, None)}
    # positions do not take part in equality, so a hand-built instance has none
    hand_built = EDBInstance(s, dict(db.facts))
    assert hand_built == db and hand_built.positions == {}
    with pytest.raises(GroundingError, match="derived") as exc:
        ground(parse_program("T(X) :- E(X,Y)."), hand_built)
    assert exc.value.line is None


def test_ground_rejects_unknown_body_predicate():
    s = semiring_from_id("bool")
    db = build_edb(s, [("W", ("a",), None)])
    with pytest.raises(GroundingError, match="unknown predicate"):
        ground(parse_program("P(X) :- Q(X)."), db)


def test_ground_is_deterministic():
    s = semiring_from_id("trop")
    db = build_edb(s, [("E", ("a", "b"), "3"), ("E", ("b", "c"), "4")])
    one = ground(parse_program(TC), db)
    two = ground(parse_program(TC), db)
    assert one.atoms == two.atoms
    assert one.index == two.index
    assert one.A == two.A
    assert one.b == two.b


def test_ground_tracks_rule_constants():
    s = semiring_from_id("bool")
    db = build_edb(s, [("Q", ("b",), None)])
    sys_ = ground(parse_program("P(a) :- Q(X)."), db)
    i = sys_.index[("P", ("a",))]
    trace = naive_eval_linear(sys_)
    assert trace.fixpoint[i] is True


def test_ground_polynomial_form():
    s = semiring_from_id("bool")
    db = build_edb(s, [("E", ("a", "b"), None), ("E", ("b", "c"), None)])
    psys = ground(parse_program("T(X,Y) :- E(X,Y) + T(X,Z)*T(Z,Y)."), db)
    assert isinstance(psys, GroundedPolynomialSystem)
    assert max_degree(psys) == 2
    trace = naive_eval_general(psys)
    assert trace.fixpoint[psys.index[("T", ("a", "c"))]] is True


def test_forced_polynomial_matches_linear_atoms():
    s = semiring_from_id("bool")
    db = build_edb(s, [("E", ("a", "b"), None), ("E", ("b", "c"), None)])
    lin = ground(parse_program(TC), db)
    poly = as_monomial_system(lin)
    assert isinstance(poly, GroundedPolynomialSystem)
    assert poly.atoms == lin.atoms
    assert max_degree(poly) == 1


def test_ground_deletes_a_term_that_sums_to_zero():
    s = GF2Semiring()  # 1 (+) 1 = 0
    db = build_edb(s, [("E", ("a",), "1"), ("F", ("a",), "1")])
    program = parse_program("T(X) :- E(X) + F(X).")
    full = ground(program, db, prune=False)
    assert (full.atoms, full.b, list(full.A.entries())) == ((("T", ("a",)),), (0,), [])
    assert ground(program, db).n == 0  # the atom can never leave zero


def test_ground_deletes_a_linear_term_that_sums_to_zero():
    s = GF2Semiring()
    # T(a) reads T(b) through E(a,b) and through F(a,b): 1 (+) 1 = 0
    db = build_edb(s, [("E", ("a", "b"), "1"), ("F", ("a", "b"), "1"), ("G", ("b",), "1")])
    program = parse_program("T(X) :- T(Y)*E(X,Y) + T(Y)*F(X,Y) + G(X).")
    full = ground(program, db, prune=False)
    assert (full.atoms, full.b, list(full.A.entries())) == (
        (("T", ("a",)), ("T", ("b",))), (0, 1), []
    )
    assert full.A.columns() == [{}, {}]
    pruned = ground(program, db)  # nothing else feeds T(a)
    assert (pruned.atoms, pruned.b, list(pruned.A.entries())) == ((("T", ("b",)),), (1,), [])


def test_ground_empty_edb_keeps_the_rule_constants():
    s = semiring_from_id("bool")
    # E has no facts, so it joins nothing; with no fact at all that is no error
    program = parse_program("T(a) :- E(a) + T(a).")
    full = ground(program, build_edb(s, []), prune=False)
    assert (full.atoms, full.n_raw, list(full.A.entries()), full.b) == (
        (("T", ("a",)),), 1, [(0, 0, True)], (False,)
    )
    assert ground(program, build_edb(s, [])).n == 0
    with pytest.raises(GroundingError, match="unknown predicate E in rule body"):
        ground(program, build_edb(s, [("F", ("b",), None)]))


@pytest.mark.parametrize(
    "s", [semiring_from_id(sid) for sid in ALL_IDS + ("capped:5",)] + [GF2Semiring()],
    ids=lambda s: s.id,
)
def test_grounded_columns_are_the_rows_transposed_and_run_like_rebuilt_ones(s):
    rng = random.Random(f"columns/{s.id}")
    texts = [_random_program(rng, linear=True) for _ in range(10)] + [TC, NUMBERING_PROGRAMS[1]]
    inputs = [(parse_program(text), _random_facts(rng, s)) for text in texts]
    # path systems, whose columns gather rows in the order the edges come
    pool = [e for e in s.elements() or seeded_elements(s, 20) if e != s.zero] or [s.one]
    for _ in range(4):
        edges = [(f"v{u}", f"v{v}") for u in range(10) for v in range(10) if rng.random() < 0.25]
        rng.shuffle(edges)
        facts = [("E", e, s.show(rng.choice(pool))) for e in edges]
        inputs.append((parse_program(TC), build_edb(s, facts)))
    for program, db in inputs:
        for prune in (False, True):
            got = ground(program, db, prune=prune)
            assert_columns_are_the_rows_transposed(got.A)
            A = Matrix(s, got.n, got.A.entries())
            rebuilt = GroundedLinearSystem.from_matrix(s, A, got.b, got.atoms)
            for cap in (2, 60):  # the logs, the order of each step included
                assert naive_eval_linear(got, cap).changes == naive_eval_linear(rebuilt, cap).changes


def test_no_prune_keeps_full_universe():
    s = semiring_from_id("bool")
    db = build_edb(s, [("E", ("a", "b"), None)])
    sys_ = ground(parse_program(TC), db, prune=False)
    assert sys_.n == sys_.n_raw == 4


def test_shared_head_rules_ground_like_a_single_rule():
    s = semiring_from_id("trop")
    db = build_edb(s, [("E", ("a", "b"), "3"), ("E", ("b", "c"), "4")])
    combined = ground(parse_program(TC), db)
    split = ground(
        parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z)*E(Z,Y).\n"), db
    )
    assert split.atoms == combined.atoms
    assert split.A == combined.A
    assert split.b == combined.b


def test_ground_self_loop_fact():
    s = semiring_from_id("trop")
    db = build_edb(s, [("E", ("a", "a"), "2"), ("E", ("a", "b"), "1")])
    sys_ = ground(parse_program(TC), db)
    trace = naive_eval_linear(sys_)
    assert trace.fixpoint[sys_.index[("T", ("a", "a"))]] == s.parse("2")
    assert trace.fixpoint[sys_.index[("T", ("a", "b"))]] == s.parse("1")


def test_ground_zero_valued_fact_contributes_nothing():
    s = semiring_from_id("trop")
    # an explicit inf edge is the semiring zero: present in the active domain,
    # absent from the system structure
    db = build_edb(s, [("E", ("a", "b"), "inf"), ("E", ("b", "c"), "4")])
    assert db.active_domain == ("a", "b", "c")
    sys_ = ground(parse_program(TC), db)
    assert set(sys_.atoms) == {("T", ("b", "c"))}


def test_ground_scales_to_medium_instances():
    s = semiring_from_id("trop")
    n = 15
    edges = [(f"v{u}", f"v{(u + 1) % n}") for u in range(n)]
    db = build_edb(s, [("E", (a, b), "1") for a, b in edges])
    sys_ = ground(parse_program(TC), db)
    assert sys_.n == n * n  # a cycle connects every ordered pair
    trace = naive_eval_linear(sys_)
    assert not trace.capped
    full = trace.fixpoint[sys_.index[("T", ("v0", "v0"))]]
    assert full == s.parse(str(n))


REPEATED_HEAD = "T(X,X) :- E(X,Y).\n"
REPEATED_HEAD_CASES = [("capped:9", "1"), ("trop_p:2", "[1]"), ("bool", "true")]


@pytest.mark.parametrize("sid, weight", REPEATED_HEAD_CASES)
def test_repeated_head_variable_counts_each_binding_once(sid, weight):
    # each T(x,x) has one binding, Y = the one successor of x
    s = semiring_from_id(sid)
    db = build_edb(s, [("E", args, weight) for args in (("a", "b"), ("b", "a"), ("c", "c"))])
    sys_ = ground(parse_program(REPEATED_HEAD), db)
    assert sys_.atoms == (("T", ("a", "a")), ("T", ("b", "b")), ("T", ("c", "c")))
    assert sys_.b == (s.parse(weight),) * 3
    assert list(sys_.A.entries()) == []


# ---------------------------------------------------------------------------
# Grounding soundness against a rule-level oracle
# ---------------------------------------------------------------------------

def _match(pattern, atom_args, binding):
    for t, val in zip(pattern.args, atom_args):
        if isinstance(t, Const):
            if t.name != val:
                return None
        else:
            if binding.get(t.name, val) != val:
                return None
            binding = {**binding, t.name: val}
    return binding


def rule_level_ico(program, db, steps):
    """Direct iteration of the rules over all ground atoms, no matrices."""
    s = db.semiring
    idb = set(program.idb_predicates())
    adom = db.active_domain
    gdom = tuple(sorted(set(adom) | set(program.rule_constants())))
    arity = {r.head.pred: len(r.head.args) for r in program.rules}
    universe = [
        (pred, combo)
        for pred in sorted(arity)
        for combo in itertools.product(gdom, repeat=arity[pred])
    ]
    cur = {atom: s.zero for atom in universe}
    for _ in range(steps):
        new = {}
        for atom in universe:
            pred, args = atom
            total = s.zero
            for rule in program.rules:
                if rule.head.pred != pred:
                    continue
                base = _match(rule.head, args, {})
                if base is None:
                    continue
                # variables range over the active domain only; head constants
                # outside it are legal, head-variable bindings are not
                if any(v not in adom for v in base.values()):
                    continue
                for prod in rule.body:
                    extra = [v for v in prod.variables() if v not in base]
                    for combo in itertools.product(adom, repeat=len(extra)):
                        binding = {**base, **dict(zip(extra, combo))}
                        val = s.one
                        for b_atom in prod.atoms:
                            key = (
                                b_atom.pred,
                                tuple(
                                    binding[t.name] if isinstance(t, Var) else t.name
                                    for t in b_atom.args
                                ),
                            )
                            if b_atom.pred in idb:
                                val = s.mul(val, cur.get(key, s.zero))
                            else:
                                val = s.mul(val, db.facts.get(key, s.zero))
                        total = s.add(total, val)
            new[atom] = total
        cur = new
    return cur


ORACLE_PROGRAMS = [
    TC,
    "P(X) :- Q(X)*R(X,Y) + S(X).\n",
    "T(X,Y) :- E(X,Y) + T(X,Z)*T(Z,Y).\n",
    "P(a) :- Q(X)*Q(Y).\nR(X) :- Q(X) + P(X).\n",
    # two rules sharing a head, combined additively at grounding
    "T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z)*E(Z,Y).\n",
]


@pytest.mark.parametrize("ti", range(len(ORACLE_PROGRAMS)))
@pytest.mark.parametrize("sid", ["bool", "trop", "capped:3"])
def test_grounding_matches_rule_level_oracle(ti, sid):
    text = ORACLE_PROGRAMS[ti]
    s = semiring_from_id(sid)
    program = parse_program(text)
    rng = random.Random(1000 * ti + len(sid))
    preds = sorted(
        {a.pred for r in program.rules for p in r.body for a in p.atoms}
        - set(program.idb_predicates())
    )
    arities = {}
    for r in program.rules:
        for p in r.body:
            for a in p.atoms:
                arities[a.pred] = len(a.args)
    consts = ["a", "b", "c"]
    entries = []
    for pred in preds:
        for k, combo in enumerate(itertools.product(consts, repeat=arities[pred])):
            # keep every relation nonempty so no predicate looks undeclared
            if k == 0 or rng.random() < 0.6:
                entries.append((pred, combo, s.show(s.weight(rng.randint(1, 4)))))
    db = build_edb(s, entries)
    sys_ = ground(program, db)
    if isinstance(sys_, GroundedLinearSystem):
        trace = naive_eval_linear(sys_, cap=7)
    else:
        trace = naive_eval_general(sys_, cap=7)
    for q in range(min(7, len(trace.states))):
        expected = rule_level_ico(program, db, q)
        state = trace.states[q]
        for atom, value in expected.items():
            if atom in sys_.index:
                assert state[sys_.index[atom]] == value, (q, atom)
            else:
                assert value == s.zero, (q, atom)


# ---------------------------------------------------------------------------
# Pruning keeps exactly the atoms with a nonzero fixpoint value
# ---------------------------------------------------------------------------

REPEATED = "T(X,Y) :- E(X,Y).\nU(X) :- T(X,X)*T(X,X).\n"
PRUNE_PROGRAMS = [
    TC,
    "P(X) :- Q(X)*R(X,Y) + S(X).\n",
    "T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z)*E(Z,Y).\n",
    "T(X,Y) :- E(X,Y) + T(X,Z)*T(Z,Y).\n",
    REPEATED,
]


def _seeded_db(program, s, rng):
    arities = {a.pred: len(a.args) for r in program.rules for p in r.body for a in p.atoms}
    edb = sorted(set(arities) - set(program.idb_predicates()))
    entries = []
    for pred in edb:
        for k, combo in enumerate(itertools.product("abcd", repeat=arities[pred])):
            if k == 0 or rng.random() < 0.3:
                entries.append((pred, combo, s.show(s.random_element(rng))))
    return build_edb(s, entries)


def _fixpoint(system):
    if isinstance(system, GroundedLinearSystem):
        trace = naive_eval_linear(system)
    else:
        trace = naive_eval_general(system)
    assert not trace.capped
    return trace.fixpoint


@pytest.mark.parametrize("ti", range(len(PRUNE_PROGRAMS)))
@pytest.mark.parametrize("sid", ALL_IDS)
def test_pruning_keeps_exactly_the_nonzero_atoms(ti, sid):
    # every built-in carrier has no zero sums and no zero divisors, so an atom
    # is nonzero in the fixpoint exactly when some chain of terms reaches it
    s = semiring_from_id(sid)
    program = parse_program(PRUNE_PROGRAMS[ti])
    rng = random.Random(ti)
    dbs = [_seeded_db(program, s, rng) for _ in range(4)]
    if PRUNE_PROGRAMS[ti] == REPEATED:
        # U(a) :- T(a,a)*T(a,a) waits on one distinct atom that occurs twice
        dbs.append(build_edb(s, [("E", ("a", "a"), None), ("E", ("a", "b"), None)]))
    for db in dbs:
        full = ground(program, db, prune=False)
        full_fix = _fixpoint(full)
        nonzero = {a for a, v in zip(full.atoms, full_fix) if v != s.zero}
        kept = ground(program, db)
        assert set(kept.atoms) == nonzero
        assert _fixpoint(kept) == tuple(full_fix[full.index[a]] for a in kept.atoms)
    if PRUNE_PROGRAMS[ti] == REPEATED and sid != "trivial":
        assert ("U", ("a",)) in nonzero


# ---------------------------------------------------------------------------
# Join-driven grounding against the active-domain loop
# ---------------------------------------------------------------------------

def reference_ground(program, db, prune=True):
    """(atoms, n_raw, A entries, b, monomials) from the nested active-domain loop.

    Every variable of a product, deduplicated, ranges over the active domain;
    a binding whose EDB atoms all find a fact adds the product of their values,
    in body order, to its (head, sorted derived atoms) term. Pruning keeps the
    least set of atoms closed under "some term's derived atoms are all kept".
    """
    s = db.semiring
    idb = set(program.idb_predicates())
    adom = db.active_domain
    gdom = sorted(set(adom) | set(program.rule_constants()))
    arity = {r.head.pred: len(r.head.args) for r in program.rules}
    universe = [
        (pred, combo)
        for pred in sorted(arity)
        for combo in itertools.product(gdom, repeat=arity[pred])
    ]
    index = {a: i for i, a in enumerate(universe)}
    terms = {}
    for rule in program.rules:
        for prod in rule.body:
            var_list = list(dict.fromkeys(rule.head.variables() + prod.variables()))
            for combo in itertools.product(adom, repeat=len(var_list)):
                env = dict(zip(var_list, combo))

                def inst(atom):
                    args = tuple(env[t.name] if isinstance(t, Var) else t.name for t in atom.args)
                    return atom.pred, args

                coeff = s.one
                for atom in prod.atoms:
                    if atom.pred not in idb:
                        v = db.facts.get(inst(atom))
                        if v is None:
                            coeff = s.zero
                            break
                        coeff = s.mul(coeff, v)
                if coeff == s.zero:
                    continue
                cols = tuple(sorted(index[inst(a)] for a in prod.atoms if a.pred in idb))
                key = (index[inst(rule.head)], cols)
                terms[key] = s.add(terms.get(key, s.zero), coeff)
    terms = {k: v for k, v in terms.items() if v != s.zero}
    kept = set(range(len(universe)))
    if prune:
        kept = set()
        while True:
            more = {i for (i, cols) in terms if all(c in kept for c in cols)} - kept
            if not more:
                break
            kept |= more
    keep = sorted(kept)
    remap = {old: new for new, old in enumerate(keep)}
    linear = classify_linearity(program).linear
    a_entries, b, rows = [], [s.zero] * len(keep), [[] for _ in keep]
    for (i, cols), v in terms.items():
        if not all(c in remap for c in cols):
            continue
        new_cols = tuple(remap[c] for c in cols)
        if not linear:
            rows[remap[i]].append((v, new_cols))
        elif new_cols:
            a_entries.append((remap[i], new_cols[0], v))
        else:
            b[remap[i]] = v
    monomials = tuple(tuple(sorted(r, key=lambda m: m[1])) for r in rows) if not linear else None
    atoms = tuple(universe[i] for i in keep)
    return atoms, len(universe), sorted(a_entries), tuple(b), monomials


ARITY = {"E": 2, "F": 1, "G": 2, "T": 2, "U": 1}  # T and U are derived
RULE_VARS = ("X", "Y", "Z", "W")


def _random_atom(rng, pred):
    # constants a (in every active domain) and k (in none)
    terms = [Const(rng.choice("ak")) if rng.random() < 0.15 else Var(rng.choice(RULE_VARS))
             for _ in range(ARITY[pred])]
    return Atom(pred, tuple(terms))


def _random_program(rng, linear):
    """Rules heading T and U with products of 0-3 EDB atoms and 0-2 derived ones.

    A head variable that no atom of a product names is added as F(V), or as
    U(V) while the product may take another derived atom, so some variables
    occur only in derived atoms.
    """
    heads = [_random_atom(rng, "T"), _random_atom(rng, "U")]
    if rng.random() < 0.3:
        heads[0] = Atom("T", (Var("X"), Var("X")))
    rules = []
    for head in heads:
        body = []
        for _ in range(rng.randint(1, 2)):
            atoms = [_random_atom(rng, rng.choice("EFG")) for _ in range(rng.randint(0, 3))]
            n_idb = rng.randint(0, 1 if linear else 2)
            atoms += [_random_atom(rng, rng.choice("TU")) for _ in range(n_idb)]
            for v in dict.fromkeys(head.variables()):
                if v not in {name for a in atoms for name in a.variables()}:
                    room = not linear or all(a.pred not in "TU" for a in atoms)
                    pred = "U" if room and rng.random() < 0.5 else "F"
                    atoms.append(Atom(pred, (Var(v),)))
            if not atoms:
                atoms.append(_random_atom(rng, "F"))
            body.append(Product(tuple(atoms)))
        rules.append(Rule(head, tuple(body)))
    return print_program(Program(tuple(rules), ()))


def _random_facts(rng, s):
    """Facts over a..d for E, F and G, some of them zero-valued."""
    entries = []
    for pred in "EFG":
        for k, args in enumerate(itertools.product("abcd", repeat=ARITY[pred])):
            if k == 0 or rng.random() < 0.35:
                v = s.zero if rng.random() < 0.1 else s.random_element(rng)
                entries.append((pred, args, s.show(v)))
    return build_edb(s, entries)


def _features(program):
    """Which shapes the differential test is meant to cover occur in ``program``."""
    idb = set(program.idb_predicates())
    seen = set()
    for rule in program.rules:
        if len(set(rule.head.variables())) < len(rule.head.variables()):
            seen.add("repeated head variable")
        if set(rule.head.constants()) - set("abcd"):
            seen.add("head constant outside the active domain")
        if len(rule.head.args) == 3:
            seen.add("arity-3 derived predicate")
        for prod in rule.body:
            edb = [a for a in prod.atoms if a.pred not in idb]
            seen.add(f"{len(edb)} EDB atoms")
            if any(len(set(a.variables())) < len(a.variables()) for a in edb):
                seen.add("repeated variable in an EDB atom")
            if any(a.constants() for a in prod.atoms):
                seen.add("constant")
            edb_vars = {v for a in edb for v in a.variables()}
            if set(prod.variables()) - edb_vars:
                seen.add("variable only in derived atoms")
            if len(set(prod.variables()) - edb_vars) > 1:
                seen.add("two free variables")
            if sum(a.pred in idb for a in prod.atoms) > 1:
                seen.add("nonlinear")
            derived = [a for a in prod.atoms if a.pred in idb]
            free = set(prod.variables()) - edb_vars
            if len(derived) == 1 and free:
                seen.add("linear product with a free variable")
                if any(
                    [t == Var(v) for t in rule.head.args] != [t == Var(v) for t in derived[0].args]
                    for v in free
                ):
                    seen.add("head and derived atom place a free variable differently")
    return seen


DIFF_IDS = ALL_IDS + ("capped:5", "capped:6")


# fixed inputs for the atom numbering, checked after the random draws
NUMBERING_PROGRAMS = (
    # an arity-3 derived predicate next to arity-1 and arity-2 ones, so
    # numbers and decoding cross three blocks of different sizes
    "V(X,Y,Z) :- E(X,Y)*G(Y,Z) + T(X,Z)*F(Y).\n"
    "T(X,Y) :- G(X,Y) + V(X,Z,Y)*F(Z).\n"
    "U(X) :- F(X) + V(X,X,Y)*F(Y).\n",
    # products with two free variables, linear and not
    "T(X,Y) :- E(X,Y) + T(Y,X).\nU(X) :- F(X) + T(Y,Z)*G(X,X).\n",
    "T(X,Y) :- E(X,Y) + U(X)*U(Y).\nU(X) :- F(X) + T(X,Y)*T(Y,Z).\n",
    # head constants outside the active domain a..d
    "T(k,X) :- F(X) + T(k,Y)*E(Y,X).\nU(k) :- T(k,X)*F(X).\nU(X) :- T(X,k).\n",
)


def _assert_ground_matches_reference(program, db):
    for prune in (False, True):
        got = ground(program, db, prune=prune)
        atoms, n_raw, a_entries, b, monomials = reference_ground(program, db, prune)
        assert got.atoms == atoms
        assert got.n_raw == n_raw
        if monomials is None:
            assert isinstance(got, GroundedLinearSystem)
            assert list(got.A.entries()) == a_entries
            assert got.b == b
        else:
            assert got.monomials == monomials


@pytest.mark.parametrize("sid", DIFF_IDS)
def test_ground_matches_active_domain_reference(sid):
    s = semiring_from_id(sid)
    rng = random.Random(f"ground/{sid}")
    seen = set()
    for trial in range(24):
        program = parse_program(_random_program(rng, linear=trial % 3 != 0))
        db = _random_facts(rng, s)
        seen |= _features(program)
        _assert_ground_matches_reference(program, db)
    for text in NUMBERING_PROGRAMS:
        program = parse_program(text)
        seen |= _features(program)
        for _ in range(2):
            _assert_ground_matches_reference(program, _random_facts(rng, s))
    assert seen >= {
        "0 EDB atoms", "1 EDB atoms", "2 EDB atoms", "3 EDB atoms", "constant",
        "repeated variable in an EDB atom", "variable only in derived atoms",
        "repeated head variable", "nonlinear", "two free variables",
        "head constant outside the active domain", "arity-3 derived predicate",
        "linear product with a free variable",
        "head and derived atom place a free variable differently",
    }


def _assert_linear_ground_is_exact(program, db):
    s = db.semiring
    for prune in (False, True):
        got = ground(program, db, prune=prune)
        assert isinstance(got, GroundedLinearSystem)
        # the checked constructor rebuilds the same matrix: every index in
        # range, no entry equal to zero, no coordinate twice
        assert got.A == Matrix(s, got.n, list(got.A.entries()))
        assert got.A.n == got.n == len(got.b)


@pytest.mark.parametrize("sid", DIFF_IDS + ("trop_p_fin:1:3",))
def test_linear_ground_equals_its_monomials_and_the_checked_matrix(sid):
    s = semiring_from_id(sid)
    rng = random.Random(f"linear/{sid}")
    for _ in range(16):
        _assert_linear_ground_is_exact(
            parse_program(_random_program(rng, linear=True)), _random_facts(rng, s)
        )
    for text in (TC, NUMBERING_PROGRAMS[1], NUMBERING_PROGRAMS[3]):
        _assert_linear_ground_is_exact(parse_program(text), _random_facts(rng, s))
    for seed in range(3):
        db = random_edge_instance(7, 0.4, s, seed)
        _assert_linear_ground_is_exact(parse_program(TC), db)
        if s.one != s.zero:  # the path program grounds a real matrix
            assert len(list(ground(parse_program(TC), db).A.entries())) > 10


DAG_EDGES = [("a", "b", "3"), ("b", "c", "4"), ("a", "c", "9"), ("c", "d", "1")]


def test_distinct_term_keys_are_stored_without_add():
    # a first term is stored as it is; add(O, v) == v makes that exact
    s = TropSemiring()  # a private instance, so counting wraps no shared carrier
    calls = {"add": 0}
    add = s.add

    def counted_add(a, b):
        calls["add"] += 1
        return add(a, b)

    # the path program over a DAG: each (T(x,y), T(x,z)) term comes from one
    # edge z -> y, and each T(x,y) constant term from the edge x -> y
    db = build_edb(s, [("E", (u, v), w) for u, v, w in DAG_EDGES])
    for text, adds in ((TC, 0), ("U(X) :- E(X,Y).\n", 1)):  # U(a) sums two edges
        program = parse_program(text)
        expected = reference_ground(program, db)
        s.add = counted_add
        got = ground(program, db)
        del s.add
        assert calls == {"add": adds}
        assert (got.atoms, got.n_raw, list(got.A.entries()), got.b) == expected[:4]
        calls["add"] = 0


def test_a_binding_multiplies_only_the_facts_after_its_first():
    # the first coefficient is the first fact value; mul(one, v) == v makes that exact
    s = TropSemiring()  # a private instance, so counting wraps no shared carrier
    calls = []
    mul = s.mul
    db = build_edb(s, [("E", (u, v), w) for u, v, w in DAG_EDGES])
    # the path program joins one EDB atom per product; the two-edge walks
    # a-b-c, a-c-d and b-c-d are the bindings of E(X,Y)*E(Y,Z)
    for text, muls in ((TC, 0), ("U(X,Z) :- E(X,Y)*E(Y,Z).\n", 3)):
        program = parse_program(text)
        expected = reference_ground(program, db)
        s.mul = lambda a, b: calls.append((a, b)) or mul(a, b)
        got = ground(program, db)
        del s.mul
        assert len(calls) == muls
        assert (got.atoms, got.n_raw, list(got.A.entries()), got.b) == expected[:4]
        calls.clear()


def test_no_prune_over_the_atom_limit_raises_before_allocating():
    # 200 constants and an arity-3 head: 8,000,000 atoms, none of them built
    s = semiring_from_id("bool")
    db = build_edb(s, [("E", (f"v{k}", f"v{(k + 1) % 200}"), None) for k in range(200)])
    program = parse_program("T(X,Y,Z) :- E(X,Y)*E(Y,Z).\n")
    with pytest.raises(GroundingError, match="^8000000 ground atoms without pruning exceed"):
        ground(program, db, prune=False)
    assert ground(program, db).n_raw == 8_000_000
    assert ground(program, db).n == 200
