"""Reference helpers that only the tests use: the program parser on tokens
alone, the matrix-file reader that splits every line, rendering a program back
to source, all exact walk sums as matrices, a matrix's columns read from its
rows, a matrix-vector fold that skips nothing, the walk enumerator that sorts
on every visit, the oracle's human format over every row, the monomial form of
a linear system, derivation-tree sums of a monomial system, a monomial
system's degree, repeated sums and the natural order."""

import itertools
import math
import re
from functools import reduce
from typing import Any, List, Optional, Tuple

from semifix import Matrix
from semifix.engine import _parse_label
from semifix.errors import (
    EnumerationBudgetExceeded, IndexOutOfRange, InvalidParameter, MalformedElement,
    MalformedLiteral, ParseError,
)
from semifix.frontend import (
    MAX_ATOMS, Atom, Const, FactStmt, GroundedLinearSystem, GroundedPolynomialSystem, Product,
    Program, Rule, Term, Var, _check_program,
)
from semifix.semirings import Semiring, _enumerable, semiring_from_id
from semifix.walks import DEFAULT_WALK_BUDGET, walk_sums


# The program tokenizer and parser as they were before a fact line became one
# FACT token: every line goes through the token regex and the parser, one
# token at a time. Only the rule that a blank may not split a fact literal's
# words is new. ``parse_program`` must agree with it on every text.

# Alternatives are tried in order at each position; ERROR takes any character
# no other alternative starts with, so the matches cover the whole text.
_TOKEN = re.compile(
    r"(?P<NL>\n)|(?P<WS>[ \t\r]+)|(?P<COMMENT>%[^\n]*)|(?P<ARROW>:-)|(?P<COLON>:)"
    r"|(?P<DIRECTIVE>@(?P<name>\w*)[ \t]*(?P<word>[^\s%]*))"
    r"|(?P<NUMBER>\d+(?:\.\d+)?)|(?P<NAME>\w+)|(?P<PUNCT>[(),.+*=\[\]/])|(?P<ERROR>.)"
)
_PUNCT = {
    "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT", "+": "PLUS",
    "*": "STAR", "=": "EQUALS", "[": "LBRACK", "]": "RBRACK", "/": "SLASH",
}
Token = Tuple[str, str, int, int]  # kind, text, line, col


def reference_tokenize(text: str) -> List[Token]:
    """Tokens of ``text`` ending in EOF; a lexical error raises ParseError."""
    tokens: List[Token] = []
    line, line_start, m = 1, 0, None
    for m in _TOKEN.finditer(text):
        kind, word, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind == "NAME":
            if not (word[0].isalpha() or word[0] == "_"):
                raise ParseError(f"unexpected character {word[0]!r}", line, col)
            tokens.append(("VAR" if word[0].isupper() else "IDENT", word, line, col))
        elif kind == "PUNCT":
            tokens.append((_PUNCT[word], word, line, col))
        elif kind in ("NUMBER", "ARROW"):
            tokens.append((kind, word, line, col))
        elif kind == "DIRECTIVE":
            if not m.group("name"):
                raise ParseError("expected a directive name after @", line, col + 1)
            tokens.append((kind, m.group("name"), line, col))
            if m.group("word"):
                tokens.append(("WORD", m.group("word"), line, m.start("word") - line_start + 1))
        elif kind == "COLON":
            raise ParseError("expected :- ", line, col)
        elif kind == "ERROR":
            raise ParseError(f"unexpected character {word!r}", line, col)
    # end of input after a trailing comment is reported at its '%'
    end = m.start() if m is not None and m.lastgroup == "COMMENT" else len(text)
    tokens.append(("EOF", "", line, end - line_start + 1))
    return tokens


_WORDS = ("NUMBER", "IDENT", "VAR")


def _unexpected(what: str, t: Token) -> ParseError:
    return ParseError(f"expected {what}, got {t[1] or 'end of input'!r}", t[2], t[3])


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> Token:
        if self.peek()[0] != kind:
            raise _unexpected(what, self.peek())
        return self.next()

    def parse_atom(self) -> Atom:
        kind, name, line, col = t = self.next()
        if kind not in ("IDENT", "VAR"):
            raise _unexpected("a predicate name", t)
        self.expect("LPAREN", "'(' after predicate name")
        args: List[Term] = []
        while True:
            a = self.next()
            if a[0] == "VAR":
                args.append(Var(a[1]))
            elif a[0] in ("IDENT", "NUMBER"):
                args.append(Const(a[1]))
            else:
                raise _unexpected("an argument", a)
            sep = self.next()
            if sep[0] == "RPAREN":
                break
            if sep[0] != "COMMA":
                raise _unexpected("',' or ')'", sep)
        return Atom(name, tuple(args), (line, col))

    def parse_body(self) -> Tuple[Product, ...]:
        products: List[Product] = []
        while True:
            atoms = [self.parse_atom()]
            while self.peek()[0] == "STAR":
                self.next()
                atoms.append(self.parse_atom())
            products.append(Product(tuple(atoms)))
            if self.peek()[0] != "PLUS":
                break
            self.next()
        return tuple(products)

    def parse_literal_text(self) -> str:
        parts: List[str] = []
        depth = 0
        last = None
        while True:
            kind, text, line, col = self.peek()
            if kind == "EOF":
                raise ParseError("unterminated fact literal", line, col)
            if kind == "DOT" and depth == 0:
                break
            if kind == "LBRACK":
                depth += 1
            elif kind == "RBRACK":
                depth -= 1
            elif kind in _WORDS and last is not None and last[0] in _WORDS and (
                (last[2], last[3] + len(last[1])) != (line, col)
            ):
                raise ParseError(f"unexpected blank before {text!r} in a fact literal", line, col)
            parts.append(text)
            last = self.next()
        return "".join(parts)


def reference_parse_program(text: str) -> Program:
    """``parse_program`` on tokens alone, without the one-match fact lines."""
    p = _Parser(reference_tokenize(text))
    rules: List[Rule] = []
    facts: List[FactStmt] = []
    semiring_id: Optional[str] = None
    semiring_pos: Optional[Tuple[int, int]] = None
    while p.peek()[0] != "EOF":
        kind, name, line, col = p.peek()
        if kind == "DIRECTIVE":
            p.next()
            if name != "semiring":
                raise ParseError(f"unknown directive @{name}", line, col)
            if semiring_id is not None:
                raise ParseError("duplicate @semiring directive", line, col)
            if p.peek()[0] != "WORD":
                raise ParseError("expected a semiring id after @semiring", line, col)
            semiring_id, semiring_pos = p.next()[1], (line, col)
            continue
        atom = p.parse_atom()
        nxt = p.next()
        if nxt[0] == "ARROW":
            body = p.parse_body()
            p.expect("DOT", "'.' at end of rule")
            rules.append(Rule(atom, body, atom.pos))
        elif nxt[0] == "EQUALS":
            literal = p.parse_literal_text()
            p.expect("DOT", "'.' at end of fact")
            facts.append(_fact_from_atom(atom, literal))
        elif nxt[0] == "DOT":
            facts.append(_fact_from_atom(atom, None))
        else:
            raise _unexpected("':-', '=' or '.'", nxt)
    program = Program(tuple(rules), tuple(facts), semiring_id, semiring_pos)
    _check_program(program)
    return program


def _fact_from_atom(atom: Atom, literal: Optional[str]) -> FactStmt:
    for t in atom.args:
        if isinstance(t, Var):
            raise ParseError(f"fact argument {t.name} is a variable", *atom.pos)
    return FactStmt(atom.pred, tuple(t.name for t in atom.args), literal, atom.pos)


def print_program(program: Program) -> str:
    """Render a Program back to source; reparsing yields an equal AST."""
    lines: List[str] = []
    if program.semiring_id:
        lines.append(f"@semiring {program.semiring_id}")

    def atom(a) -> str:
        return f"{a.pred}({','.join(t.name for t in a.args)})"

    for r in program.rules:
        body = " + ".join("*".join(atom(a) for a in p.atoms) for p in r.body)
        lines.append(f"{atom(r.head)} :- {body}.")
    for f in program.facts:
        head = f"{f.pred}({','.join(f.args)})"
        lines.append(f"{head}." if f.literal is None else f"{head} = {f.literal}.")
    return "\n".join(lines) + "\n"


# The matrix-file reader as it was before entry and label lines were read in
# one regex match: every line is stripped, split and checked, and each literal
# is parsed where it stands. Only the label rule is new: an index is ASCII
# digits, where ``str.isdigit`` also took "²", which ``int`` refuses.
# ``load_system`` must agree with it on every text.

_LINE_FIELDS = {"semiring": 1, "n": 1, "A": 3, "b": 2}


def _parse_int(text: str, what: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} {text!r} is not an integer", lineno, 1) from None


def reference_load_system(text: str) -> GroundedLinearSystem:
    semiring: Optional[Semiring] = None
    n: Optional[int] = None
    entries: List[Tuple[int, int, Any]] = []
    b_entries: List[Tuple[int, Any]] = []
    labels: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split(maxsplit=2)
            if len(parts) == 3 and parts[0] == "atom" and parts[1].isascii() and parts[1].isdigit():
                labels[int(parts[1])] = parts[2]
            continue
        key, *rest = line.split(maxsplit=1)
        want = _LINE_FIELDS.get(key)
        if want is None:
            raise ParseError(f"unrecognized line {raw!r}", lineno, 1)
        fields = rest[0].split(maxsplit=want - 1) if rest else []
        if len(fields) != want:
            raise ParseError(f"expected {want} field(s) after {key!r}", lineno, 1)
        if key == "semiring" and semiring is not None or key == "n" and n is not None:
            raise ParseError(f"second {key!r} header", lineno, 1)
        if key == "semiring":
            try:
                semiring = semiring_from_id(fields[0])
            except InvalidParameter as e:
                raise ParseError(str(e), lineno, 1) from None
        elif key == "n":
            n = _parse_int(fields[0], "n", lineno)
            if n < 0:
                raise ParseError(f"n must be >= 0, got {n}", lineno, 1)
            if n > MAX_ATOMS:
                raise ParseError(f"n {n} exceeds the limit of {MAX_ATOMS} atoms", lineno, 1)
        elif semiring is None or n is None:
            raise ParseError(f"{key} entry before semiring/n header", lineno, 1)
        else:
            idx = [_parse_int(f, f"{key} index", lineno) for f in fields[:-1]]
            bad = [k for k in idx if not 0 <= k < n]
            if bad:
                raise IndexOutOfRange(f"{key} index {bad[0]} outside 0..{n - 1}", lineno, 1)
            try:
                value = semiring.parse(fields[-1])
            except MalformedElement as exc:
                raise MalformedLiteral(str(exc), lineno, 1) from None
            if key == "A":
                entries.append((idx[0], idx[1], value))
            else:
                b_entries.append((idx[0], value))
    if semiring is None or n is None:
        raise ParseError("missing semiring or n header", 1, 1)
    b = [semiring.zero] * n
    for i, v in b_entries:
        b[i] = semiring.add(b[i], v)
    atoms = [_parse_label(labels.get(i, f"x{i}")) for i in range(n)]
    return GroundedLinearSystem.from_matrix(semiring, Matrix(semiring, n, entries), b, atoms)


def walk_sum_matrices(A: Matrix, max_h: int, budget: int = DEFAULT_WALK_BUDGET) -> List[Matrix]:
    """All exact walk sums at once: result[h][i, j] == walk_sum_exact(A, i, j, h)."""
    tables = walk_sums(A, range(A.n), max_h, budget)
    tables += [{}] * (max_h + 1 - len(tables))  # hop counts no walk reaches
    return [Matrix(A.semiring, A.n, ((i, j, v) for (i, j), v in t.items())) for t in tables]


def assert_columns_are_the_rows_transposed(A: Matrix) -> None:
    """``A.columns()`` holds each entry of the rows once, each column's rows
    ascending, and is kept after its first use."""
    want: List[dict] = [{} for _ in range(A.n)]
    for i, j, v in A.entries():  # row-major, so each column's rows ascend
        want[j][i] = v
    cols = A.columns()
    assert [list(c.items()) for c in cols] == [list(c.items()) for c in want]
    assert A.columns() is cols


def reference_matvec(A: Matrix, x) -> tuple:
    """A x, each row folded over every stored entry in its stored order, with
    no input skipped: the reference for ``Matrix.matvec`` and naive iteration."""
    s = A.semiring
    out = []
    for i in range(A.n):
        acc = s.zero
        for j, v in A.row(i).items():
            acc = s.add(acc, s.mul(v, x[j]))
        out.append(acc)
    return tuple(out)


def reference_walks(A: Matrix, sources, h: int, budget):
    """Every walk of at most h hops from each source, as (source, hops, end,
    product), in the order ``walks.walk_sums`` visits and folds them: depth-first
    preorder, successors ascending. The row is read and sorted every time a walk
    leaves its vertex, and the walk past the budget is refused."""
    s = A.semiring
    visited = 0
    for i in sources:
        stack = [(0, i, s.one)]
        while stack:
            hops, v, prod = stack.pop()
            visited += 1
            if visited > budget:
                raise EnumerationBudgetExceeded(f"walk enumeration exceeded the budget of {budget}")
            yield i, hops, v, prod
            if hops < h:
                row = A.row(v)
                stack.extend((hops + 1, w, s.mul(prod, row[w])) for w in sorted(row, reverse=True))


def pad_rows(table: List[List[str]]) -> str:
    """The oracle's human format as it was before it kept runs of repeated
    rows: every row held, each column padded to its longest cell."""
    widths = [max(len(str(r[k])) for r in table) for k in range(6)]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(r, widths)) for r in table]
    return "\n".join(lines) + "\n"


def as_monomial_system(sys: GroundedLinearSystem) -> GroundedPolynomialSystem:
    """``sys`` as monomial rows: the terms (A[i][j], (j,)) and a nonzero
    (b[i], ()) of row i, sorted by their columns, as ``ground`` orders them."""
    s = sys.semiring
    monomials = tuple(
        tuple(sorted(
            [(v, (j,)) for j, v in sys.A.row(i).items()] + [(bi, ())] * (bi != s.zero),
            key=lambda m: m[1],
        ))
        for i, bi in enumerate(sys.b)
    )
    return GroundedPolynomialSystem(s, sys.atoms, monomials, sys.n_raw)


def derivation_sums(psys: GroundedPolynomialSystem, k: int, budget: int) -> Tuple[Any, ...]:
    """Entry i sums, over every derivation tree of height <= k rooted at atom
    i, the product of the tree's monomial coefficients: a tree picks a
    monomial of row i and one subtree per column, a repeated column once per
    occurrence. Each tree's product is listed before any add, so over a
    semiring this is x(k) of naive evaluation (Esparza, Kiefer and
    Luttenberger, J. ACM 2010). More than ``budget`` trees of one height raise
    EnumerationBudgetExceeded."""
    s = psys.semiring
    trees: List[List[Any]] = [[] for _ in psys.monomials]  # height 0: none
    for _ in range(k):
        count = sum(math.prod(len(trees[c]) for c in cols) for row in psys.monomials for _, cols in row)
        if count > budget:
            raise EnumerationBudgetExceeded(f"{count} derivation trees exceed the budget of {budget}")
        trees = [
            [reduce(s.mul, subtrees, coeff)
             for coeff, cols in row for subtrees in itertools.product(*(trees[c] for c in cols))]
            for row in psys.monomials
        ]
    return tuple(reduce(s.add, row, s.zero) for row in trees)


def max_degree(system: GroundedPolynomialSystem) -> int:
    """The largest number of derived atoms in one monomial."""
    return max((len(v) for row in system.monomials for _, v in row), default=0)


def scalar_repeat(s: Semiring, u, m: int):
    """u (+) u (+) ... m times; the empty sum is zero."""
    if m < 0:
        raise InvalidParameter("repeat count must be >= 0")
    acc = s.zero
    for _ in range(m):
        acc = s.add(acc, u)
    return acc


def natural_order_leq(s: Semiring, x, y) -> bool:
    """x precedes y when some carrier element z satisfies x (+) z == y."""
    return any(s.add(x, z) == y for z in _enumerable(s))
