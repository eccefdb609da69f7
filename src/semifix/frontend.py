"""Parser and grounder for the linear sum-product rule language.

Surface syntax, one statement per ``.``-terminated clause:

    % transitive closure / shortest paths, depending on the semiring
    @semiring trop
    T(X,Y) :- E(X,Y) + T(X,Z)*E(Z,Y).
    E(a,b) = 3.
    E(b,c) = 4.

``+`` is semiring addition, ``*`` is semiring multiplication, ``%`` starts a
comment. A name starts with a letter or ``_`` and goes on with characters that
are ``str.isalnum()`` or ``_``; a number is Unicode decimal digits with an
optional ``.digits`` part. Names followed by ``(`` are predicates;
capitalized arguments are variables, lowercase identifiers and numbers are
constants. A fact without ``= literal`` carries the multiplicative identity
(``true`` under bool). Variables that occur in a body but not in the head are
summed over the active domain. Facts may also come from a separate TSV file
with columns ``predicate, arg1..argk, literal``.

Grounding binds each body product's variables by joining its EDB atoms with
the facts (a variable no EDB atom binds ranges over the active domain) and
produces the linear system f(x) = Ax (+) b, one coordinate per ground atom of
a derived predicate (or a monomial system when some product uses two or more
derived atoms). Ground atoms are numbered arithmetically, digits of constant
positions, so the set of all of them is never built; only the atoms a system
keeps are turned back into names.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import re
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

from .errors import GroundingError, MalformedElement, MalformedLiteral, ParseError
from .matrix import Matrix, _transpose
from .semirings import Semiring

GroundAtom = Tuple[str, Tuple[str, ...]]


def format_ground_atom(atom: GroundAtom) -> str:
    pred, args = atom
    return f"{pred}({','.join(args)})" if args else pred


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

# Alternatives are tried in order at each position; ERROR takes any character
# no other alternative starts with, so the matches cover the whole line. No
# token spans a newline, so a text is tokenized one line at a time.
_TOKEN = re.compile(
    r"(?P<WS>[ \t\r]+)|(?P<COMMENT>%[^\n]*)|(?P<ARROW>:-)|(?P<COLON>:)"
    r"|(?P<DIRECTIVE>@(?P<name>\w*)[ \t]*(?P<word>[^\s%]*))"
    r"|(?P<NUMBER>\d+(?:\.\d+)?)|(?P<NAME>\w+)|(?P<PUNCT>[(),.+*=\[\]/])|(?P<ERROR>.)"
)
_PUNCT = {
    "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT", "+": "PLUS",
    "*": "STAR", "=": "EQUALS", "[": "LBRACK", "]": "RBRACK", "/": "SLASH",
}
# A line that is exactly one ground fact, ``pred(c1,...,ck) [= literal].``
# and trailing blanks, is read by one match of _FACT. It accepts only text
# whose tokens form that same fact: ASCII names and numbers as arguments (a
# variable, a non-ASCII character or a comment leaves the line to _TOKEN), and
# a literal without blanks that is a number, a/b, a name or a flat bag.
_B = r"[ \t\r]*"
_NUM = r"\d+(?:\.\d+)?"
_ARG = rf"(?:[a-z_]\w*|{_NUM})"
_FACT = re.compile(
    rf"(?P<pred>[A-Za-z_]\w*){_B}\({_B}(?P<args>{_ARG}(?:{_B},{_B}{_ARG})*){_B}\){_B}"
    rf"(?:={_B}(?P<literal>{_NUM}(?:/{_NUM})?|[A-Za-z_]\w*|\[[\w/,.]*\]){_B})?\.{_B}",
    re.ASCII,
)
Token = Tuple[str, Any, int, int]  # kind, text (a FACT token's _FACT match), line, col


def tokenize(text: str) -> List[Token]:
    """Tokens of ``text`` ending in EOF; a lexical error raises ParseError.

    A line that is one ground fact is one FACT token, which the parser reads
    as a whole statement or expands into the line's tokens.
    """
    tokens: List[Token] = []
    for line, s in enumerate(text.split("\n"), start=1):
        m = _FACT.fullmatch(s)
        if m:
            tokens.append(("FACT", m, line, 1))
        else:
            m = _line_tokens(s, line, tokens)
    # end of input after a trailing comment is reported at its '%'
    end = m.start() if m is not None and m.lastgroup == "COMMENT" else len(s)
    tokens.append(("EOF", "", line, end + 1))
    return tokens


def _line_tokens(s: str, line: int, tokens: List[Token]) -> Optional[re.Match]:
    """Append the tokens of line ``s`` to ``tokens``; returns its last match."""
    m = None
    for m in _TOKEN.finditer(s):
        kind, word, col = m.lastgroup, m.group(), m.start() + 1
        if kind == "NAME":
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
                tokens.append(("WORD", m.group("word"), line, m.start("word") + 1))
        elif kind == "COLON":
            raise ParseError("expected :- ", line, col)
        elif kind == "ERROR":
            raise ParseError(f"unexpected character {word!r}", line, col)
    return m


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


Term = Union[Var, Const]


@dataclass(frozen=True)
class Atom:
    pred: str
    args: Tuple[Term, ...]
    pos: Optional[Tuple[int, int]] = field(default=None, compare=False, repr=False)

    def variables(self) -> Tuple[str, ...]:
        return tuple(t.name for t in self.args if isinstance(t, Var))

    def constants(self) -> Tuple[str, ...]:
        return tuple(t.name for t in self.args if isinstance(t, Const))


@dataclass(frozen=True)
class Product:
    atoms: Tuple[Atom, ...]

    def variables(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for a in self.atoms:
            for v in a.variables():
                if v not in seen:
                    seen.append(v)
        return tuple(seen)


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: Tuple[Product, ...]
    pos: Optional[Tuple[int, int]] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class FactStmt:
    pred: str
    args: Tuple[str, ...]
    literal: Optional[str]  # None carries the multiplicative identity
    pos: Optional[Tuple[int, int]] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Program:
    rules: Tuple[Rule, ...]
    facts: Tuple[FactStmt, ...]
    semiring_id: Optional[str] = None
    # (line, col) of the @semiring directive, for errors raised when resolving it
    semiring_pos: Optional[Tuple[int, int]] = field(default=None, compare=False, repr=False)

    def idb_predicates(self) -> Tuple[str, ...]:
        """Predicates that head at least one rule, in first-seen order."""
        seen: List[str] = []
        for r in self.rules:
            if r.head.pred not in seen:
                seen.append(r.head.pred)
        return tuple(seen)

    def rule_constants(self) -> Tuple[str, ...]:
        out: List[str] = []
        for r in self.rules:
            for atom in (r.head, *(a for p in r.body for a in p.atoms)):
                for c in atom.constants():
                    if c not in out:
                        out.append(c)
        return tuple(out)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_WORDS = ("NUMBER", "IDENT", "VAR")


def _unexpected(what: str, t: Token) -> ParseError:
    return ParseError(f"expected {what}, got {t[1] or 'end of input'!r}", t[2], t[3])


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        t = self.tokens[self.pos]
        return self._expand() if t[0] == "FACT" else t

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t[0] == "FACT":
            t = self._expand()
        self.pos += 1
        return t

    def _expand(self) -> Token:
        """Replace the FACT token read mid-statement by its line's tokens."""
        _, m, line, _ = self.tokens[self.pos]
        line_tokens: List[Token] = []
        _line_tokens(m.string, line, line_tokens)
        self.tokens[self.pos:self.pos + 1] = line_tokens
        return line_tokens[0]

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
                # joined, "1 2" would read as 12 and "in f" as inf
                raise ParseError(f"unexpected blank before {text!r} in a fact literal", line, col)
            parts.append(text)
            last = self.next()
        return "".join(parts)


def parse_program(text: str) -> Program:
    """Parse source text into a Program, checking rule-level well-formedness."""
    p = _Parser(tokenize(text))
    rules: List[Rule] = []
    facts: List[FactStmt] = []
    semiring_id: Optional[str] = None
    semiring_pos: Optional[Tuple[int, int]] = None
    tokens = p.tokens
    while True:
        kind, name, line, col = tokens[p.pos]
        if kind == "FACT":
            # a statement that starts at a fact line is that line's fact
            p.pos += 1
            args = tuple(map(str.strip, name["args"].split(",")))
            facts.append(FactStmt(name["pred"], args, name["literal"], (line, col)))
            continue
        if kind == "EOF":
            break
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


def _check_program(program: Program) -> None:
    arities: Dict[str, int] = {}

    def note(pred: str, arity: int, pos):
        if arities.setdefault(pred, arity) != arity:
            raise ParseError(
                f"predicate {pred} used with arity {arity} and {arities[pred]}",
                *(pos or (None, None)),
            )

    for f in program.facts:
        note(f.pred, len(f.args), f.pos)
    for r in program.rules:
        note(r.head.pred, len(r.head.args), r.pos)
        head_vars = set(r.head.variables())
        for prod in r.body:
            for a in prod.atoms:
                note(a.pred, len(a.args), a.pos)
            missing = head_vars - set(prod.variables())
            if missing:
                name = sorted(missing)[0]
                raise ParseError(
                    f"head variable {name} is unbound in a body product",
                    *(r.pos or (None, None)),
                )


# ---------------------------------------------------------------------------
# Linearity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearityReport:
    linear: bool
    # (rule index, product index, number of derived atoms in the product)
    product_idb_counts: Tuple[Tuple[int, int, int], ...]


def classify_linearity(program: Program) -> LinearityReport:
    """Linear when every body product holds at most one derived atom."""
    idb = set(program.idb_predicates())
    counts = []
    for ri, r in enumerate(program.rules):
        for pi, prod in enumerate(r.body):
            counts.append((ri, pi, sum(1 for a in prod.atoms if a.pred in idb)))
    return LinearityReport(all(c <= 1 for _, _, c in counts), tuple(counts))


# ---------------------------------------------------------------------------
# EDB instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EDBInstance:
    semiring: Semiring
    facts: Mapping[GroundAtom, Any]
    # (line, col) of each fact's first entry; empty when built by hand
    positions: Mapping[GroundAtom, Tuple] = field(default_factory=dict, compare=False, repr=False)

    @property
    def active_domain(self) -> Tuple[str, ...]:
        consts = {c for (_, args) in self.facts for c in args}
        return tuple(sorted(consts))


# (predicate, args, literal or None) with an optional (line, col) of the fact
FactEntry = Tuple[Any, ...]


def build_edb(semiring: Semiring, entries: Iterable[FactEntry]) -> EDBInstance:
    """Build an EDB instance; duplicate ground atoms are combined additively.

    A malformed literal raises MalformedLiteral at the entry's position when
    the entry carries one, else the semiring's MalformedElement. An entry
    whose arity differs from its predicate's first raises GroundingError there.
    """
    facts: Dict[GroundAtom, Any] = {}
    positions: Dict[GroundAtom, Tuple] = {}
    arity: Dict[str, int] = {}
    values = {None: semiring.one}  # literal text -> element, so each distinct text is parsed once
    for pred, args, literal, *pos in entries:
        at = pos[0] if pos and pos[0] is not None else (None, None)
        if literal not in values:
            try:
                values[literal] = semiring.parse(literal)
            except MalformedElement as exc:
                if at[0] is None:
                    raise
                raise MalformedLiteral(str(exc), *at) from None
        value = values[literal]
        if arity.setdefault(pred, len(args)) != len(args):
            raise GroundingError(f"predicate {pred} used with inconsistent arity in facts", *at)
        key = (pred, tuple(args))
        if key in facts:
            where = "" if at[0] is None else f"line {at[0]}, col {at[1]}: "
            atom = format_ground_atom(key)
            warnings.warn(f"{where}duplicate fact for {atom}; values combined additively", stacklevel=2)
            facts[key] = semiring.add(facts[key], value)
        else:
            facts[key], positions[key] = value, at
    return EDBInstance(semiring, facts, positions)


def program_fact_entries(program: Program) -> List[FactEntry]:
    """``build_edb`` entries for the program's facts, with their positions."""
    return [(f.pred, f.args, f.literal, f.pos) for f in program.facts]


def tsv_fact_entries(text: str) -> List[FactEntry]:
    """``build_edb`` entries from TSV rows ``predicate <tab> arg1..argk <tab> literal``.

    Each entry carries its row's line, so a malformed literal names it.
    Blank columns after the literal are ignored; one before it is an error.
    """
    entries: List[FactEntry] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = raw.split("\t")
        cols = [c.strip() for c in fields]
        while not cols[-1]:
            cols.pop()
        if len(cols) < 3:
            raise ParseError(
                "expected tab-separated columns: predicate, args..., literal",
                lineno,
                1,
            )
        if "" in cols:  # the first empty one starts after k fields and k tabs
            k = cols.index("")
            col = sum(map(len, fields[:k])) + k + 1
            raise ParseError("empty column before the literal", lineno, col)
        entries.append((cols[0], tuple(cols[1:-1]), cols[-1], (lineno, 1)))
    return entries


def parse_facts_tsv(semiring: Semiring, text: str) -> EDBInstance:
    """Facts from TSV rows ``predicate <tab> arg1..argk <tab> literal``."""
    return build_edb(semiring, tsv_fact_entries(text))


# ---------------------------------------------------------------------------
# Grounded systems
# ---------------------------------------------------------------------------

# the most atoms a system may hold when every atom is kept: a matrix file's
# n, or ground atoms without pruning. Each atom costs a label, a matrix row
# and vector entries, so a larger one is an error instead of a failed (or
# machine-filling) allocation
MAX_ATOMS = 1_000_000

@dataclass(frozen=True)
class GroundedSystem:
    """Ground atoms over a semiring; atom k is coordinate k of the system."""

    semiring: Semiring
    atoms: Tuple[GroundAtom, ...]

    @cached_property
    def index(self) -> Dict[GroundAtom, int]:
        """The coordinate of each atom."""
        return {a: k for k, a in enumerate(self.atoms)}

    @property
    def n(self) -> int:
        return len(self.atoms)

    def atom_labels(self) -> Tuple[str, ...]:
        return tuple(format_ground_atom(a) for a in self.atoms)


@dataclass(frozen=True)
class GroundedLinearSystem(GroundedSystem):
    """The linear form f(x) = Ax (+) b."""

    A: Matrix
    b: Tuple[Any, ...]
    n_raw: int

    @classmethod
    def from_matrix(
        cls, semiring: Semiring, A: Matrix, b: Sequence[Any], atoms: Sequence[GroundAtom]
    ) -> "GroundedLinearSystem":
        """A system that keeps every atom; atom k is row and column k of A."""
        return cls(semiring, tuple(atoms), A, tuple(b), len(atoms))


Monomial = Tuple[Any, Tuple[int, ...]]  # coefficient, sorted derived-atom indices


@dataclass(frozen=True)
class GroundedPolynomialSystem(GroundedSystem):
    """Per-atom sums of coefficient-times-variables monomials."""

    monomials: Tuple[Tuple[Monomial, ...], ...]
    n_raw: int


def ground(
    program: Program,
    db: EDBInstance,
    *,
    prune: bool = True,
) -> Union[GroundedLinearSystem, GroundedPolynomialSystem]:
    """Instantiate the rules over the active domain.

    Linear programs yield a GroundedLinearSystem, others a
    GroundedPolynomialSystem. Ground atoms range over the active domain
    extended with constants named in rules (gdom), and are numbered, never
    listed: ``p(c_1..c_r)`` is p's first number plus ``Σ pos(c_i) * |gdom| **
    (r - i)`` for sorted positions pos and predicates in sorted order, its
    place in the sorted list of all n_raw atoms. A body product's bindings
    are those of the active-domain loop whose EDB atoms all find a fact, each
    once: a join of the EDB atoms in body order, times every active-domain
    value of the variables no EDB atom binds. Only kept atoms are decoded to
    ``(pred, args)``: under ``prune`` those that can ever reach a nonzero
    value, so memory is O(terms + kept atoms); otherwise all n_raw, and more
    than MAX_ATOMS raise GroundingError before anything is allocated.
    """
    s = db.semiring
    linear = classify_linearity(program).linear
    idb = set(program.idb_predicates())
    for (pred, args) in db.facts:
        if pred in idb:
            raise GroundingError(
                f"fact given for derived predicate {pred}; its values come from iteration",
                *db.positions.get((pred, args), (None, None)),
            )
    adom = db.active_domain
    gdom = tuple(sorted(set(adom) | set(program.rule_constants())))
    code = {c: k for k, c in enumerate(gdom)}
    # facts grouped by predicate, in insertion order, with coded arguments
    by_pred: Dict[str, List[Tuple[Tuple[int, ...], Any]]] = {}
    for (pred, args), v in db.facts.items():
        by_pred.setdefault(pred, []).append((tuple(map(code.__getitem__, args)), v))
    # the first body atom of each predicate, which its errors name
    body_atoms = [(a.pred, a) for r in program.rules for p in r.body for a in p.atoms]
    for pred, atom in sorted(dict(reversed(body_atoms)).items()):
        at = atom.pos or (None, None)
        if pred not in idb and pred not in by_pred and db.facts:
            raise GroundingError(f"unknown predicate {pred} in rule body (no facts, no rules)", *at)
        if pred in by_pred and len(by_pred[pred][0][0]) != len(atom.args):
            raise GroundingError(f"predicate {pred} used with inconsistent arity", *at)

    radix = len(gdom)
    arity = {r.head.pred: len(r.head.args) for r in program.rules}
    preds = sorted(arity)
    starts = list(itertools.accumulate((radix ** arity[p] for p in preds), initial=0))
    n_raw = starts.pop()
    # the weight of each argument position in an atom's number
    places = [tuple(radix ** e for e in reversed(range(arity[p]))) for p in preds]
    if not prune and n_raw > MAX_ATOMS:
        raise GroundingError(
            f"{n_raw} ground atoms without pruning exceed the limit of {MAX_ATOMS} atoms"
        )
    block = {p: (c, w) for p, c, w in zip(preds, starts, places)}

    def form(atom: Atom, slot: Dict[str, int], free: Sequence[str]):
        """The atom's number: a constant, (binding slot, weight) pairs, free weights."""
        c, place = block[atom.pred]
        bound_w, free_w = {}, dict.fromkeys(free, 0)
        for t, w in zip(atom.args, place):
            if isinstance(t, Const):
                c += w * code[t.name]
            elif t.name in slot:
                bound_w[slot[t.name]] = bound_w.get(slot[t.name], 0) + w
            else:
                free_w[t.name] += w
        return c, tuple(bound_w.items()), tuple(free_w.values())

    # the terms grouped by their derived atoms, each group {head: coefficient}:
    # key () holds the constant terms (b), an atom c the linear terms that
    # read it (column c of A), and a sorted tuple of atoms a longer monomial's
    groups: Dict[Any, Dict[int, Any]] = {}
    zero, one, add = s.zero, s.one, s.add
    adom_codes = [code[c] for c in adom]  # the values free variables take

    for rule in program.rules:
        for prod in rule.body:
            # the EDB atoms bind their variables by joining facts; the
            # variables no EDB atom binds range over the active domain
            slot: Dict[str, int] = {}
            steps = [
                _join_step(a, by_pred.get(a.pred, ()), slot, code)
                for a in prod.atoms if a.pred not in idb
            ]
            names = dict.fromkeys(rule.head.variables() + prod.variables())
            free = [v for v in names if v not in slot]
            forms = [form(a, slot, free) for a in (rule.head, *prod.atoms) if a.pred in idb]
            # per form, what each assignment of the free variables adds to its number
            assignments = list(itertools.product(adom_codes, repeat=len(free)))
            shifts = [[sum(map(operator.mul, fw, rest)) for rest in assignments] for *_, fw in forms]
            # a linear term's head and column are the binding's two bases plus
            # one pair of shifts, as plain ints
            pairs = list(zip(*shifts)) if len(forms) == 2 else None
            for bound, coeff in _join(steps, one, s.mul):
                if coeff == zero:
                    continue
                bases = []
                for c, weights, _ in forms:
                    for k, w in weights:
                        c += w * bound[k]
                    bases.append(c)
                if pairs is None:  # a constant term or a longer monomial
                    head, *atoms = [map(c.__add__, shift) for c, shift in zip(bases, shifts)]
                    keys = map(tuple, map(sorted, zip(*atoms))) if atoms else itertools.repeat(())
                    # whole heads and keys: 0 + h is h and () + key is key
                    bases, terms = (0, ()), zip(head, keys)
                else:
                    terms = pairs
                hc, cc = bases
                for hs, cs in terms:
                    h, key = hc + hs, cc + cs
                    group = groups.get(key)
                    # a first term is stored as it is, and a sum equal to O is
                    # dropped: add(O, v) == v on every carrier
                    if group is None:
                        groups[key] = {h: coeff}
                    elif h not in group:
                        group[h] = coeff
                    elif (v := add(group[h], coeff)) == zero:
                        del group[h]
                    else:
                        group[h] = v

    keep = _productive(groups) if prune else range(n_raw)
    remap = {old: new for new, old in enumerate(keep)}

    # keep is ascending, so each predicate's kept atoms are one run of it,
    # decoded one argument position at a time
    decoded: List[GroundAtom] = []
    for pred, c, place, end in zip(preds, starts, places, starts[1:] + [n_raw]):
        run = keep[bisect.bisect_left(keep, c):bisect.bisect_left(keep, end)]
        columns = [[gdom[(k - c) // w % radix] for k in run] for w in place]
        decoded += zip(itertools.repeat(pred), zip(*columns) if place else [()] * len(run))
    atoms = tuple(decoded)
    # a term whose derived atoms are all kept has a kept head, each (head,
    # group) is distinct and no value is zero, so the rows need no further check
    b = [zero] * len(keep)
    for h, v in groups.get((), {}).items():
        b[remap[h]] = v
    if linear:
        # each row's columns ascending, then each column's rows by transposing them
        a_rows: List[Dict[int, Any]] = [{} for _ in keep]
        for j, c in enumerate(keep):
            for h, v in groups.get(c, {}).items():
                a_rows[remap[h]][j] = v
        A = Matrix._from_rows(s, a_rows, _transpose(a_rows))
        return GroundedLinearSystem(s, atoms, A, tuple(b), n_raw)
    rows: List[List[Monomial]] = [[] if v is zero else [(v, ())] for v in b]
    for key, group in groups.items():
        cols = tuple(map(remap.get, key if type(key) is tuple else (key,)))
        if cols and None not in cols:  # not b's group, and every atom kept
            for h, v in group.items():
                rows[remap[h]].append((v, cols))
    monomials = tuple(tuple(sorted(row, key=lambda m: m[1])) for row in rows)
    return GroundedPolynomialSystem(s, atoms, monomials, n_raw)


def _join_step(atom: Atom, facts: Sequence, slot: Dict[str, int], code: Mapping[str, int]):
    """Index the facts that match ``atom`` by the variables bound before it.

    Fact arguments are constant codes; ``code`` gives the atom's constants
    theirs. ``slot`` maps each bound variable to its position in a binding;
    the atom's new variables are appended to it. Returns the binding
    positions of the key and ``{key: [(values of the new variables, fact
    value), ...]}``, which keeps only the facts that agree with the atom's
    constants and repeat a repeated new variable.
    """
    fixed, key_pos, key_slots, same, first = [], [], [], [], {}
    for p, t in enumerate(atom.args):
        if isinstance(t, Const):
            fixed.append((p, code[t.name]))
        elif t.name in slot:
            key_pos.append(p)
            key_slots.append(slot[t.name])
        elif t.name in first:
            same.append((p, first[t.name]))
        else:
            first[t.name] = p
    for name in first:
        slot[name] = len(slot)
    if not (fixed or key_pos or same):  # each fact's arguments are its new values
        return (), {(): facts}
    new_pos = tuple(first.values())
    index: Dict[tuple, List[Tuple[tuple, Any]]] = {}
    if fixed or same:
        facts = [
            (args, v) for args, v in facts
            if all(args[p] == c for p, c in fixed) and all(args[p] == args[q] for p, q in same)
        ]
    for args, v in facts:
        index.setdefault(tuple(map(args.__getitem__, key_pos)), []).append(
            (tuple(map(args.__getitem__, new_pos)), v)
        )
    return tuple(key_slots), index


def _join(steps, one, mul) -> Iterator[Tuple[tuple, Any]]:
    """Each binding that finds a fact for every step, with its coefficient.

    Depth first in body order, one pending iterator per step, so no list of
    partial bindings is built; the coefficient is the first fact value
    ``v1`` itself, then ``mul(v1, v2)`` and so on: one is the identity of mul
    on every carrier, so ``mul(one, v1)`` would equal ``v1``.
    """
    depth = len(steps)
    if not depth:
        yield (), one
        return

    def matches(k: int, bound: tuple):
        key_slots, index = steps[k]
        return iter(index.get(tuple(map(bound.__getitem__, key_slots)), ()))

    # level k: the binding and coefficient before step k, and its pending matches
    prefix, coeff, pending = [()] * depth, [one] * depth, [matches(0, ())] * depth
    k = 0
    while k >= 0:
        for new, v in pending[k]:
            bound, c = prefix[k] + new, mul(coeff[k], v) if k else v
            if k == depth - 1:
                yield bound, c
                continue
            k += 1
            prefix[k], coeff[k], pending[k] = bound, c, matches(k, bound)
            break
        else:
            k -= 1


def _productive(groups: Mapping[Any, Mapping[int, Any]]) -> List[int]:
    """Atoms that can reach a nonzero value, ascending, from ``ground``'s term groups.

    A head is productive once one of its terms has all its derived atoms
    productive. A constant term's head is at once, a linear term's once
    its column is (the group of that atom is read as it is), and a longer
    monomial's group counts down the distinct atoms it still waits on.
    """
    waiting: Dict[int, List[int]] = defaultdict(list)  # atom -> the monomial groups waiting on it
    missing: List[int] = []
    monomials = [key for key in groups if type(key) is tuple and key]
    for t, key in enumerate(monomials):
        need = set(key)
        for c in need:
            waiting[c].append(t)
        missing.append(len(need))
    productive: set = set()
    work = [groups.get((), {})]  # groups whose heads are productive
    while work:
        for h in work.pop():
            if h not in productive:
                productive.add(h)
                if h in groups:
                    work.append(groups[h])
                for t in waiting.get(h, ()):
                    missing[t] -= 1
                    if not missing[t]:
                        work.append(groups[monomials[t]])
    return sorted(productive)
