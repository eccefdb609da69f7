"""Naive fixpoint evaluation, matrix power sums and stability measurement.

One change-driven loop, ``_iterate``, serves every fixpoint: linear and
monomial systems, and matrix power sums. It updates one working vector in
place and records the run as a change log (the rows each step changed, with
their new values), so a run holds O(n + changes) values, not every state;
``IterationTrace.states`` rebuilds the states from the log on demand.
``column_run(A, j, cap)`` is the one run of x <- Ax (+) e_j, whose state m+1
is column j of S(m); the matrix power sum, the matrix index and
``semifix oracle`` all read their columns from it.

Two step-counting conventions coexist and differ by exactly one:

* the trace convention counts applications of the update map and reports the
  smallest q with x(q) == x(q+1) starting from the all-zero vector;
* the power-sum convention reports the smallest p with S(p) b == S(p+1) b
  where S(k) = I (+) A (+) ... (+) A^k.

Since x(q) = S(q-1) b for q >= 1, the power-sum index is the trace index minus
one (both are 0 for the all-zero seed). Bound comparisons use the power-sum
convention; traces expose both.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Any, Collection, Iterable, List, Optional, Sequence, Tuple

from .errors import IndexOutOfRange, InvalidParameter, MalformedElement, MalformedLiteral, ParseError
from .frontend import (
    MAX_ATOMS,
    GroundAtom,
    GroundedLinearSystem,
    GroundedPolynomialSystem,
    GroundedSystem,
)
from .matrix import Matrix
from .semirings import (
    INF,
    MAX_CARRIER_SIZE,
    Semiring,
    TropBagSemiring,
    TropSemiring,
    _integral,
    semiring_from_id,
)

DEFAULT_EVAL_CAP = 1_000_000


@dataclass(frozen=True)
class IterationTrace:
    """A naive evaluation as a change log, with convergence data.

    ``start`` is x(0), the zero vector; ``changes[q]`` holds the (row, value)
    pairs where x(q+1) differs from x(q); ``last`` is the final state. A
    converged run ends with an empty step, since x(q+1) == x(q). The log holds
    O(n + changes) values; ``states`` costs O(steps * n) and is built only when
    read.
    """

    start: Tuple[Any, ...]
    changes: Tuple[Tuple[Tuple[int, Any], ...], ...]
    last: Tuple[Any, ...]
    stability_index: Optional[int]  # smallest q with x(q) == x(q+1)
    capped: bool

    @cached_property
    def states(self) -> Tuple[Tuple[Any, ...], ...]:
        """x(0), x(1), ..., rebuilt from the log on first use and cached."""
        x = list(self.start)
        states = [self.start]
        for step in self.changes:
            for i, v in step:
                x[i] = v
            states.append(tuple(x))
        return tuple(states)

    @property
    def wall_steps(self) -> int:
        return len(self.changes)

    @property
    def powersum_index(self) -> Optional[int]:
        """The convergence index in the power-sum convention (see module doc)."""
        if self.stability_index is None:
            return None
        return max(self.stability_index - 1, 0)

    @property
    def fixpoint(self) -> Optional[Tuple[Any, ...]]:
        return None if self.capped else self.last


@lru_cache(maxsize=None)
def _tables(s: Semiring):
    """The add and mul tables of a small finite carrier, or None.

    ``add[a][b]`` is ``s.add(a, b)`` for every pair of carrier elements, and
    ``mul[a][b]`` likewise; a result equal to zero is stored as ``s.zero``
    itself, so the rows' ``is zero`` test sees it. Only a carrier with
    |C|^2 <= MAX_CARRIER_SIZE gets tables, built once from its own add and mul.
    """
    carrier = s.elements()
    if carrier is None or len(carrier) ** 2 > MAX_CARRIER_SIZE:
        return None
    zero = s.zero

    def table(op):
        return {a: {b: zero if (v := op(a, b)) == zero else v for b in carrier} for a in carrier}

    return table(s.add), table(s.mul)


def _readers(n: int, rows: Iterable[Iterable[int]]) -> List[List[int]]:
    """The rows that read each column, each reading row once; ``rows[i]`` holds
    the columns row i reads, no column twice."""
    readers: List[List[int]] = [[] for _ in range(n)]
    for i, cols in enumerate(rows):
        for c in cols:
            readers[c].append(i)
    return readers


def _kernel(s: Semiring) -> str:
    """The name of the function that runs a linear step on ``s``; no other code picks one.

    Every kernel skips each x[j] and b[i] that is zero, which is exact because
    zero annihilates under mul and is the identity of add. A carrier that
    declares ``idempotent_add`` and ``distributes`` pushes (``_pushes``);
    every other carrier pulls its rows.

    * ``"int_push"`` (``trop``): min-plus on ints scaled by D, the LCM of the
      denominators of A and b (``_common_denominator``); each finite entry is
      scaled once per kernel (again for a b with new denominators), and
      ``_unscaled`` divides the logged values by D.
    * ``"table_row"`` (a pulling carrier with ``_tables``): add and mul are
      read from the tables; a row that meets a value outside them runs ``row``.
    * ``"bag_row"`` (``trop_p``, and ``trop_p_fin`` without tables): a row
      gathers the entry sums of every product it needs (the pairs ``limits``
      allows, saturated at the cap) and b[i]'s entries, sorts them once and
      keeps the p+1 smallest. That is exact: keeping the p+1 smallest commutes
      with multiset union, and saturation is monotone, so it commutes with the
      truncation that mul applies before it.
    * ``"push"`` (the other pushing carriers) and ``"row"`` (the rest; exact
      on every carrier): the semiring's add and mul, looked up when the
      function is made, so wrappers set on the instance (the benchmark's op
      counters) see every call; on ``trop`` and ``trop_p`` they see no call.
    """
    if s.idempotent_add and s.distributes:
        return "int_push" if isinstance(s, TropSemiring) else "push"
    if _tables(s) is not None:
        return "table_row"
    if isinstance(s, TropBagSemiring):
        return "bag_row"
    return "row"


def _common_denominator(values) -> int:
    """The LCM D of the denominators of the finite ``values``, so each D * v is an int."""
    return math.lcm(*{v.denominator for v in values if type(v) is not int and v is not INF})


def _linear_rows(A: Matrix):
    """The rows that read each column of x <- Ax (+) b, and ``rows_for(b)``.

    ``rows_for(b)`` returns the function ``_kernel`` names for x <- Ax (+) b,
    and the scale D of the values it works on. A row folds
    ``add(acc, mul(A[i][j], x[j]))`` over its entries, as ``Matrix.matvec``
    does, and ends with ``add(acc, b[i])``. The readers of column j are the
    rows of ``A.columns()[j]``, each once. A push kernel gets no readers and
    a push step (``_pushes``).
    """
    s = A.semiring
    zero = s.zero
    kernel = _kernel(s)
    if kernel in ("push", "int_push"):
        return None, _pushes(s, A.columns(), kernel)
    # tuples, which a chain step unpacks faster than dicts
    readers = list(map(tuple, A.columns()))
    rows = [tuple(A.row(i).items()) for i in range(A.n)]
    tables = _tables(s) if kernel == "table_row" else None

    def rows_for(b: Sequence):
        add, mul = s.add, s.mul

        def row(i, x):
            acc = zero
            for j, v in rows[i]:
                xj = x[j]
                if xj is not zero:
                    acc = add(acc, mul(v, xj))
            bi = b[i]
            return acc if bi is zero else add(acc, bi)

        if tables is None:
            return row, 1
        add_t, mul_t = tables

        def table_row(i, x):
            try:
                acc = zero
                for j, v in rows[i]:
                    xj = x[j]
                    if xj is not zero:
                        acc = add_t[acc][mul_t[v][xj]]
                bi = b[i]
                return acc if bi is zero else add_t[acc][bi]
            except KeyError:
                return row(i, x)

        return table_row, 1

    if kernel == "bag_row":
        limits, cap = s.limits, s.cap
        width = len(limits)

        def bags(values):
            # a value of another shape takes the object row, whose add and mul reject it
            return all(type(v) is tuple and len(v) == width for v in values)

        if not bags(v for r in rows for _, v in r):
            return readers, rows_for
        # each distinct coefficient as its finite entries, each with the
        # number of leading entries of x[j] that mul sums it with
        finite = {
            v: tuple([(u, k) for u, k in zip(v, limits) if u is not INF])
            for v in {v for r in rows for _, v in r}
        }
        pair_rows = [tuple([(j, finite[v]) for j, v in r]) for r in rows]

        def bag_rows_for(b: Sequence):
            if not bags(b):
                return rows_for(b)
            b_entries = [[e for e in bi if e is not INF] for bi in b]

            def bag_row(i, x):
                sums = []
                for j, terms in pair_rows[i]:
                    xj = x[j]
                    if xj is not zero:
                        for u, k in terms:
                            for e in xj[:k]:
                                if e is INF:
                                    break
                                sums.append(u + e)
                if cap is not None:
                    sums = [e if e < cap else cap for e in sums]
                sums += b_entries[i]
                sums.sort()
                return (*sums[:width], *zero[len(sums):])

            return bag_row, 1

        return readers, bag_rows_for
    return readers, rows_for


def _pushes(s: Semiring, cols: List[dict], kernel: str):
    """``push_for(b)``: the push step of x <- Ax (+) b on ``kernel``, and its scale D.

    ``cols`` is ``A.columns()``, which the kernel reads and never changes.

    ``push(step, x)`` takes the (column, value) pairs that changed in the last
    step, already in x, and folds each entry A[i][c] of those columns into
    row i: ``new[i] = add(new.get(i, x[i]), mul(A[i][c], x[c]))``. It returns
    the rows that fold changes, in the order of their first change; b is
    column n, whose value one changes first. That is exact when add is
    idempotent and mul distributes: the iterates rise in the natural order,
    so x(q+1) = x(q) (+) f(x(q)), and each term of a column that did not
    change is already in x(q).
    """
    zero = s.zero
    a_scale = _common_denominator(v for c in cols for v in c.values()) if kernel == "int_push" else None

    def scaled(columns, D):  # min and + commute with scaling by D > 0
        if D == 1:
            return columns
        return [{i: v.numerator * (D // v.denominator) for i, v in c.items()} for c in columns]

    a_cols = scaled(cols, a_scale or 1)

    def push_for(b: Sequence):
        add, mul = s.add, s.mul
        columns = cols + [{i: v for i, v in enumerate(b) if v is not zero}]

        def push(step, x):
            new = {}
            get = new.get
            for c, xc in step:
                for i, v in columns[c].items():
                    if (a := add(acc := get(i, x[i]), mul(v, xc))) != acc:
                        new[i] = a
            return new

        if a_scale is None:
            return push, 1
        D = math.lcm(a_scale, _common_denominator(b))
        int_columns = (a_cols if D == a_scale else scaled(cols, D)) + scaled(columns[-1:], D)

        def int_push(step, x):
            new = {}
            get = new.get
            for c, xc in step:
                for i, v in int_columns[c].items():
                    v += xc
                    acc = get(i, x[i])
                    if acc is zero or v < acc:
                        new[i] = v
            return new

        return int_push, D

    return push_for


def _polynomial_rows(psys: GroundedPolynomialSystem):
    """The rows that read each column of a monomial system, and the row function."""
    s = psys.semiring
    add, mul, zero = s.add, s.mul, s.zero
    monomials = psys.monomials

    def row(i, x):
        acc = zero
        for coeff, cols in monomials[i]:
            term = coeff
            for c in cols:
                term = mul(term, x[c])
            acc = add(acc, term)
        return acc

    return _readers(psys.n, ({c for _, cols in r for c in cols} for r in monomials)), row


def _default_cap(cap: Optional[int]) -> int:
    """``cap`` checked to be >= 1, or ``DEFAULT_EVAL_CAP`` on every carrier when it is None."""
    if cap is not None and cap < 1:
        raise InvalidParameter("cap must be >= 1")
    return DEFAULT_EVAL_CAP if cap is None else cap


def _iterate(semiring, n, readers, row, cap, dirty: Collection[int]) -> IterationTrace:
    """Naive iteration that recomputes only the rows whose inputs changed.

    With ``readers`` None, ``row`` is a push (``_pushes``): each step passes it
    the changes of the step before, first column n (b) changing to one, and
    logs the changed rows it returns; ``dirty`` is not read.

    Otherwise step 1 computes the rows in ``dirty``: every row that can leave
    zero at x = 0 (a linear row only if its b entry is not zero, since every
    row kernel skips zero inputs and returns ``zero`` itself). After that row
    i is recomputed only when a column it reads changed in the previous step
    (``readers[c]`` holds each row that reads column c once). A row whose
    columns all equal their previous values would recompute the value it
    already holds, because ``==`` is a congruence for add and mul; neither
    idempotence nor distributivity is needed, so every state and index equals
    that of a full recompute. The step's changes are written into the one
    working vector only after every dirty row has read the previous state. A
    step with one change pays O(1) bookkeeping: the changed column's readers
    are the next dirty rows. While that column has one reader, the steps form
    a chain, run in an inner loop that calls ``row`` directly and builds no
    step before it is logged.
    """
    cap = _default_cap(cap)
    start = (semiring.zero,) * n
    x = list(start)
    log = []
    append = log.append
    q = 0
    push = readers is None
    if push:
        dirty = ((n, semiring.one),)
    while q < cap:
        if push:
            step = tuple(row(dirty, x).items())
        else:
            step = tuple([(i, v) for i in dirty if (v := row(i, x)) != x[i]])
        append(step)
        if not step:
            return IterationTrace(start, tuple(log), tuple(x), q, False)
        q += 1
        for i, v in step:
            x[i] = v
        if push or len(step) > 1:
            dirty = step if push else {r for i, _ in step for r in readers[i]}
            continue
        dirty = readers[i]
        while len(dirty) == 1 and q < cap:
            (i,) = dirty
            v = row(i, x)
            if v == x[i]:
                append(())
                return IterationTrace(start, tuple(log), tuple(x), q, False)
            append(((i, v),))
            x[i] = v
            dirty = readers[i]
            q += 1
    return IterationTrace(start, tuple(log), tuple(x), None, True)


def _unscaled(trace: IterationTrace, D: int, zero) -> IterationTrace:
    """``trace`` of a run on values scaled by D, each logged value divided by D once."""
    if D == 1:
        return trace
    x = list(trace.start)
    changes = []
    for step in trace.changes:
        step = tuple([(i, v if v is zero else _integral(Fraction(v, D))) for i, v in step])
        for i, v in step:
            x[i] = v
        changes.append(step)
    return IterationTrace(trace.start, tuple(changes), tuple(x), trace.stability_index, trace.capped)


def naive_eval_linear(sys: GroundedLinearSystem, cap: Optional[int] = None) -> IterationTrace:
    """Iterate x <- Ax (+) b from the zero vector until adjacent states repeat.

    Stops at ``cap`` applications without convergence and flags the trace as
    capped instead of raising.
    """
    s = sys.semiring
    readers, rows_for = _linear_rows(sys.A)
    row, D = rows_for(sys.b)
    # at x = 0 a row with a zero b entry returns zero itself; a push reads b itself
    first = readers and [i for i, v in enumerate(sys.b) if v is not s.zero]
    return _unscaled(_iterate(s, sys.n, readers, row, cap, first), D, s.zero)


def naive_eval_general(psys: GroundedPolynomialSystem, cap: Optional[int] = None) -> IterationTrace:
    """Same contract as naive_eval_linear, for monomial systems."""
    readers, row = _polynomial_rows(psys)
    return _iterate(psys.semiring, psys.n, readers, row, cap, range(psys.n))


def _scaled_column_run(A: Matrix, j: int, cap: int, kernel) -> Tuple[IterationTrace, int]:
    """``column_run`` on the kernel's own values, and their scale D."""
    s, n = A.semiring, A.n
    readers, rows_for = kernel
    row, D = rows_for([s.one if i == j else s.zero for i in range(n)])
    return _iterate(s, n, readers, row, cap, (j,)), D


def column_run(A: Matrix, j: int, cap: int) -> IterationTrace:
    """The run of x <- Ax (+) e_j: its state m+1 is column j of S(m)."""
    return _unscaled(*_scaled_column_run(A, j, cap, _linear_rows(A)), A.semiring.zero)


def matrix_power_sum(A: Matrix, k: int) -> Matrix:
    """S(k) by the recurrence S(0) = I, S(m+1) = I (+) A S(m), column by column.

    This equals the literal sum I (+) A (+) ... (+) A^k whenever multiplication
    distributes over addition; the capped structure does not distribute, so
    there the recurrence form is the defined semantics.
    """
    if k < 0:
        raise InvalidParameter("k must be >= 0")
    # the last state of a run is state k + 1, or the fixpoint reached before it
    kernel, zero = _linear_rows(A), A.semiring.zero
    runs = [_unscaled(*_scaled_column_run(A, j, k + 1, kernel), zero) for j in range(A.n)]
    entries = [(i, j, v) for j, run in enumerate(runs) for i, v in enumerate(run.last)]
    return Matrix(A.semiring, A.n, entries)


def matrix_stability_index(A: Matrix, cap: Optional[int] = None) -> Optional[int]:
    """Smallest k with S(k) == S(k+1), or None if not reached within cap.

    A repeated column stays fixed, so k is the largest power-sum index of the
    column runs; S(cap+1) is trace state cap+2, which sets the run cap.
    """
    cap = _default_cap(cap)
    k, kernel = 0, _linear_rows(A)
    for j in range(A.n):
        run, _ = _scaled_column_run(A, j, cap + 2, kernel)  # reads no value
        if run.capped:
            return None
        k = max(k, run.powersum_index)
    return k


# ---------------------------------------------------------------------------
# Matrix file format
# ---------------------------------------------------------------------------
#
#   # optional comment lines (generators embed their parameters here)
#   # atom <index> <label>        optional atom labels
#   semiring <id>
#   n <count>                     0 <= count <= MAX_ATOMS
#   A <i> <j> <literal>           nonzero matrix entries, 0-based
#   b <i> <literal>               nonzero vector entries

def save_system(sys: GroundedLinearSystem, header: Sequence[str] = ()) -> str:
    lines: List[str] = [f"# {h}" for h in header]
    lines.append(f"semiring {sys.semiring.id}")
    lines.append(f"n {sys.n}")
    for i, label in enumerate(sys.atom_labels()):
        lines.append(f"# atom {i} {label}")
    s = sys.semiring
    for i, j, v in sys.A.entries():
        lines.append(f"A {i} {j} {s.show(v)}")
    for i, v in enumerate(sys.b):
        if v != s.zero:
            lines.append(f"b {i} {s.show(v)}")
    return "\n".join(lines) + "\n"


# fields after the key on each kind of line; the last field keeps its spaces
_LINE_FIELDS = {"semiring": 1, "n": 1, "A": 3, "b": 2}

# `A i j literal`, `b i literal` and `# atom i label` lines with space or tab
# blanks, read in one match; groups: A's row (None on a b line), column or b
# index, literal, label index, label. An index has 1-7 ASCII digits (MAX_ATOMS
# is 10**6) and a literal is printable ASCII. Every other line, and an entry
# out of range or before the headers, takes load_system's split path, which
# raises its errors; a bad literal raises from the cache both paths share.
_DATA_LINE = re.compile(
    r"[ \t]*(?:A[ \t]+(\d{1,7})[ \t]+|b[ \t]+)(\d{1,7})[ \t]+([!-~](?:[ \t!-~]*[!-~])?)[ \t]*"
    r"|[ \t]*#[ \t]*atom[ \t]+0*(\d{1,7})[ \t]+([^ \t](?:.*[^ \t])?)[ \t]*",
    re.ASCII,
)


def _parse_int(text: str, what: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} {text!r} is not an integer", lineno, 1) from None


def load_system(text: str) -> GroundedLinearSystem:
    semiring: Optional[Semiring] = None
    n: Optional[int] = None
    size = 0  # n once both headers are read; until then no entry is in range
    entries: List[Tuple[int, int, Any]] = []
    b_entries: List[Tuple[int, Any]] = []
    labels: dict = {}
    values: dict = {}  # literal text -> element, so each distinct text is parsed once

    def element(literal: str, lineno: int):
        if literal not in values:
            try:
                values[literal] = semiring.parse(literal)
            except MalformedElement as exc:
                raise MalformedLiteral(str(exc), lineno, 1) from None
        return values[literal]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _DATA_LINE.fullmatch(raw)
        if m is not None:
            i, j, literal, atom, label = m.groups()
            if label is not None:
                labels[int(atom)] = label
                continue
            j = int(j)
            if i is None and j < size:
                b_entries.append((j, element(literal, lineno)))
                continue
            if i is not None and int(i) < size and j < size:
                entries.append((int(i), j, element(literal, lineno)))
                continue
        line = raw.strip()
        if not line or line.startswith("#"):
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
            value = element(fields[-1], lineno)
            if key == "A":
                entries.append((idx[0], idx[1], value))
            else:
                b_entries.append((idx[0], value))
        if semiring is not None and n is not None:
            size = n
    if semiring is None or n is None:
        raise ParseError("missing semiring or n header", 1, 1)
    b = [semiring.zero] * n
    for i, v in b_entries:
        b[i] = semiring.add(b[i], v)
    atoms = [_parse_label(labels[i]) if i in labels else (f"x{i}", ()) for i in range(n)]
    return GroundedLinearSystem.from_matrix(semiring, Matrix(semiring, n, entries), b, atoms)


def _parse_label(label: str) -> GroundAtom:
    if label.endswith(")") and "(" in label:
        pred, inner = label[:-1].split("(", 1)
        return pred, tuple(inner.split(",")) if inner else ()
    return (label, ())


def trace_csv(sys: GroundedSystem, trace: IterationTrace) -> str:
    """Full trace as CSV rows of step, atom, value, replayed from the change log."""
    show = sys.semiring.show
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["step", "atom", "value"])
    labels = sys.atom_labels()
    shown = [show(v) for v in trace.start]
    for step, changes in enumerate(((),) + trace.changes):
        for i, v in changes:
            shown[i] = show(v)
        w.writerows([step, label, text] for label, text in zip(labels, shown))
    return out.getvalue()
