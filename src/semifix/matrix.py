"""Square matrices over a semiring, stored as sparse rows of nonzero entries."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

from .errors import InvalidParameter
from .semirings import Semiring


class Matrix:
    """Immutable n x n matrix over a semiring.

    Only nonzero entries are stored; an absent entry means the semiring zero.
    The constructor, which builds every matrix but the grounder's, checks
    each index, adds duplicate coordinates left to right and drops a sum
    equal to zero. ``columns()`` is the same entries by column: the grounder
    hands it over with the rows, and any other matrix transposes its rows on
    first use and keeps the result.
    """

    __slots__ = ("semiring", "n", "_rows", "_cols")

    def __init__(self, semiring: Semiring, n: int, entries: Iterable[Tuple[int, int, Any]] = ()):
        if n < 0:
            raise InvalidParameter("matrix dimension must be >= 0")
        self.semiring = semiring
        self.n = n
        rows: List[Dict[int, Any]] = [{} for _ in range(n)]
        zero = semiring.zero
        for i, j, v in entries:
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidParameter(f"entry ({i},{j}) outside a {n}x{n} matrix")
            row = rows[i]
            if j in row:
                v = semiring.add(row[j], v)
            if v == zero:
                row.pop(j, None)
            else:
                row[j] = v
        self._rows, self._cols = rows, None

    @classmethod
    def _from_rows(
        cls, semiring: Semiring, rows: List[Dict[int, Any]], cols: List[Dict[int, Any]]
    ) -> "Matrix":
        """A matrix over ``rows`` and their transpose ``cols`` as given,
        unchecked: the caller built each row's columns in range, each once,
        with no value equal to zero, and each column's rows in ascending order."""
        m = cls.__new__(cls)
        m.semiring, m.n, m._rows, m._cols = semiring, len(rows), rows, cols
        return m

    @classmethod
    def identity(cls, semiring: Semiring, n: int) -> "Matrix":
        return cls(semiring, n, ((i, i, semiring.one) for i in range(n)))

    def get(self, i: int, j: int):
        return self._rows[i].get(j, self.semiring.zero)

    def row(self, i: int) -> Dict[int, Any]:
        return self._rows[i]

    def columns(self) -> List[Dict[int, Any]]:
        """Column j as ``{i: A[i][j]}`` over its nonzero entries, rows ascending."""
        if self._cols is None:
            self._cols = _transpose(self._rows)
        return self._cols

    def entries(self) -> Iterator[Tuple[int, int, Any]]:
        """Nonzero entries in row-major sorted order."""
        for i, row in enumerate(self._rows):
            for j in sorted(row):
                yield i, j, row[j]

    def matvec(self, x: Sequence) -> tuple:
        """A x, each row folded in its stored order. An input that is the
        zero object itself is skipped, as zero annihilates under mul and is the
        identity of add; a zero equal to it but not the same object is folded."""
        s = self.semiring
        add, mul, zero = s.add, s.mul, s.zero
        out = []
        for row in self._rows:
            acc = zero
            for j, v in row.items():
                xj = x[j]
                if xj is not zero:
                    acc = add(acc, mul(v, xj))
            out.append(acc)
        return tuple(out)

    def matmul(self, other: "Matrix") -> "Matrix":
        """Matrix product, kept only as the reference the tests check columns against."""
        if self.n != other.n:
            raise InvalidParameter("dimension mismatch")
        mul = self.semiring.mul
        return Matrix(self.semiring, self.n, (
            (i, j, mul(a, b)) for i, row in enumerate(self._rows)
            for k, a in row.items() for j, b in other._rows[k].items()
        ))

    def add(self, other: "Matrix") -> "Matrix":
        """Entrywise sum, kept only as the reference the tests check columns against."""
        if self.n != other.n:
            raise InvalidParameter("dimension mismatch")
        return Matrix(self.semiring, self.n, (
            (i, j, v) for i, rows in enumerate(zip(self._rows, other._rows))
            for row in rows for j, v in row.items()
        ))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.semiring.id == other.semiring.id
            and self.n == other.n
            and self._rows == other._rows
        )

    __hash__ = None

    def __repr__(self):
        nnz = sum(len(r) for r in self._rows)
        return f"<{self.n}x{self.n} matrix over {self.semiring.id}, {nnz} nonzero>"


def _transpose(rows: List[Dict[int, Any]]) -> List[Dict[int, Any]]:
    """Column j of ``rows`` as ``{i: rows[i][j]}``, rows ascending."""
    cols: List[Dict[int, Any]] = [{} for _ in rows]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols
