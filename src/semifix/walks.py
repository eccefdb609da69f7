"""Brute-force walk sums, the oracle for matrix powers and power sums.

``walk_sums`` enumerates the walks of the label digraph of A (the directed
graph whose edge u -> v carries the entry A[u, v]) once and folds their label
products by hop count: the exact sums are the entries of the matrix powers,
and their running sum over hop counts gives the power sums.
``walk_sum_exact`` and ``walk_sum_upto`` are views of that one fold.

The budget is the one check on a query's size: it counts the walks the
enumeration visits, and the walk past it raises EnumerationBudgetExceeded.
Nothing is estimated up front, so a query over the budget spends the budget
before it is refused, and its memory follows the budget, not h.
"""

from __future__ import annotations

from functools import reduce
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from .errors import EnumerationBudgetExceeded, InvalidParameter
from .matrix import Matrix

DEFAULT_WALK_BUDGET = 2_000_000


def check_endpoints(A: Matrix, i: int, j: int):
    if not (0 <= i < A.n and 0 <= j < A.n):
        raise InvalidParameter(f"endpoints ({i},{j}) outside a {A.n}-vertex graph")


def _walks(A: Matrix, sources: Iterable[int], h: int, budget: int):
    """Every walk of at most h hops from each source, as (source, hops, end, product).

    Depth-first preorder with successors in ascending order, so callers fold
    the products in a fixed order; zero-labeled edges are not stored, so no
    walk takes one. Every visited walk counts against one budget shared by all
    sources. The explicit stack leaves h unbounded by the recursion limit.
    """
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


def walk_sums(
    A: Matrix, sources: Sequence[int], h: int, budget: int = DEFAULT_WALK_BUDGET
) -> List[Dict[Tuple[int, int], Any]]:
    """Exact walk sums by hop count: tables[g][(i, v)] sums the g-hop walks from i to v.

    One enumeration from the given sources up to h hops, each cell folded in
    walk preorder. The tables end at the deepest hop count a walk reaches, so
    their memory follows the walks, not h; a cell no walk reaches, like a
    table past the end, is absent and stands for zero.
    """
    if h < 0:
        raise InvalidParameter("hop count must be >= 0")
    s = A.semiring
    tables: List[Dict[Tuple[int, int], Any]] = []
    for i, hops, v, prod in _walks(A, sources, h, budget):
        if hops == len(tables):  # preorder reaches hop g + 1 only after hop g
            tables.append({})
        table = tables[hops]
        table[i, v] = s.add(table.get((i, v), s.zero), prod)
    return tables


def walk_sum_exact(A: Matrix, i: int, j: int, h: int, budget: int = DEFAULT_WALK_BUDGET):
    """Sum over all exactly-h-hop walks from i to j of their label products.

    Equals the (i, j) entry of A^h; walks through zero-labeled edges are
    skipped since zero annihilates the product.
    """
    check_endpoints(A, i, j)
    tables = walk_sums(A, (i,), h, budget)
    return tables[h].get((i, j), A.semiring.zero) if h < len(tables) else A.semiring.zero


def walk_sum_upto(A: Matrix, i: int, j: int, h: int, budget: int = DEFAULT_WALK_BUDGET):
    """Sum over all walks from i to j with at most h hops; equals S(h)[i, j]."""
    check_endpoints(A, i, j)
    s = A.semiring
    return reduce(s.add, (t.get((i, j), s.zero) for t in walk_sums(A, (i,), h, budget)), s.zero)
