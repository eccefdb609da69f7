"""Brute-force walk sums, cycle decomposition and Eulerian checks.

These are the verification tools. ``walk_sums`` enumerates the walks of the
label digraph of A (the directed graph whose edge u -> v carries the entry
A[u, v]) once and folds their label products by hop count: the exact sums are
the entries of the matrix powers, and their running sum over hop counts gives
the power sums. ``walk_sum_exact``, ``walk_sum_upto`` and ``walk_sum_matrices``
are views of that one fold. Long walks are factored into a simple path plus
simple cycles with multiplicities. Because multiplication commutes, the label
product of a walk equals the product of its factors, which is what makes the
decomposition useful.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import reduce
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    EnumerationBudgetExceeded,
    InvalidParameter,
    InvalidWalk,
    NotReassemblable,
)
from .matrix import Matrix

DEFAULT_WALK_BUDGET = 2_000_000

Edge = Tuple[int, int]


@dataclass(frozen=True)
class Walk:
    """A walk as its vertex sequence; a single vertex is the empty walk."""

    vertices: Tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise InvalidParameter("a walk needs at least a start vertex")

    @classmethod
    def from_edges(cls, edges: Sequence[Edge], start: Optional[int] = None) -> "Walk":
        if not edges:
            if start is None:
                raise InvalidParameter("an empty walk needs an explicit start vertex")
            return cls((start,))
        verts = [edges[0][0]]
        for u, v in edges:
            if u != verts[-1]:
                raise InvalidWalk(f"edge ({u},{v}) does not continue the walk at {verts[-1]}")
            verts.append(v)
        return cls(tuple(verts))

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    @property
    def hops(self) -> int:
        return len(self.vertices) - 1

    def edges(self) -> Tuple[Edge, ...]:
        return tuple(zip(self.vertices, self.vertices[1:]))

    def __str__(self):
        return "->".join(str(v) for v in self.vertices)


def walk_label_product(A: Matrix, walk: Walk):
    """The product of the edge labels along the walk (one for the empty walk)."""
    s = A.semiring
    acc = s.one
    for u, v in walk.edges():
        acc = s.mul(acc, A.get(u, v))
    return acc


# ---------------------------------------------------------------------------
# Walk sums
# ---------------------------------------------------------------------------

def check_endpoints(A: Matrix, i: int, j: int):
    if not (0 <= i < A.n and 0 <= j < A.n):
        raise InvalidParameter(f"endpoints ({i},{j}) outside a {A.n}-vertex graph")


def _branching(A: Matrix) -> int:
    # enumeration skips zero labels, so it branches at most max-out-degree ways per hop
    return max((len(A.row(i)) for i in range(A.n)), default=0)


def _guard_budget(A: Matrix, h: int, budget: int, sources: int):
    # sources: how many start vertices the enumeration walks from
    if h < 0:
        raise InvalidParameter("hop count must be >= 0")
    deg = _branching(A)
    if sources and sources * max(deg, 1) ** h > budget:
        walks = f"{deg}^{h}" if sources == 1 else f"{sources} x {deg}^{h}"
        raise EnumerationBudgetExceeded(f"up to {walks} walks exceed the budget of {budget}")


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
                raise EnumerationBudgetExceeded(f"walk enumeration exceeded {budget}")
            yield i, hops, v, prod
            if hops < h:
                row = A.row(v)
                stack.extend((hops + 1, w, s.mul(prod, row[w])) for w in sorted(row, reverse=True))


def walk_sums(
    A: Matrix, sources: Sequence[int], h: int, budget: int = DEFAULT_WALK_BUDGET
) -> List[Dict[Tuple[int, int], Any]]:
    """Exact walk sums by hop count: tables[g][(i, v)] sums the g-hop walks from i to v.

    One enumeration from the given sources up to h hops, each cell folded in
    walk preorder; a cell no walk reaches is absent and stands for zero.
    """
    _guard_budget(A, h, budget, len(sources))
    s = A.semiring
    tables: List[Dict[Tuple[int, int], Any]] = [dict() for _ in range(h + 1)]
    for i, hops, v, prod in _walks(A, sources, h, budget):
        table = tables[hops]
        table[i, v] = s.add(table.get((i, v), s.zero), prod)
    return tables


def walk_sum_exact(A: Matrix, i: int, j: int, h: int, budget: int = DEFAULT_WALK_BUDGET):
    """Sum over all exactly-h-hop walks from i to j of their label products.

    Equals the (i, j) entry of A^h; walks through zero-labeled edges are
    skipped since zero annihilates the product.
    """
    check_endpoints(A, i, j)
    return walk_sums(A, (i,), h, budget)[h].get((i, j), A.semiring.zero)


def walk_sum_upto(A: Matrix, i: int, j: int, h: int, budget: int = DEFAULT_WALK_BUDGET):
    """Sum over all walks from i to j with at most h hops; equals S(h)[i, j]."""
    check_endpoints(A, i, j)
    s = A.semiring
    return reduce(s.add, (t.get((i, j), s.zero) for t in walk_sums(A, (i,), h, budget)), s.zero)


def walk_sum_matrices(A: Matrix, max_h: int, budget: int = DEFAULT_WALK_BUDGET) -> List[Matrix]:
    """All exact walk sums at once: result[h][i, j] == walk_sum_exact(A, i, j, h)."""
    tables = walk_sums(A, range(A.n), max_h, budget)
    return [Matrix(A.semiring, A.n, ((i, j, v) for (i, j), v in t.items())) for t in tables]


# ---------------------------------------------------------------------------
# Eulerian conditions
# ---------------------------------------------------------------------------

def _degrees(edges: Counter) -> Tuple[Counter, Counter]:
    indeg: Counter = Counter()
    outdeg: Counter = Counter()
    for (u, v), m in edges.items():
        outdeg[u] += m
        indeg[v] += m
    return indeg, outdeg


def _weak_components(edges: Counter) -> List[frozenset]:
    adj = defaultdict(set)
    verts = set()
    for (u, v) in edges:
        adj[u].add(v)
        adj[v].add(u)
        verts.update((u, v))
    comps = []
    remaining = set(verts)
    while remaining:
        root = remaining.pop()
        comp = {root}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        remaining -= comp
        comps.append(frozenset(comp))
    return comps


def eulerian_walk_check(edges: Iterable[Edge], i: int, j: int) -> bool:
    """Whether the edge multiset admits a walk from i to j using every copy.

    For i != j: i needs one extra out-edge, j one extra in-edge, every other
    vertex balanced, and all touched vertices weakly connected. For i == j:
    everything balanced, i touched, one weak component.
    """
    bag = Counter(edges)
    indeg, outdeg = _degrees(bag)
    comps = _weak_components(bag)
    if len(comps) > 1:
        return False
    verts = set(indeg) | set(outdeg)
    if i != j:
        if outdeg[i] - indeg[i] != 1 or indeg[j] - outdeg[j] != 1:
            return False
        return all(indeg[v] == outdeg[v] for v in verts - {i, j})
    if indeg[i] == 0:
        return False
    return all(indeg[v] == outdeg[v] for v in verts)


def _hierholzer(edges: Counter, start: int, end: int) -> Walk:
    # stack-based Eulerian walk construction; assumes the degree and
    # connectivity conditions already hold
    total = sum(edges.values())
    adj: Dict[int, List[int]] = defaultdict(list)
    for (u, v), m in sorted(edges.items()):
        adj[u].extend([v] * m)
    for u in adj:
        adj[u].sort(reverse=True)  # pop from the end visits small vertices first
    stack = [start]
    out: List[int] = []
    while stack:
        v = stack[-1]
        if adj[v]:
            stack.append(adj[v].pop())
        else:
            out.append(stack.pop())
    walk = tuple(reversed(out))
    if len(walk) != total + 1 or walk[-1] != end:
        raise NotReassemblable("edge multiset does not admit a walk between the endpoints")
    return Walk(walk)


# ---------------------------------------------------------------------------
# Cycle decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleDecomposition:
    """A walk factored into a simple path plus simple cycles with multiplicities."""

    start: int
    end: int
    path: Walk
    cycles: Tuple[Tuple[Walk, int], ...]

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)

    def edge_multiset(self) -> Counter:
        bag = Counter(self.path.edges())
        for cyc, mult in self.cycles:
            for e in cyc.edges():
                bag[e] += mult
        return bag


def _find_simple_cycle(edges: Counter, order: Sequence[int]) -> Optional[Walk]:
    # depth-first search over the support digraph; the first back edge to a
    # vertex on the current stack closes a simple cycle
    support = defaultdict(list)
    for (u, v) in edges:
        support[u].append(v)
    for u in support:
        support[u].sort()
    on_stack: Dict[int, int] = {}
    done = set()
    for root in order:
        if root not in support or root in done:
            continue
        stack = [root]
        on_stack[root] = 0
        succ = [iter(support[root])]
        while succ:
            w = next(succ[-1], None)
            if w is None:
                v = stack.pop()
                succ.pop()
                del on_stack[v]
                done.add(v)
            elif w in on_stack:
                return Walk(tuple(stack[on_stack[w]:]) + (w,))
            elif w not in done:
                on_stack[w] = len(stack)
                stack.append(w)
                succ.append(iter(support.get(w, ())))
    return None


def _assert_component_invariant(edges: Counter, start: int, end: int):
    # every weak component either carries the start-to-end walk or is a circuit
    comps = _weak_components(edges)
    for comp in comps:
        comp_edges = Counter({e: m for e, m in edges.items() if e[0] in comp})
        if start in comp:
            assert eulerian_walk_check(comp_edges, start, end), (
                "component holding the start vertex lost the walk property"
            )
        else:
            v = min(comp)
            assert eulerian_walk_check(comp_edges, v, v), (
                "detached component is not an Eulerian circuit"
            )
    if all(start not in comp for comp in comps):
        assert start == end, "start vertex was disconnected from a non-closed walk"


def cycle_decompose(
    walk: Walk,
    n: Optional[int] = None,
    seed: Optional[int] = None,
    *,
    check_invariants: bool = False,
) -> CycleDecomposition:
    """Factor a walk into a simple path plus simple cycles with multiplicities.

    Repeatedly extracts a simple cycle from the remaining edge multiset (the
    first cycle closed by a repeated vertex under a deterministic scan order,
    or a seeded order when ``seed`` is given), removes as many whole copies of
    it as the edge multiset supports, and recurses; the base case is a simple
    path between the original endpoints. Edge multisets are conserved, and the
    number of extracted cycles never exceeds the number of distinct edges.
    """
    start, end = walk.start, walk.end
    if n is not None:
        bad = [v for v in walk.vertices if not 0 <= v < n]
        if bad:
            raise InvalidParameter(f"walk vertex {bad[0]} outside 0..{n - 1}")
    edges = Counter(walk.edges())
    verts = sorted({v for e in edges for v in e})
    if seed is not None:
        rng = random.Random(seed)
        rng.shuffle(verts)
    cycles: List[Tuple[Walk, int]] = []
    while True:
        cyc = _find_simple_cycle(edges, verts)
        if cyc is None:
            break
        mult = min(edges[e] for e in cyc.edges())
        for e in cyc.edges():
            left = edges[e] - mult
            if left:
                edges[e] = left
            else:
                del edges[e]
        cycles.append((cyc, mult))
        if check_invariants:
            _assert_component_invariant(edges, start, end)
    path = _remaining_simple_path(edges, start, end)
    return CycleDecomposition(start, end, path, tuple(cycles))


def _remaining_simple_path(edges: Counter, start: int, end: int) -> Walk:
    if not edges:
        if start != end:
            raise InvalidWalk("edges exhausted before reaching the end vertex")
        return Walk((start,))
    nxt: Dict[int, int] = {}
    for (u, v), m in edges.items():
        if m != 1 or u in nxt:
            raise InvalidWalk("cycle-free remainder is not a simple path")
        nxt[u] = v
    verts = [start]
    seen = {start}
    while verts[-1] in nxt:
        w = nxt.pop(verts[-1])
        if w in seen:
            raise InvalidWalk("cycle-free remainder revisits a vertex")
        verts.append(w)
        seen.add(w)
    if nxt or verts[-1] != end:
        raise InvalidWalk("leftover edges are disconnected from the walk")
    return Walk(tuple(verts))


def reassemble(
    dec: CycleDecomposition,
    drop: Optional[Mapping[int, int]] = None,
) -> Walk:
    """Stitch the decomposition back into an explicit walk.

    ``drop`` removes copies of cycles, keyed by position in ``dec.cycles``.
    The remaining edge multiset must still satisfy the Eulerian walk
    conditions between the original endpoints.
    """
    drop = dict(drop or {})
    bag = Counter(dec.path.edges())
    for idx, (cyc, mult) in enumerate(dec.cycles):
        removed = drop.pop(idx, 0)
        if not 0 <= removed <= mult:
            raise InvalidParameter(
                f"cannot drop {removed} of {mult} copies of cycle {idx}"
            )
        keep = mult - removed
        for e in cyc.edges():
            bag[e] += keep
    if drop:
        raise InvalidParameter(f"no cycle at position {sorted(drop)[0]}")
    bag = +bag  # drop zero counts
    if not bag:
        if dec.start != dec.end:
            raise NotReassemblable("no edges left between distinct endpoints")
        return Walk((dec.start,))
    if not eulerian_walk_check(bag, dec.start, dec.end):
        raise NotReassemblable(
            "remaining edges fail the Eulerian conditions between the endpoints"
        )
    return _hierholzer(bag, dec.start, dec.end)
