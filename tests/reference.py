"""Reference helpers that only the tests use: rendering a program back to
source, all exact walk sums as matrices, a monomial system's degree, repeated
sums and the natural order."""

from typing import List

from semifix import Matrix
from semifix.errors import InvalidParameter
from semifix.frontend import GroundedPolynomialSystem, Program
from semifix.semirings import Semiring, _enumerable
from semifix.walks import DEFAULT_WALK_BUDGET, walk_sums


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


def walk_sum_matrices(A: Matrix, max_h: int, budget: int = DEFAULT_WALK_BUDGET) -> List[Matrix]:
    """All exact walk sums at once: result[h][i, j] == walk_sum_exact(A, i, j, h)."""
    tables = walk_sums(A, range(A.n), max_h, budget)
    return [Matrix(A.semiring, A.n, ((i, j, v) for (i, j), v in t.items())) for t in tables]


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
