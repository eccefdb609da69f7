"""Deterministic, seeded instance generators for experiments and regressions."""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt
from typing import Any, Optional, Tuple

from .engine import MAX_ATOMS
from .errors import InvalidParameter
from .frontend import (
    EDBInstance,
    GroundedLinearSystem,
    ground,
    parse_program,
)
from .matrix import Matrix
from .semirings import Semiring, semiring_from_id

# one body product per derived atom keeps the program linear; over bool this
# is transitive closure, over trop all-pairs shortest paths
LINEAR_PATH_PROGRAM = "T(X,Y) :- E(X,Y) + T(X,Z)*E(Z,Y).\n"


def _check_size(n: int):
    # every family holds O(n) or more values, so an n no matrix file may carry
    # would only grow memory until it runs out
    if n > MAX_ATOMS:
        raise InvalidParameter(f"n {n} exceeds the limit of {MAX_ATOMS} atoms")


def _check_random(n: int, density: float):
    if n < 0:
        raise InvalidParameter("n must be >= 0")
    # the random families draw one number per ordered vertex pair whatever the
    # density, and hold up to n*n matrix entries or ground atoms
    if n * n > MAX_ATOMS:
        raise InvalidParameter(f"n {n} exceeds the limit of {isqrt(MAX_ATOMS)} for n*n pairs")
    if not 0 < density <= 1:
        raise InvalidParameter("density must be in (0, 1]")


@dataclass(frozen=True)
class InstanceSpec:
    """Generator family plus parameters; equal specs produce identical bytes."""

    family: str
    semiring_id: str
    params: Tuple[Tuple[str, Any], ...]
    seed: Optional[int] = None

    def header_lines(self) -> Tuple[str, ...]:
        items = [f"family={self.family}", f"semiring={self.semiring_id}"]
        items.extend(f"{k}={v}" for k, v in sorted(self.params))
        if self.seed is not None:
            items.append(f"seed={self.seed}")
        return (" ".join(items),)


def gen_blocked_graph(n: int, semiring: Optional[Semiring] = None) -> GroundedLinearSystem:
    """The blocked digraph on n vertices (n divisible by 3), with a zero b.

    Blocks are B = [0, n/3), C = [n/3, 2n/3), D = [2n/3, n). Every B vertex
    points at the chain entry n/3, the chain exit 2n/3 - 1 points at every D
    vertex, every D vertex points at every B vertex, and C is a chain. Every
    edge carries the multiplicative identity.
    """
    if n < 3 or n % 3:
        raise InvalidParameter("n must be a positive multiple of 3")
    _check_size(n)
    s = semiring or semiring_from_id("bool")
    third = n // 3
    edges = []
    for b in range(third):
        edges.append((b, third, s.one))
    for tau in range(third, 2 * third - 1):
        edges.append((tau, tau + 1, s.one))
    for d in range(2 * third, n):
        edges.append((2 * third - 1, d, s.one))
        for b in range(third):
            edges.append((d, b, s.one))
    atoms = [("v", (str(k),)) for k in range(n)]
    return GroundedLinearSystem.from_matrix(s, Matrix(s, n, edges), [s.zero] * n, atoms)


def blocked_spec(n: int, semiring_id: str) -> InstanceSpec:
    return InstanceSpec("blocked", semiring_id, (("n", n),))


def gen_cycle_lowerbound(n: int, L: int) -> GroundedLinearSystem:
    """The slow-converging cycle over capped:L.

    An n-vertex directed cycle where every edge carries the multiplicative
    identity 0 except the first, which carries 1; walking the cycle k times
    multiplies to min(k, L). The seed vector carries the multiplicative
    identity at the first vertex.
    """
    if n < 2:
        raise InvalidParameter("cycle needs n >= 2")
    _check_size(n)
    s = semiring_from_id(f"capped:{L}")
    entries = []
    for k in range(n):
        entries.append((k, (k + 1) % n, 1 if k == 0 else 0))
    atoms = [("v", (str(k),)) for k in range(n)]
    b = [s.zero] * n
    b[0] = s.one
    return GroundedLinearSystem.from_matrix(s, Matrix(s, n, entries), b, atoms)


def cycle_lowerbound_spec(n: int, L: int) -> InstanceSpec:
    return InstanceSpec("cycle", f"capped:{L}", (("L", L), ("n", n)))


def random_edge_instance(
    n: int,
    density: float,
    semiring: Semiring,
    seed: int,
    weight_range: Tuple[int, int] = (1, 9),
) -> EDBInstance:
    """A seeded random edge relation E over vertices v0..v{n-1}."""
    _check_random(n, density)
    lo, hi = weight_range
    if lo > hi:
        raise InvalidParameter("empty weight range")
    if lo < 0:
        raise InvalidParameter("weights must be >= 0")
    rng = random.Random(seed)
    facts = {}
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if rng.random() < density:
                w = rng.randint(*weight_range)
                facts[("E", (f"v{u}", f"v{v}"))] = semiring.weight(w)
    return EDBInstance(semiring, facts)


def gen_random_digraph(
    n: int,
    density: float,
    weight_range: Tuple[int, int],
    semiring: Semiring,
    seed: int,
    *,
    prune: bool = True,
) -> GroundedLinearSystem:
    """Ground the path-recursion program over a seeded random digraph."""
    db = random_edge_instance(n, density, semiring, seed, weight_range)
    program = parse_program(LINEAR_PATH_PROGRAM)
    system = ground(program, db, prune=prune)
    assert isinstance(system, GroundedLinearSystem)
    return system


def random_digraph_spec(
    n: int, density: float, weight_range: Tuple[int, int], semiring_id: str, seed: int
) -> InstanceSpec:
    return InstanceSpec(
        "random",
        semiring_id,
        (
            ("density", density),
            ("n", n),
            ("wmax", weight_range[1]),
            ("wmin", weight_range[0]),
        ),
        seed,
    )


def gen_random_system(
    n: int,
    density: float,
    semiring: Semiring,
    seed: int,
) -> GroundedLinearSystem:
    """A seeded random (A, b) pair with entries drawn from the carrier.

    Finite carriers draw uniformly among their nonzero elements; symbolic
    carriers draw random elements, falling back to an integer weight 0-9 when
    the draw is zero.
    """
    _check_random(n, density)
    rng = random.Random(seed)
    carrier = semiring.elements()
    nonzero = None
    if carrier is not None:
        nonzero = [e for e in carrier if e != semiring.zero]

    def draw():
        if nonzero:
            return rng.choice(nonzero)
        e = semiring.random_element(rng)
        if e == semiring.zero:
            e = semiring.weight(rng.randint(0, 9))
        return e

    entries = []
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                entries.append((i, j, draw()))
    b = [semiring.zero] * n
    for i in range(n):
        if rng.random() < density:
            b[i] = draw()
    atoms = [(f"x{i}", ()) for i in range(n)]
    return GroundedLinearSystem.from_matrix(semiring, Matrix(semiring, n, entries), b, atoms)


def random_system_spec(n: int, density: float, semiring_id: str, seed: int) -> InstanceSpec:
    return InstanceSpec("randsys", semiring_id, (("density", density), ("n", n)), seed)
