import itertools
import os
import random

import pytest
from hypothesis import settings

import semifix
from semifix.semirings import Semiring

settings.register_profile("ci", derandomize=True, max_examples=150)
settings.load_profile("ci")


def pytest_report_header(config):
    # pyproject's pythonpath puts this checkout's src/ ahead of PYTHONPATH,
    # so name the package the run imports
    return f"semifix under test: {os.path.dirname(semifix.__file__)}"


FINITE_IDS = ("bool", "trivial", "capped:2", "capped:3", "capped:4", "trop_p_fin:1:1")
ALL_IDS = FINITE_IDS + ("trop", "trop_p:1", "trop_p:2")


class BrokenMulSemiring(Semiring):
    """Negative control on {0,1,2}: add is max, mul is min except 1*1 = 2.

    Every law except distributivity survives the tweak; a*(b+c) = (a*b)+(a*c)
    fails at (1, 1, 2).
    """

    id = "broken"
    zero = 0
    one = 2

    def add(self, a, b):
        return max(a, b)

    def mul(self, a, b):
        if a == 1 and b == 1:
            return 2
        return min(a, b)

    def parse(self, text):
        return int(text)

    def show(self, a):
        return str(a)

    def elements(self):
        return (0, 1, 2)

    def random_element(self, rng):
        return rng.choice((0, 1, 2))


class GF2Semiring(Semiring):
    """Negative control on {0,1}, the field GF(2): add is xor, mul is and.

    Every semiring law holds, but 1 (+) 1 = 0: the power sums of 1 alternate
    1, 0, 1, ..., so 1 is stable at no index, and 0 and 1 precede each other
    in the additive preorder, so the carrier is not naturally ordered.
    """

    id = "gf2"
    zero = 0
    one = 1
    distributes = True
    _carrier = (0, 1)

    def add(self, a, b):
        return a ^ b

    def mul(self, a, b):
        return a & b

    def parse(self, text):
        return int(text)

    def show(self, a):
        return str(a)


class UnlistedGF2Semiring(GF2Semiring):
    """GF(2) without elements(), and with no stability index known."""

    id = "gf2_unlisted"
    _carrier = None


def vec_add(semiring, u, v):
    """Entrywise sum of two vectors."""
    return tuple(semiring.add(a, b) for a, b in zip(u, v))


def linear_step(sys_, x):
    """One full application of x <- Ax (+) b, the reference for naive iteration."""
    return vec_add(sys_.semiring, sys_.A.matvec(x), sys_.b)


@pytest.fixture
def broken_semiring():
    return BrokenMulSemiring()


def seeded_elements(s, count, seed=0):
    rng = random.Random(seed)
    return [s.random_element(rng) for _ in range(count)]


def brute_walk_sums(A, i, h):
    """Reference walk sums from vertex i, listing vertex sequences with itertools.product.

    Returns (exact, upto): exact[g][j] folds the g-hop sequences from i to j,
    upto[g][j] every sequence of at most g hops, both by hop count and then
    lexicographically. Hops over zero labels are listed too; their product is
    zero, which adds nothing.
    """
    s, n = A.semiring, A.n
    exact, upto = [], []
    running = [s.zero] * n
    for g in range(h + 1):
        sums = [s.zero] * n
        for tail in itertools.product(range(n), repeat=g):
            verts = (i,) + tail
            prod = s.one
            for u, v in zip(verts, verts[1:]):
                prod = s.mul(prod, A.get(u, v))
            sums[verts[-1]] = s.add(sums[verts[-1]], prod)
            running[verts[-1]] = s.add(running[verts[-1]], prod)
        exact.append(sums)
        upto.append(list(running))
    return exact, upto
