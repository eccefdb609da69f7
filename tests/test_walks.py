import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest

from semifix import (
    EnumerationBudgetExceeded,
    Matrix,
    matrix_power_sum,
    semiring_from_id,
    walk_sum_exact,
    walk_sum_upto,
)
from semifix.errors import InvalidParameter
from semifix.generators import gen_random_system
from semifix.walks import walk_sums

from conftest import ALL_IDS, brute_walk_sums
from reference import reference_walks, walk_sum_matrices


def bool_matrix(n, edges):
    s = semiring_from_id("bool")
    return Matrix(s, n, [(u, v, True) for u, v in edges])


# ---------------------------------------------------------------------------
# Walk sums
# ---------------------------------------------------------------------------

def test_walk_sum_h0_is_identity():
    A = bool_matrix(3, [(0, 1)])
    assert walk_sum_exact(A, 0, 0, 0) is True
    assert walk_sum_exact(A, 0, 1, 0) is False
    assert walk_sum_upto(A, 2, 2, 0) is True


def test_walk_sums_reject_a_negative_hop_count():
    with pytest.raises(InvalidParameter, match="hop count must be >= 0"):
        walk_sums(Matrix(semiring_from_id("bool"), 2), (0,), -1)


def test_walk_sum_boolean_path():
    A = bool_matrix(3, [(0, 1), (1, 2)])
    assert walk_sum_exact(A, 0, 2, 2) is True
    assert walk_sum_exact(A, 0, 2, 1) is False
    assert walk_sum_upto(A, 0, 2, 3) is True


def test_walk_sum_boolean_two_cycle():
    A = bool_matrix(2, [(0, 1), (1, 0)])
    assert walk_sum_upto(A, 0, 1, 3) is True


def test_walk_sum_trop_triangle():
    s = semiring_from_id("trop")
    A = Matrix(
        s, 3, [(0, 1, Fraction(1)), (1, 2, Fraction(2)), (2, 0, Fraction(3))]
    )
    assert walk_sum_exact(A, 0, 0, 3) == Fraction(6)


def test_walk_sum_budget_guard():
    A = bool_matrix(4, [(i, j) for i in range(4) for j in range(4)])
    with pytest.raises(EnumerationBudgetExceeded):
        walk_sum_exact(A, 0, 0, 12, budget=1000)


def peak_bytes(call):
    """Peak traced allocation, in bytes, while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_budget_verdict_on_branching_walks():
    # the budget counts the walks the enumeration visits, and nothing else
    A = bool_matrix(3, [(0, 1), (0, 2), (1, 0), (2, 2)])
    for h in range(12):
        for src in ((0,), (0, 1, 2)):
            visited = sum(1 for _ in reference_walks(A, src, h, float("inf")))
            for budget in range(0, 300, 7):
                try:
                    walk_sums(A, src, h, budget=budget)
                    refused = False
                except EnumerationBudgetExceeded as exc:
                    assert str(exc) == f"walk enumeration exceeded the budget of {budget}"
                    refused = True
                assert refused == (visited > budget)


def test_refused_walks_take_memory_by_the_budget_not_h():
    A = bool_matrix(2, [(0, 0), (0, 1), (1, 0), (1, 1)])

    def refuse(h, budget):
        def call():
            with pytest.raises(EnumerationBudgetExceeded):
                walk_sums(A, (0, 1), h, budget=budget)
        return peak_bytes(call)

    refuse(2000, 1000)  # a first refusal also pays one-time allocations
    deep, shallow = refuse(10**7, 1000), refuse(2000, 1000)
    assert deep < 1.1 * shallow
    assert refuse(10**7, 4000) > 2 * deep


def test_walk_sum_upto_equals_sum_of_exacts():
    s = semiring_from_id("trop")
    A = gen_random_system(4, 0.7, s, seed=3).A
    for i in range(4):
        for j in range(4):
            for h in range(5):
                parts = [walk_sum_exact(A, i, j, g) for g in range(h + 1)]
                assert walk_sum_upto(A, i, j, h) == reduce(s.add, parts, s.zero)


@pytest.mark.parametrize("sid", ["bool", "trop", "trop_p:1", "trop_p_fin:1:1"])
def test_walk_sums_match_matrix_powers(sid):
    s = semiring_from_id(sid)
    for seed in range(6):
        sys_ = gen_random_system(4, 0.6, s, seed=seed)
        A = sys_.A
        tables = walk_sum_matrices(A, 5)
        power = Matrix.identity(s, 4)
        for h in range(6):
            if h:
                power = A.matmul(power)
            assert tables[h] == power
            S = matrix_power_sum(A, h)
            for i in range(4):
                for j in range(4):
                    assert walk_sum_upto(A, i, j, h) == S.get(i, j)


def test_walk_sum_matrices_agrees_with_single_queries():
    s = semiring_from_id("trop")
    A = gen_random_system(4, 0.5, s, seed=11).A
    tables = walk_sum_matrices(A, 4)
    for h in range(5):
        for i in range(4):
            for j in range(4):
                assert tables[h].get(i, j) == walk_sum_exact(A, i, j, h)


def test_capped_walk_sums_diverge_from_matrix_powers():
    # capped addition is not distributive, so iterated matrix products can
    # undercount relative to explicit walk enumeration below the cap
    s = semiring_from_id("capped:4")
    A = Matrix(s, 4, [(0, 1, 1), (1, 2, 0), (2, 0, 0), (1, 3, 0), (3, 0, 0), (0, 0, 0)])
    walks_side = walk_sum_exact(A, 0, 0, 3)
    matrix_side = A.matmul(A.matmul(A)).get(0, 0)
    assert walks_side == 2
    assert matrix_side == 1


WALK_SUM_IDS = ALL_IDS + ("capped:5", "capped:6")


@pytest.mark.parametrize("sid", WALK_SUM_IDS)
def test_walk_sums_match_brute_force(sid):
    s = semiring_from_id(sid)
    for seed, (n, h) in enumerate(itertools.product(range(1, 6), (0, 2, 4))):
        A = gen_random_system(n, 0.6, s, seed=seed).A
        refs = [brute_walk_sums(A, i, h)[0] for i in range(n)]
        sources = [(i,) for i in range(n)] + [tuple(range(n))]
        for src in sources:
            tables = walk_sums(A, src, h)
            assert len(tables) <= h + 1
            for g, table in enumerate(tables + [{}] * (h + 1 - len(tables))):
                assert {i for i, _ in table} <= set(src)
                for i in src:
                    for j in range(n):
                        assert table.get((i, j), s.zero) == refs[i][g][j]


def test_walk_sums_beyond_the_recursion_limit():
    # out-degree 1: 1501 walks from each source, inside the default budget
    s = semiring_from_id("trop")
    A = Matrix(s, 3, [(k, (k + 1) % 3, Fraction(1)) for k in range(3)])
    h = 1500
    assert walk_sum_exact(A, 0, 0, h) == Fraction(h)
    assert walk_sum_upto(A, 0, 2, h) == Fraction(2)
    tables = walk_sum_matrices(A, h)
    assert tables[h].get(0, 0) == Fraction(h)
    assert tables[h - 1].get(0, 2) == Fraction(h - 1)


def descending_matrix(s, n, seed):
    """A random matrix whose rows store their entries in descending column order."""
    rng = random.Random(seed)
    pool = [v for v in s.elements() or [s.weight(k) for k in range(1, 10)] if v != s.zero] or [s.one]
    entries = [(i, j, rng.choice(pool)) for i in range(n) for j in reversed(range(n)) if rng.random() < 0.6]
    return Matrix(s, n, entries)


def folds(s, walks):
    """The (table cell, walk product) operand pairs that ``walk_sums`` hands
    to add, in order, when it folds these walks by hop count."""
    tables, pairs = {}, []
    for i, hops, v, prod in walks:
        cell = tables.get((hops, i, v), s.zero)
        pairs.append((cell, prod))
        tables[hops, i, v] = s.add(cell, prod)
    return pairs


@pytest.mark.parametrize("sid", ALL_IDS + ("capped:5",))
def test_walks_keep_the_order_and_budget_of_sorting_on_every_visit(sid, monkeypatch):
    s = semiring_from_id(sid)
    reads, adds = Counter(), []
    row, add = Matrix.row, s.add
    monkeypatch.setattr(Matrix, "row", lambda A, v: reads.update((v,)) or row(A, v))
    for seed, n in enumerate((1, 3, 5)):
        A = descending_matrix(s, n, seed)
        assert all(list(A.row(v)) == sorted(A.row(v), reverse=True) for v in range(n))
        for src, h in itertools.product(((0,), (n - 1, 0), tuple(range(n))), (0, 1, 3, 5)):
            want = list(reference_walks(A, src, h, math.inf))
            pairs = folds(s, want)
            reads.clear()
            with monkeypatch.context() as m:
                # a carrier whose add records its operands, in the order it folds them
                m.setattr(s, "add", lambda x, y: adds.append((x, y)) or add(x, y))
                adds.clear()
                walk_sums(A, src, h, math.inf)
                assert adds == pairs
                # each vertex a walk leaves is read once per enumeration, and no other
                assert reads == Counter({v for _, hops, v, _ in want if hops < h})
                budget = len(want) // 2
                adds.clear()
                with pytest.raises(EnumerationBudgetExceeded):
                    walk_sums(A, src, h, budget)
                # the refused walk is the first one past the budget, as in the reference
                assert adds == pairs[:budget]
