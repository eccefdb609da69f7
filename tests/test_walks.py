import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest

from semifix import (
    EnumerationBudgetExceeded,
    InvalidWalk,
    Matrix,
    NotReassemblable,
    cycle_decompose,
    eulerian_walk_check,
    matrix_power_sum,
    reassemble,
    semiring_from_id,
    walk_label_product,
    walk_sum_exact,
    walk_sum_upto,
)
from semifix.generators import gen_random_system
from semifix.walks import Walk, walk_sums

from conftest import ALL_IDS, brute_walk_sums
from reference import walk_sum_matrices


def bool_matrix(n, edges):
    s = semiring_from_id("bool")
    return Matrix(s, n, [(u, v, True) for u, v in edges])


def random_walk(rng, n, length):
    """A random walk that never repeats the current vertex (no self-loops)."""
    v = rng.randrange(n)
    verts = [v]
    for _ in range(length):
        w = rng.randrange(n - 1)
        if w >= verts[-1]:
            w += 1
        verts.append(w)
    return Walk(tuple(verts))


# ---------------------------------------------------------------------------
# Walk type
# ---------------------------------------------------------------------------

def test_walk_from_edges_and_str():
    w = Walk.from_edges([(0, 1), (1, 2)])
    assert str(w) == "0->1->2"
    assert w.hops == 2
    assert w.edges() == ((0, 1), (1, 2))
    empty = Walk.from_edges([], start=3)
    assert empty.hops == 0 and empty.start == empty.end == 3


def test_walk_from_edges_rejects_gaps():
    with pytest.raises(InvalidWalk):
        Walk.from_edges([(0, 1), (2, 0)])


# ---------------------------------------------------------------------------
# Walk sums
# ---------------------------------------------------------------------------

def test_walk_sum_h0_is_identity():
    A = bool_matrix(3, [(0, 1)])
    assert walk_sum_exact(A, 0, 0, 0) is True
    assert walk_sum_exact(A, 0, 1, 0) is False
    assert walk_sum_upto(A, 2, 2, 0) is True


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
            assert len(tables) == h + 1
            for g, table in enumerate(tables):
                assert {i for i, _ in table} <= set(src)
                for i in src:
                    for j in range(n):
                        assert table.get((i, j), s.zero) == refs[i][g][j]


# ---------------------------------------------------------------------------
# Eulerian conditions
# ---------------------------------------------------------------------------

def test_eulerian_examples():
    assert eulerian_walk_check([(0, 1), (1, 2)], 0, 2)
    assert not eulerian_walk_check([(0, 1), (2, 3)], 0, 1)
    assert eulerian_walk_check([(0, 1), (1, 2), (2, 0)] * 2, 0, 0)
    assert not eulerian_walk_check([(0, 1), (1, 2)], 0, 1)
    assert not eulerian_walk_check([], 0, 0)


# ---------------------------------------------------------------------------
# Cycle decomposition
# ---------------------------------------------------------------------------

def test_decompose_simple_path_is_base_case():
    d = cycle_decompose(Walk((0, 1, 2)))
    assert d.path == Walk((0, 1, 2))
    assert d.cycles == ()


def test_decompose_spec_walk():
    d = cycle_decompose(Walk((0, 1, 0, 1, 2)))
    assert d.path == Walk((0, 1, 2))
    assert len(d.cycles) == 1
    cyc, mult = d.cycles[0]
    assert Counter(cyc.edges()) == Counter([(0, 1), (1, 0)])
    assert mult == 1


def test_decompose_triple_triangle():
    # around the triangle three times, entered and left through vertex 0
    verts = (3, 0) + (1, 2, 0) * 3 + (4,)
    d = cycle_decompose(Walk(verts))
    assert d.path.start == 3 and d.path.end == 4
    assert len(d.cycles) == 1
    cyc, mult = d.cycles[0]
    assert mult == 3
    assert Counter(cyc.edges()) == Counter([(0, 1), (1, 2), (2, 0)])


def test_decompose_closed_walk_has_empty_path():
    d = cycle_decompose(Walk((0, 1, 0)))
    assert d.path == Walk((0,))
    assert d.cycles == ((Walk((0, 1, 0)), 1),)


def test_decompose_conserves_edges_and_phi():
    rng = random.Random(4)
    semirings = [semiring_from_id(i) for i in ("bool", "trop", "capped:4", "trop_p:1")]
    for _ in range(200):
        n = rng.randint(2, 5)
        walk = random_walk(rng, n, rng.randint(0, 12))
        d = cycle_decompose(walk, n, check_invariants=True)
        assert d.edge_multiset() == Counter(walk.edges())
        assert d.cycle_count <= n * n - n
        if walk.hops > n - 1:
            assert d.cycle_count >= 1  # a walk that long must repeat a vertex
        assert len(set(d.path.vertices)) == len(d.path.vertices)
        for cyc, mult in d.cycles:
            assert mult >= 1
            assert cyc.start == cyc.end
            inner = cyc.vertices[:-1]
            assert len(set(inner)) == len(inner)
        labels = gen_random_system(n, 1.0, rng.choice(semirings), seed=rng.randint(0, 99)).A
        s = labels.semiring
        phi = walk_label_product(labels, walk)
        assembled = walk_label_product(labels, d.path)
        for cyc, mult in d.cycles:
            piece = walk_label_product(labels, cyc)
            for _ in range(mult):
                assembled = s.mul(assembled, piece)
        assert assembled == phi


def test_decompose_seeded_still_valid():
    walk = Walk((0, 1, 2, 0, 1, 2, 0, 3))
    base = cycle_decompose(walk)
    for seed in range(5):
        d = cycle_decompose(walk, seed=seed)
        assert d.edge_multiset() == base.edge_multiset()
        assert d.path.start == 0 and d.path.end == 3


def test_long_walk_contains_high_multiplicity_cycle():
    # a pigeonhole check: any long enough walk on few vertices must repeat
    # some cycle many times
    rng = random.Random(9)
    for n, p in ((2, 1), (3, 2)):
        length = n * (n * n - n) * (p + 2) + n
        walk = random_walk(rng, n, length)
        d = cycle_decompose(walk, n)
        assert max(mult for _, mult in d.cycles) >= p + 2


# ---------------------------------------------------------------------------
# Reassembly
# ---------------------------------------------------------------------------

def test_reassemble_identity():
    walk = Walk((0, 1, 0, 1, 2))
    d = cycle_decompose(walk)
    again = reassemble(d)
    assert Counter(again.edges()) == Counter(walk.edges())
    assert again.start == walk.start and again.end == walk.end
    labels = bool_matrix(3, set(walk.edges()))
    assert walk_label_product(labels, again) == walk_label_product(labels, walk)


def test_reassemble_drop_one_copy():
    d = cycle_decompose(Walk((0, 1, 0, 1, 2)))
    assert reassemble(d, {0: 1}) == Walk((0, 1, 2))


def test_reassemble_drop_everything_leaves_path():
    d = cycle_decompose(Walk((0, 1, 0, 1, 2)))
    dropped = {i: m for i, (_, m) in enumerate(d.cycles)}
    assert reassemble(d, dropped) == Walk((0, 1, 2))


def test_reassemble_closed_walk_to_empty():
    d = cycle_decompose(Walk((0, 1, 0)))
    assert reassemble(d, {0: 1}) == Walk((0,))


def test_reassemble_rejects_disconnection():
    # dropping the bridge between the two lobes strands the far cycle
    walk = Walk((0, 1, 0, 2, 3, 2, 0))
    d = cycle_decompose(walk)
    bridge = next(
        i for i, (c, _) in enumerate(d.cycles) if set(c.vertices) == {0, 2}
    )
    with pytest.raises(NotReassemblable):
        reassemble(d, {bridge: d.cycles[bridge][1]})


def test_reassemble_drop_counts_validated():
    d = cycle_decompose(Walk((0, 1, 0)))
    with pytest.raises(Exception):
        reassemble(d, {0: 5})
    with pytest.raises(Exception):
        reassemble(d, {7: 1})


def test_walk_sums_beyond_the_recursion_limit():
    # out-degree 1 passes the budget guard at any depth
    s = semiring_from_id("trop")
    A = Matrix(s, 3, [(k, (k + 1) % 3, Fraction(1)) for k in range(3)])
    h = 1500
    assert walk_sum_exact(A, 0, 0, h) == Fraction(h)
    assert walk_sum_upto(A, 0, 2, h) == Fraction(2)
    tables = walk_sum_matrices(A, h)
    assert tables[h].get(0, 0) == Fraction(h)
    assert tables[h - 1].get(0, 2) == Fraction(h - 1)


def test_cycle_decompose_long_simple_cycle():
    walk = Walk(tuple(range(1500)) + (0,))
    dec = cycle_decompose(walk)
    assert dec.cycles == ((walk, 1),)
    assert dec.path == Walk((0,))
