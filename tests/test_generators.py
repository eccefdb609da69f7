import pytest

from semifix import (
    gen_blocked_graph,
    gen_cycle_lowerbound,
    gen_random_digraph,
    gen_random_system,
    matrix_stability_index,
    naive_eval_linear,
    save_system,
    semiring_from_id,
    walk_sum_exact,
)
from semifix.errors import InvalidParameter
from semifix.generators import cycle_lowerbound_spec, random_edge_instance


# ---------------------------------------------------------------------------
# Blocked graph
# ---------------------------------------------------------------------------

def test_blocked_graph_minimum_size():
    g = gen_blocked_graph(3)
    assert sorted((i, j) for i, j, _ in g.A.entries()) == [(0, 1), (1, 2), (2, 0)]
    assert g.atom_labels() == ("v(0)", "v(1)", "v(2)") and g.b == (False,) * 3


def test_blocked_graph_edge_counts():
    for n in (3, 6, 9, 12):
        g = gen_blocked_graph(n)
        third = n // 3
        expected = n + third * third - 1
        assert sum(1 for _ in g.A.entries()) == expected
        # cross-block fan-in and fan-out
        d_to_b = [
            (i, j) for i, j, _ in g.A.entries() if i >= 2 * third and j < third
        ]
        assert len(d_to_b) == third * third


def test_blocked_graph_rejects_bad_n():
    with pytest.raises(InvalidParameter):
        gen_blocked_graph(4)
    with pytest.raises(InvalidParameter):
        gen_blocked_graph(0)


# ---------------------------------------------------------------------------
# Cycle family
# ---------------------------------------------------------------------------

def test_cycle_lowerbound_shape():
    sys_ = gen_cycle_lowerbound(4, 3)
    s = sys_.semiring
    assert s.id == "capped:3"
    labeled = [(i, j, v) for i, j, v in sys_.A.entries() if v == 1]
    assert labeled == [(0, 1, 1)]
    assert sum(1 for _ in sys_.A.entries()) == 4
    assert sys_.b[0] == s.one
    assert all(v == s.zero for v in sys_.b[1:])


def test_cycle_lowerbound_walk_products():
    # k trips around the cycle multiply to min(k, L); the closed walk from
    # vertex 0 of length n*k is unique, so the walk sum is that product
    for n, L in ((2, 4), (3, 2)):
        A = gen_cycle_lowerbound(n, L).A
        for k in range(1, 7):
            assert walk_sum_exact(A, 0, 0, n * k) == min(k, L)


def test_cycle_lowerbound_small_indices():
    sys_ = gen_cycle_lowerbound(2, 1)
    assert matrix_stability_index(sys_.A) == 3
    trace = naive_eval_linear(sys_)
    assert not trace.capped


def test_cycle_lowerbound_rejects_bad_n():
    with pytest.raises(InvalidParameter):
        gen_cycle_lowerbound(1, 3)


# ---------------------------------------------------------------------------
# Random families
# ---------------------------------------------------------------------------

def test_random_digraph_deterministic():
    s = semiring_from_id("trop")
    a = gen_random_digraph(4, 0.5, (1, 9), s, seed=7)
    b = gen_random_digraph(4, 0.5, (1, 9), s, seed=7)
    assert save_system(a) == save_system(b)
    c = gen_random_digraph(4, 0.5, (1, 9), s, seed=8)
    assert save_system(a) != save_system(c)


def test_random_digraph_bool_reachability():
    s = semiring_from_id("bool")
    sys_ = gen_random_digraph(4, 0.6, (1, 1), s, seed=3)
    trace = naive_eval_linear(sys_)
    db = random_edge_instance(4, 0.6, s, 3, (1, 1))
    edges = {(a, b) for (_, (a, b)) in db.facts}
    # transitive closure of the edge set, computed independently
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    assert {sys_.atoms[i][1] for i in range(sys_.n)} == closure
    assert all(v is True for v in trace.fixpoint)


def test_random_digraph_full_density_complete():
    s = semiring_from_id("trop")
    sys_ = gen_random_digraph(3, 1.0, (2, 2), s, seed=0)
    # every ordered pair is connected, diagonal included (u -> w -> u)
    assert sys_.n == 9
    trace = naive_eval_linear(sys_)
    assert trace.fixpoint[sys_.index[("T", ("v0", "v0"))]] == s.weight(4)


def test_random_system_deterministic_and_dense():
    s = semiring_from_id("capped:4")
    a = gen_random_system(5, 1.0, s, seed=1)
    b = gen_random_system(5, 1.0, s, seed=1)
    assert a.A == b.A and a.b == b.b
    assert sum(1 for _ in a.A.entries()) == 25


def test_random_system_symbolic_draws_nonzero():
    s = semiring_from_id("trop")
    sys_ = gen_random_system(4, 1.0, s, seed=5)
    assert all(v != s.zero for _, _, v in sys_.A.entries())


def test_quadratic_families_bound_n_squared():
    # both families draw once per vertex pair, so n*n is what the limit bounds
    s = semiring_from_id("bool")
    assert gen_random_system(1000, 1e-6, s, seed=0).n == 1000
    for gen in (random_edge_instance, gen_random_system):
        with pytest.raises(InvalidParameter, match="n 1001 exceeds the limit of 1000"):
            gen(1001, 1e-6, s, 0)


def test_instance_spec_headers():
    spec = cycle_lowerbound_spec(3, 4)
    (line,) = spec.header_lines()
    assert line == "family=cycle semiring=capped:4 L=4 n=3"
