import csv
import gc
import io
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from semifix import (
    INF,
    Matrix,
    bounds,
    build_edb,
    engine,
    element_stability,
    ground,
    load_system,
    matrix_power_sum,
    matrix_stability_index,
    naive_eval_general,
    naive_eval_linear,
    parse_program,
    save_system,
    semiring_from_id,
    semirings,
    trace_csv,
    walk_sum_upto,
)
from semifix.engine import MAX_ATOMS, column_run
from semifix.errors import InvalidParameter, MalformedElement
from semifix.frontend import GroundedLinearSystem, GroundedPolynomialSystem
from semifix.semirings import (
    FiniteTropBagSemiring,
    Semiring,
    TropBagSemiring,
    effective_stability,
    min_p_truncate,
    ordered_chain,
)
from semifix.generators import (
    LINEAR_PATH_PROGRAM,
    gen_blocked_graph,
    gen_cycle_lowerbound,
    gen_random_digraph,
    gen_random_system,
    random_edge_instance,
)

from conftest import (
    ALL_IDS, FINITE_IDS, BrokenMulSemiring, GF2Semiring, linear_step, seeded_elements,
)
from reference import as_monomial_system, assert_columns_are_the_rows_transposed, reference_matvec


def reachability(edges, n):
    """Hop-unbounded reachability by breadth-first search."""
    adj = {u: set() for u in range(n)}
    for u, v in edges:
        adj[u].add(v)
    out = {}
    for src in range(n):
        seen = set(adj[src])
        frontier = set(adj[src])
        while frontier:
            nxt = {w for v in frontier for w in adj[v]} - seen
            seen |= nxt
            frontier = nxt
        out[src] = seen
    return out


def floyd_warshall(weights, n):
    dist = [[None] * n for _ in range(n)]
    for (u, v), w in weights.items():
        if dist[u][v] is None or w < dist[u][v]:
            dist[u][v] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] is not None and dist[k][j] is not None:
                    alt = dist[i][k] + dist[k][j]
                    if dist[i][j] is None or alt < dist[i][j]:
                        dist[i][j] = alt
    return dist


def path_system(sid, n, density, seed, weight_range=(1, 9)):
    s = semiring_from_id(sid)
    db = random_edge_instance(n, density, s, seed, weight_range)
    return db, ground(parse_program(LINEAR_PATH_PROGRAM), db)


# ---------------------------------------------------------------------------
# Naive evaluation
# ---------------------------------------------------------------------------

def test_boolean_tc_on_path():
    s = semiring_from_id("bool")
    db = build_edb(s, [("E", ("a", "b"), None), ("E", ("b", "c"), None)])
    sys_ = ground(parse_program(LINEAR_PATH_PROGRAM), db)
    trace = naive_eval_linear(sys_)
    assert trace.stability_index is not None and trace.stability_index <= 3
    assert all(v is True for v in trace.fixpoint)
    assert set(sys_.atoms) == {("T", ("a", "b")), ("T", ("b", "c")), ("T", ("a", "c"))}


def test_trop_apsp_matches_floyd_warshall():
    s = semiring_from_id("trop")
    rng = random.Random(42)
    n = 4
    weights = {}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.6:
                weights[(u, v)] = rng.randint(1, 9)
    db = build_edb(
        s, [("E", (f"v{u}", f"v{v}"), str(w)) for (u, v), w in sorted(weights.items())]
    )
    sys_ = ground(parse_program(LINEAR_PATH_PROGRAM), db)
    trace = naive_eval_linear(sys_)
    expected = floyd_warshall(weights, n)
    for (pred, (a, b)), idx in sys_.index.items():
        d = expected[int(a[1:])][int(b[1:])]
        assert trace.fixpoint[idx] == (INF if d is None else Fraction(d))


def test_empty_system_trace():
    s = semiring_from_id("bool")
    sys_ = ground(parse_program(LINEAR_PATH_PROGRAM), build_edb(s, []))
    trace = naive_eval_linear(sys_)
    assert trace.stability_index == 0
    assert trace.states == ((), ())


def test_capped_run_hits_cap():
    sys_ = gen_cycle_lowerbound(3, 4)
    trace = naive_eval_linear(sys_, cap=3)
    assert trace.capped
    assert trace.stability_index is None
    assert trace.wall_steps == 3


def test_once_equal_always_equal():
    db, sys_ = path_system("trop", 4, 0.6, seed=5)
    trace = naive_eval_linear(sys_)
    x = trace.fixpoint
    for _ in range(4):
        x = linear_step(sys_, x)
        assert x == trace.fixpoint


def one_variable_system(s, u):
    from semifix.frontend import GroundedPolynomialSystem

    atom = ("x", ())
    return GroundedPolynomialSystem(s, (atom,), (((u, (0,)), (s.one, ())),), 1)


def test_one_variable_general_system_tracks_element_stability():
    # x <- u*x (+) 1 walks through the power-sum prefix of u when the algebra
    # distributes
    s = semiring_from_id("trop_p_fin:1:1")
    u = (0, 0)
    trace = naive_eval_general(one_variable_system(s, u))
    r = element_stability(s, u)
    for q in range(1, len(trace.states)):
        assert trace.states[q][0] == r.sequence[q - 1]
    assert trace.stability_index == r.index + 1


def test_one_variable_capped_iteration_is_horner_shaped():
    # without distributivity the iteration u*(previous) (+) 1 counts single
    # steps, min(q - 1, L), rather than accumulating the power-sum prefix
    s = semiring_from_id("capped:4")
    trace = naive_eval_general(one_variable_system(s, 1))
    for q in range(1, len(trace.states)):
        assert trace.states[q][0] == min(q - 1, 4)
    assert trace.stability_index == 5
    assert element_stability(s, 1).index == 3


def test_linear_and_general_traces_identical():
    for sid in ("bool", "trop", "capped:4", "trop_p_fin:1:1"):
        s = semiring_from_id(sid)
        db = random_edge_instance(4, 0.5, s, seed=13)
        program = parse_program(LINEAR_PATH_PROGRAM)
        lin = ground(program, db)
        poly = as_monomial_system(lin)
        tl = naive_eval_linear(lin)
        tg = naive_eval_general(poly)
        assert tl.states == tg.states
        assert tl.stability_index == tg.stability_index


# ---------------------------------------------------------------------------
# Change-driven iteration against a full recompute
# ---------------------------------------------------------------------------

def full_recompute(s, n, step, cap):
    """Reference naive iteration: every row recomputed at every step."""
    x = (s.zero,) * n
    states = [x]
    for q in range(cap):
        nxt = step(x)
        states.append(nxt)
        if nxt == x:
            return states, q, False
        x = nxt
    return states, None, True


def reference_linear(sys_, cap):
    step = lambda x: linear_step(sys_, x)
    return full_recompute(sys_.semiring, sys_.n, step, cap)


def reference_general(psys, cap):
    s = psys.semiring

    def step(x):
        out = []
        for row in psys.monomials:
            acc = s.zero
            for coeff, cols in row:
                term = coeff
                for c in cols:
                    term = s.mul(term, x[c])
                acc = s.add(acc, term)
            out.append(acc)
        return tuple(out)

    return full_recompute(s, psys.n, step, cap)


def assert_trace_matches(trace, reference):
    states, index, capped = reference
    assert len(trace.states) == len(states)
    for got, want in zip(trace.states, states):
        assert got == want
    assert trace.stability_index == index
    assert trace.capped == capped
    assert trace.wall_steps == len(states) - 1


def nonzero_element(s, rng):
    v = s.random_element(rng)
    return s.one if v == s.zero else v


def random_linear_system(s, n, seed):
    """Sparse rows, some empty, self-loops allowed, some b entries zero."""
    rng = random.Random(seed)
    entries = []
    for i in range(n):
        if rng.random() < 0.25:
            continue  # a row with no entries
        for j in range(n):
            if rng.random() < 2 / max(n, 1) or (i == j and rng.random() < 0.3):
                entries.append((i, j, nonzero_element(s, rng)))
    b = [nonzero_element(s, rng) if rng.random() < 0.4 else s.zero for _ in range(n)]
    atoms = [(f"x{i}", ()) for i in range(n)]
    return GroundedLinearSystem.from_matrix(s, Matrix(s, n, entries), b, atoms)


def random_polynomial_system(s, n, seed):
    """Monomials of degree 0-3, repeated columns and empty rows included."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        row = []
        for _ in range(rng.choice((0, 1, 2, 3))):
            degree = rng.choice((0, 1, 1, 2, 3))
            cols = tuple(sorted(rng.randrange(n) for _ in range(degree)))
            row.append((nonzero_element(s, rng), cols))
        rows.append(tuple(row))
    atoms = tuple((f"x{i}", ()) for i in range(n))
    return GroundedPolynomialSystem(s, atoms, tuple(rows), n)


def with_unit_diagonal(system):
    """The system x = f(x) (+) x, whose naive iteration is x <- x (+) f(x):
    A (+) I for a linear system, a monomial 1 * x_i added to row i otherwise.
    Every row then reads its own column."""
    s, n = system.semiring, system.n
    if isinstance(system, GroundedLinearSystem):
        A = Matrix(s, n, list(system.A.entries()) + [(i, i, s.one) for i in range(n)])
        return GroundedLinearSystem.from_matrix(s, A, system.b, system.atoms)
    rows = tuple(row + ((s.one, (i,)),) for i, row in enumerate(system.monomials))
    return GroundedPolynomialSystem(s, system.atoms, rows, n)


CHANGE_DRIVEN_IDS = ALL_IDS + ("capped:5", "capped:6")


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("sid", CHANGE_DRIVEN_IDS)
def test_change_driven_linear_matches_full_recompute(sid, diagonal):
    s = semiring_from_id(sid)
    for seed in range(12):
        n = seed % 7  # n = 0 included
        sys_ = random_linear_system(s, n, seed)
        if diagonal:
            sys_ = with_unit_diagonal(sys_)
        for cap in (60, 2):  # a cap of 2 is hit on most systems
            trace = naive_eval_linear(sys_, cap=cap)
            assert_trace_matches(trace, reference_linear(sys_, cap))


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("sid", CHANGE_DRIVEN_IDS)
def test_change_driven_general_matches_full_recompute(sid, diagonal):
    s = semiring_from_id(sid)
    for seed in range(12):
        n = seed % 6
        psys = random_polynomial_system(s, n, seed)
        if diagonal:
            psys = with_unit_diagonal(psys)
        for cap in (40, 2):
            trace = naive_eval_general(psys, cap=cap)
            assert_trace_matches(trace, reference_general(psys, cap))


@pytest.mark.parametrize("sid", ["bool", "trop", "capped:3", "trop_p:1"])
def test_change_driven_repeated_atom_matches_full_recompute(sid):
    # U(a) reads T(a,a) twice in one monomial
    s = semiring_from_id(sid)
    program = parse_program(
        "U(a) :- S(a) + T(a,a)*T(a,a).\nT(X,Y) :- E(X,Y) + T(X,Z)*E(Z,Y)."
    )
    rng = random.Random(3)
    facts = [("S", ("a",), None)] + [
        ("E", (u, v), s.show(nonzero_element(s, rng))) for u, v in ("aa", "ab", "ba", "bc")
    ]
    psys = ground(program, build_edb(s, facts))
    assert any(cols[0] == cols[1] for row in psys.monomials for _, cols in row if len(cols) == 2)
    trace = naive_eval_general(psys, cap=50)
    assert_trace_matches(trace, reference_general(psys, 50))


@pytest.mark.parametrize("n, L", [(2, 2), (3, 4), (5, 3), (8, 6)])
def test_change_driven_cycle_index(n, L):
    sys_ = gen_cycle_lowerbound(n, L)
    trace = naive_eval_linear(sys_)  # default cap
    assert trace.powersum_index == n * L + n - 1
    assert_trace_matches(trace, reference_linear(sys_, n * L + n + 5))
    hit = naive_eval_linear(sys_, cap=n * L)
    assert_trace_matches(hit, reference_linear(sys_, n * L))
    assert hit.capped


def assert_log_matches(trace, reference):
    """The change log field by field against whole reference states; each
    step is compared as a map, since the order within a step is free."""
    states, index, capped = reference
    assert trace.start == states[0]
    assert len(trace.changes) == len(states) - 1
    for step, prev, cur in zip(trace.changes, states, states[1:]):
        assert len(step) == len(dict(step))  # no row logged twice in a step
        assert dict(step) == {i: v for i, v in enumerate(cur) if v != prev[i]}
    assert trace.last == states[-1]
    assert trace.stability_index == index
    assert trace.capped == capped


def cycle_with_self_loops(n, L):
    """gen_cycle_lowerbound(n, L) plus a self-loop on every other vertex."""
    cycle = gen_cycle_lowerbound(n, L)
    s = cycle.semiring
    loops = [(k, k, 1 + k % 2) for k in range(0, n, 2)]
    A = Matrix(s, n, list(cycle.A.entries()) + loops)
    return GroundedLinearSystem.from_matrix(s, A, cycle.b, cycle.atoms)


@pytest.mark.parametrize("n, L", [(2, 2), (3, 4), (7, 5)])
def test_cycle_steps_of_one_change_match_full_recompute(n, L):
    sys_ = gen_cycle_lowerbound(n, L)
    for cap in (n * L + n + 5, n * L):  # converged, then capped
        trace = naive_eval_linear(sys_, cap=cap)
        assert all(len(step) == 1 for step in trace.changes[:n * L + n])
        assert_log_matches(trace, reference_linear(sys_, cap))


@pytest.mark.parametrize("n, L", [(2, 2), (3, 4), (6, 3)])
def test_self_loops_read_their_column_once(n, L):
    # row k reads column k through A[k][k] on every other vertex
    sys_ = cycle_with_self_loops(n, L)
    readers, _ = engine._linear_rows(sys_.A)
    assert all(len(r) == len(set(r)) for r in readers)
    assert all((k in readers[k]) == (k % 2 == 0) for k in range(n))
    for cap in (200, 5):
        trace = naive_eval_linear(sys_, cap=cap)
        assert_log_matches(trace, reference_linear(sys_, cap))


@pytest.mark.parametrize("sid", ["bool", "capped:3", "trop_p_fin:1:2", "trop_p:1"])
def test_monomial_reading_one_column_twice(sid):
    # row 0 is c + a * x0 * x0 and the only row that reads x0
    s = semiring_from_id(sid)
    rng = random.Random(5)
    c, a, d, e = (nonzero_element(s, rng) for _ in range(4))
    monomials = (((c, ()), (a, (0, 0))), ((d, ()), (e, (1,))))
    psys = GroundedPolynomialSystem(s, (("x0", ()), ("x1", ())), monomials, 2)
    readers, _ = engine._polynomial_rows(psys)
    assert readers == [[0], [1]]
    for cap in (40, 1):
        trace = naive_eval_general(psys, cap=cap)
        assert_log_matches(trace, reference_general(psys, cap))


def test_cycle_runs_evaluate_one_row_per_step(monkeypatch):
    iterate, calls = engine._iterate, []

    def counted(semiring, n, readers, row, cap, dirty):
        return iterate(semiring, n, readers, lambda i, x: calls.append(i) or row(i, x), cap, dirty)

    monkeypatch.setattr(engine, "_iterate", counted)
    n, L = 5, 3
    sys_ = gen_cycle_lowerbound(n, L)  # row k reads column k + 1; b[0] is one
    trace = naive_eval_linear(sys_)
    assert trace.stability_index == n * L + n
    # step 1 evaluates row 0 only, and each later step the one reader of the
    # column that changed
    changed = [i for step in trace.changes[:-1] for i, _ in step]
    assert calls == [0] + [(i - 1) % n for i in changed]
    for j in range(n):
        calls.clear()
        run = column_run(sys_.A, j, 4 * n * L)
        assert calls[0] == j
        assert len(calls) == run.wall_steps


def test_chain_steps_and_wide_steps_interleave():
    # rows 1-3 read the row before, a chain; rows 4 and 5 both read row 3, so
    # the next step is wide; row 6 reads 4 and, one step later, 8 (which reads
    # 5); row 7 reads 6, and row 0 reads 7 with weight 1, closing the loop
    s = semiring_from_id("capped:4")
    reads = [(1, 0), (2, 1), (3, 2), (4, 3), (5, 3), (8, 5), (6, 4), (6, 8), (7, 6), (0, 7)]
    A = Matrix(s, 9, [(i, j, 1 if i == 0 else 0) for i, j in reads])
    atoms = [(f"x{k}", ()) for k in range(9)]
    sys_ = GroundedLinearSystem.from_matrix(s, A, [s.one] + [s.zero] * 8, atoms)
    readers, _ = engine._linear_rows(A)
    changes = naive_eval_linear(sys_, cap=200).changes
    # a chain step follows a step of one change whose column has one reader
    chained = [
        q for q in range(1, len(changes))
        if len(changes[q - 1]) == 1 and len(readers[changes[q - 1][0][0]]) == 1
    ]
    wide = [q for q, step in enumerate(changes) if len(step) > 1]
    assert len(chained) >= 10 and len(wide) >= 4
    assert any(q - 1 in chained for q in wide)  # a chain runs into a wide step
    assert any(q - 2 in wide for q in chained)  # and a wide step into a chain
    for cap in range(1, len(changes) + 2):  # every cap, in a chain or not
        assert_log_matches(naive_eval_linear(sys_, cap=cap), reference_linear(sys_, cap))


def reference_csv(system, states):
    """trace_csv's format, written from a list of whole states."""
    s = system.semiring
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["step", "atom", "value"])
    for step, state in enumerate(states):
        for label, v in zip(system.atom_labels(), state):
            w.writerow([step, label, s.show(v)])
    return out.getvalue().encode()


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("sid", CHANGE_DRIVEN_IDS)
def test_change_log_and_trace_csv_match_full_recompute(sid, diagonal):
    s = semiring_from_id(sid)
    capped_seen = set()
    for seed in range(12):
        n = seed % 7  # n = 0 included
        runs = (
            (random_linear_system(s, n, seed), naive_eval_linear, reference_linear),
            (random_polynomial_system(s, n, seed), naive_eval_general, reference_general),
        )
        for system, evaluate, reference in runs:
            if diagonal:
                system = with_unit_diagonal(system)
            for cap in (60, 2):  # a cap of 2 is hit on most systems
                trace = evaluate(system, cap=cap)
                states, _, capped = reference(system, cap)
                capped_seen.add(capped)
                assert trace_csv(system, trace).encode() == reference_csv(system, states)
                assert "states" not in vars(trace)  # trace_csv replays the log
                assert trace.start == states[0]
                assert trace.last == states[-1]
                assert len(trace.changes) == len(states) - 1
                for step, prev, cur in zip(trace.changes, states, states[1:]):
                    assert dict(step) == {i: v for i, v in enumerate(cur) if v != prev[i]}
                    assert len(step) == len(dict(step))
    # the one-element carrier converges at step 0, so it never hits a cap
    assert capped_seen == ({False} if sid == "trivial" else {False, True})


@pytest.mark.parametrize("n, L", [(60, 40), (100, 40)])
def test_naive_eval_memory_grows_with_atoms_plus_steps(n, L):
    sys_ = gen_cycle_lowerbound(n, L)
    tracemalloc.start()
    try:
        trace = naive_eval_linear(sys_)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.wall_steps == n * L + n + 1
    assert "states" not in vars(trace)
    # keeping every state would cost about 8 * n bytes per step
    assert peak < 256 * (n + trace.wall_steps)


# ---------------------------------------------------------------------------
# Power sums and matrix stability
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [-1, -4])
def test_power_sum_rejects_a_negative_k(k):
    with pytest.raises(InvalidParameter, match="k must be >= 0"):
        matrix_power_sum(Matrix(semiring_from_id("bool"), 2), k)


def test_power_sum_zero_is_identity():
    s = semiring_from_id("bool")
    A = Matrix(s, 3, [(0, 1, True)])
    assert matrix_power_sum(A, 0) == Matrix.identity(s, 3)


def reference_power_sums(A, limit=200):
    """S(0), ..., S(k+1) by S(m+1) = I (+) A S(m) on whole matrices, for the
    first k with S(k) == S(k+1)."""
    ident = Matrix.identity(A.semiring, A.n)
    sums = [ident, ident.add(A.matmul(ident))]
    while sums[-1] != sums[-2]:
        assert len(sums) < limit
        sums.append(ident.add(A.matmul(sums[-1])))
    return sums


# ALL_IDS already holds capped:2..4
@pytest.mark.parametrize("sid", ALL_IDS + ("capped:5", "capped:6"))
def test_power_sum_recurrence(sid):
    s = semiring_from_id(sid)
    for n in range(9):
        for seed in range(2):
            A = gen_random_system(n, 0.4, s, seed=10 * n + seed).A
            sums = reference_power_sums(A)
            k = len(sums) - 2
            for m, S in enumerate(sums + [sums[-1]]):
                assert matrix_power_sum(A, m) == S, (n, seed, m)
            assert matrix_stability_index(A) == k
            for cap in range(1, k + 2):
                assert matrix_stability_index(A, cap=cap) == (k if k <= cap else None)


@pytest.mark.parametrize("n, L", [(2, 2), (3, 4), (4, 3)])
def test_matrix_index_cycle_at_the_cap(n, L):
    A = gen_cycle_lowerbound(n, L).A
    sums = reference_power_sums(A)
    k = len(sums) - 2
    assert k == n * L + n - 1
    assert matrix_stability_index(A, cap=k) == k
    assert matrix_stability_index(A, cap=k - 1) is None
    assert matrix_power_sum(A, k - 1) == sums[k - 1]


def test_power_sum_boolean_three_path():
    s = semiring_from_id("bool")
    A = Matrix(s, 3, [(0, 1, True), (1, 2, True)])
    S2 = matrix_power_sum(A, 2)
    assert S2.get(0, 2) is True
    assert S2.get(0, 0) is True
    assert S2.get(2, 0) is s.zero


def test_power_sum_one_by_one_matches_element_sequence():
    s = semiring_from_id("trop_p_fin:1:1")
    for u in s.elements():
        A = Matrix(s, 1, [(0, 0, u)])
        r = element_stability(s, u)
        for k in range(len(r.sequence)):
            assert matrix_power_sum(A, k).get(0, 0) == r.sequence[k]


def test_power_sum_capped_one_by_one_is_horner_shaped():
    # capped addition does not distribute, so the recurrence walks
    # 1 (+) u*(previous) instead of accumulating literal powers
    s = semiring_from_id("capped:4")
    A = Matrix(s, 1, [(0, 0, 1)])
    values = [matrix_power_sum(A, k).get(0, 0) for k in range(7)]
    assert values == [0, 1, 2, 3, 4, 4, 4]
    assert element_stability(s, 1).sequence == (0, 1, 3, 4, 4)


def test_matrix_stability_zero_matrix():
    s = semiring_from_id("bool")
    assert matrix_stability_index(Matrix(s, 3)) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_matrix_stability_boolean_cycle(n):
    s = semiring_from_id("bool")
    A = Matrix(s, n, [(i, (i + 1) % n, True) for i in range(n)])
    assert matrix_stability_index(A) == n - 1
    # cross-check: power sums match hop-bounded reachability
    edges = [(i, (i + 1) % n) for i in range(n)]
    reach = reachability(edges, n)
    S = matrix_power_sum(A, n - 1)
    for i in range(n):
        for j in range(n):
            assert S.get(i, j) == (i == j or j in reach[i])


def test_matrix_stability_appendix_cycle():
    sys_ = gen_cycle_lowerbound(3, 4)
    s = sys_.semiring
    k = matrix_stability_index(sys_.A)
    from semifix import longest_chain

    assert k >= 4
    assert k <= 3 * longest_chain(s)
    # power sums agree with explicit walk enumeration while every entry still
    # holds at most one walk (h <= n); beyond that capped addition compounds
    # differently under the two evaluation orders
    for h in range(4):
        S = matrix_power_sum(sys_.A, h)
        for i in range(3):
            for j in range(3):
                assert walk_sum_upto(sys_.A, i, j, h) == S.get(i, j)


@pytest.mark.parametrize("sid", ["bool", "trivial", "trop_p_fin:1:1", "trop_p_fin:2:2"])
def test_element_stability_matches_one_by_one_matrix(sid):
    s = semiring_from_id(sid)
    rng = random.Random(17)
    carrier = list(s.elements())
    for _ in range(20):
        u = rng.choice(carrier)
        r = element_stability(s, u, cap=64)
        A = Matrix(s, 1, [(0, 0, u)])
        assert matrix_stability_index(A, cap=64) == r.index


def test_trace_states_equal_power_sums_applied_to_seed():
    for sid in ("bool", "trop", "trop_p_fin:1:1"):
        db, sys_ = path_system(sid, 4, 0.6, seed=3)
        trace = naive_eval_linear(sys_)
        for q in range(1, len(trace.states)):
            S = matrix_power_sum(sys_.A, q - 1)
            assert trace.states[q] == tuple(
                sys_.semiring.add(a, b)
                for a, b in zip(S.matvec(sys_.b), [sys_.semiring.zero] * sys_.n)
            )


# ---------------------------------------------------------------------------
# Matrix file format and trace CSV
# ---------------------------------------------------------------------------

def test_save_load_roundtrip():
    db, sys_ = path_system("trop", 3, 0.8, seed=21)
    text = save_system(sys_)
    again = load_system(text)
    assert again.semiring is sys_.semiring
    assert again.n == sys_.n
    assert again.A == sys_.A
    assert again.b == sys_.b
    assert again.atoms == sys_.atoms
    assert save_system(again) == text


def test_load_system_minimal():
    sys_ = load_system("semiring capped:4\nn 2\nA 0 1 3\nb 0 O\nb 1 2\n")
    assert sys_.n == 2
    assert sys_.A.get(0, 1) == 3
    assert sys_.b == (sys_.semiring.zero, 2)
    assert sys_.atom_labels() == ("x0", "x1")


def test_load_system_rejects_bad_input():
    from semifix import ParseError

    with pytest.raises(ParseError):
        load_system("n 2\nA 0 1 true\n")  # entries before the semiring header
    with pytest.raises(ParseError):
        load_system("semiring bool\nn 2\nb 5 true\n")  # index out of range
    with pytest.raises(InvalidParameter):
        load_system("semiring bool\nn 2\nA 0 7 true\n")


def test_load_system_rejects_n_over_the_limit():
    from semifix import ParseError

    with pytest.raises(ParseError) as err:
        load_system(f"semiring bool\nn {MAX_ATOMS + 1}\n")
    assert err.value.line == 2


def test_trace_csv_shape():
    db, sys_ = path_system("bool", 3, 1.0, seed=2)
    trace = naive_eval_linear(sys_)
    csv_text = trace_csv(sys_, trace)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "step,atom,value"
    assert len(lines) == 1 + len(trace.states) * sys_.n
    assert '"T(v0,v1)"' in csv_text


def test_default_cap_terminates_capped_one_by_one():
    # single self-loop over a finite carrier must converge under default cap
    s = semiring_from_id("capped:6")
    atom = ("x", ())
    sys_ = GroundedLinearSystem(s, (atom,), Matrix(s, 1, [(0, 0, 1)]), (0,), 1)
    trace = naive_eval_linear(sys_)
    assert not trace.capped
    assert trace.fixpoint == (6,)


BUILT_IN_IDS = tuple(dict.fromkeys(ALL_IDS + tuple(f"capped:{L}" for L in range(2, 7))))


# GF(2) is stable at no index and not naturally ordered, so no bound applies to it
@pytest.mark.parametrize(
    "s", [semiring_from_id(sid) for sid in BUILT_IN_IDS] + [GF2Semiring()], ids=lambda s: s.id
)
def test_an_unset_cap_is_the_default_eval_cap(monkeypatch, s):
    resolved = []
    real = engine._default_cap

    def recording(cap):
        used = real(cap)
        if cap is None:
            resolved.append(used)
        return used

    monkeypatch.setattr(engine, "_default_cap", recording)
    # x0 <- x1, x1 <- 1 converges on every carrier, GF(2) included
    sys_ = GroundedLinearSystem.from_matrix(
        s, Matrix(s, 2, [(0, 1, s.one)]), [s.zero, s.one], [("x", ()), ("y", ())]
    )
    assert not naive_eval_linear(sys_).capped
    assert not naive_eval_general(as_monomial_system(sys_)).capped
    assert matrix_stability_index(sys_.A) is not None
    assert resolved == [engine.DEFAULT_EVAL_CAP] * 3


def _derived_cap(s, n):
    """The default cap the engine once derived from the carrier's p and chain."""
    if n == 0:
        return 1
    p, _src = effective_stability(s)
    chain = ordered_chain(s)
    if p is None and chain is None:
        return engine.DEFAULT_EVAL_CAP
    candidates = []
    if p is not None:
        candidates.append(n * n * n * (p + 2) + n)
    if chain is not None:
        candidates.append(n * chain + 2)
    return max(candidates)


@pytest.mark.parametrize("sid", BUILT_IN_IDS)
def test_default_cap_runs_equal_the_runs_at_the_derived_cap(sid):
    s = semiring_from_id(sid)
    for seed in range(12):
        sys_ = random_linear_system(s, seed % 7, seed)  # n = 0 included
        cap = _derived_cap(s, sys_.n)
        trace = naive_eval_linear(sys_)
        assert not trace.capped, seed
        assert trace == naive_eval_linear(sys_, cap=cap), seed
        index = matrix_stability_index(sys_.A)
        assert index is not None and index == matrix_stability_index(sys_.A, cap=cap), seed


def test_runs_compute_no_p_or_chain(monkeypatch):
    # a fresh 4,095-element carrier: its profile caches are cold, and
    # longest_chain alone would take seconds on it
    s = FiniteTropBagSemiring(1, 88)

    def refuse(*_):
        raise AssertionError("a run computed the carrier's p or chain")

    monkeypatch.setattr(semirings, "semiring_stability", refuse)
    monkeypatch.setattr(semirings, "longest_chain", refuse)
    w = s.weight(1)
    sys_ = GroundedLinearSystem.from_matrix(
        s, Matrix(s, 2, [(0, 1, w), (1, 0, w)]), [s.one, s.zero], [("x", ()), ("y", ())]
    )
    assert naive_eval_linear(sys_).stability_index is not None
    assert naive_eval_general(as_monomial_system(sys_)).stability_index is not None
    assert column_run(sys_.A, 0, 1000).stability_index is not None
    assert matrix_stability_index(sys_.A) is not None


def test_matrix_rejects_bad_dimensions_and_entries():
    s = semiring_from_id("bool")
    with pytest.raises(InvalidParameter, match="matrix dimension must be >= 0"):
        Matrix(s, -1)
    with pytest.raises(InvalidParameter, match=r"entry \(0,2\) outside a 2x2 matrix"):
        Matrix(s, 2, [(0, 2, True)])
    for op in (Matrix.matmul, Matrix.add):
        with pytest.raises(InvalidParameter, match="dimension mismatch"):
            op(Matrix(s, 2), Matrix(s, 3))
    assert Matrix.__eq__(Matrix(s, 0), ()) is NotImplemented
    assert Matrix(s, 0) != ()


@pytest.mark.parametrize(
    "s", [semiring_from_id(sid) for sid in ALL_IDS + ("capped:5",)] + [GF2Semiring()],
    ids=lambda s: s.id,
)
def test_constructor_columns_are_the_rows_transposed(s):
    rng = random.Random(f"columns/{s.id}")
    pool = list(s.elements() or seeded_elements(s, 30, seed=3)) + [s.zero]
    for n in (0, 1, 2, 6):
        # repeated coordinates, zero values, and on gf2 repeats that sum to zero
        entries = [(rng.randrange(n), rng.randrange(n), rng.choice(pool)) for _ in range(4 * n)]
        assert_columns_are_the_rows_transposed(Matrix(s, n, entries + entries[::2]))
    cancelled = Matrix(s, 2, [(0, 1, s.one), (1, 0, s.one), (0, 1, s.one)])
    assert_columns_are_the_rows_transposed(cancelled)
    if s.one != s.zero == s.add(s.one, s.one):  # gf2
        assert cancelled.columns() == [{1: s.one}, {}]


@pytest.mark.parametrize("sid", ALL_IDS + ("capped:5",))
def test_loaded_and_generated_columns_are_the_rows_transposed(sid):
    s = semiring_from_id(sid)
    systems = [gen_random_system(7, 0.4, s, seed) for seed in range(3)]
    systems += [
        gen_random_digraph(6, 0.4, (1, 9), s, seed, prune=prune)
        for seed in range(2) for prune in (False, True)
    ]
    systems.append(gen_blocked_graph(6, s))
    if sid.startswith("capped:"):
        systems.append(gen_cycle_lowerbound(4, int(sid.split(":")[1])))
    for sys_ in systems + [load_system(save_system(sys_)) for sys_ in systems]:
        assert_columns_are_the_rows_transposed(sys_.A)


@pytest.mark.parametrize("sid", ALL_IDS)
def test_matrix_add_matches_constructor_merge(sid):
    s = semiring_from_id(sid)
    n = 6
    for seed in range(20):
        rng = random.Random(seed)
        pool = s.elements() or seeded_elements(s, 30, seed=seed)

        def sparse():
            return Matrix(
                s,
                n,
                [
                    (i, j, rng.choice(pool))
                    for i in range(n)
                    for j in range(n)
                    if rng.random() < 0.4
                ],
            )

        a, b = sparse(), sparse()
        reference = Matrix(s, n, list(a.entries()) + list(b.entries()))
        merged = a.add(b)
        assert merged == reference
        assert list(merged.entries()) == list(reference.entries())


@pytest.mark.parametrize(
    "s",
    [semiring_from_id(sid) for sid in CHANGE_DRIVEN_IDS] + [GF2Semiring(), BrokenMulSemiring()],
    ids=lambda s: s.id,
)
def test_matvec_equals_the_fold_that_skips_nothing(s):
    rng = random.Random(f"matvec/{s.id}")
    pool = [v for v in s.elements() or seeded_elements(s, 30, seed=4) if v != s.zero] or [s.one]
    zeros = [s.zero]
    if isinstance(s.zero, tuple):  # a bag: a zero equal to s.zero, not the same object
        zeros.append(tuple(list(s.zero)))
        assert zeros[1] == s.zero and zeros[1] is not s.zero
    calls, mul = [], s.mul
    s.mul = lambda a, b: calls.append(1) or mul(a, b)  # as the benchmark's tracer counts
    try:
        for n in (0, 1, 3, 6):
            for _ in range(10):
                A = Matrix(s, n, [(rng.randrange(n), rng.randrange(n), rng.choice(pool)) for _ in range(2 * n)])
                x = tuple(rng.choice(zeros if rng.random() < 0.5 else pool) for _ in range(n))
                calls.clear()
                got = A.matvec(x)
                # a mul for each entry whose input is not the zero object itself
                assert len(calls) == sum(x[j] is not s.zero for i in range(n) for j in A.row(i))
                assert got == reference_matvec(A, x)
    finally:
        del s.mul


class _Mod4(Semiring):
    """Integers mod 4: 2 * 2 == 0 and 1 + 3 == 0, so sums and products can vanish."""

    id, zero, one = "mod4", 0, 1

    def add(self, a, b):
        return (a + b) % 4

    def mul(self, a, b):
        return a * b % 4


@pytest.mark.parametrize("seed", range(10))
def test_matmul_and_add_drop_entries_that_vanish(seed):
    s, n = _Mod4(), 5
    rng = random.Random(seed)
    dense = [[[rng.choice((0, 1, 2, 3)) for _ in range(n)] for _ in range(n)] for _ in range(2)]
    A, B = (Matrix(s, n, [(i, j, v) for i, r in enumerate(d) for j, v in enumerate(r)]) for d in dense)
    a, b = dense
    product = [[sum(a[i][k] * b[k][j] for k in range(n)) % 4 for j in range(n)] for i in range(n)]
    total = [[(a[i][j] + b[i][j]) % 4 for j in range(n)] for i in range(n)]
    for got, want in ((A.matmul(B), product), (A.add(B), total)):
        assert [[got.get(i, j) for j in range(n)] for i in range(n)] == want
        assert all(v != 0 for _, _, v in got.entries())



def _as_fraction(v):
    """``v`` as a Fraction when it is a finite trop value."""
    return v if v is INF else Fraction(v)


@pytest.mark.parametrize("seed", range(6))
def test_trop_traces_do_not_depend_on_int_values(seed):
    s = semiring_from_id("trop")
    grounded = ground(parse_program(LINEAR_PATH_PROGRAM), random_edge_instance(7, 0.4, s, seed))
    assert all(type(v) is int for _, _, v in grounded.A.entries())
    for sys_ in [grounded] + [gen_random_system(n, 0.4, s, seed) for n in (1, 3, 6, 9)]:
        forced = GroundedLinearSystem.from_matrix(
            s,
            Matrix(s, sys_.n, ((i, j, _as_fraction(v)) for i, j, v in sys_.A.entries())),
            [_as_fraction(v) for v in sys_.b],
            sys_.atoms,
        )
        trace, ref = naive_eval_linear(sys_), naive_eval_linear(forced)
        assert trace.states == ref.states
        assert trace.stability_index == ref.stability_index
        assert matrix_stability_index(sys_.A) == matrix_stability_index(forced.A)


# ---------------------------------------------------------------------------
# Add/mul tables of small finite carriers, and the zero skip
# ---------------------------------------------------------------------------

TABLED_IDS = tuple(
    dict.fromkeys(
        [sid for sid in ALL_IDS if engine._kernel(semiring_from_id(sid)) == "table_row"]
        + [f"capped:{L}" for L in range(2, 7)]
        + ["trop_p_fin:2:3"]
    )
)


# _tables builds tables for the finite push carriers too, though no run reads them
@pytest.mark.parametrize("sid", ("bool", "trivial") + TABLED_IDS)
def test_tables_equal_the_object_ops_on_every_pair(sid):
    s = semiring_from_id(sid)
    add_t, mul_t = engine._tables(s)
    carrier = s.elements()
    assert len(add_t) == len(mul_t) == len(carrier)
    for a in carrier:
        for b in carrier:
            for table, op in ((add_t, s.add), (mul_t, s.mul)):
                got, want = table[a][b], op(a, b)
                assert got == want and type(got) is type(want), (a, b)
                if want == s.zero:
                    assert got is s.zero


def _run_fields(trace):
    return trace.start, trace.changes, trace.last, trace.stability_index, trace.capped


def _kernel_results(A, b):
    """Every kernel caller's result on one (A, b), in comparable form."""
    sys_ = GroundedLinearSystem.from_matrix(
        A.semiring, A, b, [(f"x{i}", ()) for i in range(A.n)]
    )
    cap = 4 * A.n + 6
    return (
        _run_fields(naive_eval_linear(sys_, cap=cap)),
        [_run_fields(column_run(A, j, cap)) for j in range(A.n)],
        [list(matrix_power_sum(A, k).entries()) for k in (0, 1, 3)],
        matrix_stability_index(A),
        matrix_stability_index(A, cap=2),
    )


def _object_results(monkeypatch, A, b):
    """The kernel callers' results on the object row: no tables, no bag kernel."""
    with monkeypatch.context() as m:
        m.setattr(engine, "_kernel", lambda s: "row")
        return _kernel_results(A, b)


def _tabled_and_object(monkeypatch, A, b):
    """The kernel callers' results with tables, then on the object row."""
    return _kernel_results(A, b), _object_results(monkeypatch, A, b)


@pytest.mark.parametrize("sid", TABLED_IDS)
def test_tabled_kernel_equals_the_object_path(monkeypatch, sid):
    s = semiring_from_id(sid)
    assert engine._tables(s) is not None
    for seed in range(8):
        sys_ = gen_random_system(seed % 7 + 1, 0.4, s, seed)
        tabled, plain = _tabled_and_object(monkeypatch, sys_.A, sys_.b)
        assert tabled == plain, seed


@pytest.mark.parametrize("sid", ["capped:4", "trop_p_fin:1:3"])
def test_tabled_runs_call_no_object_op(monkeypatch, sid):
    s = semiring_from_id(sid)
    engine._tables(s)  # warm the cache
    calls = []
    for op in ("add", "mul"):
        real = getattr(s, op)
        monkeypatch.setattr(s, op, lambda a, b, op=op, real=real: calls.append(op) or real(a, b))
    traces = [
        naive_eval_linear(gen_random_system(6, 0.4, s, seed)) for seed in range(8)
    ]
    assert not any(t.capped for t in traces)
    assert sum(t.wall_steps for t in traces) > 2 * len(traces)  # the runs did real work
    assert calls == []


@pytest.mark.parametrize("n, L", [(2, 2), (3, 4), (5, 3), (4, 6)])
def test_tabled_kernel_equals_the_object_path_on_slow_cycles(monkeypatch, n, L):
    sys_ = gen_cycle_lowerbound(n, L)
    tabled, plain = _tabled_and_object(monkeypatch, sys_.A, sys_.b)
    assert tabled == plain
    assert tabled[3] == n * L + n - 1  # the cycle's matrix index, not a capped run


@pytest.mark.parametrize("sid, outside", [("capped:4", 7), ("trop_p_fin:1:3", (5, INF))])
def test_values_outside_the_tables_take_the_object_path(monkeypatch, sid, outside):
    s = semiring_from_id(sid)
    assert engine._kernel(s) == "table_row"
    untabled = "bag_row" if isinstance(s, TropBagSemiring) else "row"
    A = Matrix(s, 3, [(0, 1, outside), (1, 2, s.one), (2, 0, s.one), (2, 2, s.one)])
    assert A.get(0, 1) == outside  # the constructor stores it as given
    for b in ([s.zero, s.zero, s.one], [outside, s.zero, s.one]):
        tabled, plain = _tabled_and_object(monkeypatch, A, b)
        assert tabled == plain
        with monkeypatch.context() as m:  # the kernel the carrier has without tables
            m.setattr(engine, "_kernel", lambda s: untabled)
            assert _kernel_results(A, b) == plain


def test_only_carriers_with_at_most_64_elements_get_tables():
    assert len(engine._tables(semiring_from_id("capped:62"))[0]) == 64
    for sid in ("capped:63", "trop", "trop_p:2", "trop_p_fin:3:3"):
        assert engine._tables(semiring_from_id(sid)) is None
    s = semiring_from_id("capped:63")
    for seed in range(4):
        sys_ = gen_random_system(6, 0.4, s, seed)
        assert_trace_matches(naive_eval_linear(sys_, cap=80), reference_linear(sys_, 80))


@pytest.mark.parametrize("sid, outside", [("capped:4", 7), ("trop_p_fin:1:3", (5, INF))])
def test_values_outside_the_tables_take_the_object_path_around_a_chain(monkeypatch, sid, outside):
    # a one-entry cycle; row 1 reads column 2 through the off-table weight,
    # and with b[1] = outside a chain step reads an off-table value
    s = semiring_from_id(sid)
    A = Matrix(s, 3, [(0, 1, s.one), (1, 2, outside), (2, 0, s.one)])
    for b in ([s.one, s.zero, s.zero], [s.zero, outside, s.zero]):
        tabled, plain = _tabled_and_object(monkeypatch, A, b)
        assert tabled == plain


# ---------------------------------------------------------------------------
# Composed tables for chain steps
# ---------------------------------------------------------------------------


class LeakyZeroSemiring(Semiring):
    """Negative control on Z/3 with one leak, 2 * 0 = 1: zero does not annihilate 2.

    Rows skip a zero input, so a one-entry row with coefficient 2 maps zero to
    zero; a table composed from add and mul alone would map it to 1.
    """

    id = "leaky"
    zero = 0
    one = 1
    _carrier = (0, 1, 2)

    def add(self, a, b):
        return (a + b) % 3

    def mul(self, a, b):
        return 1 if (a, b) == (2, 0) else a * b % 3

    def parse(self, text):
        return int(text)

    def show(self, a):
        return str(a)


def one_entry_cycle(s, weights, b):
    """Row k reads column k + 1 alone, with weight ``weights[k]``."""
    n = len(weights)
    A = Matrix(s, n, [(k, (k + 1) % n, w) for k, w in enumerate(weights)])
    return GroundedLinearSystem.from_matrix(s, A, b, [(f"x{k}", ()) for k in range(n)])


def _chain_cases():
    cases = {f"capped:{L}": gen_cycle_lowerbound(3, L) for L in (2, 3, 4, 5, 6, 62)}
    for sid in ("trop_p_fin:1:3", "trop_p_fin:2:3"):
        s = semiring_from_id(sid)
        rng = random.Random(sid)
        weights = [nonzero_element(s, rng) for _ in range(5)]
        # rows 0 and 2 keep the row function: their b entries are not zero
        b = [s.one, s.zero, nonzero_element(s, rng), s.zero, s.zero]
        cases[sid] = one_entry_cycle(s, weights, b)
    cases["broken"] = one_entry_cycle(BrokenMulSemiring(), [1, 1, 2], [2, 0, 1])
    cases["gf2"] = one_entry_cycle(GF2Semiring(), [1, 1, 1], [1, 0, 1])  # values return to zero
    # x0 goes 1, 0, 1, ...: row 1 reads zero through coefficient 2
    cases["leaky"] = one_entry_cycle(LeakyZeroSemiring(), [1, 2], [1, 0])
    return cases


CHAIN_CASES = _chain_cases()


def _runs_at(sys_, cap):
    """naive_eval_linear and every column run at ``cap``, in comparable form."""
    return (
        _run_fields(naive_eval_linear(sys_, cap=cap)),
        [_run_fields(column_run(sys_.A, j, cap)) for j in range(sys_.n)],
    )


@pytest.mark.parametrize("case", CHAIN_CASES)
def test_composed_chain_equals_the_object_row(monkeypatch, case):
    sys_ = CHAIN_CASES[case]
    assert engine._kernel(sys_.semiring) == "table_row"
    tabled, plain = _tabled_and_object(monkeypatch, sys_.A, sys_.b)
    assert tabled == plain
    steps = naive_eval_linear(sys_, cap=200).wall_steps
    caps = range(1, steps + 2)  # every cap, in a chain or at its end
    tabled = [_runs_at(sys_, cap) for cap in caps]
    with monkeypatch.context() as m:
        m.setattr(engine, "_kernel", lambda s: "row")
        assert tabled == [_runs_at(sys_, cap) for cap in caps]


def test_composed_tables_keep_the_zero_skip():
    # every coefficient of a lawful carrier gets a table; the leaky 2 gets none
    s = LeakyZeroSemiring()
    assert sorted(engine._composed(s)) == [0, 1]
    assert engine._composed(GF2Semiring()) == {0: {0: 0, 1: 0}, 1: {0: 0, 1: 1}}
    s = semiring_from_id("capped:62")
    composed = engine._composed(s)
    assert len(composed) == 64 and sum(map(len, composed.values())) == 64 * 64
    assert all(composed[a][s.zero] is s.zero for a in composed)


def table_row_calls(run):
    """The rows of the ``table_row`` calls that ``run()`` makes, and its result."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "table_row":
            calls.append(frame.f_locals["i"])

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return calls, result


@pytest.mark.parametrize("n, L", [(5, 3), (7, 5), (4, 62)])
def test_chain_steps_on_tables_call_no_row_function(n, L):
    sys_ = gen_cycle_lowerbound(n, L)  # row k reads column k + 1; b[0] is one
    calls, trace = table_row_calls(lambda: naive_eval_linear(sys_))
    assert trace.stability_index == n * L + n
    # step 1, and each step that reaches row 0, whose b entry is not zero;
    # every other step reads a composed table
    changed = [i for step in trace.changes[:-1] for i, _ in step]
    assert calls == [0] * (1 + changed.count(1))
    assert len(calls) < trace.wall_steps // n + 2
    for j in range(n):
        calls, run = table_row_calls(lambda: column_run(sys_.A, j, 4 * n * L))
        assert not run.capped
        changed = [i for step in run.changes[:-1] for i, _ in step]
        assert calls == [j] * (1 + changed.count((j + 1) % n))


# the kernel of every carrier in ALL_IDS, and of carriers at the edge of a choice
KERNEL_OF = {sid: "table_row" for sid in FINITE_IDS} | {
    "bool": "push",  # bool, trivial and trop push
    "trivial": "push",
    "trop": "int_push",
    "trop_p:1": "bag_row",
    "trop_p:2": "bag_row",
    "capped:62": "table_row",  # 64 elements, the most that get tables
    "capped:63": "row",
    "trop_p_fin:2:3": "table_row",
    "trop_p_fin:3:3": "bag_row",  # 70 elements: a bag carrier too large for tables
    "broken": "table_row",  # BrokenMulSemiring: finite, of no built-in class
}


@pytest.mark.parametrize("sid", KERNEL_OF)
def test_kernel_picks_one_kernel_per_carrier(monkeypatch, sid):
    s = BrokenMulSemiring() if sid == "broken" else semiring_from_id(sid)
    assert engine._kernel(s) == KERNEL_OF[sid]
    # the build runs the function the answer names: none falls through to another
    sys_ = gen_random_system(4, 0.5, s, seed=1)
    assert engine._linear_rows(sys_.A)[1](sys_.b, engine._support(sys_.b, s.zero))[0].__name__ == KERNEL_OF[sid]
    monkeypatch.setattr(engine, "_kernel", lambda s: "row")  # the object row runs on every carrier
    readers, rows_for = engine._linear_rows(sys_.A)
    assert readers is not None and rows_for(sys_.b, engine._support(sys_.b, s.zero))[0].__name__ == "row"


def test_rows_skip_zero_inputs_without_changing_the_trace(monkeypatch):
    s = TropBagSemiring(2)  # a private instance, so counting wraps no shared carrier
    # the object row, which calls mul once per nonzero input
    monkeypatch.setattr(engine, "_kernel", lambda s: "row")
    calls = {"mul": 0, "zero_operand": 0}
    mul = s.mul

    def counted_mul(a, b):
        calls["mul"] += 1
        calls["zero_operand"] += b == s.zero
        return mul(a, b)

    sys_ = ground(parse_program(LINEAR_PATH_PROGRAM), random_edge_instance(8, 0.35, s, seed=3))
    reference = reference_linear(sys_, 60)
    s.mul = counted_mul
    trace = naive_eval_linear(sys_, cap=60)
    del s.mul
    assert_trace_matches(trace, reference)
    # replay the dirty rows: the parent row multiplied every entry it read
    reads = [list(sys_.A.row(i)) for i in range(sys_.n)]
    dirty, entries_read, nonzero_read = range(sys_.n), 0, 0
    for x, step in zip(trace.states, trace.changes):
        for i in dirty:
            entries_read += len(reads[i])
            nonzero_read += sum(x[j] != s.zero for j in reads[i])
        changed = {i for i, _ in step}
        dirty = [i for i in range(sys_.n) if changed.intersection(reads[i])]
    assert calls == {"mul": nonzero_read, "zero_operand": 0}
    assert nonzero_read < entries_read


@pytest.mark.parametrize("source", ["path program", "random system"])
def test_bag_rows_skip_zero_inputs_and_sum_only_the_limited_pairs(monkeypatch, source):
    s = TropBagSemiring(2)  # a private instance, so counting wraps no shared carrier
    assert engine._kernel(s) == "bag_row"
    limits = s.limits
    sums = [0]

    class Counted(int):
        """An entry of A that counts the entry sums formed from it."""

        def __add__(self, other):
            sums[0] += 1
            return int.__add__(self, other)

    if source == "path program":  # single-entry weights
        grounded = ground(parse_program(LINEAR_PATH_PROGRAM), random_edge_instance(8, 0.35, s, seed=3))
    else:  # bags of up to three entries
        grounded = gen_random_system(12, 0.2, s, seed=3)
    reference = reference_linear(grounded, 60)
    A = Matrix(s, grounded.n, [
        (i, j, tuple(e if e is INF else Counted(e) for e in v)) for i, j, v in grounded.A.entries()
    ])
    sys_ = GroundedLinearSystem.from_matrix(s, A, grounded.b, grounded.atoms)
    calls = []
    for op in ("add", "mul"):
        real = getattr(s, op)
        monkeypatch.setattr(s, op, lambda a, b, op=op, real=real: calls.append(op) or real(a, b))
    trace = naive_eval_linear(sys_, cap=60)
    assert_trace_matches(trace, reference)
    assert calls == []
    # replay the dirty rows: the pairs (a, c) with c < limits[a] of finite entries
    reads = [list(A.row(i).items()) for i in range(sys_.n)]
    dirty, entries_read, nonzero_read, pairs = range(sys_.n), 0, 0, 0
    for x, step in zip(trace.states, trace.changes):
        for i in dirty:
            entries_read += len(reads[i])
            for j, v in reads[i]:
                if x[j] != s.zero:
                    nonzero_read += 1
                    pairs += sum(
                        u is not INF and e is not INF
                        for a, u in enumerate(v) for e in x[j][:limits[a]]
                    )
        changed = {i for i, _ in step}
        dirty = [i for i in range(sys_.n) if changed.intersection(j for j, _ in reads[i])]
    assert sums[0] == pairs > 0
    assert nonzero_read < entries_read


# ---------------------------------------------------------------------------
# trop_p rows folded with one sort
# ---------------------------------------------------------------------------

BAG_IDS = ("trop_p:1", "trop_p:2", "trop_p:3", "trop_p_fin:3:3")


def _bag_and_object(monkeypatch, A, b):
    """The kernel callers' results on the bag kernel, then on the object row."""
    s = A.semiring
    assert engine._kernel(s) == "bag_row"
    return _kernel_results(A, b), _object_results(monkeypatch, A, b)


def _fractional_bag_system(s, n, seed):
    """A bag system with three entries per row, entries k/d for small d, half of b zero."""
    rng = random.Random(seed)

    def bag():
        k = rng.randint(1, s.p + 1)
        return min_p_truncate(s.p, [Fraction(rng.randint(0, 40), rng.choice((1, 2, 3, 7))) for _ in range(k)])

    entries = [(i, rng.randrange(n), bag()) for i in range(n) for _ in range(3)]
    b = [bag() if rng.random() < 0.5 else s.zero for _ in range(n)]
    return GroundedLinearSystem.from_matrix(s, Matrix(s, n, entries), b, [(f"x{i}", ()) for i in range(n)])


@pytest.mark.parametrize("sid", BAG_IDS)
def test_bag_kernel_equals_the_object_row_on_random_systems(monkeypatch, sid):
    s = semiring_from_id(sid)
    for seed in range(8):
        sys_ = gen_random_system(seed % 7 + 1, 0.4, s, seed)
        bag, plain = _bag_and_object(monkeypatch, sys_.A, sys_.b)
        assert bag == plain, seed


@pytest.mark.parametrize("sid", ["trop_p:1", "trop_p:2", "trop_p:3"])
def test_bag_kernel_equals_the_object_row_on_fraction_entries(monkeypatch, sid):
    s = semiring_from_id(sid)
    for seed, n in enumerate((1, 3, 5, 8)):
        sys_ = _fractional_bag_system(s, n, seed)
        assert any(type(e) is Fraction for _, _, v in sys_.A.entries() for e in v)
        bag, plain = _bag_and_object(monkeypatch, sys_.A, sys_.b)
        assert bag == plain, seed


def test_bag_kernel_equals_the_object_row_on_the_path_program(monkeypatch):
    s = semiring_from_id("trop_p:2")
    for seed in range(4):
        sys_ = ground(parse_program(LINEAR_PATH_PROGRAM), random_edge_instance(6, 0.4, s, seed))
        bag, plain = _bag_and_object(monkeypatch, sys_.A, sys_.b)
        assert bag == plain, seed


def test_bag_kernel_saturates_products_but_not_b(monkeypatch):
    s = semiring_from_id("trop_p_fin:3:3")
    big = (2, 5, 9, INF)  # two entries above the chain 0..3
    A = Matrix(s, 3, [(0, 1, big), (1, 2, s.one), (2, 0, s.weight(1)), (2, 2, s.one)])
    for b in ([s.zero, s.zero, s.one], [big, s.zero, s.one]):
        bag, plain = _bag_and_object(monkeypatch, A, b)
        assert bag == plain
    # row 0 keeps the product sums 2, 5, 9 saturated and b[0]'s 4 as it is
    A = Matrix(s, 2, [(0, 1, big)])
    bag, plain = _bag_and_object(monkeypatch, A, [(4, 6, INF, INF), s.one])
    assert bag == plain
    assert bag[0][2] == ((2, 3, 3, 4), s.one)


@pytest.mark.parametrize(
    "a_value, b_value", [((1,), None), ([1, INF, INF], None), (None, (2, 3)), (None, [0, INF, INF])]
)
def test_a_value_of_another_shape_takes_the_object_row_which_rejects_it(a_value, b_value):
    s = semiring_from_id("trop_p:2")
    A = Matrix(s, 2, [(0, 1, a_value or s.weight(1)), (1, 0, s.weight(1))])
    b = [s.zero, b_value or s.one]
    sys_ = GroundedLinearSystem.from_matrix(s, A, b, [("x", ()), ("y", ())])
    with pytest.raises(MalformedElement, match="^expected a bag of exactly 3 entries"):
        naive_eval_linear(sys_)


@pytest.mark.parametrize("sid", BAG_IDS)
def test_bag_runs_call_no_object_op(monkeypatch, sid):
    s = semiring_from_id(sid)
    systems = [gen_random_system(6, 0.4, s, seed) for seed in range(6)]
    calls = []
    for op in ("add", "mul"):
        real = getattr(s, op)
        monkeypatch.setattr(s, op, lambda a, b, op=op, real=real: calls.append(op) or real(a, b))
    traces = [naive_eval_linear(sys_) for sys_ in systems]
    columns = [column_run(sys_.A, j, 40) for sys_ in systems for j in range(sys_.n)]
    indices = [matrix_stability_index(sys_.A) for sys_ in systems]
    assert not any(t.capped for t in traces + columns) and None not in indices
    assert sum(t.wall_steps for t in traces) > 2 * len(traces)  # the runs did real work
    assert calls == []


# ---------------------------------------------------------------------------
# trop rows on ints scaled by the common denominator
# ---------------------------------------------------------------------------

TROP = semiring_from_id("trop")


def _scale_of(A, b):
    """The scale D the trop kernel runs the vector run of (A, b) on."""
    _, rows_for = engine._linear_rows(A)
    return rows_for(b, engine._support(b, A.semiring.zero))[1]


def _scaled_and_object(monkeypatch, A, b):
    """The kernel callers' results on scaled ints, then on the object push."""
    scaled = _kernel_results(A, b)
    with monkeypatch.context() as m:
        m.setattr(engine, "_kernel", lambda s: "push")
        assert _scale_of(A, b) == 1
        return scaled, _kernel_results(A, b)


def _fractional_system(n, denominators, seed):
    """A trop system with three entries per row, weights k/d for d drawn from ``denominators``."""
    rng = random.Random(seed)

    def weight():
        return Fraction(rng.randint(0, 40), rng.choice(denominators))

    entries = [(i, rng.randrange(n), weight()) for i in range(n) for _ in range(3)]
    b = [weight() if rng.random() < 0.5 else INF for _ in range(n)]
    atoms = [(f"x{i}", ()) for i in range(n)]
    return GroundedLinearSystem.from_matrix(TROP, Matrix(TROP, n, entries), b, atoms)


def _random_trop_systems(n):
    return [gen_random_system(n, 0.4, TROP, 10 * n + seed) for seed in range(6)]


@pytest.mark.parametrize("n", range(1, 10))
def test_scaled_trop_kernel_equals_the_object_path(monkeypatch, n):
    for seed, sys_ in enumerate(_random_trop_systems(n)):
        scaled, plain = _scaled_and_object(monkeypatch, sys_.A, sys_.b)
        assert scaled == plain, seed


def test_the_random_trop_systems_have_fractions_and_inf_in_b():
    drawn = [sys_ for n in range(1, 10) for sys_ in _random_trop_systems(n)]
    assert sum(v is INF for sys_ in drawn for v in sys_.b) > 50
    assert sum(type(v) is Fraction for sys_ in drawn for _, _, v in sys_.A.entries()) > 50
    assert sum(_scale_of(sys_.A, sys_.b) > 1 for sys_ in drawn) > len(drawn) // 2


def test_scaled_trop_kernel_rescales_for_new_denominators_in_b(monkeypatch):
    sys_ = _fractional_system(6, (2, 3), seed=1)
    b = [v if v is INF else v + Fraction(1, 7) for v in sys_.b]
    assert _scale_of(sys_.A, sys_.b) == 6 and _scale_of(sys_.A, b) == 42
    scaled, plain = _scaled_and_object(monkeypatch, sys_.A, b)
    assert scaled == plain


def test_integral_trop_system_is_not_scaled(monkeypatch):
    sys_ = ground(parse_program(LINEAR_PATH_PROGRAM), random_edge_instance(6, 0.4, TROP, 2))
    assert all(type(v) is int for _, _, v in sys_.A.entries())
    assert _scale_of(sys_.A, sys_.b) == 1
    scaled, plain = _scaled_and_object(monkeypatch, sys_.A, sys_.b)
    assert scaled == plain


def test_scaled_trop_kernel_with_a_48_bit_scale(monkeypatch):
    # the odd primes up to 41: their product has 48 bits
    sys_ = _fractional_system(25, (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41), seed=4)
    assert _scale_of(sys_.A, sys_.b).bit_length() == 48
    scaled, plain = _scaled_and_object(monkeypatch, sys_.A, sys_.b)
    assert scaled == plain
    report = bounds.reports_jsonl([bounds.analyze(sys_)])
    with monkeypatch.context() as m:
        m.setattr(engine, "_kernel", lambda s: "push")
        assert bounds.reports_jsonl([bounds.analyze(sys_)]) == report


def test_trop_runs_call_no_object_op(monkeypatch):
    systems = [gen_random_system(6, 0.4, TROP, seed) for seed in range(8)]
    calls = []
    for op in ("add", "mul"):
        real = getattr(TROP, op)
        monkeypatch.setattr(TROP, op, lambda a, b, op=op, real=real: calls.append(op) or real(a, b))
    traces = [naive_eval_linear(sys_) for sys_ in systems]
    indices = [matrix_stability_index(sys_.A) for sys_ in systems]
    sums = [matrix_power_sum(sys_.A, 3) for sys_ in systems]
    assert not any(t.capped for t in traces) and None not in indices
    assert sum(t.wall_steps for t in traces) > 2 * len(traces)  # the runs did real work
    assert len(sums) == len(systems)
    assert calls == []


def test_scaled_column_runs_leave_no_blocks_behind():
    # a tuple built from an iterator keeps its resized block on a free list
    # that only a full collection empties; a run must not leave such blocks
    systems = [_fractional_system(n, (2, 3, 4), seed) for seed, n in enumerate((4, 6, 8, 10))]
    runs = [(sys_.A, j) for sys_ in systems for j in range(sys_.n)]
    for A, j in runs:
        column_run(A, j, 40)
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for k in range(800):
            A, j = runs[k % len(runs)]
            column_run(A, j, 40)
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 3000


# ---------------------------------------------------------------------------
# Push steps on carriers with idempotent add and distributive mul
# ---------------------------------------------------------------------------

# bool, trivial and trop (tests/test_semirings.py pins the declarations)
PUSH_IDS = tuple(sid for sid in ALL_IDS if engine._kernel(semiring_from_id(sid)).endswith("push"))


def _push_systems(s):
    """Systems from every generator the push tests draw on, n = 0-8; on trop
    also fractional weights with inf in b."""
    systems = [random_linear_system(s, seed % 9, seed) for seed in range(18)]
    systems += [gen_random_system(seed % 8 + 1, 0.4, s, seed) for seed in range(8)]
    if s is TROP:
        systems += [_fractional_system(n, (2, 3, 7), seed) for seed, n in enumerate((1, 3, 5, 8))]
    return systems


def test_the_push_systems_have_fractions_and_inf_in_b():
    systems = _push_systems(TROP)
    assert sum(v is INF for sys_ in systems for v in sys_.b) > 20
    assert sum(type(v) is Fraction for sys_ in systems for _, _, v in sys_.A.entries()) > 20


@pytest.mark.parametrize("kernel", ["own", "object"])
@pytest.mark.parametrize("sid", PUSH_IDS)
def test_push_matches_full_recompute(monkeypatch, sid, kernel):
    s = semiring_from_id(sid)
    if kernel == "object":  # no ints: the push calls add and mul
        monkeypatch.setattr(engine, "_kernel", lambda s: "push")
    for sys_ in _push_systems(s):
        for cap in (1, 2, 60):
            trace = naive_eval_linear(sys_, cap=cap)
            assert_log_matches(trace, reference_linear(sys_, cap))


def _rows_per_step(trace):
    return [dict(step) for step in trace.changes], trace.last, trace.stability_index, trace.capped


@pytest.mark.parametrize("sid", PUSH_IDS)
def test_push_changes_the_rows_the_pull_loop_changes(monkeypatch, sid):
    s = semiring_from_id(sid)
    for sys_ in _push_systems(s):
        cap = 4 * sys_.n + 6
        runs = [naive_eval_linear(sys_, cap=cap)]
        runs += [column_run(sys_.A, j, cap) for j in range(sys_.n)]
        indices = [matrix_stability_index(sys_.A), matrix_stability_index(sys_.A, cap=2)]
        with monkeypatch.context() as m:
            m.setattr(engine, "_kernel", lambda s: "row")  # the pull loop
            assert engine._linear_rows(sys_.A)[0] is not None
            pulled = [naive_eval_linear(sys_, cap=cap)]
            pulled += [column_run(sys_.A, j, cap) for j in range(sys_.n)]
            assert indices == [matrix_stability_index(sys_.A), matrix_stability_index(sys_.A, cap=2)]
        assert list(map(_rows_per_step, runs)) == list(map(_rows_per_step, pulled))


def test_a_push_folds_each_entry_of_the_changed_columns_once(monkeypatch):
    s = TROP.__class__()  # a private instance, so counting wraps no shared carrier
    # the object push, which calls mul once per folded entry
    monkeypatch.setattr(engine, "_kernel", lambda s: "push")
    mul, calls = s.mul, [0]

    def counted_mul(a, b):
        calls[0] += 1
        return mul(a, b)

    s.mul = counted_mul
    for seed in range(6):
        sys_ = gen_random_system(8, 0.3, s, seed)
        calls[0] = 0
        trace = naive_eval_linear(sys_)
        assert not trace.capped and trace.wall_steps > 2
        column = [sum(j in sys_.A.row(i) for i in range(sys_.n)) for j in range(sys_.n)]
        # b is folded once, then each entry of each column that changed
        folds = sum(v is not s.zero for v in sys_.b)
        folds += sum(column[c] for step in trace.changes for c, _ in step)
        assert calls[0] == folds
