import json

import pytest

from semifix import (
    Matrix,
    analyze,
    bound_general_exp,
    bound_linear_exp,
    bound_linear_pn3,
    bound_linear_pnlogL,
    bound_loose_npL,
    bound_naturally_ordered,
    bound_zero_stable,
    build_edb,
    ground,
    parse_program,
    semiring_from_id,
)
from semifix.bounds import reports_jsonl, summary_csv
from semifix.errors import InvalidParameter
from semifix.frontend import GroundedLinearSystem
from semifix.generators import (
    LINEAR_PATH_PROGRAM,
    gen_cycle_lowerbound,
    gen_random_system,
)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

def test_bound_linear_pn3_values():
    assert bound_linear_pn3(2, 1) == 13
    assert bound_linear_pn3(1, 5) == 0
    assert bound_linear_pn3(3, 0) == 38


def test_bound_linear_pnlogL_values():
    assert bound_linear_pnlogL(4, 1, 2) == 65
    assert bound_linear_pnlogL(3, 0, 7) == 1
    assert bound_linear_pnlogL(3, 3, 6) == 260


def test_bound_exponential_values():
    assert bound_general_exp(2, 1) == 12
    assert bound_linear_exp(2, 1) == 6
    assert bound_general_exp(3, 2) == 84
    assert bound_zero_stable(5) == 5
    # the exponential sums do not saturate
    assert bound_general_exp(64, 7) == sum(9**i for i in range(1, 65))


def test_bound_naturally_ordered_values():
    assert bound_naturally_ordered(3, 5) == 15
    assert bound_naturally_ordered(4, 0) == 0


def test_bound_loose_npL_values():
    assert bound_loose_npL(2, 3, 6) == 36
    assert bound_loose_npL(5, 0, 9) == 0
    assert bound_loose_npL(4, 1, 2) == 8


def test_pnlogL_matches_float_evaluation():
    import math

    for n in range(1, 7):
        for p in range(0, 5):
            for L in (1, 2, 3, 6, 7, 64, 1000):
                exact = bound_linear_pnlogL(n, p, L)
                approx = math.ceil(8 * p * (math.log2(L) + 1) * n - 1e-9) + 1
                assert abs(exact - approx) <= 1, (n, p, L, exact, approx)
                if L & (L - 1) == 0:  # powers of two have exact float logs
                    assert exact == math.ceil(8 * p * (math.log2(L) + 1) * n) + 1


def test_no_ordering_between_carrier_size_bounds():
    # neither carrier-size formula dominates the other
    assert bound_linear_pnlogL(1, 1, 2) > bound_loose_npL(1, 1, 2)
    assert bound_linear_pnlogL(2, 3, 4096) < bound_loose_npL(2, 3, 4096)


def test_bound_preconditions():
    with pytest.raises(InvalidParameter):
        bound_linear_pn3(0, 1)
    with pytest.raises(InvalidParameter):
        bound_linear_pnlogL(2, 1, 0)
    with pytest.raises(InvalidParameter):
        bound_zero_stable(0)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def tc_system(edges):
    s = semiring_from_id("bool")
    db = build_edb(s, [("E", (a, b), None) for a, b in edges])
    return ground(parse_program(LINEAR_PATH_PROGRAM), db)


def test_analyze_boolean_tc_zero_stable():
    report = analyze(tc_system([("a", "b"), ("b", "c"), ("c", "d")]))
    assert report.p == 0
    assert report.violations == []
    assert report.measured_index is not None
    assert report.trace_index <= report.bounds["bound_zero_stable"]
    assert report.bounds["bound_naturally_ordered"] == report.n


def test_analyze_appendix_cycle():
    sys_ = gen_cycle_lowerbound(3, 4)
    report = analyze(sys_, instance_id="cycle-3-4")
    assert report.matrix_index >= 4
    assert report.violations == []
    assert report.p == 3 and report.p_source == "computed"
    assert report.L == 6 and report.chain == 5
    assert report.naturally_ordered is True
    payload = report.to_dict()
    assert payload["instance_id"] == "cycle-3-4"
    json.dumps(payload)


def test_analyze_symbolic_semiring_reports_measurement_only():
    s = semiring_from_id("trop")
    sys_ = gen_random_system(3, 0.8, s, seed=1)
    report = analyze(sys_)
    assert report.p is None and report.L is None and report.chain is None
    assert report.bounds == {}
    assert report.measured_index is not None
    assert report.violations == []


def test_analyze_claimed_parameters_for_symbolic_carrier():
    s = semiring_from_id("trop_p:1")
    sys_ = gen_random_system(3, 0.8, s, seed=2)
    report = analyze(sys_, claimed_p=1, claimed_L=50)
    assert report.p == 1 and report.p_source == "claimed"
    assert report.L == 50 and report.L_source == "claimed"
    assert "bound_loose_npL" in report.bounds
    assert "bound_linear_pn3" in report.bounds
    assert report.violations == []


def test_analyze_empty_system():
    s = semiring_from_id("bool")
    sys_ = ground(parse_program(LINEAR_PATH_PROGRAM), build_edb(s, []))
    report = analyze(sys_)
    assert report.n == 0
    assert report.bounds == {}
    assert report.measured_index == 0
    assert report.matrix_index == 0
    assert report.violations == []


def test_degenerate_bounds_reported_not_enforced():
    # carrier-size formulas collapse at p = 0 and the cubic one at n = 1
    report = analyze(tc_system([("a", "b")]))
    assert report.p == 0
    assert "bound_loose_npL" in report.degenerate_bounds
    assert "bound_linear_pnlogL" in report.degenerate_bounds
    assert report.violations == []


def test_pn3_degenerate_at_n1():
    # a single self-loop with a 1-stable label exceeds the printed cubic
    # formula value of 0, so at n = 1 the formula is reported, not enforced
    s = semiring_from_id("trop_p_fin:1:1")
    atom = ("x", ())
    sys_ = GroundedLinearSystem(s, (atom,), Matrix(s, 1, [(0, 0, (0, 0))]), (s.one,), 1)
    report = analyze(sys_)
    assert report.matrix_index == 1 > bound_linear_pn3(1, report.p)
    assert report.degenerate_bounds["bound_linear_pn3"] == 0
    assert "bound_linear_pn3" not in report.bounds
    assert report.violations == []


def test_small_cap_does_not_fabricate_violations():
    sys_ = gen_cycle_lowerbound(4, 6)
    report = analyze(sys_, cap=3)
    assert report.capped
    assert report.measured_index is None
    assert report.violations == []


def test_reports_jsonl_and_csv():
    reports = [
        analyze(gen_cycle_lowerbound(2, 2), instance_id="a"),
        analyze(gen_cycle_lowerbound(3, 2), instance_id="b"),
    ]
    lines = reports_jsonl(reports).strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["instance_id"] == "a"
    csv_text = summary_csv(reports)
    rows = csv_text.strip().splitlines()
    assert rows[0].startswith("instance,semiring,n,p,L,chain,measured,matrix")
    assert len(rows) == 3
