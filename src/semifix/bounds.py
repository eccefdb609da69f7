"""Worst-case convergence step bounds and per-instance conformance reports.

Every formula bounds the matrix power-sum stability index (smallest k with
S(k) == S(k+1)), which also bounds the power-sum index of any seed vector.
Arithmetic is exact; the exponential formulas return arbitrary-precision
integers rather than saturating.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import engine
from .errors import InvalidParameter
from .frontend import GroundedLinearSystem
from .semirings import Semiring, effective_stability, ordered_chain


# the least legal value of each bound parameter
_MINIMUM = {"n": 1, "p": 0, "L": 1, "chain": 0}


def _check(**params: int):
    for name, value in params.items():
        if value < _MINIMUM[name]:
            raise InvalidParameter(f"{name} must be >= {_MINIMUM[name]}")


def bound_linear_pn3(n: int, p: int) -> int:
    """n(n^2 - n)(p + 2) + n - 1, the cubic bound for linear systems."""
    _check(n=n, p=p)
    return n * (n * n - n) * (p + 2) + n - 1


def _ceil_log2_pow(base: int, exp: int) -> int:
    # smallest integer >= exp * lg(base), computed exactly
    if exp == 0 or base == 1:
        return 0
    return (base**exp - 1).bit_length()


def bound_linear_pnlogL(n: int, p: int, L: int) -> int:
    """ceil(8 p (lg L + 1) n) + 1, the carrier-size bound for linear systems."""
    _check(n=n, p=p, L=L)
    return 8 * p * n + _ceil_log2_pow(L, 8 * p * n) + 1


def bound_general_exp(n: int, p: int) -> int:
    """Sum of (p+2)^i for i = 1..n, the general polynomial-system bound."""
    _check(n=n, p=p)
    return sum((p + 2) ** i for i in range(1, n + 1))


def bound_linear_exp(n: int, p: int) -> int:
    """Sum of (p+1)^i for i = 1..n, the exponential linear-system bound."""
    _check(n=n, p=p)
    return sum((p + 1) ** i for i in range(1, n + 1))


def bound_zero_stable(n: int) -> int:
    """n, the bound when every element is 0-stable."""
    _check(n=n)
    return n


def bound_naturally_ordered(n: int, chain: int) -> int:
    """n times the longest strict chain of the natural order."""
    _check(n=n, chain=chain)
    return n * chain


def bound_loose_npL(n: int, p: int, L: int) -> int:
    """n p L, the loose finite-carrier bound."""
    _check(n=n, p=p, L=L)
    return n * p * L


# ---------------------------------------------------------------------------
# Instance analysis
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    """Measured stability indices of one instance against every applicable bound.

    ``measured_index`` is the power-sum vector index; ``trace_index`` counts
    update-map applications and is one higher except on all-zero seeds;
    ``matrix_index`` is the power-sum index of the matrix itself. Violations
    compare ``measured_index`` and ``matrix_index`` against the bounds.
    """

    instance_id: str
    semiring_id: str
    n: int
    n_raw: int
    p: Optional[int] = None
    p_source: Optional[str] = None  # computed | claimed
    L: Optional[int] = None
    L_source: Optional[str] = None
    chain: Optional[int] = None
    naturally_ordered: Optional[bool] = None
    trace_index: Optional[int] = None
    measured_index: Optional[int] = None
    matrix_index: Optional[int] = None
    capped: bool = False
    cap: Optional[int] = None
    bounds: Dict[str, int] = field(default_factory=dict)
    degenerate_bounds: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """The fields as a shallow dict (``bounds`` and ``violations`` are shared)."""
        d = dict(vars(self))
        d["semiring"] = d.pop("semiring_id")
        return d


BOUND_COLUMNS = (
    "bound_linear_pn3",
    "bound_linear_pnlogL",
    "bound_loose_npL",
    "bound_naturally_ordered",
    "bound_linear_exp",
    "bound_general_exp",
    "bound_zero_stable",
)


def _carrier_profile(s: Semiring, claimed_p: Optional[int], claimed_L: Optional[int]):
    carrier = s.elements()
    if carrier is not None:
        p, p_source = effective_stability(s)
        chain = ordered_chain(s)
        p_source = p_source if p is not None else None
        return p, p_source, len(carrier), "computed", chain, chain is not None
    # symbolic carriers contribute bounds only through claimed parameters
    p_source = None if claimed_p is None else "claimed"
    L_source = None if claimed_L is None else "claimed"
    return claimed_p, p_source, claimed_L, L_source, None, None


def applicable_bounds(
    n: int,
    p: Optional[int],
    L: Optional[int],
    chain: Optional[int],
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Bounds to enforce plus bounds that are degenerate for these parameters.

    The carrier-size formulas assume p >= 1; at p = 0 their values collapse
    below the true worst case (a Boolean cycle already exceeds them). The
    cubic formula counts only the n^2 - n loop-free edges, so at n = 1 it
    returns 0, which a single self-loop with a non-0-stable label exceeds.
    Degenerate bounds are reported without being enforced.
    """
    out: Dict[str, int] = {}
    degenerate: Dict[str, int] = {}
    if n < 1:
        return out, degenerate
    if p is not None:
        target = out if n >= 2 else degenerate
        target["bound_linear_pn3"] = bound_linear_pn3(n, p)
        out["bound_linear_exp"] = bound_linear_exp(n, p)
        out["bound_general_exp"] = bound_general_exp(n, p)
        if p == 0:
            out["bound_zero_stable"] = bound_zero_stable(n)
        if L is not None:
            target = out if p >= 1 else degenerate
            target["bound_linear_pnlogL"] = bound_linear_pnlogL(n, p, L)
            target["bound_loose_npL"] = bound_loose_npL(n, p, L)
    if chain is not None:
        out["bound_naturally_ordered"] = bound_naturally_ordered(n, chain)
    return out, degenerate


def analyze(
    sys: GroundedLinearSystem,
    *,
    cap: Optional[int] = None,
    instance_id: str = "",
    claimed_p: Optional[int] = None,
    claimed_L: Optional[int] = None,
) -> BoundReport:
    """Measure the stability indices of a linear system and check every bound.

    The default cap is the smallest applicable bound plus two, which is enough
    to either observe convergence or certify a bound violation.
    """
    s = sys.semiring
    p, p_source, L, L_source, chain, ordered = _carrier_profile(s, claimed_p, claimed_L)
    bounds, degenerate = applicable_bounds(sys.n, p, L, chain)
    if cap is None:
        cap = min(bounds.values()) + 2 if bounds else engine.DEFAULT_EVAL_CAP
    report = BoundReport(
        instance_id=instance_id,
        semiring_id=s.id,
        n=sys.n,
        n_raw=sys.n_raw,
        p=p,
        p_source=p_source,
        L=L,
        L_source=L_source,
        chain=chain,
        naturally_ordered=ordered,
        cap=cap,
        bounds=bounds,
        degenerate_bounds=degenerate,
    )
    trace = engine.naive_eval_linear(sys, cap=cap)
    report.trace_index = trace.stability_index
    report.measured_index = trace.powersum_index
    report.capped = trace.capped
    report.matrix_index = engine.matrix_stability_index(sys.A, cap=cap)
    # a capped run still certifies a violation when the provable lower bound
    # on the unconverged index already exceeds the formula value
    checks = (("vector", report.measured_index, cap - 1),
              ("matrix", report.matrix_index, cap + 1))
    for name, value in sorted(bounds.items()):
        for label, measured, floor in checks:
            if measured is None:
                if floor > value:
                    report.violations.append(
                        f"{label} index >= {floor} exceeds {name} = {value}"
                    )
            elif measured > value:
                report.violations.append(
                    f"{label} index {measured} exceeds {name} = {value}"
                )
    return report


def reports_jsonl(reports) -> str:
    return "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in reports)


# summary CSV column -> BoundReport field, for the columns ahead of the bounds
_SUMMARY_FIELDS = {"instance": "instance_id", "semiring": "semiring_id", "n": "n", "p": "p",
                   "L": "L", "chain": "chain", "measured": "measured_index", "matrix": "matrix_index"}


def summary_csv(reports) -> str:
    """One CSV row per report; csv writes a None field or absent bound as empty."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow([*_SUMMARY_FIELDS, *BOUND_COLUMNS, "violations"])
    for r in reports:
        w.writerow(
            [getattr(r, f) for f in _SUMMARY_FIELDS.values()]
            + [r.bounds.get(c) for c in BOUND_COLUMNS]
            + [len(r.violations)]
        )
    return out.getvalue()
