"""The traced run: spans around the public entry points of each semifix
layer, counting wrappers around the shared semiring instances, and the
per-layer metrics derived from them.

Nothing in `src/` changes. `Tracer.installed()` replaces the traced
functions with wrappers wherever a semifix module binds them (a function
imported by name into `cli` is bound there as well as in its own module) and
puts every original back on exit.
"""

from __future__ import annotations

import contextlib
import random
import statistics
import sys
from collections import Counter
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Tuple

from semifix import bounds, cli, engine, frontend, walks
from semifix.matrix import Matrix
from semifix.semirings import effective_stability, ordered_chain, semiring_from_id

from workloads import warm_carriers

# span name -> (object holding the function, attribute)
TRACED = {
    "frontend.parse_program": (frontend, "parse_program"),
    "frontend.parse_facts_tsv": (frontend, "parse_facts_tsv"),
    "frontend.build_edb": (frontend, "build_edb"),
    "frontend.ground": (frontend, "ground"),
    "engine.load_system": (engine, "load_system"),
    "engine.naive_eval_linear": (engine, "naive_eval_linear"),
    "engine.matrix_stability_index": (engine, "matrix_stability_index"),
    "engine.matrix_power_sum": (engine, "matrix_power_sum"),
    "bounds.analyze": (bounds, "analyze"),
    "walks.walk_sum_exact": (walks, "walk_sum_exact"),
    "walks.walk_sum_upto": (walks, "walk_sum_upto"),
    "matrix.Matrix.matvec": (Matrix, "matvec"),
    "matrix.Matrix.matmul": (Matrix, "matmul"),
    "matrix.Matrix.add": (Matrix, "add"),
}
ROOT = "cli.main"
# spans whose return value is kept until the op ends, for ratios and samples
CAPTURED = ("frontend.ground", "engine.load_system", "engine.naive_eval_linear",
            "engine.matrix_stability_index")
LAYERS = ("cli", "frontend", "engine", "matrix", "bounds", "walks")
# every carrier any workload uses, in metric-name form
CARRIER_KEYS = ("bool", "trop", "trop_p-1", "trop_p-2", "trop_p_fin-1-3", "capped")
POOL_SIZE = 256  # carrier values kept per semiring id for the op-cost timing


def carrier_key(sid: str) -> str:
    """Metric-name form of a semiring id; every capped:L is one carrier."""
    if sid.startswith("capped:"):
        return "capped"
    return sid.replace(":", "-")


class Tracer:
    """Spans of traced ops, kept in memory until the run writes them out.

    A span is [name, start_ns, end_ns, parent span index or -1, op id].
    """

    def __init__(self, carriers):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.current = None  # name of the innermost open span
        self.op = 0
        self.ops: List[Tuple[int, int]] = []  # (op id, index of its root span)
        self.counts: Counter = Counter()  # (innermost span, carrier key, add|mul) -> calls
        self.captured: List[Tuple[str, object]] = []
        self.semirings = [semiring_from_id(sid) for sid in carriers]

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        capture = name in CAPTURED

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            self.current = name
            rec[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
                self.current = spans[stack[-1]][0] if stack else None
            if capture:
                self.captured.append((name, out))
            return out

        return traced

    def _count(self, key, op, fn):
        counts = self.counts

        def counted(a, b):
            counts[(self.current, key, op)] += 1
            return fn(a, b)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Swap every traced function and semiring op for its wrapper."""
        undo = []
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "semifix"]
        for name, (owner, attr) in TRACED.items():
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original
            ]
            for holder in holders:
                setattr(holder, attr, wrapper)
                undo.append((holder, attr, original))
        for s in self.semirings:
            for op in ("add", "mul"):
                setattr(s, op, self._count(carrier_key(s.id), op, getattr(s, op)))
        try:
            yield
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)
            for s in self.semirings:
                del s.add, s.mul

    def run_op(self, argv):
        """cli.main(argv) as the root span of a new op."""
        self.op += 1
        self.ops.append((self.op, len(self.spans)))
        return self.wrap(ROOT, cli.main)(list(argv))

    def take_captured(self):
        out, self.captured = self.captured, []
        return out

    def self_times(self) -> Tuple[Dict[str, int], Dict[str, int], int]:
        """Inclusive and self ns per span name over all ops, and the largest
        per-op gap between the summed self times and the root span.

        Self time is a span's duration minus the union of its children's
        intervals, so the self times of one op add up to its root span
        exactly when children nest inside their parents without overlap.
        """
        inclusive: Counter = Counter()
        children: Dict[int, List[Tuple[int, int]]] = {}
        for idx, (name, start, end, parent, _op) in enumerate(self.spans):
            inclusive[name] += end - start
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        self_ns: Counter = Counter()
        per_op: Counter = Counter()
        for idx, (name, start, end, _parent, op) in enumerate(self.spans):
            covered, reach = 0, start
            for (cs, ce) in sorted(children.get(idx, ())):
                cs, ce = max(cs, reach), min(ce, end)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            self_ns[name] += end - start - covered
            per_op[op] += end - start - covered
        gap = max(
            (abs(per_op[op] - (self.spans[root][2] - self.spans[root][1])) for op, root in self.ops),
            default=0,
        )
        return dict(inclusive), dict(self_ns), gap

    def write(self, stem):
        """Spans to <stem>.spans.tsv, semiring op counts to <stem>.counts.tsv."""
        with open(f"{stem}.spans.tsv", "w", encoding="utf-8") as f:
            f.write("name\tstart_ns\tend_ns\tparent\top\n")
            for rec in self.spans:
                f.write("\t".join(map(str, rec)) + "\n")
        with open(f"{stem}.counts.tsv", "w", encoding="utf-8") as f:
            f.write("innermost_span\tcarrier\top\tcalls\n")
            for (span, key, op), calls in sorted(self.counts.items()):
                f.write(f"{span}\t{key}\t{op}\t{calls}\n")


class Outcomes:
    """Sums over traced ops of what the captured return values show."""

    def __init__(self):
        self.sums: Counter = Counter()
        self.pool: Dict[str, list] = {}  # semiring id -> carrier values seen

    def _sample(self, semiring, values):
        got = self.pool.setdefault(semiring.id, [])
        for v in values:
            if len(got) >= POOL_SIZE:
                return
            got.append(v)

    def add(self, captured):
        """Fold in one op's captured (span name, return value) pairs."""
        sums = self.sums
        system = None  # the op's system; its semiring types the states that follow
        for name, value in captured:
            if name in ("frontend.ground", "engine.load_system"):
                system = value
                if name == "frontend.ground":
                    sums["atoms_raw"] += value.n_raw
                    sums["atoms_kept"] += value.n
                self._sample(value.semiring, (v for _, _, v in value.A.entries()))
            elif name == "engine.naive_eval_linear":
                states = value.states
                n = len(states[0])
                sums["steps"] += value.wall_steps
                sums["state_cells"] += len(states) * n
                sums["updates"] += (len(states) - 1) * n
                sums["changed"] += sum(
                    a != b for prev, cur in zip(states, states[1:]) for a, b in zip(prev, cur)
                )
                if value.fixpoint is not None:
                    self._sample(system.semiring, value.fixpoint)
            elif value is not None:  # engine.matrix_stability_index
                sums["k"] += value
                sums["k_calls"] += 1


def _ratio(num, den):
    return num / den if den else 0.0


def op_cost_ns(pool, seed: int) -> Dict[str, float]:
    """ns per add and per mul call on pairs of values the workload produced.

    The time includes the bound-method call from a Python loop, as every
    caller in the library pays it.
    """
    rng = random.Random(seed)
    out = {}
    for key in CARRIER_KEYS:
        sids = sorted(sid for sid in pool if carrier_key(sid) == key and pool[sid])
        if not sids:
            continue
        pairs = []
        for _ in range(64):
            sid = rng.choice(sids)
            pairs.append((semiring_from_id(sid), rng.choice(pool[sid]), rng.choice(pool[sid])))
        for op in ("add", "mul"):
            calls = [(getattr(s, op), a, b) for s, a, b in pairs]

            def timed(loops):
                t0 = perf_counter_ns()
                for _ in range(loops):
                    for f, a, b in calls:
                        f(a, b)
                return perf_counter_ns() - t0

            loops = 1
            while timed(loops) < 2_000_000:  # long enough to time reliably
                loops *= 2
            reps = [timed(loops) for _ in range(5)]
            out[f"semirings.{key}.{op}_ns"] = statistics.median(reps) / (loops * len(calls))
    return out


def carrier_profile_ms(carriers) -> float:
    """Mean ms to compute one carrier's profile with the caches cold."""
    per_carrier = []
    for sid in carriers:
        s = semiring_from_id(sid)
        reps = []
        for _ in range(3):
            effective_stability.cache_clear()
            ordered_chain.cache_clear()
            t0 = perf_counter_ns()
            effective_stability(s)
            ordered_chain(s)
            reps.append(perf_counter_ns() - t0)
        per_carrier.append(statistics.median(reps) / 1e6)
    warm_carriers(carriers)
    return statistics.mean(per_carrier)


def run_traced(args, workload, instances, checker, execute):
    """Each op untraced, then traced, in whole passes until time is up.

    Whole passes make every count exact. Returns the per-layer metrics and
    the number of traced ops.
    """
    tracer = Tracer(workload.carriers)
    outcomes = Outcomes()
    plain, traced = [], []
    deadline = perf_counter() + args.seconds
    while True:
        for inst in instances:
            if checker.out_of_time():
                break
            dt, *result = execute(cli.main, inst.argv)
            plain.append(dt)
            checker.judge(inst, *result)
            with tracer.installed():
                dt, *result = execute(tracer.run_op, inst.argv)
            traced.append(dt)
            checker.judge(inst, *result)
            outcomes.add(tracer.take_captured())
        if perf_counter() >= deadline or checker.out_of_time():
            break
    tracer.write(f"../trace-{workload.name}-{args.seed}")

    n = len(traced)
    if n == 0:
        return {}, 0
    inclusive, self_ns, gap = tracer.self_times()
    span_calls = Counter(rec[0] for rec in tracer.spans)
    sums = outcomes.sums
    m = {}

    def per_op(name, value, unit):
        m[name] = (value / n, unit)

    per_op("cli.main.ms", inclusive.get(ROOT, 0) / 1e6, "ms")
    per_op("cli.main.self_ms", self_ns.get(ROOT, 0) / 1e6, "ms")
    for name in TRACED:
        per_op(f"{name}.ms", inclusive.get(name, 0) / 1e6, "ms")
        per_op(f"{name}.calls", span_calls[name], "count")
    per_op("bounds.analyze.self_ms", self_ns.get("bounds.analyze", 0) / 1e6, "ms")
    per_op("frontend.ground.atoms_raw", sums["atoms_raw"], "count")
    per_op("frontend.ground.atoms_kept", sums["atoms_kept"], "count")
    m["frontend.ground.kept_ratio"] = (_ratio(sums["atoms_kept"], sums["atoms_raw"]), "ratio")
    per_op("engine.naive_eval_linear.steps", sums["steps"], "count")
    per_op("engine.naive_eval_linear.state_cells", sums["state_cells"], "count")
    m["engine.naive_eval_linear.changed_ratio"] = (_ratio(sums["changed"], sums["updates"]), "ratio")
    m["engine.matrix_stability_index.k"] = (_ratio(sums["k"], sums["k_calls"]), "count")
    per_op("walks.mul_calls", sum(
        c for (span, _key, op), c in tracer.counts.items()
        if op == "mul" and span.startswith("walks.")
    ), "count")
    cost = op_cost_ns(outcomes.pool, args.seed)
    for key in CARRIER_KEYS:
        for op in ("add", "mul"):
            per_op(f"semirings.{key}.{op}.calls", sum(
                c for (_span, k, o), c in tracer.counts.items() if k == key and o == op
            ), "count")
            m[f"semirings.{key}.{op}_ns"] = (cost.get(f"semirings.{key}.{op}_ns", 0.0), "ns")
    m["bounds.carrier_profile_ms"] = (carrier_profile_ms(workload.carriers), "ms")
    for layer in LAYERS:
        per_op(f"layer.{layer}.self_ms", sum(
            ns for name, ns in self_ns.items() if name.split(".")[0] == layer
        ) / 1e6, "ms")
    traced_p50 = statistics.median(traced) / 1e6
    plain_p50 = statistics.median(plain) / 1e6
    m["trace.op_p50_ms"] = (traced_p50, "ms")
    m["trace.untraced_op_p50_ms"] = (plain_p50, "ms")
    m["trace.overhead_ratio"] = (traced_p50 / plain_p50, "ratio")
    m["trace.self_sum_gap_ms"] = (gap / 1e6, "ms")
    return m, n
