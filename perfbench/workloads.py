"""The four seeded workloads: input files, the CLI command per instance, and
the checks each command's output must pass.

Every workload runs a batch of instances whose sizes spread evenly over a
range. A batch holds 25 instances (15 for `run-cycle`): with an odd count m
whose 0.9 m falls half-way between two integers, both the median and the
90th percentile of the pooled op latencies land inside the samples of one
instance instead of on the boundary between two, where within-run noise
would swing them. Each instance's shape (graph, weights, matrix entries) is drawn
once from a stream named after its slot, the same for every seed. The seed
draws an isomorphic relabelling of every instance (vertex names or matrix
indices) and the order of the batch. So each seed changes every input file,
and every output that names vertices, while the work, and with it the cost,
stays the same: the spread between runs measures the machine and the
program, not the draw.
Inputs other than `analyze-sweep`'s generator-built matrix files are written
by this module alone, so a change to the library cannot change them.

Reference answers are computed on an instance's first check, after set-up,
so `setup_s` holds none of the benchmark's own checking work.
"""

from __future__ import annotations

import functools
import heapq
import json
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from semifix import engine, generators
from semifix.semirings import effective_stability, ordered_chain, semiring_from_id

# Check functions take (exit code, stdout) and return None when the output is
# right, or a one-line reason when it is wrong.
Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Instance:
    name: str
    argv: Tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    carriers: Tuple[str, ...]
    build: Callable[[int, Path], List[Instance]]


def warm_carriers(carriers) -> None:
    """Fill the lazy carrier-profile caches the commands read."""
    for sid in carriers:
        s = semiring_from_id(sid)
        effective_stability(s)
        ordered_chain(s)


def _rng(seed: int, stream: int) -> random.Random:
    # one independent, reproducible stream per (seed, purpose)
    return random.Random(seed * 1009 + stream)


def _shape_rng(workload: str, slot: int) -> random.Random:
    # str seeds are hashed with SHA-512, so the stream is the same everywhere
    return random.Random(f"{workload}/{slot}")


def _names(rng: random.Random, prefix: str, n: int) -> List[str]:
    return [f"{prefix}{k}" for k in rng.sample(range(10 * n), n)]


# ---------------------------------------------------------------------------
# run-paths: the linear path program over seeded random digraphs
# ---------------------------------------------------------------------------

PATH_PROGRAM = "T(X,Y) :- E(X,Y) + T(X,Z)*E(Z,Y).\n"

# (carrier, vertices); a grounded system has about vertices^2 atoms
RUN_PATHS_SIZES = (
    [("trop", v) for v in range(10, 25, 2)]
    + [("bool", v) for v in range(10, 25, 2)]
    + [("trop_p:2", v) for v in (8, 8, 9, 9, 9, 10, 10, 11, 12)]
)
OUT_DEGREE = 3.5  # expected out-degree of the random digraphs
BAG_SIZE = 3  # trop_p:2 keeps the p + 1 = 3 smallest walk weights


def _random_edges(rng: random.Random, n: int, density: float) -> List[Tuple[int, int, int]]:
    return [
        (u, v, rng.randint(1, 9))
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < density
    ]


def _literal(carrier: str, w: int) -> str:
    if carrier == "bool":
        return "true"
    if carrier == "trop":
        return str(w)
    return f"[{w}]"


def _path_atoms(carrier: str, names: List[str], edges) -> Dict[str, str]:
    """Shown T(x,y) for every pair joined by a walk of at least one edge.

    bool is breadth-first reachability, trop is Bellman-Ford, and trop_p:2
    pops each vertex up to three times from a heap of walk weights, which
    yields the three smallest walk weights because every weight is positive.
    """
    out = {}
    n = len(names)
    for x in range(n):
        label = functools.partial("T({},{})".format, names[x])
        if carrier == "bool":
            seen = set()
            queue = deque(v for (u, v, _) in edges if u == x)
            while queue:
                v = queue.popleft()
                if v not in seen:
                    seen.add(v)
                    queue.extend(w for (u, w, _) in edges if u == v)
            out.update((label(names[y]), "true") for y in seen)
        elif carrier == "trop":
            dist = {}
            for (u, v, w) in edges:
                if u == x:
                    dist[v] = min(dist.get(v, w), w)
            for _ in range(n):
                for (u, v, w) in edges:
                    if u in dist and dist[u] + w < dist.get(v, float("inf")):
                        dist[v] = dist[u] + w
            out.update((label(names[y]), str(d)) for y, d in dist.items())
        else:
            heap = [(w, v) for (u, v, w) in edges if u == x]
            heapq.heapify(heap)
            found: Dict[int, List[int]] = {}
            while heap:
                d, v = heapq.heappop(heap)
                got = found.setdefault(v, [])
                if len(got) == BAG_SIZE:
                    continue
                got.append(d)
                for (u, t, w) in edges:
                    if u == v:
                        heapq.heappush(heap, (d + w, t))
            out.update(
                (label(names[y]), "[" + ",".join(map(str, ds)) + "]") for y, ds in found.items()
            )
    return out


def _check_run(expected: Callable[[], Dict[str, str]], index: Optional[int] = None) -> Check:
    expected = functools.cache(expected)

    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        doc = json.loads(out)
        if doc["capped"] or doc["stability_index"] is None:
            return "no fixpoint"
        if index is not None and doc["powersum_index"] != index:
            return f"power-sum index {doc['powersum_index']} != {index}"
        if index is not None and doc["stability_index"] != index + 1:
            return f"stability index {doc['stability_index']} != {index + 1}"
        if doc["atoms"] != expected():
            wrong = sorted(set(doc["atoms"].items()) ^ set(expected().items()))
            return f"{len(wrong)} atom values differ from the reference, first {wrong[0]}"
        return None

    return check


def build_run_paths(seed: int, workdir: Path) -> List[Instance]:
    (workdir / "path.dl").write_text(PATH_PROGRAM, encoding="utf-8")
    rng = _rng(seed, 1)
    out = []
    for k, (carrier, n) in enumerate(RUN_PATHS_SIZES):
        edges = _random_edges(_shape_rng("run-paths", k), n, OUT_DEGREE / (n - 1))
        names = _names(rng, "v", n)
        name = f"p{k:02d}.tsv"
        rows = "".join(
            f"E\t{names[u]}\t{names[v]}\t{_literal(carrier, w)}\n" for (u, v, w) in edges
        )
        (workdir / name).write_text(rows, encoding="utf-8")
        argv = ("run", "path.dl", name, "--semiring", carrier, "--format", "json")
        expected = functools.partial(_path_atoms, carrier, names, edges)
        out.append(Instance(name, argv, _check_run(expected)))
    _rng(seed, 2).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# run-cycle: the slow cycle over capped:L, written as a program
# ---------------------------------------------------------------------------

# (vertices n, cap L); naive iteration takes n*L + 1 steps
RUN_CYCLE_SIZES = (
    (20, 10), (24, 16), (24, 20), (30, 20), (30, 30), (36, 25), (40, 25),
    (50, 20), (40, 40), (60, 30), (40, 50), (70, 30), (60, 40), (70, 40), (100, 40),
)


def _cycle_program(rng: random.Random, n: int, L: int) -> Tuple[str, List[str]]:
    names = _names(rng, "q", n)
    facts = [f"S({names[0]}) = 0."]
    facts += [f"E({names[k]},{names[(k + 1) % n]}) = {1 if k == 0 else 0}." for k in range(n)]
    rng.shuffle(facts)
    text = "\n".join([f"@semiring capped:{L}", "T(Y) :- S(Y) + T(X)*E(X,Y)."] + facts)
    return text + "\n", names


def build_run_cycle(seed: int, workdir: Path) -> List[Instance]:
    rng = _rng(seed, 1)
    out = []
    for k, (n, L) in enumerate(RUN_CYCLE_SIZES):
        text, names = _cycle_program(rng, n, L)
        name = f"c{k:02d}.dl"
        (workdir / name).write_text(text, encoding="utf-8")
        # after n*L steps every vertex holds L: the value went round the cycle L times
        atoms = {f"T({v})": str(L) for v in names}
        argv = ("run", name, "--format", "json")
        out.append(Instance(name, argv, _check_run(functools.partial(dict, atoms), index=n * L)))
    _rng(seed, 2).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# analyze-sweep: generator-built matrix files through `semifix analyze`
# ---------------------------------------------------------------------------

# random systems (carrier, n) with about three entries per row, and
# generator cycles (n, L)
ANALYZE_RANDOM_SIZES = (
    [("bool", n) for n in (10, 14, 18, 22)]
    + [("capped:4", n) for n in (8, 11, 14, 17)]
    + [("trop_p_fin:1:3", n) for n in (6, 8, 10, 12)]
    + [("trop", n) for n in (10, 15, 20, 25)]
)
ANALYZE_CYCLE_SIZES = (
    (4, 8), (5, 5), (6, 6), (6, 10), (8, 8), (8, 10), (10, 8), (10, 12), (12, 10)
)
DISTRIBUTIVE = ("bool", "trop", "trop_p_fin:1:3")


def _check_analyze(carrier: str, cycle_index: Optional[int]) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        (report,) = [json.loads(line) for line in out.splitlines()]
        if report["violations"]:
            return f"bound violation {report['violations'][0]}"
        vec, mat = report["measured_index"], report["matrix_index"]
        if vec is None or mat is None:
            return "index not reached"
        if cycle_index is not None and (vec, mat) != (cycle_index, cycle_index):
            return f"cycle indices {vec}, {mat} != {cycle_index}"
        # S(k) == S(k+1) implies S(k) b == S(k+1) b when products distribute
        if carrier in DISTRIBUTIVE and vec > mat:
            return f"vector index {vec} exceeds matrix index {mat}"
        return None

    return check


def _relabel_matrix_file(text: str, rng: random.Random) -> str:
    """The same system with its atoms renumbered by a random permutation."""
    head, body = [], []
    perm = None
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "n":
            perm = list(range(int(parts[1])))
            rng.shuffle(perm)
        if parts[:2] == ["#", "atom"]:
            i = perm[int(parts[2])]
            body.append((0, i, 0, f"# atom {i} {parts[3]}"))
        elif parts[0] == "A":
            i, j = perm[int(parts[1])], perm[int(parts[2])]
            body.append((1, i, j, f"A {i} {j} {parts[3]}"))
        elif parts[0] == "b":
            i = perm[int(parts[1])]
            body.append((2, i, 0, f"b {i} {parts[2]}"))
        else:
            head.append(line)
    return "\n".join(head + [line for *_, line in sorted(body)]) + "\n"


def build_analyze_sweep(seed: int, workdir: Path) -> List[Instance]:
    rng = _rng(seed, 1)
    out = []
    for k, (carrier, n) in enumerate(ANALYZE_RANDOM_SIZES):
        s = semiring_from_id(carrier)
        gseed = 1000 + k
        density = min(3 / n, 0.35)
        system = generators.gen_random_system(n, density, s, gseed)
        spec = generators.random_system_spec(n, density, s.id, gseed)
        name = f"a{k:02d}.txt"
        text = _relabel_matrix_file(engine.save_system(system, spec.header_lines()), rng)
        (workdir / name).write_text(text, encoding="utf-8")
        out.append(Instance(name, ("analyze", name), _check_analyze(carrier, None)))
    for k, (n, L) in enumerate(ANALYZE_CYCLE_SIZES, start=len(out)):
        system = generators.gen_cycle_lowerbound(n, L)
        spec = generators.cycle_lowerbound_spec(n, L)
        name = f"a{k:02d}.txt"
        text = _relabel_matrix_file(engine.save_system(system, spec.header_lines()), rng)
        (workdir / name).write_text(text, encoding="utf-8")
        check = _check_analyze(f"capped:{L}", n * L + n - 1)
        out.append(Instance(name, ("analyze", name), check))
    _rng(seed, 2).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# oracle-walks: walk enumeration against matrix powers and power sums
# ---------------------------------------------------------------------------

# (vertices, largest out-degree, largest hop count H); at most 3^7 walks per sum
ORACLE_SHAPES = ((8, 2, 5), (8, 2, 7), (10, 3, 5), (10, 3, 6), (12, 3, 6), (12, 3, 7))
ORACLE_CARRIERS = ("trop", "bool", "trop_p:1", "trop_p_fin:1:3")
# every carrier on every shape, plus one longer trop walk for an odd batch
ORACLE_INSTANCES = [(c, shape) for c in ORACLE_CARRIERS for shape in ORACLE_SHAPES]
ORACLE_INSTANCES.append(("trop", (14, 2, 8)))


def _oracle_literal(rng: random.Random, carrier: str) -> str:
    if carrier == "bool":
        return "true"
    if carrier == "trop":
        return str(rng.randint(0, 9))
    hi = 9 if carrier == "trop_p:1" else 3
    bag = sorted(rng.randint(0, hi) for _ in range(rng.randint(1, 2)))
    return "[" + ",".join(map(str, bag)) + "]"


def _check_oracle(h: int) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        rows = out.splitlines()[1:]
        if len(rows) != h + 1:
            return f"{len(rows)} rows for h = 0..{h}"
        if not all(r.split()[-1] == "equal" for r in rows):
            return "a walk sum differs from its matrix entry"
        return None

    return check


def build_oracle_walks(seed: int, workdir: Path) -> List[Instance]:
    rng = _rng(seed, 1)
    out = []
    for k, (carrier, (n, degree, h)) in enumerate(ORACLE_INSTANCES):
        shape = _shape_rng("oracle-walks", k)
        perm = rng.sample(range(n), n)
        entries = sorted(
            (perm[i], perm[j], _oracle_literal(shape, carrier))
            for i in range(n)
            for j in shape.sample(range(n), shape.randint(1, degree))
        )
        lines = [f"semiring {carrier}", f"n {n}"] + [f"A {i} {j} {lit}" for i, j, lit in entries]
        name = f"o{k:02d}.txt"
        (workdir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        i, j = perm[shape.randrange(n)], perm[shape.randrange(n)]
        argv = ("oracle", name, "--i", str(i), "--j", str(j), "--h", str(h))
        out.append(Instance(name, argv, _check_oracle(h)))
    _rng(seed, 2).shuffle(out)
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("run-paths", ("trop", "bool", "trop_p:2"), build_run_paths),
        Workload(
            "run-cycle",
            tuple(sorted({f"capped:{L}" for _, L in RUN_CYCLE_SIZES})),
            build_run_cycle,
        ),
        Workload(
            "analyze-sweep",
            tuple(sorted(
                {c for c, _ in ANALYZE_RANDOM_SIZES} | {f"capped:{L}" for _, L in ANALYZE_CYCLE_SIZES}
            )),
            build_analyze_sweep,
        ),
        Workload("oracle-walks", ORACLE_CARRIERS, build_oracle_walks),
    )
}
