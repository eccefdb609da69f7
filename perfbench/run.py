"""The semifix benchmark: seeded workloads through the CLI, checked op by op.

    python3 perfbench/run.py --workload run-paths --seed 3 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from `src/`. One caller runs ops in a closed loop in this process:
an op is one in-process call of `semifix.cli.main(argv)` on one instance,
from argument parsing through file reading and the library to the output
written to stdout, which is captured and checked after the op.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates each op
untraced and traced, reports the per-layer metrics, and writes the spans and
semiring op counts to `.perfbench_work/trace-<workload>-<seed>.*.tsv`. The
last line of stdout is one JSON object; the lines before it are the same
metrics for people.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 11  # set-up runs per benchmark run; setup_s is their median
MIN_TAIL_OPS = 10  # ops a run must hold beyond its p90
# A broken program can iterate without end: an op that runs past
# OP_TIMEOUT_S fails, and no op starts once the run has used RUN_BUDGET_S,
# so a run always ends well within three minutes.
OP_TIMEOUT_S = 10
RUN_BUDGET_S = 120
# Time of reference_loop_ns() on a 2-vCPU x86-64 VM under Python 3.11 when
# that machine ran at its usual speed; scaled op times are in its units.
REFERENCE_LOOP_NS = 400_000


class OpTimeout(Exception):
    """Raised inside an op that ran past OP_TIMEOUT_S."""


def _raise_timeout(signum, frame):
    raise OpTimeout(f"op ran past {OP_TIMEOUT_S} s")


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload, seed: int):
    """Write the workload's inputs and warm the library's lazy caches.

    This is the work `setup_s` times, in a fresh interpreter that also pays
    for start-up and import.
    """
    from workloads import warm_carriers

    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    instances = workload.build(seed, workdir)
    warm_carriers(workload.carriers)
    return workdir, instances


def measure_setup_s(args) -> list:
    """Seconds from starting a fresh interpreter until its set-up is done.

    The child reports when it finished on the system-wide monotonic clock,
    which the parent shares, so interpreter shutdown is not counted.
    """
    cmd = [sys.executable, str(Path(__file__)), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        child = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True,
                               stdin=subprocess.DEVNULL)
        times.append(float(child.stdout) - t0)
    return times


class Checker:
    """Judges each op: exit code, output digest and the instance's own check.

    Digests pinned at the commit that introduced the benchmark exist for a
    range of seeds; for other seeds each instance's first output is the
    reference for its repeats.
    """

    def __init__(self, workload: str, seed: int, instances):
        self.start = time.perf_counter()
        pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"]
        row = pinned.get(workload, {}).get(str(seed))
        names = sorted(inst.name for inst in instances)
        self.pinned = row is not None
        self.expected = dict(zip(names, row.split())) if row else {}
        self.attempted = 0
        self.failed = 0

    def judge(self, inst, rc, out, err) -> bool:
        self.attempted += 1
        reason = None
        digest = output_digest(rc, out, err)
        if rc is None:
            reason = "raised: " + err.strip().splitlines()[-1]
        elif self.expected.setdefault(inst.name, digest) != digest:
            reason = "output differs from the pinned digest"
        else:
            try:
                reason = inst.check(rc, out)
            except Exception as exc:  # a malformed output is a failed op
                reason = f"unreadable output: {exc!r}"
        if reason is not None:
            self.failed += 1
            if self.failed <= 10:  # enough to diagnose, without flooding the log
                print(f"FAILED {' '.join(inst.argv)}: {reason}", file=sys.stderr)
        return reason is None

    def out_of_time(self) -> bool:
        return time.perf_counter() - self.start > RUN_BUDGET_S


def output_digest(rc, out: str, err: str) -> str:
    return hashlib.sha256(f"{rc}\0{out}\0{err}".encode()).hexdigest()[:12]


def execute(call, argv):
    """One op: (ns, exit code or None if it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    signal.signal(signal.SIGALRM, _raise_timeout)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        t0 = time.perf_counter_ns()
        try:
            rc = call(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # counted as a failed op, never ends the run
            rc = None
            err.write(traceback.format_exc())
        finally:
            dt = time.perf_counter_ns() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
    return dt, rc, out.getvalue(), err.getvalue()


def reference_loop_ns() -> int:
    """ns for a fixed piece of pure-Python work that no commit changes.

    Fraction sums, tuple building and dict stores, like the library's inner
    loops, with the cyclic collector off so that only interpreter speed shows.
    """
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        acc, seen = Fraction(0), {}
        for i in range(150):
            acc += Fraction(i % 7, 3)
            seen[(i % 13, i % 5)] = (acc, i)
        return time.perf_counter_ns() - t0
    finally:
        gc.enable()


def run_untraced(args, instances, checker):
    """Whole passes over the batch while another pass fits in the time.

    Every op of a pass counts, so the latency quantiles are those of the
    batch itself, not of where in a pass the time ran out.

    The speed of a shared machine drifts by tens of percent within seconds.
    So each op's wall time is scaled by REFERENCE_LOOP_NS over the mean of
    reference_loop_ns() run just before and just after it: a slower
    interpreter slows both alike, while a slower program slows only the op.
    The timing metrics are computed from the scaled times; the summary also
    prints them from the raw wall times.
    """
    from semifix import cli

    lat, raw, ok = [], [], 0
    start = time.perf_counter()
    last_pass = 0.0
    while not lat or time.perf_counter() - start + last_pass <= args.seconds:
        t0 = time.perf_counter()
        for inst in instances:
            if checker.out_of_time():
                break
            before = reference_loop_ns()
            dt, rc, out, err = execute(cli.main, inst.argv)
            after = reference_loop_ns()
            raw.append(dt)
            lat.append(dt * 2 * REFERENCE_LOOP_NS / (before + after))
            ok += checker.judge(inst, rc, out, err)
        last_pass = time.perf_counter() - t0
        if checker.out_of_time():
            break
    if not lat:
        return {}, 0
    if len(lat) < 10 * MIN_TAIL_OPS:
        print(f"warning: {len(lat)} ops leave fewer than {MIN_TAIL_OPS} beyond p90",
              file=sys.stderr)
    print("raw wall times: ops_per_s {:.4f}  op_p50_ms {:.4f}  op_p90_ms {:.4f}".format(
        *_timing(raw, ok)))
    ops_per_s, p50, p90 = _timing(lat, ok)
    return {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }, len(lat)


def _timing(lat_ns, ok: int):
    """Passed ops per second of op time, and the median and p90 in ms."""
    ms = [t / 1e6 for t in lat_ns]
    return ok / (sum(ms) / 1e3), statistics.median(ms), statistics.quantiles(ms, n=10)[8]


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "semifix").is_dir():
        print(f"error: no semifix package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_child:
        setup(workload, args.seed)
        print(time.monotonic())
        return 0

    setup_times = [] if args.trace else measure_setup_s(args)
    workdir, instances = setup(workload, args.seed)
    checker = Checker(workload.name, args.seed, instances)
    os.chdir(workdir)  # instance paths, and so the outputs, do not name the checkout
    from semifix import cli

    for inst in instances:  # warm-up pass, checked but not timed
        if checker.out_of_time():
            break
        checker.judge(inst, *execute(cli.main, inst.argv)[1:])
    gc.collect()
    if args.trace:
        import layers

        metrics, n_ops = layers.run_traced(args, workload, instances, checker, execute)
    else:
        metrics, n_ops = run_untraced(args, instances, checker)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["ok_frac"] = (1 - checker.failed / checker.attempted, "frac")
    if n_ops == 0:
        print(f"error: no op finished within the run budget of {RUN_BUDGET_S} s", file=sys.stderr)
        return 1
    # in a traced run, the self times of each op must add up to the op's span
    correct = checker.failed == 0 and metrics.get("trace.self_sum_gap_ms", (0,))[0] == 0

    print(f"workload {workload.name}  seed {args.seed}  ops timed {n_ops}  "
          f"ops checked {checker.attempted}  failed {checker.failed}  "
          f"failed_frac {checker.failed / checker.attempted:.4f}  "
          f"digests {'pinned' if checker.pinned else 'from first output'}")
    if not args.trace:
        print("setup_s samples " + " ".join(f"{t:.4f}" for t in setup_times))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
