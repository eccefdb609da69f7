"""Convergence study: measured stability indices against every bound.

Walks through the two experiment families the library is built around:

1. the slow cycle over capped:L, whose matrix index grows like n*L and sits
   one step under the chain bound n*(L+1);
2. seeded random systems over the finite carriers, where the measured index
   is usually far below every formula.

Between them it prints one cycle run from its change log: the atoms each step
changed, and the atom that converged last.

Run with ``python demos/convergence_study.py``. Everything is seeded, so the
output is identical on every run.
"""

from semifix import matrix_stability_index, naive_eval_linear, semiring_from_id
from semifix.bounds import analyze
from semifix.generators import gen_cycle_lowerbound, gen_random_system


def cycle_family():
    print("slow cycle over capped:L (matrix index, chain bound)")
    print(f"{'n':>3} {'L':>3} {'index':>6} {'n*(L+1)':>8}")
    for n in (2, 3, 4, 5):
        for L in (2, 4, 6):
            system = gen_cycle_lowerbound(n, L)
            k = matrix_stability_index(system.A)
            print(f"{n:>3} {L:>3} {k:>6} {n * (L + 1):>8}")
    print()


def random_sweep(semiring_id, runs=200):
    s = semiring_from_id(semiring_id)
    worst = None
    tightest = None
    for seed in range(runs):
        n = 2 + (seed % 5)
        density = (0.3, 0.5, 0.8)[seed % 3]
        system = gen_random_system(n, density, s, seed=seed)
        report = analyze(system, instance_id=f"{semiring_id}-{seed}")
        assert not report.violations, report.violations
        measured = report.measured_index
        if worst is None or measured > worst[0]:
            worst = (measured, seed, n)
        slack = min(report.bounds.values()) - measured
        if tightest is None or slack < tightest[0]:
            tightest = (slack, seed, n)
    print(
        f"{semiring_id}: {runs} systems, worst index {worst[0]} "
        f"(seed {worst[1]}, n {worst[2]}), "
        f"smallest slack under the tightest bound {tightest[0]}"
    )


def one_trace():
    print("one trace from its change log: the 3-vertex cycle over capped:4")
    system = gen_cycle_lowerbound(3, 4)
    s = system.semiring
    labels = system.atom_labels()
    trace = naive_eval_linear(system)
    last_step = {}  # atom -> the last step that changed it
    for step, changes in enumerate(trace.changes, start=1):
        moved = " ".join(f"{labels[i]}={s.show(v)}" for i, v in sorted(changes))
        print(f"  step {step:>2}: {moved or 'no change'}")
        last_step.update((i, step) for i, _ in changes)
    print(f"  stability index {trace.stability_index} (states convention)")
    if last_step:
        final = max(last_step.values())
        atoms = ", ".join(labels[i] for i in sorted(last_step) if last_step[i] == final)
        print(f"  last to converge: {atoms} at step {final}")
    print()


if __name__ == "__main__":
    cycle_family()
    one_trace()
    print("random sweeps (no bound is ever violated)")
    for sid in ("capped:2", "capped:4", "capped:6", "trop_p_fin:1:1"):
        random_sweep(sid)
