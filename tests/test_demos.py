import os
import subprocess
import sys
from pathlib import Path

from semifix import naive_eval_linear
from semifix.generators import gen_cycle_lowerbound

ROOT = Path(__file__).resolve().parent.parent


def test_convergence_study_runs_and_cycle_indices_match_closed_form():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "convergence_study.py")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    start = lines.index("slow cycle over capped:L (matrix index, chain bound)") + 2
    table = lines[start : lines.index("", start)]
    assert len(table) == 12
    for line in table:
        n, L, index, chain_bound = map(int, line.split())
        assert index == n * L + n - 1
        assert chain_bound == n * (L + 1)


def test_convergence_study_profile_matches_the_change_log():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "convergence_study.py")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    system = gen_cycle_lowerbound(3, 4)
    labels = system.atom_labels()
    trace = naive_eval_linear(system)
    start = lines.index("one trace from its change log: the 3-vertex cycle over capped:4") + 1
    steps = lines[start : start + trace.wall_steps]
    for step, (line, changes) in enumerate(zip(steps, trace.changes), start=1):
        moved = [f"{labels[i]}={system.semiring.show(v)}" for i, v in sorted(changes)]
        assert line.split() == ["step", f"{step}:", *(moved or ["no", "change"])]
    final = max(q for q, changes in enumerate(trace.changes, start=1) if changes)
    last = ", ".join(labels[i] for i, _ in sorted(trace.changes[final - 1]))
    assert f"  last to converge: {last} at step {final}" in lines
    assert last == "v(1)" and final == 15
