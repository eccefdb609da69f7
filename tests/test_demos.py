import os
import subprocess
import sys
from pathlib import Path

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
