"""The benchmark still fits the library.

``perfbench/layers.py`` wraps library functions by name under ``--trace 1``
and reads fields of what they return. These tests import it read-only and run
one traced op of each workload, so removing or reshaping a name it uses fails
here instead of only in a traced benchmark run. They also run every op of the
first seeds against the digests pinned in ``perfbench/digests.json``, so a
change to any output byte fails here instead of only in a benchmark verdict.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from semifix import cli  # noqa: E402


@pytest.mark.parametrize("span", sorted(layers.TRACED))
def test_every_traced_name_resolves(span):
    owner, attr = layers.TRACED[span]
    assert callable(getattr(owner, attr))


def _bound_names():
    """(holder, attribute) -> function for every traced name a holder binds."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "semifix"]
    bound = {}
    for owner, attr in layers.TRACED.values():
        for holder in [owner, *modules]:
            if attr in vars(holder):
                bound[(holder, attr)] = vars(holder)[attr]
    return bound


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_op_of_each_workload(tmp_path, monkeypatch, capsys, name):
    workload = workloads.WORKLOADS[name]
    inst = workload.build(0, tmp_path)[0]
    monkeypatch.chdir(tmp_path)
    before = _bound_names()
    tracer = layers.Tracer(workload.carriers)
    with tracer.installed():
        rc = tracer.run_op(inst.argv)
    out = capsys.readouterr().out
    assert inst.check(rc, out) is None
    assert _bound_names() == before
    for s in tracer.semirings:
        assert "add" not in vars(s) and "mul" not in vars(s)
    spans = {rec[0] for rec in tracer.spans}
    assert layers.ROOT in spans and len(spans) > 1
    captured = tracer.take_captured()
    assert captured
    outcomes = layers.Outcomes()
    outcomes.add(captured)
    assert outcomes.pool


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_outputs_match_the_pinned_digests(tmp_path, monkeypatch, name, seed):
    pinned = json.loads(run.DIGESTS.read_text(encoding="utf-8"))["digests"][name][str(seed)]
    workload = workloads.WORKLOADS[name]
    instances = workload.build(seed, tmp_path)
    workloads.warm_carriers(workload.carriers)
    monkeypatch.chdir(tmp_path)
    digests = {}
    for inst in instances:
        _ns, rc, out, err = run.execute(cli.main, inst.argv)
        digests[inst.name] = run.output_digest(rc, out, err)
    assert " ".join(digests[k] for k in sorted(digests)) == pinned
