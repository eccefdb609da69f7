import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from semifix import Matrix, save_system, semiring_from_id, walks
from semifix.cli import _COMMANDS, build_parser, main
from semifix.generators import gen_random_system

from conftest import ALL_IDS, brute_walk_sums

SRC = str(Path(__file__).resolve().parent.parent / "src")

TC_BOOL = """\
@semiring bool
T(X,Y) :- E(X,Y) + T(X,Z)*E(Z,Y).
E(a,b).
E(b,c).
"""

APSP = """\
@semiring trop
T(X,Y) :- E(X,Y) + T(X,Z)*E(Z,Y).
E(a,b) = 3.
E(b,c) = 4.
"""


def run_cli(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "semifix", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,  # a command that never ends fails instead of hanging the suite
    )


@pytest.fixture
def tc_file(tmp_path):
    path = tmp_path / "tc.dl"
    path.write_text(TC_BOOL)
    return path


def test_run_boolean_tc(tc_file):
    res = run_cli("run", str(tc_file))
    assert res.returncode == 0
    assert "T(a,c) = true" in res.stdout
    assert "stability index: 2" in res.stdout


def test_run_trop_apsp(tmp_path):
    path = tmp_path / "apsp.dl"
    path.write_text(APSP)
    res = run_cli("run", str(path))
    assert res.returncode == 0
    assert "T(a,c) = 7" in res.stdout


def test_run_semiring_flag_overrides_directive(tmp_path):
    path = tmp_path / "p.dl"
    path.write_text(APSP.replace("= 3", "").replace("= 4", ""))
    res = run_cli("run", str(path), "--semiring", "bool")
    assert res.returncode == 0
    assert "true" in res.stdout


def test_run_without_semiring_fails(tmp_path):
    path = tmp_path / "p.dl"
    path.write_text("T(X,Y) :- E(X,Y).\nE(a,b).\n")
    res = run_cli("run", str(path))
    assert res.returncode == 1
    assert "semiring" in res.stderr


def test_run_idb_fact_exits_1(tmp_path):
    path = tmp_path / "bad.dl"
    path.write_text("@semiring bool\nT(X,Y) :- E(X,Y).\nT(a,b).\nE(a,b).\n")
    res = run_cli("run", str(path))
    assert res.returncode == 1
    assert "derived" in res.stderr


def test_run_parse_error_exits_1(tmp_path):
    path = tmp_path / "bad.dl"
    path.write_text("@semiring bool\nT(X,Y) :- E(X,Y.\n")
    res = run_cli("run", str(path))
    assert res.returncode == 1
    assert "line" in res.stderr


@pytest.mark.parametrize(
    "program, facts, line",
    [
        ("@semiring trop\nT(X,Y) :- E(X,Y).\nE(a,b) = 3.\nE(b,c) = x.\n", None, 4),
        ("@semiring trop\nT(X,Y) :- E(X,Y).\n", "E\ta\tb\t3\n# note\nE\tb\tc\tx\n", 3),
    ],
    ids=["program", "tsv"],
)
def test_run_malformed_fact_literal_exits_1_with_line(tmp_path, program, facts, line):
    path = tmp_path / "p.dl"
    path.write_text(program)
    args = [str(path)]
    if facts is not None:
        (tmp_path / "f.tsv").write_text(facts)
        args.append(str(tmp_path / "f.tsv"))
    res = run_cli("run", *args)
    assert res.returncode == 1
    assert f"error: line {line}, col 1: not a rational literal: 'x'" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("n", ["99999999999", str(10**30)])
def test_analyze_huge_n_header_exits_1_with_line(tmp_path, n):
    # rejected before anything of size n is allocated
    path = tmp_path / "huge.mat"
    path.write_text(f"semiring trop\nn {n}\n")
    res = run_cli("analyze", str(path))
    assert res.returncode == 1
    assert res.stderr.startswith("error: line 2, col 1: n ")
    assert "Traceback" not in res.stderr


def test_run_cap_hit_exits_2(tmp_path):
    path = tmp_path / "cyc.mat"
    gen = run_cli("gen", "cycle", "--n", "3", "--L", "4", "--out", str(path))
    assert gen.returncode == 0
    # run is for programs; use analyze-style matrix input via oracle instead:
    # evaluate the slow cycle program through a tiny program is not possible,
    # so exercise the cap through a program with a long chain
    slow = tmp_path / "slow.dl"
    slow.write_text(TC_BOOL)
    res = run_cli("run", str(slow), "--cap", "1")
    assert res.returncode == 2
    assert "no fixpoint" in res.stdout


def test_run_trace_csv_format(tc_file):
    res = run_cli("run", str(tc_file), "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "step,atom,value"
    assert any('"T(a,c)"' in l for l in lines)


def test_run_facts_tsv(tmp_path):
    prog = tmp_path / "p.dl"
    prog.write_text("@semiring trop\nT(X,Y) :- E(X,Y) + T(X,Z)*E(Z,Y).\n")
    facts = tmp_path / "facts.tsv"
    facts.write_text("E\ta\tb\t3\nE\tb\tc\t4\n")
    res = run_cli("run", str(prog), str(facts))
    assert res.returncode == 0
    assert "T(a,c) = 7" in res.stdout


def test_ground_writes_matrix_file(tmp_path, tc_file):
    out = tmp_path / "tc.mat"
    res = run_cli("ground", str(tc_file), "--out", str(out))
    assert res.returncode == 0
    text = out.read_text()
    assert text.startswith("semiring bool\nn 3\n")
    assert "A 1 0 true" in text
    assert text.count("\nb ") == 2


def test_ground_nonlinear_exits_1(tmp_path):
    path = tmp_path / "nl.dl"
    path.write_text("@semiring bool\nT(X,Y) :- E(X,Y) + T(X,Z)*T(Z,Y).\nE(a,b).\n")
    res = run_cli("ground", str(path))
    assert res.returncode == 1
    assert "not linear" in res.stderr


def test_ground_empty_facts(tmp_path):
    path = tmp_path / "p.dl"
    path.write_text("@semiring bool\nT(X,Y) :- E(X,Y).\n")
    res = run_cli("ground", str(path))
    assert res.returncode == 0
    assert "n 0" in res.stdout


def test_analyze_matrix_file(tmp_path):
    mat = tmp_path / "cyc.mat"
    run_cli("gen", "cycle", "--n", "3", "--L", "4", "--out", str(mat))
    res = run_cli("analyze", str(mat))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["measured_index"] >= 4
    assert report["violations"] == []
    assert report["semiring"] == "capped:4"


def test_analyze_program_input(tc_file):
    res = run_cli("analyze", "--program", str(tc_file))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["p"] == 0
    assert report["measured_index"] <= report["n"]


def test_analyze_batch_with_summary(tmp_path):
    files = []
    for n in (2, 3):
        mat = tmp_path / f"c{n}.mat"
        run_cli("gen", "cycle", "--n", str(n), "--L", "2", "--out", str(mat))
        files.append(str(mat))
    summary = tmp_path / "summary.csv"
    res = run_cli("analyze", *files, "--summary", str(summary), "--workers", "2")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 2
    assert [json.loads(l)["instance_id"] for l in lines] == files
    assert summary.read_text().count("\n") == 3


def test_oracle_table(tmp_path):
    mat = tmp_path / "cyc.mat"
    run_cli("gen", "cycle", "--n", "3", "--L", "4", "--out", str(mat))
    res = run_cli("oracle", str(mat), "--i", "0", "--j", "0", "--h", "3")
    assert res.returncode == 0
    assert "equal" in res.stdout
    assert "UNEQUAL" not in res.stdout


def test_oracle_budget_exits_2(tmp_path):
    mat = tmp_path / "big.mat"
    run_cli("gen", "randsys", "--n", "6", "--density", "1.0", "--semiring", "bool", "--out", str(mat))
    res = run_cli("oracle", str(mat), "--i", "0", "--j", "0", "--h", "12", "--budget", "100")
    assert res.returncode == 2
    assert "budget" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("h", ["0", "3"])
@pytest.mark.parametrize("i, j", [(3, 0), (0, 3), (-1, 0), (0, -1)])
def test_oracle_endpoints_outside_the_graph_exit_1(tmp_path, capsys, h, i, j):
    mat = tmp_path / "cyc.mat"
    mat.write_text("semiring bool\nn 3\nA 0 1 true\nA 1 2 true\nA 2 0 true\n")
    assert main(["oracle", str(mat), "--i", str(i), "--j", str(j), "--h", h]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: endpoints ({i},{j}) outside a 3-vertex graph\n"
    assert out == ""


def _oracle_csv_rows(text):
    rows = list(csv.reader(text.splitlines()))[1:]
    assert all(len(r) == 6 for r in rows)
    return rows


@pytest.mark.parametrize("sid", ["capped:4", "trop_p:2"])
def test_oracle_columns_match_matmul_reference(tmp_path, capsys, sid):
    s, n, max_h = semiring_from_id(sid), 4, 5
    ident = Matrix.identity(s, n)
    codes = set()
    for seed in range(6):
        system = gen_random_system(n, 0.5, s, seed=seed)
        A = system.A
        mat = tmp_path / f"{seed}.mat"
        mat.write_text(save_system(system))
        powers, sums = [ident], [ident]
        for _ in range(max_h):
            powers.append(A.matmul(powers[-1]))
            sums.append(ident.add(A.matmul(sums[-1])))
        for i in range(n):
            for j in range(n):
                argv = ["oracle", str(mat), "--i", str(i), "--j", str(j), "--h", str(max_h)]
                code = main([*argv, "--format", "csv"])
                rows = _oracle_csv_rows(capsys.readouterr().out)
                assert [r[2] for r in rows] == [s.show(P.get(i, j)) for P in powers]
                assert [r[4] for r in rows] == [s.show(S.get(i, j)) for S in sums]
                assert code == (3 if any(r[5] == "UNEQUAL" for r in rows) else 0)
                codes.add(code)
    # capped addition does not distribute, so some walk sums differ
    assert codes == ({0, 3} if sid == "capped:4" else {0})


ORACLE_WALK_IDS = ALL_IDS + ("capped:5", "capped:6")


@pytest.mark.parametrize("sid", ORACLE_WALK_IDS)
def test_oracle_walk_columns_match_brute_force(tmp_path, capsys, sid):
    s, max_h = semiring_from_id(sid), 4
    unequal = 0
    for n in range(1, 6):
        system = gen_random_system(n, 0.6, s, seed=n)
        mat = tmp_path / f"{n}.mat"
        mat.write_text(save_system(system))
        for i in range(n):
            exact, upto = brute_walk_sums(system.A, i, max_h)
            for j in range(n):
                argv = ["oracle", str(mat), "--i", str(i), "--j", str(j), "--h", str(max_h)]
                main([*argv, "--format", "csv"])
                rows = _oracle_csv_rows(capsys.readouterr().out)
                assert [r[1] for r in rows] == [s.show(e[j]) for e in exact]
                assert [r[3] for r in rows] == [s.show(u[j]) for u in upto]
                unequal += sum(r[5] == "UNEQUAL" for r in rows)
    # capped addition does not distribute, so products fall below walk sums
    assert (unequal > 0) == sid.startswith("capped")


@pytest.mark.parametrize("max_h", [0, 3, 6])
def test_oracle_enumerates_walks_once(tmp_path, capsys, monkeypatch, max_h):
    mat = tmp_path / "r.mat"
    mat.write_text(save_system(gen_random_system(4, 0.6, semiring_from_id("trop"), seed=2)))
    calls = []
    enumerate_walks = walks._walks

    def counting(*a, **kw):
        calls.append(a[2])
        return enumerate_walks(*a, **kw)

    monkeypatch.setattr(walks, "_walks", counting)
    assert main(["oracle", str(mat), "--i", "0", "--j", "3", "--h", str(max_h)]) == 0
    assert calls == [max_h]
    assert len(capsys.readouterr().out.splitlines()) == max_h + 2


def test_semiring_report():
    res = run_cli("semiring", "capped:4")
    assert "stability: 3-stable (witness 1)" in res.stdout
    assert "longest chain 5" in res.stdout
    assert "distributes: FAIL" in res.stdout  # capped addition cannot distribute
    res2 = run_cli("semiring", "bool")
    assert res2.returncode == 0
    assert "0-stable" in res2.stdout
    res3 = run_cli("semiring", "trop")
    assert res3.returncode == 0
    assert "0-stable (analytic)" in res3.stdout


def test_semiring_unknown_id():
    res = run_cli("semiring", "wat:3")
    assert res.returncode == 1


def _limit_memory():  # a carrier that outgrows its bound fails here, not on the machine
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))


@pytest.mark.parametrize(
    "sid, message",
    [
        ("capped:1000000000", "carrier size 1000000002 exceeds the limit 4096"),
        ("trop_p_fin:20:20", "carrier size 538257874440 exceeds the limit 4096"),
        ("trop_p:1000000000", "bag size 1000000001 exceeds the limit 4096"),
    ],
)
def test_semiring_too_large_exits_1_at_once(sid, message):
    res = subprocess.run(
        [sys.executable, "-m", "semifix", "semiring", sid],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        preexec_fn=_limit_memory,
        timeout=60,
    )
    assert (res.returncode, res.stdout, res.stderr) == (1, "", f"error: {message}\n")


# a 400-edge cycle: 64,000,000 ground atoms of T, 400 of them productive
WIDE_PROGRAM = "@semiring trop\nT(X,Y,Z) :- E(X,Y)*E(Y,Z).\n" + "".join(
    f"E(v{k},v{(k + 1) % 400}) = {k % 7 + 1}.\n" for k in range(400)
)


@pytest.mark.parametrize("command", ["run", "ground"])
def test_wide_program_grounds_within_the_memory_limit(tmp_path, command):
    prog = tmp_path / "wide.dl"
    prog.write_text(WIDE_PROGRAM)

    def cli(*flags):
        return subprocess.run(
            [sys.executable, "-m", "semifix", command, str(prog), *flags],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            preexec_fn=_limit_memory,
            timeout=60,
        )

    res = cli()
    assert (res.returncode, res.stderr) == (0, "")
    if command == "run":
        assert sum(line.startswith("T(") for line in res.stdout.splitlines()) == 400
        assert "T(v0,v1,v2) = 3\n" in res.stdout
    else:
        assert "\nn 400\n" in res.stdout
    res = cli("--no-prune")
    message = "64000000 ground atoms without pruning exceed the limit of 1000000 atoms"
    assert (res.returncode, res.stdout, res.stderr) == (1, "", f"error: {message}\n")


def test_semiring_flag_overrides_a_bad_directive(tmp_path, capsys):
    prog = tmp_path / "p.dl"
    prog.write_text("@semiring capped:99999\nT(X) :- E(X).\nE(a).\n")
    assert main(["run", str(prog), "--semiring", "bool"]) == 0
    assert capsys.readouterr().out.startswith("T(a) = true\n")


def test_semiring_at_the_carrier_size_limit_is_quick():
    res = subprocess.run(
        [sys.executable, "-m", "semifix", "semiring", "capped:4094"],  # 4,096 elements
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=10,  # building the chain's up-sets took about 17 s
    )
    assert (res.returncode, res.stderr) == (1, "")  # 1: capped fails distributivity
    assert "naturally ordered, longest chain 4095\n" in res.stdout


def test_gen_blocked(tmp_path):
    out = tmp_path / "blocked.mat"
    res = run_cli("gen", "blocked", "--n", "6", "--semiring", "bool", "--out", str(out))
    assert res.returncode == 0
    text = out.read_text()
    assert "family=blocked" in text
    assert text.count("\nA ") == 9


def test_gen_cycle_requires_L():
    res = run_cli("gen", "cycle", "--n", "3")
    assert res.returncode == 2  # argparse usage error


@pytest.mark.parametrize(
    "args, message",
    [
        # rejected before anything of size n is allocated
        (("cycle", "--n", "99999999999", "--L", "2"), "n 99999999999 exceeds the limit"),
        (("random", "--n", "99999999999"), "n 99999999999 exceeds the limit"),
        (("randsys", "--n", "99999999999"), "n 99999999999 exceeds the limit"),
        (("blocked", "--n", "99999999999"), "n 99999999999 exceeds the limit"),
        (("random", "--n", "-1"), "n must be >= 0"),
        (("random", "--n", "3", "--wmin", "-3", "--wmax", "-1"), "weights must be >= 0"),
        # the two families that draw once per vertex pair bound n*n
        (("random", "--n", "999999", "--density", "0.000001"), "n 999999 exceeds the limit of 1000"),
        (("randsys", "--n", "999999", "--density", "0.000001"), "n 999999 exceeds the limit of 1000"),
    ],
)
def test_gen_out_of_range_exits_1(tmp_path, args, message):
    out = tmp_path / "g.mat"
    res = run_cli("gen", *args, "--out", str(out))
    assert res.returncode == 1
    assert res.stderr.startswith(f"error: {message}")
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_run_nonlinear_program(tmp_path):
    path = tmp_path / "nl.dl"
    path.write_text("@semiring bool\nT(X,Y) :- E(X,Y) + T(X,Z)*T(Z,Y).\nE(a,b).\nE(b,c).\n")
    res = run_cli("run", str(path))
    assert res.returncode == 0
    assert "T(a,c) = true" in res.stdout


def test_run_inflationary_flag(tc_file):
    res = run_cli("run", str(tc_file), "--inflationary")
    assert res.returncode == 0
    assert "T(a,c) = true" in res.stdout


def test_ground_no_prune_keeps_universe(tc_file):
    res = run_cli("ground", str(tc_file), "--no-prune")
    assert res.returncode == 0
    assert "n 9" in res.stdout


def test_timestamp_header_toggle(tmp_path, tc_file):
    plain = run_cli("run", str(tc_file))
    stamped = run_cli("run", str(tc_file), "--no-reproducible")
    assert not plain.stdout.startswith("# generated")
    assert stamped.stdout.startswith("# generated")


@pytest.mark.parametrize(
    "args",
    [
        ("run",),
        ("ground",),
    ],
)
def test_byte_identical_reruns_program(tmp_path, tc_file, args):
    first = run_cli(*args, str(tc_file))
    second = run_cli(*args, str(tc_file))
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode


def test_byte_identical_reruns_gen_and_analyze(tmp_path):
    a1 = run_cli("gen", "random", "--n", "4", "--seed", "5", "--semiring", "trop")
    a2 = run_cli("gen", "random", "--n", "4", "--seed", "5", "--semiring", "trop")
    assert a1.stdout == a2.stdout
    mat = tmp_path / "r.mat"
    mat.write_text(a1.stdout)
    b1 = run_cli("analyze", str(mat))
    b2 = run_cli("analyze", str(mat))
    assert b1.stdout == b2.stdout


@pytest.mark.parametrize(
    "text, line",
    [
        ("semiring bool\nn abc\n", 2),
        ("semiring bool\nn\n", 2),
        ("semiring\nn 2\n", 1),
        ("semiring bool\nn 2\nA 0\n", 3),
        ("semiring bool\nn 2\nb\n", 3),
        ("semiring bool\nn 2\nA 0 x true\n", 3),
        ("semiring bool\nn 2\nb 1.5 true\n", 3),
        ("semiring bool\nn 2\nA -1 0 true\n", 3),
        ("semiring bool\nn 2\nb -1 true\n", 3),
        ("semiring bool\nn 2\nA 0 7 true\n", 3),
        ("semiring bool\nn 2\nA 0 1 true\n\nb 5 true\n", 5),
        ("semiring trop\nn 2\nA 0 1 3\nb 1 2\nsemiring bool\n", 5),
        ("semiring bool\nn 3\nA 2 2 true\nn 1\n", 4),
    ],
)
def test_analyze_malformed_matrix_file_exits_1_with_line(tmp_path, text, line):
    mat = tmp_path / "bad.mat"
    mat.write_text(text)
    res = run_cli("analyze", str(mat))
    assert res.returncode == 1
    assert f"line {line}" in res.stderr
    assert "Traceback" not in res.stderr


def test_oracle_beyond_the_recursion_limit(tmp_path):
    mat = tmp_path / "loop.mat"
    mat.write_text("semiring trop\nn 1\nA 0 0 1\n")
    res = run_cli("oracle", str(mat), "--i", "0", "--j", "0", "--h", "1050", "--format", "csv")
    assert res.returncode == 0
    rows = res.stdout.splitlines()[1:]
    assert len(rows) == 1051
    assert all(r.endswith(",equal") for r in rows)


# flags each subcommand used to accept and ignore, and prefixes of flags it
# reads; argparse rejects both
REMOVED_FLAGS = [
    (("run", "p.dl"), ("--seed", "1")),
    (("run", "p.dl"), ("--budget", "10")),
    (("ground", "p.dl"), ("--cap", "3")),
    (("ground", "p.dl"), ("--seed", "1")),
    (("ground", "p.dl"), ("--budget", "10")),
    (("ground", "p.dl"), ("--inflationary",)),
    (("ground", "p.dl"), ("--format", "json")),
    (("analyze", "x.mat"), ("--seed", "1")),
    (("analyze", "x.mat"), ("--budget", "10")),
    (("analyze", "x.mat"), ("--inflationary",)),
    (("analyze", "x.mat"), ("--format", "csv")),
    (("oracle", "x.mat", "--i", "0", "--j", "0", "--h", "1"), ("--semiring", "bool")),
    (("oracle", "x.mat", "--i", "0", "--j", "0", "--h", "1"), ("--cap", "3")),
    (("oracle", "x.mat", "--i", "0", "--j", "0", "--h", "1"), ("--seed", "1")),
    (("oracle", "x.mat", "--i", "0", "--j", "0", "--h", "1"), ("--inflationary",)),
    (("oracle", "x.mat", "--i", "0", "--j", "0", "--h", "1"), ("--no-prune",)),
    (("oracle", "x.mat", "--i", "0", "--j", "0", "--h", "1"), ("--format", "json")),
    (("semiring", "bool"), ("--semiring", "bool")),
    (("semiring", "bool"), ("--cap", "3")),
    (("semiring", "bool"), ("--inflationary",)),
    (("semiring", "bool"), ("--no-prune",)),
    (("semiring", "bool"), ("--format", "json")),
    (("gen", "random", "--n", "3"), ("--cap", "3")),
    (("gen", "random", "--n", "3"), ("--budget", "10")),
    (("gen", "random", "--n", "3"), ("--inflationary",)),
    (("gen", "random", "--n", "3"), ("--format", "json")),
    (("semiring", "bool"), ("--budget", "10")),
    (("run", "p.dl"), ("--sem", "bool")),
]


@pytest.mark.parametrize("base, flag", REMOVED_FLAGS, ids=lambda v: " ".join(v))
def test_unread_flags_are_usage_errors(capsys, base, flag):
    build_parser().parse_args(list(base))  # the command line is valid without the flag
    with pytest.raises(SystemExit) as exc:
        main([*base, *flag])
    assert exc.value.code == 2  # argparse usage error
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (("analyze", "--workers", "0"), "--workers must be >= 1"),
        (("oracle", "--i", "0", "--j", "0", "--h", "-1"), "--h must be >= 0"),
    ],
)
def test_out_of_range_cli_values_exit_1(tmp_path, args, message):
    mat = tmp_path / "loop.mat"
    mat.write_text("semiring trop\nn 1\nA 0 0 1\n")
    res = run_cli(args[0], str(mat), *args[1:])
    assert res.returncode == 1
    assert message in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("sid, weight", [("capped:9", "1"), ("trop_p:2", "[1]"), ("bool", "true")])
def test_run_repeated_head_variable(tmp_path, capsys, sid, weight):
    path = tmp_path / "rep.dl"
    facts = "".join(f"E({u},{v}) = {weight}.\n" for u, v in ("ab", "ba", "cc"))
    path.write_text("T(X,X) :- E(X,Y).\n" + facts)
    assert main(["run", str(path), "--semiring", sid]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [f"T({x},{x}) = {weight}" for x in "abc"]


HELP_ARGVS = [["-h"]] + [[name, "-h"] for name in ("run", "ground", "analyze", "oracle", "semiring", "gen")]


# argvs that end in help or a usage error; main's cached parser must print
# the same bytes as a freshly built one
PARSER_EXIT_ARGVS = HELP_ARGVS + [
    [],
    ["bogus"],
    ["--x", "run", "p.dl"],
    ["run", "p.dl", "f.tsv", "extra"],
    ["run", "p.dl", "--sem", "bool"],
    ["run", "p.dl", "--format", "xml"],
    ["gen", "cycle", "--n", "3"],
    ["gen", "nope", "--n", "3"],
    ["analyze", "--workers", "z"],
    ["oracle", "m", "--i", "x", "--j", "0", "--h", "1"],
]


@pytest.mark.parametrize("argv", PARSER_EXIT_ARGVS, ids=lambda a: " ".join(a) or "no-args")
def test_help_matches_the_fully_built_parser(capsys, argv):
    parser = build_parser.__wrapped__()  # a fresh parser, outside the cache
    with pytest.raises(SystemExit) as want:
        parser.parse_args(argv)
        parser.error("gen cycle needs --L")  # reached only by gen cycle without --L
    expected = capsys.readouterr()
    assert "usage: semifix" in expected.out + expected.err
    with pytest.raises(SystemExit) as got:
        main(argv)
    assert capsys.readouterr() == expected
    assert got.value.code == want.value.code


WELL_FORMED_ARGVS = [
    ["run", "p.dl"],
    ["oracle", "m.mat", "--i", "0", "--j", "0", "--h", "1"],
    ["analyze", "m.mat"],
    ["semiring", "bool"],
    ["gen", "cycle", "--n", "3", "--L", "2"],
]


@pytest.mark.parametrize("first", WELL_FORMED_ARGVS, ids=" ".join)
def test_the_parser_is_built_once_per_process(tmp_path, monkeypatch, first):
    monkeypatch.chdir(tmp_path)
    Path("m.mat").write_text("semiring trop\nn 1\nA 0 0 1\n")
    Path("p.dl").write_text(APSP)
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    assert main(first) == 0
    # the top level and its six subcommands
    assert progs == ["semifix"] + [f"semifix {name}" for name in _COMMANDS]
    progs.clear()
    for argv in WELL_FORMED_ARGVS:
        assert main(argv) == 0
    assert progs == []


@pytest.mark.parametrize(
    "before, argv",
    [
        (["run", "p.dl", "--cap", "1", "--format", "json"], ["run", "p.dl"]),
        (["analyze", "a.mat", "b.mat", "--summary", "s.csv"], ["analyze", "a.mat"]),
        (
            ["oracle", "a.mat", "--i", "0", "--j", "0", "--h", "2"],
            ["oracle", "--h", "1", "b.mat", "--i", "0", "--j", "0"],
        ),
    ],
    ids=lambda a: " ".join(a),
)
def test_the_cached_parser_carries_nothing_between_calls(
    tmp_path, monkeypatch, capsys, before, argv
):
    """The second command prints what it prints as the first of a fresh process."""
    monkeypatch.chdir(tmp_path)
    Path("p.dl").write_text(APSP)
    Path("a.mat").write_text("semiring trop\nn 1\nA 0 0 1\n")
    Path("b.mat").write_text(BAG_LOOP)
    fresh = run_cli(*argv, cwd=tmp_path)
    main(before)
    Path("s.csv").unlink(missing_ok=True)
    capsys.readouterr()
    assert main(argv) == fresh.returncode
    assert capsys.readouterr() == (fresh.stdout, fresh.stderr)
    assert not Path("s.csv").exists()


README = Path(__file__).resolve().parent.parent / "README.md"
COMMON_FLAGS = ["--out", "--reproducible", "--no-reproducible"]


def _help_flags(capsys, command):
    """The option strings that ``semifix <command> -h`` prints, in order."""
    with pytest.raises(SystemExit):
        main([command, "-h"])
    options = capsys.readouterr().out.split("\noptions:\n", 1)[1]
    items = re.findall(r"^  (-.*?)(?: {2,}|$)", options, re.M)
    return [f for item in items for f in re.findall(r"(?<![\w-])--?[\w-]+", item)]


def test_readme_flag_table_matches_the_parser(capsys):
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| subcommand | flags |") :].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines()[2:]:
        command, flags = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line).groups()
        rows[command] = sorted(re.findall(r"`(--[\w-]+)", flags))
    assert list(rows) == list(_COMMANDS)
    assert "Every subcommand also takes `--out PATH` and `--reproducible/--no-reproducible`" in (
        " ".join(text.split())
    )
    for command, documented in rows.items():
        printed = _help_flags(capsys, command)
        assert printed[:2] == ["-h", "--help"], command
        assert [f for f in printed if f in COMMON_FLAGS] == COMMON_FLAGS, command
        assert sorted(f for f in printed[2:] if f not in COMMON_FLAGS) == documented, command


def test_importing_the_cli_leaves_out_concurrent_futures():
    code = "import sys, semifix.cli; print('concurrent.futures' in sys.modules)"
    res = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )
    assert (res.returncode, res.stdout) == (0, "False\n")


# the 1x1 bag system x <- [0] x (+) [0]: its matrix index is 2, so a claimed
# p of 0 is too small and its bounds are truly violated
BAG_LOOP = "semiring trop_p:2\nn 1\nA 0 0 [0]\nb 0 [0]\n"


@pytest.mark.parametrize(
    "cycle, flags, message",
    [
        (False, ("--claimed-L", "0"), "--claimed-L must be >= 1, got 0"),
        (True, ("--claimed-p", "-1", "--claimed-L", "0"), "--claimed-p must be >= 0, got -1"),
        (False, ("--claimed-p", "-1"), "--claimed-p must be >= 0, got -1"),
    ],
)
def test_invalid_claims_exit_1_naming_the_flag(tmp_path, capsys, cycle, flags, message):
    mat = tmp_path / "m.txt"
    if cycle:
        assert main(["gen", "cycle", "--n", "3", "--L", "2", "--out", str(mat)]) == 0
    else:
        mat.write_text(BAG_LOOP)
    assert main(["analyze", str(mat), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("flags", [("--claimed-p", "-1"), ("--claimed-L", "0")])
@pytest.mark.parametrize("sid", ALL_IDS)
def test_invalid_claims_exit_1_on_every_carrier(tmp_path, capsys, sid, flags):
    s = semiring_from_id(sid)
    mat = tmp_path / "m.txt"
    mat.write_text(f"semiring {sid}\nn 1\nA 0 0 {s.show(s.one)}\n")
    assert main(["analyze", str(mat), *flags]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flags[0]} must be")


@pytest.mark.parametrize(
    "flags, violations",
    [
        (
            (),
            [
                "vector index >= 2 exceeds bound_linear_exp = 1",
                "matrix index 2 exceeds bound_linear_exp = 1",
                "vector index >= 2 exceeds bound_zero_stable = 1",
                "matrix index 2 exceeds bound_zero_stable = 1",
            ],
        ),
        (
            ("--cap", "1"),
            [
                "matrix index >= 2 exceeds bound_linear_exp = 1",
                "matrix index >= 2 exceeds bound_zero_stable = 1",
            ],
        ),
    ],
    ids=["default-cap", "cap-1"],
)
def test_analyze_too_small_claimed_p_exits_3(tmp_path, capsys, flags, violations):
    mat = tmp_path / "m.txt"
    mat.write_text(BAG_LOOP)
    assert main(["analyze", str(mat), "--claimed-p", "0", *flags]) == 3
    report = json.loads(capsys.readouterr().out)
    assert (report["p"], report["p_source"]) == (0, "claimed")
    assert report["violations"] == violations


MALFORMED_MATRIX_FILES = [
    ("semiring bool\nn x\n", "line 2, col 1: n 'x' is not an integer"),
    ("semiring bool\nn 1\nfoo 1\n", "line 3, col 1: unrecognized line 'foo 1'"),
    ("semiring bool\nn 2\nA 0 1\n", "line 3, col 1: expected 3 field(s) after 'A'"),
    ("semiring bool\n", "line 1, col 1: missing semiring or n header"),
    ("# a\nsemiring wat\nn 1\n", "line 2, col 1: unknown semiring id 'wat'"),
    ("semiring capped:99999\nn 1\n", "line 1, col 1: carrier size 100001 exceeds the limit 4096"),
]

MALFORMED_PROGRAMS = [
    ("@semiring trop\nE(a,b) = 3", "line 2, col 11: unterminated fact literal"),
    ("@semiring\nT(X) :- E(X).\n", "line 1, col 1: expected a semiring id after @semiring"),
    ("T(X) : E(X).\n", "line 1, col 6: expected :- "),
    ("E(a,b) E(b,c).\n", "line 1, col 8: expected ':-', '=' or '.', got 'E'"),
    ("@ semiring bool\n", "line 1, col 2: expected a directive name after @"),
    ("# comment\n", "line 1, col 1: unexpected character '#'"),
    (
        "@semiring trop\nT(X,Y) :- E(X,Y) + T(X,Z)*F(Z,Y).\nE(a,b) = 1.\n",
        "line 2, col 27: unknown predicate F in rule body (no facts, no rules)",
    ),
    (
        "@semiring trop\nT(X,Y) :- E(X,Y) + T(X,Z)*E(Z,Y).\nE(a,b) = 3.\nT(a,b) = 2.\n",
        "line 4, col 1: fact given for derived predicate T; its values come from iteration",
    ),
    (
        "T(X) :- E(X).\n  @semiring capped:99999\nE(a).\n",
        "line 2, col 3: carrier size 100001 exceeds the limit 4096",
    ),
    # tokenizer edge cases: end of input after a comment stays at the '%'
    ("T(X) :- E(X).\nE(a) % c", "line 2, col 6: expected ':-', '=' or '.', got 'end of input'"),
    ("T(X) :- E(X).\nE(a)\t\t", "line 2, col 7: expected ':-', '=' or '.', got 'end of input'"),
    ("T(X) :- E(X).\r\nE(a) x.\r\n", "line 2, col 6: expected ':-', '=' or '.', got 'x'"),
    ("T(X) :- E(X).\nE(1.5.2).\n", "line 2, col 6: expected ',' or ')', got '.'"),
    ("T(X) :- E(X).\nE(12ab).\n", "line 2, col 5: expected ',' or ')', got 'ab'"),
    ("T(X) :- E(X).\nE(\u00bd).\n", "line 2, col 3: unexpected character '\u00bd'"),
    # numeric characters that are not decimal digits start no number and no name
    ("T(X) :- E(X).\nE(\u00b2).\n", "line 2, col 3: unexpected character '\u00b2'"),
    ("T(X) :- E(X).\nE(1\u00b2).\n", "line 2, col 4: unexpected character '\u00b2'"),
]


@pytest.mark.parametrize(
    "command, text, message",
    [("analyze", t, m) for t, m in MALFORMED_MATRIX_FILES]
    + [("run", t, m) for t, m in MALFORMED_PROGRAMS],
)
def test_malformed_input_exits_1_with_line(tmp_path, capsys, command, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    # --semiring overrides a directive, so it is passed only to programs without one
    flag = command == "run" and "@semiring" not in text
    argv = [command, str(path)] + (["--semiring", "trop"] if flag else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, data, at",
    [
        (["run", "--semiring", "bool"], b"T(X) :- E(X).\nE(a\xff).\n", "line 2, col 4"),
        # the column counts bytes: '# ' and the two bytes of an e-acute come first
        (["analyze"], b"semiring bool\nn 1\n# \xc3\xa9\xff\n", "line 3, col 5"),
        (["analyze", "--workers", "2"], b"semiring bool\nn 1\n# \xc3\xa9\xff\n", "line 3, col 5"),
        (["oracle", "--i", "0", "--j", "0", "--h", "1"], b"\xffsemiring bool\nn 1\n", "line 1, col 1"),
    ],
)
def test_invalid_utf8_exits_1_with_line(tmp_path, capsys, command, data, at):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    # with --workers 2 the file is read in a worker process
    files = [str(path)] * (2 if "--workers" in command else 1)
    assert main(command[:1] + files + command[1:]) == 1
    assert capsys.readouterr().err == f"error: {at}: invalid UTF-8 byte 0xff\n"


@pytest.mark.parametrize(
    "facts, message",
    [
        ("E\ta\tb\t1\nE\ta\t1\n", "predicate E used with inconsistent arity in facts"),
        ("E\ta\t1\n", "predicate E used with inconsistent arity"),
        (
            "E\ta\tb\t1\nT\ta\tb\t1\n",
            "fact given for derived predicate T; its values come from iteration",
        ),
    ],
)
def test_tsv_fact_arity_errors_exit_1(tmp_path, capsys, facts, message):
    (tmp_path / "p.dl").write_text("@semiring trop\nT(X,Y) :- E(X,Y) + T(X,Z)*E(Z,Y).\n")
    (tmp_path / "f.tsv").write_text(facts)
    assert main(["run", str(tmp_path / "p.dl"), str(tmp_path / "f.tsv")]) == 1
    # the first TSV row at fault, or the first body atom E(X,Y) of p.dl
    at = {"E\ta\t1\n": "line 2, col 11"}.get(facts, "line 2, col 1")
    assert capsys.readouterr().err == f"error: {at}: {message}\n"
