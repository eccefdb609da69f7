import argparse
import csv
import itertools
import json
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from semifix import (
    Matrix,
    build_edb,
    cli,
    engine,
    ground,
    matrix,
    parse_program,
    save_system,
    semiring_from_id,
    walks,
)
from semifix.cli import _COMMANDS, _json_dump, build_parser, main
from semifix.frontend import program_fact_entries
from semifix.generators import gen_random_system
from semifix.semirings import TropSemiring

from conftest import ALL_IDS, GF2Semiring, brute_walk_sums, linear_step
from reference import pad_rows

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


@pytest.mark.parametrize(
    "argv, files, where, literal",
    [
        (["run", "p.dl"], {"p.dl": "@semiring trop\nT(X,Y) :- E(X,Y).\nE(a,b) = 1e5000.\n"},
         "line 3, col 1", "1e5000"),
        (["run", "p.dl", "f.tsv"], {"p.dl": "@semiring trop\nT(X,Y) :- E(X,Y).\n",
                                    "f.tsv": "E\ta\tb\t1\nE\tb\tc\t2E3\n"},
         "line 2, col 1", "2E3"),
        (["run", "p.dl"], {"p.dl": "@semiring trop_p:2\nT(X,Y) :- E(X,Y).\nE(a,b) = [1,1e9].\n"},
         "line 3, col 1", "1e9"),
        (["oracle", "m.txt", "--i", "0", "--j", "0", "--h", "1"],
         {"m.txt": "semiring trop\nn 1\nA 0 0 1e5000\nb 0 1\n"}, "line 3, col 1", "1e5000"),
    ],
    ids=["program", "tsv", "bag", "matrix"],
)
def test_exponent_literal_exits_1_with_line(tmp_path, monkeypatch, capsys, argv, files, where, literal):
    # an exponent would let a short literal build a huge int
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {where}: exponent literal '{literal}' is not accepted\n")


def test_value_too_long_to_print_exits_1(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    big = "9" * limit  # the largest int str accepts; the path a -> c sums two of them
    path = tmp_path / "p.dl"
    path.write_text(f"T(X,Y) :- E(X,Y) + T(X,Z)*E(Z,Y).\nE(a,b) = {big}.\nE(b,c) = {big}.\n")
    assert main(["run", str(path), "--semiring", "trop"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: value too long to print: over the limit of {limit} digits\n")


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


def test_ground_without_facts_keeps_the_rule_constants(tmp_path):
    path = tmp_path / "p.dl"
    path.write_text("T(a) :- T(a).\n")
    res = run_cli("ground", str(path), "--semiring", "bool", "--no-prune")
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == "semiring bool\nn 1\n# atom 0 T(a)\nA 0 0 true\n"


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
    res = run_cli("analyze", *files, "--summary", str(summary))
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


# the complete 3-vertex bool digraph: at --h 2 the enumeration visits 1 + 2 + 4 walks
COMPLETE_3 = "semiring bool\nn 3\n" + "".join(
    f"A {u} {v} true\n" for u in range(3) for v in range(3) if u != v
)


def test_oracle_walk_enumeration_stops_at_its_budget(tmp_path, capsys):
    mat = tmp_path / "k3.mat"
    mat.write_text(COMPLETE_3)
    assert main(["oracle", str(mat), "--i", "0", "--j", "1", "--h", "2", "--budget", "6"]) == 2
    assert capsys.readouterr() == ("", "error: walk enumeration exceeded the budget of 6\n")
    tables = walks.walk_sums(engine.load_system(COMPLETE_3).A, (0,), 2, budget=7)
    assert [sorted(t) for t in tables] == [[(0, 0)], [(0, 1), (0, 2)], [(0, 0), (0, 1), (0, 2)]]


def test_oracle_runs_a_deep_query_on_a_dag_with_few_walks(tmp_path, capsys):
    # 6 walks leave vertex 0 at any --h, though it branches and 2^30 is far over the budget
    mat = tmp_path / "dag.mat"
    mat.write_text("semiring bool\nn 4\nA 0 1 true\nA 0 2 true\nA 1 2 true\nA 2 3 true\n")
    assert main(["oracle", str(mat), "--i", "0", "--j", "3", "--h", "30", "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    rows = out.splitlines()[1:]
    assert err == "" and len(rows) == 31
    assert all(r.endswith(",equal") for r in rows)


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
    walk_sums = walks.walk_sums

    def counting(*a, **kw):
        calls.append(a[2])
        return walk_sums(*a, **kw)

    monkeypatch.setattr(walks, "walk_sums", counting)
    assert main(["oracle", str(mat), "--i", "0", "--j", "3", "--h", str(max_h)]) == 0
    assert calls == [max_h]
    assert len(capsys.readouterr().out.splitlines()) == max_h + 2


def test_oracle_stops_multiplying_a_column_of_zeros(tmp_path, capsys, monkeypatch):
    # one vertex and no edge: from h = 1 on, column 0 of A^h is the zero object
    mat = tmp_path / "one.mat"
    mat.write_text("semiring trop\nn 1\n")
    calls = {"matvec": 0, "show": 0}
    matvec, show = Matrix.matvec, TropSemiring.show

    def counting(name, f):
        def wrapper(*a):
            calls[name] += 1
            return f(*a)
        return wrapper

    monkeypatch.setattr(Matrix, "matvec", counting("matvec", matvec))
    monkeypatch.setattr(TropSemiring, "show", counting("show", show))
    assert main(["oracle", str(mat), "--i", "0", "--j", "0", "--h", "1000", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1:] == ["0,0,0,0,0,equal"] + [f"{h},inf,inf,0,0,equal" for h in range(1, 1001)]
    # one product, and a row is shown again only when a cell's value object changes
    assert calls == {"matvec": 1, "show": 8}


@pytest.mark.parametrize("sid", ORACLE_WALK_IDS)
def test_oracle_human_format_pads_the_csv_rows(tmp_path, capsys, sid):
    s, codes = semiring_from_id(sid), set()
    for n, seed in ((1, 0), (2, 6), (3, 0)):
        mat = tmp_path / f"{n}.mat"
        mat.write_text(save_system(gen_random_system(n, 0.5, s, seed=seed)))
        for i, j, h in itertools.product(range(n), range(n), (0, 4, 12)):
            argv = ["oracle", str(mat), "--i", str(i), "--j", str(j), "--h", str(h)]
            code = main([*argv, "--format", "csv"])
            table = list(csv.reader(capsys.readouterr().out.splitlines()))
            assert main(argv) == code
            assert capsys.readouterr().out == pad_rows(table)
            codes.add(code)
    # capped addition does not distribute, so some rows read UNEQUAL
    assert codes == ({0, 3} if sid.startswith("capped") else {0})
    assert main([*argv, "--out", str(tmp_path / "human.txt")]) == code
    assert capsys.readouterr().out == ""
    assert (tmp_path / "human.txt").read_text() == pad_rows(table)


def test_kernel_builds_transpose_a_matrix_at_most_once(tmp_path, capsys, monkeypatch, tc_file):
    transposed, built = [], []
    transpose, linear_rows = matrix._transpose, engine._linear_rows
    monkeypatch.setattr(matrix, "_transpose", lambda rows: transposed.append(1) or transpose(rows))
    monkeypatch.setattr(engine, "_linear_rows", lambda A: built.append(1) or linear_rows(A))
    # a grounded system brings its columns along
    assert main(["run", str(tc_file)]) == 0
    assert (len(transposed), len(built)) == (0, 1)
    # a matrix file's columns are transposed once, for the vector run and the matrix index
    mat = tmp_path / "r.mat"
    mat.write_text(save_system(gen_random_system(5, 0.5, semiring_from_id("trop"), seed=4)))
    built.clear()
    assert main(["analyze", str(mat)]) == 0
    assert (len(transposed), len(built)) == (1, 2)
    capsys.readouterr()


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


def test_semiring_report_without_stability_or_natural_order(monkeypatch, capsys):
    monkeypatch.setattr(cli, "semiring_from_id", lambda spec: GF2Semiring())
    assert main(["semiring", "gf2"]) == 0
    report = capsys.readouterr().out.splitlines()
    assert report[0] == "semiring gf2"
    assert report[-3:] == ["carrier size: 2", "stability: not reached within cap", "not naturally ordered"]


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
        ("capped:0", "cap L must be >= 1"),
        ("trop_p:-1", "bag order p must be >= 0"),
        ("trop_p_fin:1:-1", "entry cap must be >= 0"),
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


@pytest.mark.parametrize(
    "command, files",
    [
        # the 2-vertex cycle at the largest cap: 2,732 steps
        (
            ["run", "c.dl"],
            {"c.dl": "@semiring capped:4094\nT(Y) :- S(Y) + T(X)*E(X,Y).\n"
                     "S(a) = 0.\nE(a,b) = 3.\nE(b,a) = 0.\n"},
        ),
        # its matrix, whose analyze reports bounds that do not apply (exit 3)
        (["analyze", "c.mat"], {"c.mat": "semiring capped:4094\nn 2\nA 0 1 1\nA 1 0 0\nb 0 0\n"}),
        # a cap far above the steps a converging run takes
        (["run", "tc.dl", "--cap", "1000000000"], {"tc.dl": TC_BOOL}),
    ],
)
def test_extreme_legal_values_run_within_the_memory_limit(tmp_path, command, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    res = subprocess.run(
        [sys.executable, "-m", "semifix", *command],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=SRC),
        preexec_fn=_limit_memory,
        timeout=60,
    )
    assert res.returncode in (0, 1, 2, 3)
    assert "MemoryError" not in res.stderr and "Traceback" not in res.stderr


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
        (("cycle", "--n", "3", "--L", "0"), "cap L must be >= 1"),
        (("random", "--n", "3", "--density", "0"), "density must be in (0, 1]"),
        (("random", "--n", "3", "--density", "1.5"), "density must be in (0, 1]"),
        (("random", "--n", "3", "--wmin", "9", "--wmax", "1"), "empty weight range"),
    ],
)
def test_gen_out_of_range_exits_1(tmp_path, args, message):
    out = tmp_path / "g.mat"
    res = run_cli("gen", *args, "--out", str(out))
    assert res.returncode == 1
    assert res.stderr.startswith(f"error: {message}")
    assert "Traceback" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "args, names",
    [
        (("randsys", "--n", "3", "--seed", "1", "--wmin", "50", "--wmax", "60"), "--wmin, --wmax"),
        (("randsys", "--n", "3", "--no-prune"), "--no-prune"),
        (("randsys", "--n", "3", "--L", "2"), "--L"),
        (("cycle", "--n", "3", "--L", "2", "--density", "0.1", "--wmin", "5", "--seed", "1"),
         "--density, --wmin, --seed"),
        (("cycle", "--n", "3", "--L", "2", "--semiring", "capped:2", "--wmax", "9"), "--wmax, --semiring"),
        (("random", "--n", "3", "--L", "2"), "--L"),
        # a flag given at its default value is still given
        (("blocked", "--n", "3", "--seed", "0", "--density", "0.5"), "--density, --seed"),
    ],
)
def test_gen_flags_the_family_ignores_exit_1(tmp_path, args, names):
    out = tmp_path / "g.mat"
    res = run_cli("gen", *args, "--out", str(out))
    assert (res.returncode, res.stdout, res.stderr) == (1, "", f"error: gen {args[0]} does not use {names}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "args, names",
    [
        (("--program", "p.dl", "--semiring", "bool"), "--program, --semiring"),
        (("--facts", "missing.tsv"), "--facts"),  # never opened
        (("--no-prune",), "--no-prune"),
        (("--no-prune", "--semiring", "trop", "--facts", "f.tsv", "--program", "p.dl"),
         "--program, --facts, --semiring, --no-prune"),
    ],
)
def test_analyze_flags_matrix_files_ignore_exit_1(tmp_path, capsys, args, names):
    mat, summary = tmp_path / "one.mat", tmp_path / "s.csv"
    mat.write_text("semiring trop\nn 1\nA 0 0 1\nb 0 0\n")
    assert main(["analyze", str(mat), *args, "--summary", str(summary)]) == 1
    err = f"error: analyze with matrix files does not use {names}\n"
    assert capsys.readouterr() == ("", err)
    assert not summary.exists()


@pytest.mark.parametrize(
    "family, defaults",
    [
        ("random", ("--density", "0.5", "--wmin", "1", "--wmax", "9", "--seed", "0", "--semiring", "trop")),
        ("randsys", ("--density", "0.5", "--seed", "0", "--semiring", "capped:4")),
        ("blocked", ("--semiring", "bool")),
    ],
)
def test_gen_flags_left_out_take_their_defaults(family, defaults):
    implicit = run_cli("gen", family, "--n", "6")
    explicit = run_cli("gen", family, "--n", "6", *defaults)
    assert implicit.returncode == explicit.returncode == 0
    assert implicit.stdout == explicit.stdout != ""


def test_run_nonlinear_program(tmp_path):
    path = tmp_path / "nl.dl"
    path.write_text("@semiring bool\nT(X,Y) :- E(X,Y) + T(X,Z)*T(Z,Y).\nE(a,b).\nE(b,c).\n")
    res = run_cli("run", str(path))
    assert res.returncode == 0
    assert "T(a,c) = true" in res.stdout


def test_ground_no_prune_keeps_universe(tc_file):
    res = run_cli("ground", str(tc_file), "--no-prune")
    assert res.returncode == 0
    assert "n 9" in res.stdout


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
    (("run", "p.dl"), ("--inflationary",)),
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
    (("analyze", "m.mat"), ("--workers", "2")),
    (("run", "p.dl"), ("--no-reproducible",)),
    (("gen", "cycle", "--n", "3", "--L", "2"), ("--reproducible",)),
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
        (("analyze", "--cap", "0"), "cap must be >= 1"),
        (("oracle", "--i", "0", "--j", "0", "--h", "-1"), "--h must be >= 0"),
        (("oracle", "--i", "0", "--j", "0", "--h", "0", "--budget", "-1"), "--budget must be >= 1"),
        (("oracle", "--i", "0", "--j", "0", "--h", "0", "--budget", "0"), "--budget must be >= 1"),
        (("semiring", "--budget-axioms", "-5"), "--budget-axioms must be >= 1"),
        (("semiring", "--budget-axioms", "0"), "--budget-axioms must be >= 1"),
    ],
)
def test_out_of_range_cli_values_exit_1(tmp_path, args, message):
    mat = tmp_path / "loop.mat"
    mat.write_text("semiring trop\nn 1\nA 0 0 1\n")
    res = run_cli(args[0], str(mat), *args[1:])
    assert res.returncode == 1
    assert message in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "apsp.dl", "--cap", "0"], "cap must be >= 1"),
        (["analyze"], "pass matrix files or --program"),
        (["analyze", "--program", "square.dl"], "analysis needs a linear program"),
    ],
    ids=" ".join,
)
def test_unusable_run_and_analyze_inputs_exit_1(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    Path("apsp.dl").write_text(APSP)
    Path("square.dl").write_text("@semiring trop\nT(X,Y) :- E(X,Y) + T(X,Z)*T(Z,Y).\nE(a,b) = 1.\n")
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


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
    ["analyze", "--cap", "z"],
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
COMMON_FLAGS = ["--out"]


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
    assert "Every subcommand also takes `--out PATH`." in " ".join(text.split())
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
    # end of input where a body atom is due
    ("T(X) :-", "line 1, col 8: expected a predicate name, got 'end of input'"),
    ("T(X) :- E(X) +", "line 1, col 15: expected a predicate name, got 'end of input'"),
    ("T(X) :- E(X) *", "line 1, col 15: expected a predicate name, got 'end of input'"),
]


# TSV facts, read with a program that takes them
MALFORMED_FACTS = [
    ("E\ta\tb\t1\nE\ta\t\tb\t1\n", "line 2, col 5: empty column before the literal"),
]


@pytest.mark.parametrize(
    "command, text, message",
    [("analyze", t, m) for t, m in MALFORMED_MATRIX_FILES]
    + [("run", t, m) for t, m in MALFORMED_PROGRAMS]
    + [("facts", t, m) for t, m in MALFORMED_FACTS],
)
def test_malformed_input_exits_1_with_line(tmp_path, capsys, command, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    # --semiring overrides a directive, so it is passed only to programs without one
    flag = command == "run" and "@semiring" not in text
    argv = [command, str(path)] + (["--semiring", "trop"] if flag else [])
    if command == "facts":
        (tmp_path / "p.dl").write_text("@semiring trop\nT(X,Y) :- E(X,Y).\n")
        argv = ["run", str(tmp_path / "p.dl"), str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert "Traceback" not in err



PATH_RULES = "@semiring trop\nT(X,Y) :- E(X,Y) + T(X,Z)*E(Z,Y).\n"


@pytest.mark.parametrize(
    "commands, program, facts, message",
    [
        # a blank or a comma inside an argument would read as more arguments
        (["run"], PATH_RULES, "E\ta b\tc\t1\nE\tc\td\t2\n",
         "line 1, col 3: argument 'a b' is not a name or a number"),
        (["run"], PATH_RULES, "E\ta\tc\t1\nE\tc\td,e\t2\n",
         "line 2, col 5: argument 'd,e' is not a name or a number"),
        # a label no program could write, and ground would save it
        (["run", "ground"], "@semiring trop\nT(X) :- E(X).\n", "E\ta)\t1\n",
         "line 1, col 3: argument 'a)' is not a name or a number"),
        # blamed on the TSV line, not on a rule that reads the predicate
        (["run"], PATH_RULES, "E x\ta\tb\t1\n", "line 1, col 1: predicate 'E x' is not a name"),
    ],
)
def test_tsv_fields_that_no_program_can_write_exit_1(tmp_path, capsys, commands, program, facts, message):
    (tmp_path / "p.dl").write_text(program)
    (tmp_path / "f.tsv").write_text(facts)
    for command in commands:
        assert main([command, str(tmp_path / "p.dl"), str(tmp_path / "f.tsv")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


def test_tsv_capitalized_and_padded_names_are_still_read(tmp_path, capsys):
    (tmp_path / "p.dl").write_text(PATH_RULES)
    (tmp_path / "f.tsv").write_text("E\tA\tb1\t1\nE\t b1 \t7\t2\n")
    assert main(["run", str(tmp_path / "p.dl"), str(tmp_path / "f.tsv")]) == 0
    out = capsys.readouterr().out
    assert "T(A,7) = 3" in out and "T(b1,7) = 2" in out

@pytest.mark.parametrize(
    "command, data, at",
    [
        (["run", "--semiring", "bool"], b"T(X) :- E(X).\nE(a\xff).\n", "line 2, col 4"),
        # the column counts bytes: '# ' and the two bytes of an e-acute come first
        (["analyze"], b"semiring bool\nn 1\n# \xc3\xa9\xff\n", "line 3, col 5"),
        # the column counts from the first byte after a byte-order mark
        (["analyze"], b"\xef\xbb\xbfsemiring bool\nn 1\n# \xc3\xa9\xff\n", "line 3, col 5"),
        (["oracle", "--i", "0", "--j", "0", "--h", "1"], b"\xffsemiring bool\nn 1\n", "line 1, col 1"),
    ],
)
def test_invalid_utf8_exits_1_with_line(tmp_path, capsys, command, data, at):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    assert main(command[:1] + [str(path)] + command[1:]) == 1
    assert capsys.readouterr().err == f"error: {at}: invalid UTF-8 byte 0xff\n"


# one input of each kind: a program, TSV facts, and a matrix file for analyze and oracle
BOM_INPUTS = {
    "p.dl": "T(X,Y) :- E(X,Y) + T(X,Z)*E(Z,Y).\n",
    "f.tsv": "E\ta\tb\t1\nE\tb\tc\t2\n",
    "m.mat": "semiring trop\nn 3\nA 0 1 1\nA 1 2 2\nb 0 0\n",
}


@pytest.mark.parametrize(
    "argv, marked",
    [
        (["run", "p.dl", "f.tsv", "--semiring", "trop"], "p.dl"),
        (["run", "p.dl", "f.tsv", "--semiring", "trop"], "f.tsv"),
        (["analyze", "m.mat"], "m.mat"),
        (["oracle", "m.mat", "--i", "0", "--j", "2", "--h", "2"], "m.mat"),
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_a_byte_order_mark_leaves_the_output_unchanged(tmp_path, monkeypatch, capsys, argv, marked):
    monkeypatch.chdir(tmp_path)
    for name, text in BOM_INPUTS.items():
        Path(name).write_text(text, encoding="utf-8")
    assert main(argv) == 0
    plain = capsys.readouterr()
    Path(marked).write_bytes(b"\xef\xbb\xbf" + BOM_INPUTS[marked].encode("utf-8"))
    assert main(argv) == 0
    assert capsys.readouterr() == plain
    if argv[0] == "run":  # a mark kept in a TSV row would name the predicate "\ufeffE" and drop the fact
        assert plain.out.startswith("T(a,b) = 1\nT(a,c) = 3\nT(b,c) = 2\n")


@pytest.mark.parametrize(
    "program, facts, at",
    [
        ("T(X) :- E(X).\nE(a) = 1.\nE(a) = 2.\n", None, "line 3, col 1"),
        ("T(X) :- E(X).\n", "E\ta\t1\nE\ta\t2\n", "line 2, col 1"),
    ],
)
def test_duplicate_fact_warns_with_its_line(tmp_path, capsys, program, facts, at):
    (tmp_path / "p.dl").write_text(program)
    argv = ["run", str(tmp_path / "p.dl"), "--semiring", "trop"]
    if facts:
        (tmp_path / "f.tsv").write_text(facts)
        argv.insert(2, str(tmp_path / "f.tsv"))
    before = warnings.filters, list(warnings.filters), warnings.showwarning
    with warnings.catch_warnings(record=True) as leaked:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert leaked == []  # no raw UserWarning reaches the caller
    assert (warnings.filters, list(warnings.filters), warnings.showwarning) == before
    out, err = capsys.readouterr()
    assert out == "T(a) = 1\nstability index: 1 (states), 0 (power sums)\n"
    assert err == f"warning: {at}: duplicate fact for E(a); values combined additively\n"


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


# each linear row kernel, by the name of the function a run calls
KERNELS = {
    "trop": "int_push",
    "bool": "push",
    "capped:4": "table_row",
    "trop_p:2": "bag_row",
    "trop_p_fin:3:3": "bag_row",  # 70 elements: too many for tables
    "capped:70": "row",  # 72 elements: too many for tables
}


@pytest.mark.parametrize("sid", KERNELS)
def test_run_reaches_each_linear_kernel_and_equals_full_recompute(tmp_path, capsys, sid):
    s, rng = semiring_from_id(sid), random.Random(6)
    edges = sorted({(rng.randrange(7), rng.randrange(7)) for _ in range(14)})
    text = f"@semiring {sid}\nT(X,Y) :- E(X,Y) + T(X,Z)*E(Z,Y).\n" + "".join(
        f"E(v{u},v{v}) = {s.show(s.weight(rng.randint(1, 4)))}.\n" for u, v in edges
    )
    program = parse_program(text)
    system = ground(program, build_edb(s, program_fact_entries(program)))
    assert engine._linear_rows(system.A)[1](system.b, engine._support(system.b, s.zero))[0].__name__ == KERNELS[sid]
    x, index = (s.zero,) * system.n, 0
    while (nxt := linear_step(system, x)) != x:
        x, index = nxt, index + 1
    prog = tmp_path / "path.dl"
    prog.write_text(text)
    assert main(["run", str(prog), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["atoms"] == {label: s.show(v) for label, v in zip(system.atom_labels(), x)}
    assert (out["stability_index"], out["capped"]) == (index, False)
    assert index > 2


@pytest.mark.parametrize(
    "atoms",
    [{}, {"T(é,ü)": "[1,∞]", "x0": "1/3"}, {'a"b': 'c"d', "back\\slash": "tab\there", "ctl\x01": "\n"}],
    ids=["empty", "non-ascii", "quotes"],
)
def test_json_output_equals_json_dumps(atoms):
    payload = {"atoms": atoms, "stability_index": 3, "powersum_index": 2, "capped": False, "steps": 4}
    assert _json_dump(payload) == json.dumps(payload, sort_keys=True, indent=2)
    payload.update(stability_index=None, powersum_index=None, capped=True)
    assert _json_dump(payload) == json.dumps(payload, sort_keys=True, indent=2)


def test_oracle_csv_memory_follows_the_walks_not_h(tmp_path):
    # one vertex, no edge: one walk, whatever h; the rows are written as made
    mat = tmp_path / "one.mat"
    mat.write_text("semiring trop\nn 1\n")
    code = (
        "import resource, sys; from semifix.cli import main; rc = main(sys.argv[1:]); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr); sys.exit(rc)"
    )

    def peak_kib(h):
        out = tmp_path / f"h{h}.csv"
        res = subprocess.run(
            [sys.executable, "-c", code, "oracle", str(mat), "--i", "0", "--j", "0", "--h", str(h),
             "--format", "csv", "--out", str(out)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            preexec_fn=_limit_memory,
            timeout=120,
        )
        assert res.returncode == 0, res.stderr
        with out.open() as f:
            assert next(f) == "h,walks=h,A^h,walks<=h,S(h),verdict\n"
            lines = 1 + sum(1 for _ in f)
        assert lines == h + 2
        return int(res.stderr)

    assert peak_kib(10**6) < 1.5 * peak_kib(1000)


def test_oracle_human_memory_follows_the_walks_not_h(tmp_path):
    # one vertex, no edge: one run of equal rows, whatever h
    mat = tmp_path / "one.mat"
    mat.write_text("semiring trop\nn 1\n")
    code = (
        "import resource, sys; from semifix.cli import main; rc = main(sys.argv[1:]); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr); sys.exit(rc)"
    )

    def peak_kib(h):
        res = subprocess.run(
            [sys.executable, "-c", code, "oracle", str(mat), "--i", "0", "--j", "0", "--h", str(h)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            preexec_fn=_limit_memory,
            timeout=120,
        )
        assert res.returncode == 0, res.stderr
        return int(res.stderr)

    assert peak_kib(10**6) < 1.1 * peak_kib(1000)
