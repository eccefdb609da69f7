"""Command-line surface: run, ground, analyze, oracle, semiring, gen.

Exit codes: 0 success, 1 input errors, 2 usage errors (argparse), iteration
cap or walk budget exhausted, 3 bound violation detected by analyze (or an
unequal oracle row).
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import operator
import sys
import warnings
from pathlib import Path
from typing import List, Optional

from . import bounds, engine, generators, walks
from .errors import EnumerationBudgetExceeded, InvalidParameter, ParseError, SemifixError
from .frontend import (
    GroundedLinearSystem,
    build_edb,
    classify_linearity,
    ground,
    parse_program,
    program_fact_entries,
    tsv_fact_entries,
)
from .semirings import (
    DEFAULT_AXIOM_BUDGET,
    check_axioms,
    effective_stability,
    ordered_chain,
    semiring_from_id,
    semiring_stability,
)


# flags shared by several subcommands; each registers only those it reads
_FLAGS = {
    "--semiring": dict(help="semiring id, e.g. bool, trop, trop_p:2, capped:4"),
    "--cap": dict(type=int, help=f"iteration cap (default: run {engine.DEFAULT_EVAL_CAP:,}; analyze the "
                  f"smallest enforced bound + 2, or {engine.DEFAULT_EVAL_CAP:,} when none applies)"),
    "--seed": dict(type=int, default=0, help="seed for randomized work"),
    "--no-prune": dict(action="store_true", help="keep unproductive ground atoms"),
}


def _add_flags(p: argparse.ArgumentParser, *names: str):
    for name in names:
        p.add_argument(name, **_FLAGS[name])
    p.add_argument("--out", help="write output to this path instead of stdout")


def _read(path: str) -> str:
    """The text of an input file, without the UTF-8 byte-order mark that
    some editors write in front of it."""
    return Path(path).read_text(encoding="utf-8-sig")


def _emit(args, text):
    """Write ``text``, or let ``text(out)`` write to the output as it goes."""
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        if callable(text):
            text(out)
        else:
            out.write(text)
    finally:
        if args.out:
            out.close()


def _resolve_semiring(args, program):
    if args.semiring:
        return semiring_from_id(args.semiring)
    if program.semiring_id is None:
        raise SemifixError("no semiring: pass --semiring or add an @semiring directive")
    try:
        return semiring_from_id(program.semiring_id)
    except InvalidParameter as e:
        raise ParseError(str(e), *(program.semiring_pos or ())) from None


def _load_program_db(args):
    program = parse_program(_read(args.program))
    semiring = _resolve_semiring(args, program)
    entries = program_fact_entries(program)
    if args.facts:
        entries += tsv_fact_entries(_read(args.facts))
    return program, build_edb(semiring, entries)


def _refuse_unread(form: str, names: List[str]):
    """Refuse the flags (argparse dests) that this form of a command never reads."""
    if names:
        raise InvalidParameter(f"{form} does not use " + ", ".join("--" + d.replace("_", "-") for d in names))


def _json_dump(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` for str "atoms" and
    scalar fields, on json's C encoder, which any indent turns off: the atoms'
    indent goes into the separator, as an encoded string holds no newline."""
    atoms = json.dumps(payload["atoms"], sort_keys=True, separators=(",\n    ", ": "))
    fields = {k: json.dumps(v) for k, v in payload.items() if k != "atoms"}
    fields["atoms"] = "{\n    " + atoms[1:-1] + "\n  }" if payload["atoms"] else "{}"
    return "{\n" + ",\n".join([f"  {json.dumps(k)}: {fields[k]}" for k in sorted(fields)]) + "\n}"


def cmd_run(args) -> int:
    program, db = _load_program_db(args)
    system = ground(program, db, prune=not args.no_prune)
    if isinstance(system, GroundedLinearSystem):
        trace = engine.naive_eval_linear(system, cap=args.cap)
    else:
        trace = engine.naive_eval_general(system, cap=args.cap)
    s = system.semiring
    if args.format == "csv":
        _emit(args, engine.trace_csv(system, trace))
    elif args.format == "json":
        payload = {
            "atoms": {
                label: s.show(v) for label, v in zip(system.atom_labels(), trace.last)
            },
            "stability_index": trace.stability_index,
            "powersum_index": trace.powersum_index,
            "capped": trace.capped,
            "steps": trace.wall_steps,
        }
        _emit(args, _json_dump(payload) + "\n")
    else:
        lines = []
        for label, v in zip(system.atom_labels(), trace.last):
            lines.append(f"{label} = {s.show(v)}")
        if trace.capped:
            lines.append(f"no fixpoint within cap ({trace.wall_steps} steps)")
        else:
            lines.append(
                f"stability index: {trace.stability_index} (states), "
                f"{trace.powersum_index} (power sums)"
            )
        _emit(args, "\n".join(lines) + "\n")
    return 2 if trace.capped else 0


def cmd_ground(args) -> int:
    program, db = _load_program_db(args)
    report = classify_linearity(program)
    if not report.linear:
        ri, pi, count = next(c for c in report.product_idb_counts if c[2] > 1)
        rule = program.rules[ri]
        raise SemifixError(
            f"rule {ri + 1} is not linear: product {pi + 1} of {rule.head.pred} "
            f"uses {count} derived atoms"
        )
    system = ground(program, db, prune=not args.no_prune)
    _emit(args, engine.save_system(system))
    return 0


def cmd_analyze(args) -> int:
    if args.claimed_p is not None and args.claimed_p < 0:
        raise InvalidParameter(f"--claimed-p must be >= 0, got {args.claimed_p}")
    if args.claimed_L is not None and args.claimed_L < 1:
        raise InvalidParameter(f"--claimed-L must be >= 1, got {args.claimed_L}")
    opts = dict(cap=args.cap, claimed_p=args.claimed_p, claimed_L=args.claimed_L)
    if args.matrix_files:
        given = [d for d in ("program", "facts", "semiring", "no_prune") if getattr(args, d) not in (None, False)]
        _refuse_unread("analyze with matrix files", given)
        reports = [
            bounds.analyze(engine.load_system(_read(path)), instance_id=path, **opts)
            for path in args.matrix_files
        ]
    else:
        if not args.program:
            raise SemifixError("pass matrix files or --program")
        program, db = _load_program_db(args)
        system = ground(program, db, prune=not args.no_prune)
        if not isinstance(system, GroundedLinearSystem):
            raise SemifixError("analysis needs a linear program")
        reports = [bounds.analyze(system, instance_id=args.program, **opts)]
    text = bounds.reports_jsonl(reports)
    if args.summary:
        Path(args.summary).write_text(bounds.summary_csv(reports), encoding="utf-8")
    _emit(args, text)
    return 3 if any(r.violations for r in reports) else 0


def cmd_oracle(args) -> int:
    system = engine.load_system(_read(args.matrix))
    A, s = system.A, system.semiring
    i, j, max_h = args.i, args.j, args.h
    if max_h < 0:
        raise InvalidParameter(f"--h must be >= 0, got {max_h}")
    if args.budget < 1:
        raise InvalidParameter(f"--budget must be >= 1, got {args.budget}")
    walks.check_endpoints(A, i, j)
    exact_sums = walks.walk_sums(A, (i,), max_h, budget=args.budget)
    # state h+1 of the column run is column j of S(h), so entry i of S(h) is
    # the value the log last gave row i up to step h; a run that stops early
    # has repeated its last state, which stays fixed
    steps = engine.column_run(A, j, max_h + 1).changes
    all_equal = True

    def rows():  # the header, then one row per h, made as the output takes them
        nonlocal all_equal
        yield ("h", "walks=h", "A^h", "walks<=h", "S(h)", "verdict")
        power = tuple(s.one if k == j else s.zero for k in range(A.n))  # column j of A^0
        upto = psum = s.zero
        last = (object(),) * 4  # the previous row's cells, none of which a cell is at h = 0
        for h in range(max_h + 1):
            # matvec skips zero objects, so a column of them maps to itself
            if h and any(map(operator.is_not, power, itertools.repeat(s.zero))):
                power = A.matvec(power)
            exact = exact_sums[h].get((i, j), s.zero) if h < len(exact_sums) else s.zero
            upto = s.add(upto, exact)
            for k, v in steps[h] if h < len(steps) else ():
                if k == i:
                    psum = v
            ok = exact == power[i] and upto == psum
            all_equal = all_equal and ok
            cells = (exact, power[i], upto, psum)
            if any(map(operator.is_not, cells, last)):  # else the row shows as before
                last, texts = cells, tuple(map(s.show, cells))
            yield (h, *texts, "equal" if ok else "UNEQUAL")

    if args.format == "csv":
        _emit(args, lambda out: csv.writer(out, lineterminator="\n").writerows(rows()))
    else:  # padded columns, kept as runs [first h, last h, cells] of rows whose cells repeat
        table = rows()
        header, runs = next(table), []
        for h, *cells in table:
            if runs and runs[-1][2] == cells:
                runs[-1][1] = h
            else:
                runs.append([h, h, cells])
        widths = [len(str(max_h))] + [max(map(len, c)) for c in zip(header[1:], *(r[2] for r in runs))]

        def after_h(cells):  # a line's padded cells after its h column
            return "".join("  " + c.ljust(w) for c, w in zip(cells, widths[1:])) + "\n"

        def write(out):
            out.write("h".ljust(widths[0]) + after_h(header[1:]))
            for first, last, cells in runs:
                tail = after_h(cells)
                out.writelines(str(h).ljust(widths[0]) + tail for h in range(first, last + 1))

        _emit(args, write)
    return 0 if all_equal else 3


def cmd_semiring(args) -> int:
    if args.budget_axioms < 1:
        raise InvalidParameter(f"--budget-axioms must be >= 1, got {args.budget_axioms}")
    s = semiring_from_id(args.id)
    report = check_axioms(s, sample_budget=args.budget_axioms, seed=args.seed)
    lines = [f"semiring {s.id}"]
    mode = "exhaustive" if report.exhaustive else f"sampled ({report.samples} tuples)"
    lines.append(f"axioms ({mode}):")
    for c in report.checks:
        if c.passed:
            lines.append(f"  {c.name}: pass")
        else:
            witness = ", ".join(s.show(x) for x in c.counterexample)
            lines.append(f"  {c.name}: FAIL at ({witness})")
    carrier = s.elements()
    if carrier is not None:
        stab = semiring_stability(s)
        lines.append(f"carrier size: {len(carrier)}")
        if stab.index is None:
            lines.append("stability: not reached within cap")
        else:
            lines.append(f"stability: {stab.index}-stable (witness {s.show(stab.witness)})")
        chain = ordered_chain(s)
        if chain is None:
            lines.append("not naturally ordered")
        else:
            lines.append(f"naturally ordered, longest chain {chain}")
    else:
        p, src = effective_stability(s)
        if p is not None:
            lines.append(f"stability: {p}-stable ({src})")
        lines.append("carrier not enumerable; order and chain not computed")
    _emit(args, "\n".join(lines) + "\n")
    return 0 if report.all_passed else 1


# the optional flags of gen with their defaults, and those each family reads
_GEN_DEFAULTS = dict(L=None, density=0.5, wmin=1, wmax=9, semiring=None, seed=0, no_prune=False)
_GEN_READS = {
    "cycle": {"L"},
    "random": {"density", "wmin", "wmax", "semiring", "seed", "no_prune"},
    "randsys": {"density", "semiring", "seed"},
    "blocked": {"semiring"},
}


def cmd_gen(args) -> int:
    family = args.family
    given = {d: v for d in _GEN_DEFAULTS if (v := getattr(args, d)) is not None}  # None: left out
    _refuse_unread(f"gen {family}", [d for d in given if d not in _GEN_READS[family]])
    vars(args).update(_GEN_DEFAULTS, **given)
    if family == "cycle":
        system = generators.gen_cycle_lowerbound(args.n, args.L)
        spec = generators.cycle_lowerbound_spec(args.n, args.L)
    elif family == "random":
        s = semiring_from_id(args.semiring or "trop")
        wrange = (args.wmin, args.wmax)
        system = generators.gen_random_digraph(
            args.n, args.density, wrange, s, args.seed, prune=not args.no_prune
        )
        spec = generators.random_digraph_spec(args.n, args.density, wrange, s.id, args.seed)
    elif family == "randsys":
        s = semiring_from_id(args.semiring or "capped:4")
        system = generators.gen_random_system(args.n, args.density, s, args.seed)
        spec = generators.random_system_spec(args.n, args.density, s.id, args.seed)
    elif family == "blocked":
        s = semiring_from_id(args.semiring or "bool")
        system = generators.gen_blocked_graph(args.n, s)
        spec = generators.blocked_spec(args.n, s.id)
    _emit(args, engine.save_system(system, header=spec.header_lines()))
    return 0


def _run_args(p: argparse.ArgumentParser):
    p.add_argument("program")
    p.add_argument("facts", nargs="?", help="optional TSV facts file")
    p.add_argument("--format", choices=("human", "csv", "json"), default="human")
    _add_flags(p, "--semiring", "--cap", "--no-prune")


def _ground_args(p: argparse.ArgumentParser):
    p.add_argument("program")
    p.add_argument("facts", nargs="?")
    _add_flags(p, "--semiring", "--no-prune")


def _analyze_args(p: argparse.ArgumentParser):
    p.add_argument("matrix_files", nargs="*", help="matrix files to analyze")
    p.add_argument("--program", help="program file instead of a matrix file")
    p.add_argument("--facts", help="TSV facts for --program")
    p.add_argument("--summary", help="also write a CSV summary to this path")
    p.add_argument(
        "--claimed-p",
        type=int,
        dest="claimed_p",
        help="stability index to assume for a non-enumerable carrier (reported as claimed)",
    )
    p.add_argument(
        "--claimed-L",
        type=int,
        dest="claimed_L",
        help="carrier size to assume for a non-enumerable carrier (reported as claimed)",
    )
    _add_flags(p, "--semiring", "--cap", "--no-prune")


def _oracle_args(p: argparse.ArgumentParser):
    p.add_argument("matrix")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--h", type=int, required=True, help="largest hop count to check")
    p.add_argument(
        "--budget",
        type=int,
        default=walks.DEFAULT_WALK_BUDGET,
        help="walk enumeration budget",
    )
    p.add_argument("--format", choices=("human", "csv"), default="human")
    _add_flags(p)


def _semiring_args(p: argparse.ArgumentParser):
    p.add_argument("id")
    p.add_argument(
        "--budget-axioms",
        type=int,
        default=DEFAULT_AXIOM_BUDGET,
        dest="budget_axioms",
        help="sample budget for axiom checking",
    )
    _add_flags(p, "--seed")


def _gen_args(p: argparse.ArgumentParser):
    p.add_argument("family", choices=("cycle", "random", "randsys", "blocked"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=int, help="cap for the cycle family")
    p.add_argument("--density", type=float)
    p.add_argument("--wmin", type=int)
    p.add_argument("--wmax", type=int)
    _add_flags(p, "--semiring", "--seed", "--no-prune")
    p.set_defaults(**dict.fromkeys(_GEN_DEFAULTS))  # cmd_gen tells given flags from absent ones


# subcommand: (help, function that adds its arguments, handler)
_COMMANDS = {
    "run": ("evaluate a program to its fixpoint", _run_args, cmd_run),
    "ground": ("emit the matrix form of a linear program", _ground_args, cmd_ground),
    "analyze": ("measure stability indices against bounds", _analyze_args, cmd_analyze),
    "oracle": ("cross-check matrix powers against walk sums", _oracle_args, cmd_oracle),
    "semiring": ("axiom, stability and order report", _semiring_args, cmd_semiring),
    "gen": ("write a generated instance as a matrix file", _gen_args, cmd_gen),
}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The full command-line parser: every subcommand with all its arguments.

    It is built once per process. Sharing it is safe: ``parse_args`` returns
    a fresh ``Namespace`` each call and leaves the parser as it found it.
    """
    top = argparse.ArgumentParser(
        prog="semifix",
        description="evaluate, measure and verify semiring fixpoint systems",
        allow_abbrev=False,
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in _COMMANDS.items():
        # a flag prefix such as --sem is a usage error, not a guess
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        add_arguments(p)
        p.set_defaults(handler=handler)
    return top


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command line with the process's one cached parser; return its exit code."""
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if args.command == "gen" and args.family == "cycle" and args.L is None:
        parser.error("gen cycle needs --L")
    # warnings print after the command, so a failed command's first line is its error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return args.handler(args)
        except EnumerationBudgetExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (SemifixError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except UnicodeDecodeError as exc:
            # exc.object starts after any byte-order mark, so positions match the unmarked file
            head = exc.object[:exc.start]
            line, col = head.count(b"\n") + 1, len(head) - head.rfind(b"\n")
            byte = exc.object[exc.start]
            print(f"error: line {line}, col {col}: invalid UTF-8 byte {byte:#04x}", file=sys.stderr)
            return 1
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


def console_entry():  # pragma: no cover - thin wrapper
    sys.exit(main())
