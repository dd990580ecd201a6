"""Command line front ends.

psgrnd grounds a rule file against data files and writes a .tdc theory;
aspps reads a .tdc theory and searches for its models. Exit codes are
shared: 0 success (an unsatisfiable theory is still success), 1 usage
error, 2 unreadable or ill-formed input or running out of memory, 3
internal failure such as an unwritable output file.
"""

from __future__ import annotations

import sys

STAT_FILE = "aspps.stat"

_COUNT_ALL = object()


class _UsageError(Exception):
    pass


def _arg_parser(prog: str, description: str):
    """An argparse parser that raises _UsageError instead of exiting.
    Each tool imports its own modules before calling this, so they are
    compiled before argparse is loaded."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    return Parser(prog=prog, description=description)


def _out_of_memory_exits_2(prog: str):
    """Decorate a tool's main so that a MemoryError ends the run with
    '<prog>: out of memory' and exit code 2."""

    def decorate(main):
        def run(argv: list[str]) -> int:
            try:
                return main(argv)
            except MemoryError:
                pass
            # Report outside the except block: until it ends, the
            # traceback keeps the frames that filled memory alive.
            print(f"{prog}: out of memory", file=sys.stderr)
            return 2

        return run

    return decorate


def _read_text(path: str, prog: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except UnicodeDecodeError:
        reason = "not valid UTF-8"
    print(f"{prog}: cannot read {path}: {reason}", file=sys.stderr)
    return None


def _valid_const_name(name: str) -> bool:
    return bool(name) and name[0].isalpha() and all(c.isalnum() or c == "_" for c in name)


@_out_of_memory_exits_2("psgrnd")
def psgrnd_main(argv: list[str]) -> int:
    from .database import build_database
    from .errors import GroundError, ParseError
    from .grounder import Grounder, check_program, output_name
    from .parser import parse_data_file, parse_rule_file
    from .tdc import write_tdc

    parser = _arg_parser(
        "psgrnd", "Ground a typed rule file against data files into a .tdc theory."
    )
    parser.add_argument("-r", metavar="rulefile", action="append", default=[])
    parser.add_argument("-d", metavar="datafile", action="append", default=[])
    parser.add_argument("-c", metavar="name=value", action="append", default=[])
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"psgrnd: {exc}", file=sys.stderr)
        return 1
    if len(args.r) != 1:
        print("psgrnd: exactly one -r rule file is required", file=sys.stderr)
        return 1
    if not args.d:
        print("psgrnd: at least one -d data file is required", file=sys.stderr)
        return 1
    consts: dict[str, str] = {}
    for item in args.c:
        name, sep, value = item.partition("=")
        if not sep or not _valid_const_name(name) or not value:
            print(f"psgrnd: malformed -c argument {item!r}, expected name=value", file=sys.stderr)
            return 1
        if name in consts:
            print(f"psgrnd: constant {name} given twice", file=sys.stderr)
            return 1
        consts[name] = value

    rule_file = args.r[0]
    data_atoms = set()
    for df in args.d:
        text = _read_text(df, "psgrnd")
        if text is None:
            return 2
        try:
            data_atoms |= parse_data_file(text, consts, file=df)
        except ParseError as exc:
            print(exc, file=sys.stderr)
            return 2
    rule_text = _read_text(rule_file, "psgrnd")
    if rule_text is None:
        return 2
    try:
        prog = parse_rule_file(rule_text, consts, file=rule_file)
    except ParseError as exc:
        print(exc, file=sys.stderr)
        return 2

    db = build_database(data_atoms)
    diags = check_program(prog, db)
    if diags:
        for d in diags:
            print(f"{rule_file}: {d}", file=sys.stderr)
        return 2
    try:
        theory = Grounder(prog, db).ground()
    except GroundError as exc:
        print(f"psgrnd: {exc}", file=sys.stderr)
        return 2

    name = output_name(consts, rule_file, args.d)
    try:
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(write_tdc(theory))
    except OSError as exc:
        reason = exc.strerror or str(exc)
        print(f"psgrnd: cannot write {name}: {reason}", file=sys.stderr)
        return 3
    return 0


@_out_of_memory_exits_2("aspps")
def aspps_main(argv: list[str]) -> int:
    from itertools import compress
    from time import perf_counter

    from .errors import TdcError
    from .solver import Solver, record_stats, stat_line
    from .tdc import print_theory, read_tdc

    parser = _arg_parser("aspps", "Search for models of a ground .tdc theory.")
    parser.add_argument("-f", metavar="theoryfile", default=None)
    parser.add_argument("-A", action="store_true", help="print the positive atoms of each model")
    parser.add_argument("-P", action="store_true", help="print the theory and exit")
    parser.add_argument(
        "-C",
        nargs="?",
        const=_COUNT_ALL,
        default=None,
        metavar="x",
        help="enumerate all models, or stop after x",
    )
    parser.add_argument("-S", metavar="name", default=None, help="show one predicate's atoms")
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"aspps: {exc}", file=sys.stderr)
        return 1
    if not args.f:
        print("aspps: a -f theory file is required", file=sys.stderr)
        return 1
    if args.C is None:
        max_models: int | None = 1
    elif args.C is _COUNT_ALL:
        max_models = None
    else:
        try:
            max_models = int(args.C)
        except ValueError:
            max_models = 0
        if max_models < 1:
            print(f"aspps: argument of -C must be a positive integer, got {args.C!r}", file=sys.stderr)
            return 1

    text = _read_text(args.f, "aspps")
    if text is None:
        return 2
    try:
        theory = read_tdc(text, file=args.f)
    except TdcError as exc:
        print(exc, file=sys.stderr)
        return 2

    if args.P:
        sys.stdout.write(print_theory(theory))
        return 0

    unknown_pred = args.S is not None and not any(a.pred == args.S for a in theory.atoms)
    show = (args.A or args.S is not None) and not unknown_pred
    # shown[aid]: what a model prints for atom aid when it is true.
    shown = [""] + [
        a.text + "\n" if args.S is None or a.pred == args.S else "" for a in theory.atoms
    ]
    found = 0
    writing = 0.0
    start = perf_counter()
    solver = Solver(theory)
    for assignment in solver.search(max_models):
        if show:
            t = perf_counter()
            sys.stdout.write(("\n" if found else "") + "".join(compress(shown, assignment)))
            writing += perf_counter() - t
        found += 1
    elapsed = int((perf_counter() - start - writing) * 1000)

    if not found:
        print("UNSAT")
    elif unknown_pred:
        print(f"aspps: warning: predicate {args.S} names no atom in the theory", file=sys.stderr)
    elif not show:
        print("SAT")

    line = stat_line(args.f, found > 0, found, solver.stats, elapsed)
    try:
        record_stats(STAT_FILE, line)
    except OSError as exc:
        reason = exc.strerror or str(exc)
        print(f"aspps: cannot write {STAT_FILE}: {reason}", file=sys.stderr)
        return 3
    return 0


def psgrnd_entry() -> None:
    sys.exit(psgrnd_main(sys.argv[1:]))


def aspps_entry() -> None:
    sys.exit(aspps_main(sys.argv[1:]))
