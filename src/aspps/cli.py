"""Command line front ends.

psgrnd grounds a rule file against data files and writes a .tdc theory;
aspps reads a .tdc theory and searches for its models. Exit codes are
shared: 0 success (an unsatisfiable theory is still success), 1 usage
error, 2 unreadable or ill-formed input or running out of memory, 3
output write failure (the .tdc file, aspps.stat or standard output).
Each tool's main raises its failures; _reports_failures turns them into
these codes and their diagnostics, and returns the code.

A tool run as a process (python -m aspps, or the psgrnd and aspps
console scripts) ends through exit_process, which freezes the objects
left at exit so that interpreter shutdown skips collecting them. Calling
a tool's main in-process freezes nothing.
"""

from __future__ import annotations

import gc
import sys

STAT_FILE = "aspps.stat"
OUTPUT_CHUNK = 1 << 13  # pieces per write to standard output: one per true atom, one per blank line


class _Failure(Exception):
    """_Failure(code, message): a failure the front end itself finds; it
    ends the run with exit code `code` and '<prog>: <message>' on stderr."""


def _arg_parser(prog: str, description: str):
    """An argparse parser whose usage errors exit 1 instead of 2. Each
    tool imports its own modules before calling this, so they are
    compiled before argparse is loaded."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _Failure(1, message)

    return Parser(prog=prog, description=description)


def _reports_failures(prog: str):
    """Decorate a tool's main so that each failure it raises ends the run
    with an exit code and a diagnostic on stderr, never a traceback:
    _Failure(code, message) prints '<prog>: <message>' (1 usage error, 2
    unreadable input, 3 failed write); a ToolchainError exits 2 and
    prints as it reads (the check diagnostics are a bare one), but a
    GroundError after '<prog>: '; MemoryError exits 2 with '<prog>: out
    of memory'."""
    out_of_memory = f"{prog}: out of memory"

    def decorate(main):
        def run(argv: list[str]) -> int:
            # imported here: `import aspps.cli` loads no other aspps module
            from .errors import GroundError, ToolchainError

            try:
                return main(argv)
            except _Failure as exc:
                code, text = exc.args[0], f"{prog}: {exc.args[1]}"
            except ToolchainError as exc:
                code, text = 2, f"{prog}: {exc}" if isinstance(exc, GroundError) else str(exc)
            except MemoryError:
                code, text = 2, out_of_memory
            # Report outside the except block: until it ends, the
            # traceback keeps the frames that filled memory alive.
            print(text, file=sys.stderr)
            return code

        return run

    return decorate


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except UnicodeDecodeError:
        reason = "not valid UTF-8"
    raise _Failure(2, f"cannot read {path}: {reason}")


@_reports_failures("psgrnd")
def psgrnd_main(argv: list[str]) -> int:
    from .database import build_database
    from .errors import ToolchainError
    from .grounder import check_program, ground_to_file, output_name
    from .parser import CONST_VALUE_RE, IDENT_RE, parse_data_file, parse_rule_file

    parser = _arg_parser(
        "psgrnd", "Ground a typed rule file against data files into a .tdc theory."
    )
    parser.add_argument("-r", metavar="rulefile", action="append", default=[])
    parser.add_argument("-d", metavar="datafile", action="append", default=[])
    parser.add_argument("-c", metavar="name=value", action="append", default=[])
    args = parser.parse_args(argv)
    if len(args.r) != 1:
        parser.error("exactly one -r rule file is required")
    if not args.d:
        parser.error("at least one -d data file is required")
    consts: dict[str, str] = {}
    for item in args.c:
        name, sep, value = item.partition("=")
        if not (sep and IDENT_RE.fullmatch(name) and CONST_VALUE_RE.fullmatch(value)):
            parser.error(f"malformed -c argument {item!r}, expected name=value")
        if name in consts:
            parser.error(f"constant {name} given twice")
        consts[name] = value

    rule_file = args.r[0]
    data_atoms = set()
    for df in args.d:
        data_atoms |= parse_data_file(_read_text(df), consts, file=df)
    prog = parse_rule_file(_read_text(rule_file), consts, file=rule_file)

    db = build_database(data_atoms)
    diags = check_program(prog, db)
    if diags:
        raise ToolchainError("\n".join(f"{rule_file}: {d}" for d in diags))
    name = output_name(consts, rule_file, args.d)
    try:
        ground_to_file(prog, db, name)
    except OSError as exc:
        raise _Failure(3, f"cannot write {name}: {exc.strerror or exc}")
    return 0


def _model_bound(text: str) -> int:
    """The x of -C x, an integer token (ASCII digits) of at least 1."""
    try:
        if text.isascii() and text.isdigit() and int(text) > 0:
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise _Failure(1, f"argument of -C must be a positive integer, got {text!r}")


@_reports_failures("aspps")
def aspps_main(argv: list[str]) -> int:
    from itertools import compress
    from time import perf_counter

    from .solver import Solver, record_stats, stat_line
    from .tdc import print_theory, read_tdc

    parser = _arg_parser("aspps", "Search for models of a ground .tdc theory.")
    parser.add_argument("-f", metavar="theoryfile", default=None)
    parser.add_argument("-A", action="store_true", help="print the positive atoms of each model")
    parser.add_argument("-P", action="store_true", help="print the theory and exit")
    parser.add_argument(
        "-C", nargs="?", type=_model_bound, const=None, default=1, metavar="x",
        help="enumerate all models, or stop after x",
    )
    parser.add_argument("-S", metavar="name", default=None, help="show one predicate's atoms")
    args = parser.parse_args(argv)
    if not args.f:
        parser.error("a -f theory file is required")

    theory = read_tdc(_read_text(args.f), file=args.f)

    # One try for all of standard output, flushed inside it, so that a
    # closed pipe or a full disk exits 3 without a traceback.
    try:
        if args.P:
            sys.stdout.write(print_theory(theory))
            sys.stdout.flush()
            return 0

        unknown_pred = args.S is not None and not any(a.pred == args.S for a in theory.atoms)
        show = (args.A or args.S is not None) and not unknown_pred
        # shown[aid]: what a model prints for atom aid when it is true.
        shown = [""] + [
            a.text + "\n" if args.S is None or a.pred == args.S else "" for a in theory.atoms
        ]
        found = 0
        writing = 0.0
        # Model texts collect in chunk as pieces, a "\n" before every
        # model after the first: one write per model would be one system
        # call per model when standard output is unbuffered.
        chunk: list[str] = []
        start = perf_counter()
        solver = Solver(theory)
        for assignment in solver.search(args.C):
            if show:
                t = perf_counter()
                if found:
                    chunk.append("\n")
                chunk.extend(compress(shown, assignment))
                if len(chunk) >= OUTPUT_CHUNK:
                    sys.stdout.write("".join(chunk))
                    chunk.clear()
                writing += perf_counter() - t
            found += 1
        elapsed = int((perf_counter() - start - writing) * 1000)
        sys.stdout.write("".join(chunk))

        if not found:
            print("UNSAT")
        elif unknown_pred:
            print(f"aspps: warning: predicate {args.S} names no atom in the theory", file=sys.stderr)
        elif not show:
            print("SAT")
        sys.stdout.flush()
    except OSError as exc:
        raise _Failure(3, f"cannot write standard output: {exc.strerror or exc}")

    line = stat_line(args.f, found > 0, found, solver.stats, elapsed)
    try:
        record_stats(STAT_FILE, line)
    except OSError as exc:
        raise _Failure(3, f"cannot write {STAT_FILE}: {exc.strerror or exc}")
    return 0


def exit_process(code: int) -> None:
    """End the process with a tool's exit code, once its main has
    returned: standard output is flushed and its files are closed by
    then. gc.freeze() first moves every object still tracked out of the
    collector's reach, so interpreter shutdown skips its full
    collections over memory the OS reclaims anyway; atexit handlers, the
    flush of the standard streams and SystemExit run as before."""
    gc.freeze()
    sys.exit(code)


def psgrnd_entry() -> None:
    exit_process(psgrnd_main(sys.argv[1:]))


def aspps_entry() -> None:
    exit_process(aspps_main(sys.argv[1:]))
