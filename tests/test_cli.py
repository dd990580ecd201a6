"""psgrnd / aspps command-line behaviour, run in-process."""

import gc
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import aspps
from aspps.cli import OUTPUT_CHUNK, STAT_FILE, aspps_main, psgrnd_main
from aspps.database import build_database
from aspps.grounder import CHUNK, MAX_CLAUSE_VARS, ground_theory
from aspps.parser import MAX_RANGE_LEN, MAX_TERM_DEPTH, parse_data_file, parse_rule_file
from aspps.solver import solve
from aspps.tdc import read_tdc, write_tdc
from aspps.theory import GroundAtom, GroundTheory

from generators import random_ground_theory
from oracles import ReferenceSolver, aspps_stdout_mismatch, reference_aspps_stdout, reference_ground
from problems import COLOR_RULES, PIGEON_DATA, PIGEON_RULES, QUEENS_DATA, QUEENS_RULES, TRIANGLE_DATA

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write(workdir, name, text):
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return name


def _ground_triangle(workdir, consts=("k=3",)):
    rl = _write(workdir, "color.rl", COLOR_RULES)
    dt = _write(workdir, "graph.dt", TRIANGLE_DATA)
    argv = []
    for c in consts:
        argv += ["-c", c]
    argv += ["-r", rl, "-d", dt]
    return psgrnd_main(argv)


def test_psgrnd_writes_named_file_silently(workdir, capsys):
    assert _ground_triangle(workdir) == 0
    out = capsys.readouterr()
    assert out.out == "" and out.err == ""
    assert (workdir / "k=3-color-graph.tdc").exists()


def test_psgrnd_checks_the_program_once(workdir, monkeypatch):
    import aspps.grounder

    calls = []
    check = aspps.grounder.check_program
    monkeypatch.setattr(
        aspps.grounder, "check_program", lambda prog, db: calls.append(1) or check(prog, db)
    )
    assert _ground_triangle(workdir) == 0
    assert len(calls) == 1


def test_psgrnd_name_orders_consts_rule_then_data(workdir):
    rl = _write(workdir, "r.rl", "pred p(d).\n-> p(1).\n")
    d1 = _write(workdir, "a.dt", "d(1).\n")
    d2 = _write(workdir, "b.dt", "d(2).\n")
    assert psgrnd_main(["-r", rl, "-d", d1, "-d", d2]) == 0
    assert (workdir / "r-a-b.tdc").exists()


# argv -> the usage error psgrnd reports for it
_USAGE_ERRORS = {
    (): "exactly one -r rule file is required",
    ("-d", "g.dt"): "exactly one -r rule file is required",
    ("-r", "a.rl", "-r", "b.rl", "-d", "g.dt"): "exactly one -r rule file is required",
    ("-r", "a.rl"): "at least one -d data file is required",
    ("-r", "a.rl", "-d", "g.dt", "-c", "k3"): "malformed -c argument 'k3', expected name=value",
    ("-r", "a.rl", "-d", "g.dt", "-c", "k=3", "-c", "k=4"): "constant k given twice",
    ("-r", "a.rl", "-d", "g.dt", "-x"): "unrecognized arguments: -x",
}


@pytest.mark.parametrize("argv", [list(argv) for argv in _USAGE_ERRORS])
def test_psgrnd_usage_errors(workdir, capsys, argv):
    assert psgrnd_main(argv) == 1
    assert capsys.readouterr().err == f"psgrnd: {_USAGE_ERRORS[tuple(argv)]}\n"
    assert not list(workdir.glob("*.tdc"))


def test_psgrnd_parse_error_reports_position(workdir, capsys):
    rl = _write(workdir, "bad.rl", "pred p(d).\np(X) -> \n")
    dt = _write(workdir, "g.dt", "d(1).\n")
    assert psgrnd_main(["-r", rl, "-d", dt]) == 2
    err = capsys.readouterr().err
    assert re.search(r"bad\.rl:\d+:\d+: ", err)
    assert not list(workdir.glob("*.tdc"))


def test_psgrnd_check_diagnostics_exit_2(workdir, capsys):
    # parses, but check_program rejects it: the data also defines p
    rl = _write(workdir, "bad.rl", "pred p(d).\nvar d X.\n-> p(X).\n")
    dt = _write(workdir, "g.dt", "d(1).\np(1).\n")
    assert psgrnd_main(["-r", rl, "-d", dt]) == 2
    want = "bad.rl: predicate p is declared as a program predicate but also defined by data\n"
    assert capsys.readouterr().err == want
    assert not list(workdir.glob("*.tdc"))


@pytest.mark.parametrize(
    "clause, error",
    [
        ("p(X) ->.", "3:1: predicate p expects 2 argument(s), got 1"),
        ("-> r(X):d(X).", "3:4: e-atom predicate r must be a declared program predicate"),
        ("-> 1 {p(X,X) : p(X,X)}.", "3:16: condition p must use a data or predefined predicate"),
        ("p(X,X) -> p(1,X):d(X).", "3:20: e-atom binder X may not occur outside its atom"),
    ],
    ids=["arity", "member", "condition", "binder"],
)
def test_psgrnd_clause_against_declarations_exit_2(workdir, capsys, clause, error):
    rl = _write(workdir, "rules.rl", f"pred p(d,d).\nvar d X.\n{clause}\n")
    dt = _write(workdir, "g.dt", "d[1..2].\n")
    assert psgrnd_main(["-r", rl, "-d", dt]) == 2
    assert capsys.readouterr().err == f"rules.rl:{error}\n"
    assert not list(workdir.glob("*.tdc"))


def test_psgrnd_negative_cardinality_bound_exit_2(workdir, capsys):
    rl = _write(workdir, "neg.rl", "pred p(d).\nvar d X.\n-> {p(X) : d(X)} n.\n")
    dt = _write(workdir, "g.dt", "d[1..2].\n")
    assert psgrnd_main(["-c", "n=-1", "-r", rl, "-d", dt]) == 2
    assert capsys.readouterr().err == "neg.rl:3:18: cardinality bounds must be non-negative\n"
    assert not list(workdir.glob("*.tdc"))


def _ground_queens(workdir, *consts):
    rl = _write(workdir, "queens.rl", QUEENS_RULES)
    dt = _write(workdir, "board.dt", QUEENS_DATA)
    return psgrnd_main([*(arg for c in consts for arg in ("-c", c)), "-r", rl, "-d", dt])


def test_psgrnd_reads_const_values_as_rule_file_tokens(workdir, capsys):
    # n=04 is the integer token 04, so it grounds what n=4 grounds; n=-1
    # is the integer -1 (test_psgrnd_negative_cardinality_bound_exit_2)
    assert _ground_queens(workdir, "n=4") == 0
    assert _ground_queens(workdir, "n=04") == 0
    assert capsys.readouterr().err == ""
    four = (workdir / "n=4-queens-board.tdc").read_bytes()
    assert (workdir / "n=04-queens-board.tdc").read_bytes() == four
    # k=red is the identifier red
    rl = _write(workdir, "shade.rl", "pred shade(d).\n-> shade(k).\n")
    dt = _write(workdir, "d.dt", "d(red). d(blue).\n")
    assert psgrnd_main(["-c", "k=red", "-r", rl, "-d", dt]) == 0
    assert capsys.readouterr().err == ""
    assert "\n1 shade(red)\n" in (workdir / "k=red-shade-d.tdc").read_text(encoding="utf-8")


# -c arguments whose value spells no rule-file token, refused before any
# file is read, also when the files never use the constant
@pytest.mark.parametrize(
    "consts",
    [("n=4_0",), ("n=+4",), ("n=\u0664",), ("n= 4",), ("\u00e9=3",), ("n=4", "zz=a/b")],
    ids=["underscore", "plus", "arabic-digit", "blank", "non-ascii-name", "unused"],
)
def test_psgrnd_refuses_const_values_no_token_spells(workdir, capsys, consts):
    assert _ground_queens(workdir, *consts) == 1
    want = f"psgrnd: malformed -c argument {consts[-1]!r}, expected name=value\n"
    assert capsys.readouterr().err == want
    assert not list(workdir.glob("*.tdc"))


def test_psgrnd_output_is_a_directory_exit_3(workdir, capsys):
    (workdir / "k=3-color-graph.tdc").mkdir()
    assert _ground_triangle(workdir) == 3
    assert capsys.readouterr().err == "psgrnd: cannot write k=3-color-graph.tdc: Is a directory\n"
    assert (workdir / "k=3-color-graph.tdc").is_dir()


def test_psgrnd_missing_file_exit_2(workdir, capsys):
    dt = _write(workdir, "g.dt", "d(1).\n")
    assert psgrnd_main(["-r", "absent.rl", "-d", dt]) == 2
    assert "absent.rl" in capsys.readouterr().err


def test_psgrnd_integer_past_the_conversion_limit_exit_2(workdir, capsys):
    nines = "9" * 5000
    rl = _write(workdir, "p.rl", "pred q(d).\nvar d X.\nq(X) ->.\n")
    dt = _write(workdir, "big.dt", f"d({nines}).\n")
    assert psgrnd_main(["-r", rl, "-d", dt]) == 2
    assert capsys.readouterr().err == f"big.dt:1:3: integer constant {nines} out of 64-bit range\n"
    dt = _write(workdir, "n.dt", "d[1..n].\n")
    assert psgrnd_main(["-c", f"n={nines}", "-r", rl, "-d", dt]) == 2
    assert capsys.readouterr().err == f"n.dt:1:6: integer constant {nines} out of 64-bit range\n"
    assert not list(workdir.glob("*.tdc"))


def test_psgrnd_ground_error_exit_2(workdir, capsys):
    rl = _write(workdir, "div.rl", "pred p(d).\nvar d X.\nX / 0 == 1 -> p(X).\n")
    dt = _write(workdir, "g.dt", "d(1).\n")
    assert psgrnd_main(["-r", rl, "-d", dt]) == 2
    assert "division by zero" in capsys.readouterr().err
    assert not list(workdir.glob("*.tdc"))


@pytest.mark.parametrize(
    "term",
    ["(" * 3000 + "X" + ")" * 3000, "X" + "+1" * 3000, "abs(" * 3000 + "X" + ")" * 3000],
    ids=["parentheses", "operator-chain", "calls"],
)
def test_psgrnd_deep_nesting_exit_2(workdir, capsys, term):
    rl = _write(workdir, "deep.rl", f"pred q(d).\nvar d X.\nq({term}) ->.\n")
    dt = _write(workdir, "g.dt", "d(1).\n")
    assert psgrnd_main(["-r", rl, "-d", dt]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"deep\.rl:3:\d+: term nested more than \d+ levels deep\n", err)
    assert not list(workdir.glob("*.tdc"))


def test_psgrnd_grounds_terms_at_the_nesting_limit(workdir):
    half = MAX_TERM_DEPTH // 2
    term = "(" * half + "X" + " + 0" * (MAX_TERM_DEPTH - half) + ")" * half
    rl = _write(workdir, "deep.rl", f"pred q(d).\nvar d X.\nq({term}) ->.\n")
    dt = _write(workdir, "g.dt", "d(1).\n")
    assert psgrnd_main(["-r", rl, "-d", dt]) == 0
    assert (workdir / "deep-g.tdc").read_text().endswith("clauses 1\n1 -1\n")


def _clause_over_vars(workdir, n):
    names = [f"X{i}" for i in range(n)]
    rules = f"pred p(t).\nvar t {', '.join(names)}.\n{', '.join(f'p({x})' for x in names)} ->.\n"
    return _write(workdir, "wide.rl", rules), _write(workdir, "t.dt", "t(1).\n")


def test_psgrnd_rejects_clause_over_the_variable_limit(workdir, capsys):
    rl, dt = _clause_over_vars(workdir, MAX_CLAUSE_VARS + 1)
    assert psgrnd_main(["-r", rl, "-d", dt]) == 2
    err = capsys.readouterr().err
    want = f"{MAX_CLAUSE_VARS + 1} variables in clause 1 (line 3), more than {MAX_CLAUSE_VARS}"
    assert err == f"wide.rl: {want}\n"
    assert not list(workdir.glob("*.tdc"))


def test_psgrnd_grounds_clause_at_the_variable_limit(workdir):
    rl, dt = _clause_over_vars(workdir, MAX_CLAUSE_VARS)
    assert psgrnd_main(["-r", rl, "-d", dt]) == 0
    assert (workdir / "wide-t.tdc").read_text().endswith("clauses 1\n1 -1\n")


@pytest.mark.parametrize(
    "tool, argv",
    [
        ("psgrnd", ["-r", "good.rl", "-d", "bad.bin"]),
        ("psgrnd", ["-r", "bad.bin", "-d", "good.dt"]),
        ("aspps", ["-f", "bad.bin"]),
    ],
    ids=["data", "rules", "theory"],
)
def test_input_not_utf8_exit_2(workdir, capsys, tool, argv):
    (workdir / "bad.bin").write_bytes(b"p(1).\n\xff\n")
    _write(workdir, "good.rl", "pred q(p).\nvar p X.\n-> q(X).\n")
    _write(workdir, "good.dt", "p(1).\n")
    main = psgrnd_main if tool == "psgrnd" else aspps_main
    assert main(argv) == 2
    assert capsys.readouterr().err == f"{tool}: cannot read bad.bin: not valid UTF-8\n"


# A child that caps one of its own resources (by default its address
# space at 150 MB), then runs a tool. Past a file size cap, a write fails
# with EFBIG instead of the child being killed by SIGXFSZ.
_CAPPED = """
import resource, runpy, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.{limit}, ({cap}, {cap}))
sys.argv = ["aspps", *sys.argv[1:]]
runpy.run_module("aspps", run_name="__main__")
"""


def _write_huge_tdc(workdir, n_atoms):
    with open(workdir / "huge.tdc", "w", encoding="utf-8") as fh:
        fh.write(f"tdc 1\natoms {n_atoms}\n")
        fh.writelines(f"{i} p({i})\n" for i in range(1, n_atoms + 1))
        fh.write("cards 0\nclauses 0\n")
    return "huge.tdc"


def _child_env():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _run_capped(workdir, tool, argv, limit="RLIMIT_AS", cap=150 * 2**20):
    return subprocess.run(
        [sys.executable, "-c", _CAPPED.format(limit=limit, cap=cap), tool, *argv],
        cwd=workdir, env=_child_env(), capture_output=True, text=True,
    )


_needs_resource = pytest.mark.skipif(
    importlib.util.find_spec("resource") is None, reason="needs the resource module"
)


@_needs_resource
@pytest.mark.parametrize("tool", ["psgrnd", "aspps"])
def test_out_of_memory_exit_2(workdir, tool):
    if tool == "psgrnd":
        # 10**8 atoms, as ranges within the length limit
        ranges = (f"p[{k + 1}..{k + MAX_RANGE_LEN}].\n" for k in range(0, 10**8, MAX_RANGE_LEN))
        _write(workdir, "huge.dt", "".join(ranges))
        _write(workdir, "q.rl", "pred q(p).\nvar p X.\n-> q(X).\n")
        argv = ["-r", "q.rl", "-d", "huge.dt"]
    else:
        argv = ["-f", _write_huge_tdc(workdir, 2_000_000)]
    proc = _run_capped(workdir, tool, argv)
    assert (proc.returncode, proc.stderr) == (2, f"{tool}: out of memory\n")


@_needs_resource
def test_psgrnd_failed_write_leaves_no_tdc(workdir):
    _write(workdir, "queens.rl", QUEENS_RULES)
    _write(workdir, "board.dt", QUEENS_DATA)
    argv = ["-c", "n=12", "-r", "queens.rl", "-d", "board.dt"]
    proc = _run_capped(workdir, "psgrnd", argv, limit="RLIMIT_FSIZE", cap=20_000)
    want = "psgrnd: cannot write n=12-queens-board.tdc: File too large\n"
    assert (proc.returncode, proc.stderr) == (3, want)
    assert not list(workdir.glob("*.tdc"))


@_needs_resource
def test_psgrnd_ground_error_outranks_a_failed_spool(workdir):
    # The first clause keeps more than a chunk, so the spool write fails
    # under a file size cap of 0 before the second clause divides by zero.
    _write(workdir, "div.rl", "pred p(d).\nvar d X.\n-> p(X).\nX / 0 == 1 -> p(X).\n")
    _write(workdir, "good.rl", "pred p(d).\nvar d X.\n-> p(X).\n")
    _write(workdir, "d.dt", f"d[1..{CHUNK + 1}].\n")
    inputs = sorted(workdir.iterdir())
    proc = _run_capped(workdir, "psgrnd", ["-r", "div.rl", "-d", "d.dt"], limit="RLIMIT_FSIZE", cap=0)
    assert (proc.returncode, proc.stderr) == (2, "psgrnd: division by zero\n")
    assert sorted(workdir.iterdir()) == inputs
    proc = _run_capped(workdir, "psgrnd", ["-r", "good.rl", "-d", "d.dt"], limit="RLIMIT_FSIZE", cap=0)
    assert (proc.returncode, proc.stderr) == (3, "psgrnd: cannot write good-d.tdc: File too large\n")
    assert sorted(workdir.iterdir()) == inputs


@_needs_resource
def test_psgrnd_memory_does_not_grow_with_the_clauses(workdir):
    # 499 500 kept clauses over 1 000 atoms: holding them took more than
    # 120 MB of address space, streaming them takes under 32 MB
    _write(workdir, "pairs.rl", "pred q(p).\nvar p X, Y.\nq(X), q(Y), X < Y ->.\n")
    _write(workdir, "p.dt", "p[1..1000].\n")
    proc = _run_capped(workdir, "psgrnd", ["-r", "pairs.rl", "-d", "p.dt"], cap=64 * 2**20)
    assert (proc.returncode, proc.stderr) == (0, "")
    with open(workdir / "pairs-p.tdc", encoding="utf-8") as fh:
        assert "clauses 499500\n" in fh


def test_psgrnd_card_clauses_past_a_chunk_match_the_references(workdir):
    # the cardinality clause keeps 30 x 30 clauses, more than a chunk,
    # after a run of plain clauses, then come an e-atom clause and a plain
    # one; the spool renumbers the card literals of the middle two
    rules = (
        "pred q(d, d).\npred r(d).\nvar d X, Y, Z.\n"
        "-> q(X, 1).\n"
        "q(X, Y) -> 1 {r(Z) : d(Z) : Z >= X} 1 | r(Y).\n"
        "-> q(X, Y) : d(Y).\n"
        "-> q(X, Y) | q(Y, X).\n"
    )
    data = "d[1..n].\n"
    _write(workdir, "cards.rl", rules)
    _write(workdir, "d.dt", data)
    assert psgrnd_main(["-c", "n=30", "-r", "cards.rl", "-d", "d.dt"]) == 0
    consts = {"n": "30"}
    prog, db = parse_rule_file(rules, consts), build_database(parse_data_file(data, consts))
    theory = ground_theory(prog, db)
    assert sum(any(abs(l) > theory.n_atoms for l in cl) for cl in theory.clauses) > CHUNK
    text = (workdir / "n=30-cards-d.tdc").read_text(encoding="utf-8")
    assert text == write_tdc(theory) == write_tdc(reference_ground(prog, db))


@_needs_resource
def test_psgrnd_rejects_range_over_the_length_limit(workdir):
    # capped, so that without the limit the range ends in out of memory
    _write(workdir, "q.rl", "pred q(p).\nvar p X.\n-> q(X).\n")
    _write(workdir, "huge.dt", "p(0).\np[1..100000000].\n")
    proc = _run_capped(workdir, "psgrnd", ["-r", "q.rl", "-d", "huge.dt"])
    want = f"range p[1..100000000] has 100000000 elements, more than {MAX_RANGE_LEN}"
    assert (proc.returncode, proc.stderr) == (2, f"huge.dt:2:1: {want}\n")
    assert not list(workdir.glob("*.tdc"))


def test_aspps_requires_theory_file(workdir, capsys):
    assert aspps_main([]) == 1
    assert capsys.readouterr().err == "aspps: a -f theory file is required\n"


def test_aspps_unknown_option_exit_1(workdir, capsys):
    assert aspps_main(["-x"]) == 1
    assert capsys.readouterr().err == "aspps: unrecognized arguments: -x\n"


def test_aspps_missing_file_exit_2(workdir, capsys):
    assert aspps_main(["-f", "nope.tdc"]) == 2
    assert "nope.tdc" in capsys.readouterr().err


def test_aspps_unreadable_atom_id_exit_2(workdir, capsys):
    # '²' passes str.isdigit() but not int()
    _write(workdir, "t.tdc", "tdc 1\natoms 1\n² p\ncards 0\nclauses 0\n")
    assert aspps_main(["-f", "t.tdc"]) == 2
    assert capsys.readouterr().err == "t.tdc:3: malformed atom line '² p'\n"


def test_aspps_rejects_bad_count(workdir, capsys):
    _write(workdir, "t.tdc", "tdc 1\natoms 0\ncards 0\nclauses 0\n")
    for bad in ("0", "-2", "many"):
        assert aspps_main(["-f", "t.tdc", "-C", bad]) == 1
        want = f"aspps: argument of -C must be a positive integer, got {bad!r}\n"
        assert capsys.readouterr().err == want


@pytest.mark.parametrize(
    "argv, models", [(["-C", "03"], 3), (["-C", "10"], 10), (["-C"], 24)], ids=["03", "10", "all"]
)
def test_aspps_model_bound_spellings(workdir, capsys, argv, models):
    tdc = _ground_pigeons(workdir, 4)  # 24 models
    assert aspps_main(["-f", tdc, *argv]) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == ("SAT\n", "")
    assert f" models={models} " in (workdir / STAT_FILE).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "bound", ["1_0", "\u0663", " 3", "+2"], ids=["underscore", "arabic-digit", "blank", "plus"]
)
def test_aspps_refuses_model_bounds_no_token_spells(workdir, capsys, bound):
    tdc = _ground_pigeons(workdir, 4)
    assert aspps_main(["-f", tdc, "-C", bound]) == 1
    want = f"aspps: argument of -C must be a positive integer, got {bound!r}\n"
    assert capsys.readouterr().err == want
    assert not (workdir / STAT_FILE).exists()


def test_aspps_sat_line_and_stat_file(workdir, capsys):
    assert _ground_triangle(workdir) == 0
    assert aspps_main(["-f", "k=3-color-graph.tdc"]) == 0
    assert capsys.readouterr().out == "SAT\n"
    stats = (workdir / STAT_FILE).read_text(encoding="utf-8").splitlines()
    assert len(stats) == 1
    assert re.fullmatch(
        r"file=k=3-color-graph\.tdc result=SAT models=1"
        r" decisions=\d+ propagations=\d+ conflicts=\d+ time_ms=\d+",
        stats[0],
    )


def test_aspps_stat_file_is_a_directory_exit_3(workdir, capsys):
    assert _ground_triangle(workdir) == 0
    (workdir / STAT_FILE).mkdir()
    assert aspps_main(["-f", "k=3-color-graph.tdc"]) == 3
    out = capsys.readouterr()
    assert (out.out, out.err) == ("SAT\n", "aspps: cannot write aspps.stat: Is a directory\n")


def _ground_pigeons(workdir, n):
    rl = _write(workdir, "pigeon.rl", PIGEON_RULES)
    dt = _write(workdir, "pigeon.dt", PIGEON_DATA)
    assert psgrnd_main(["-c", f"p={n}", "-c", f"h={n}", "-r", rl, "-d", dt]) == 0
    return f"p={n}-h={n}-pigeon-pigeon.tdc"


@pytest.mark.parametrize(
    "problem,flags,max_models",
    [("pigeon", ["-C"], None), ("queens", [], 1)],
    ids=["pigeon-4-all-models", "queens-6-first-model"],
)
def test_aspps_stat_counters_are_the_solvers(workdir, capsys, problem, flags, max_models):
    if problem == "pigeon":
        tdc = _ground_pigeons(workdir, 4)
    else:
        assert _ground_queens(workdir, "n=6") == 0
        tdc = "n=6-queens-board.tdc"
    assert aspps_main(["-f", tdc, *flags]) == 0
    capsys.readouterr()
    line = (workdir / STAT_FILE).read_text(encoding="utf-8")
    written = [int(v) for v in re.findall(r" (?:decisions|propagations|conflicts)=(\d+)", line)]
    stats = solve(read_tdc((workdir / tdc).read_text(encoding="utf-8")), max_models).stats
    assert written == list(stats)
    assert stats.decisions > 0 and stats.propagations > 0


def test_aspps_closed_pipe_exit_3(workdir):
    # 5 040 models of 7 atoms: more than a pipe holds, so aspps is still
    # writing when the reader goes away
    tdc = _ground_pigeons(workdir, 7)
    proc = subprocess.Popen(
        [sys.executable, "-m", "aspps", "aspps", "-f", tdc, "-C", "-A"],
        cwd=workdir, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (3, b"aspps: cannot write standard output: Broken pipe\n")
    assert not (workdir / STAT_FILE).exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("option", ["-A", "-P"])
def test_aspps_full_standard_output_exit_3(workdir, option):
    tdc = _ground_pigeons(workdir, 4)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "aspps", "aspps", "-f", tdc, "-C", option],
            cwd=workdir, env=_child_env(), stdout=full, stderr=subprocess.PIPE, text=True,
        )
    want = "aspps: cannot write standard output: No space left on device\n"
    assert (proc.returncode, proc.stderr) == (3, want)


def test_aspps_unsat_exit_0(workdir, capsys):
    rl = _write(workdir, "pigeon.rl", PIGEON_RULES)
    dt = _write(workdir, "holes.dt", PIGEON_DATA)
    argv = ["-c", "p=4", "-c", "h=3", "-r", rl, "-d", dt]
    assert psgrnd_main(argv) == 0
    assert aspps_main(["-f", "p=4-h=3-pigeon-holes.tdc"]) == 0
    assert capsys.readouterr().out == "UNSAT\n"
    assert "result=UNSAT models=0" in (workdir / STAT_FILE).read_text(encoding="utf-8")


def test_aspps_count_all_reports_model_total(workdir, capsys):
    assert _ground_triangle(workdir) == 0
    assert aspps_main(["-f", "k=3-color-graph.tdc", "-C"]) == 0
    assert capsys.readouterr().out == "SAT\n"
    assert "models=6" in (workdir / STAT_FILE).read_text(encoding="utf-8")


def test_aspps_atoms_blank_line_between_models(workdir, capsys):
    _write(
        workdir,
        "two.tdc",
        "tdc 1\natoms 2\n1 a\n2 b\ncards 0\nclauses 2\n2 1 2\n2 -1 -2\n",
    )
    assert aspps_main(["-f", "two.tdc", "-A", "-C"]) == 0
    out = capsys.readouterr().out
    blocks = out.rstrip("\n").split("\n\n")
    assert sorted(blocks) == ["a", "b"]


def test_aspps_show_filters_predicate(workdir, capsys):
    assert _ground_triangle(workdir) == 0
    assert aspps_main(["-f", "k=3-color-graph.tdc", "-S", "clr"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    assert all(line.startswith("clr(") for line in out)


def test_aspps_show_unknown_predicate_warns(workdir, capsys):
    assert _ground_triangle(workdir) == 0
    assert aspps_main(["-f", "k=3-color-graph.tdc", "-S", "hue"]) == 0
    out = capsys.readouterr()
    assert out.out == ""
    assert "predicate hue names no atom in the theory" in out.err
    assert (workdir / STAT_FILE).exists()


def test_aspps_print_theory_skips_solving(workdir, capsys):
    _write(workdir, "t.tdc", "tdc 1\natoms 1\n1 p(1)\ncards 0\nclauses 1\n1 -1\n")
    assert aspps_main(["-f", "t.tdc", "-P"]) == 0
    assert capsys.readouterr().out == "-p(1)\n"
    assert not (workdir / STAT_FILE).exists()


def test_aspps_stat_lines_append(workdir, capsys):
    assert _ground_triangle(workdir) == 0
    assert aspps_main(["-f", "k=3-color-graph.tdc"]) == 0
    assert aspps_main(["-f", "k=3-color-graph.tdc", "-C"]) == 0
    capsys.readouterr()
    stats = (workdir / STAT_FILE).read_text(encoding="utf-8").splitlines()
    assert len(stats) == 2
    assert "models=1" in stats[0] and "models=6" in stats[1]


def test_grounder_output_identical_across_runs(workdir):
    assert _ground_triangle(workdir) == 0
    first = (workdir / "k=3-color-graph.tdc").read_bytes()
    assert _ground_triangle(workdir) == 0
    assert (workdir / "k=3-color-graph.tdc").read_bytes() == first


def test_end_to_end_three_coloring_models(workdir, capsys):
    assert _ground_triangle(workdir) == 0
    assert aspps_main(["-f", "k=3-color-graph.tdc", "-A", "-C"]) == 0
    out = capsys.readouterr().out
    models = [set(b.splitlines()) for b in out.rstrip("\n").split("\n\n")]
    assert len(models) == 6
    # each model assigns one color per vertex, no two alike on an edge
    for m in models:
        assert len(m) == 3
        colors = {}
        for atom in m:
            v, c = re.fullmatch(r"clr\((\d+),(\d+)\)", atom).groups()
            colors[v] = c
        assert len(set(colors.values())) == 3


def test_aspps_prints_a_model_with_no_true_atom(workdir, capsys):
    # -a1 | a2: models {a1, a2}, {a2}, then the empty one
    theory = GroundTheory(
        tuple(GroundAtom(i, f"a{i}", (), f"a{i}") for i in (1, 2)), (), ((-1, 2),)
    )
    assert aspps_stdout_mismatch(theory, str(workdir), "a2") is None
    _write(workdir, "t.tdc", "tdc 1\natoms 2\n1 a1\n2 a2\ncards 0\nclauses 1\n2 -1 2\n")
    assert aspps_main(["-f", "t.tdc", "-A", "-C"]) == 0
    assert capsys.readouterr().out == "a1\na2\n\na2\n\n"


def test_aspps_output_matches_reference_models(workdir):
    rng = random.Random(5)
    for _ in range(60):
        theory = random_ground_theory(rng, max_atoms=10, max_cards=4)
        pred = f"a{rng.randint(1, theory.n_atoms)}"
        assert aspps_stdout_mismatch(theory, str(workdir), pred) is None


def test_aspps_output_past_one_chunk_matches_reference(workdir):
    # pigeon 7/7: 5 040 models, several chunks of output; each printed
    # line, a blank one included, is one piece of a chunk
    theory = read_tdc((workdir / _ground_pigeons(workdir, 7)).read_text(encoding="utf-8"))
    models = ReferenceSolver(theory).run(None).models
    assert reference_aspps_stdout(theory, models).count("\n") > 4 * OUTPUT_CHUNK
    assert aspps_stdout_mismatch(theory, str(workdir), "in", models) is None


# Each tool runs in a fresh interpreter that reports, once the tool
# returns, how many objects it froze and the modules it loaded. (Some
# interpreters start with objects frozen already.)
_LOADED = """
import gc, json, runpy, sys
sys.argv = sys.argv[1:]
code, frozen = None, gc.get_freeze_count()
try:
    {run}
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, gc.get_freeze_count() - frozen, sorted(sys.modules)]))
"""
_RUN_MODULE = 'runpy.run_module("aspps", run_name="__main__")'
_RUN_ENTRY = "from aspps.cli import {tool}_entry; {tool}_entry()"
_PARSER_SIDE = {"aspps.parser", "aspps.grounder", "aspps.terms", "aspps.database", "aspps.model"}


def _run_loaded(workdir, run, argv):
    """(objects the run froze, modules loaded) once it has exited 0."""
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED.format(run=run), *argv],
        cwd=workdir, env=_child_env(), capture_output=True, text=True, check=True,
    )
    code, frozen, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return frozen, set(modules)


def test_each_tool_imports_only_its_own_half(workdir):
    rl = _write(workdir, "color.rl", COLOR_RULES)
    dt = _write(workdir, "graph.dt", TRIANGLE_DATA)
    for run, argv in (
        (_RUN_MODULE, ["aspps", "psgrnd", "-c", "k=3", "-r", rl, "-d", dt]),
        (_RUN_ENTRY.format(tool="psgrnd"), ["psgrnd", "-c", "k=3", "-r", rl, "-d", dt]),
    ):
        _, grounding = _run_loaded(workdir, run, argv)
        assert "aspps.grounder" in grounding and "aspps.solver" not in grounding
    for run, argv in (
        (_RUN_MODULE, ["aspps", "aspps", "-f", "k=3-color-graph.tdc", "-A", "-C"]),
        (_RUN_ENTRY.format(tool="aspps"), ["aspps", "-f", "k=3-color-graph.tdc", "-S", "clr"]),
    ):
        _, solving = _run_loaded(workdir, run, argv)
        assert {"aspps.solver", "aspps.tdc"} <= solving
        assert not solving & _PARSER_SIDE, solving & _PARSER_SIDE


def test_neither_tool_loads_dataclasses_or_inspect(workdir):
    # Each costs start-up time on every run. A bare interpreter may load
    # them already (from a site hook), which is no tool's doing.
    rl = _write(workdir, "color.rl", COLOR_RULES)
    dt = _write(workdir, "graph.dt", TRIANGLE_DATA)
    _, bare = _run_loaded(workdir, "sys.exit(0)", [])
    for tool, argv in (
        ("psgrnd", ["-c", "k=3", "-r", rl, "-d", dt]),
        ("aspps", ["-f", "k=3-color-graph.tdc", "-A", "-C"]),
    ):
        _, loaded = _run_loaded(workdir, _RUN_ENTRY.format(tool=tool), [tool, *argv])
        assert {"dataclasses", "inspect"} & (loaded - bare) == set(), tool


def test_each_tool_process_freezes_at_exit(workdir):
    # The freeze spares interpreter shutdown its collections; the bare
    # run shows that the harness itself freezes nothing.
    rl = _write(workdir, "color.rl", COLOR_RULES)
    dt = _write(workdir, "graph.dt", TRIANGLE_DATA)
    assert _run_loaded(workdir, "sys.exit(0)", [])[0] == 0
    for run, argv in (
        (_RUN_MODULE, ["aspps", "psgrnd", "-c", "k=3", "-r", rl, "-d", dt]),
        (_RUN_ENTRY.format(tool="psgrnd"), ["psgrnd", "-c", "k=3", "-r", rl, "-d", dt]),
        (_RUN_MODULE, ["aspps", "aspps", "-f", "k=3-color-graph.tdc", "-A", "-C"]),
        (_RUN_ENTRY.format(tool="aspps"), ["aspps", "-f", "k=3-color-graph.tdc"]),
    ):
        assert _run_loaded(workdir, run, argv)[0] > 0, run


def test_in_process_calls_freeze_nothing(workdir, capsys):
    frozen = gc.get_freeze_count()
    assert _ground_triangle(workdir) == 0
    assert psgrnd_main(["-r", "color.rl", "-d", "missing.dt"]) == 2
    assert aspps_main(["-f", "k=3-color-graph.tdc", "-A", "-C"]) == 0
    assert aspps_main(["-f", "missing.tdc"]) == 2
    assert gc.get_freeze_count() == frozen


# Both tools in-process, a success and a failure each, then a full
# collection: whatever it finds must be freed without a warning or an
# error, as interpreter shutdown would have freed it before the freeze.
_COLLECTED = """
import gc, json, sys
from aspps.cli import aspps_main, psgrnd_main
recorded = []
sys.unraisablehook = lambda u: recorded.append(f"{u.exc_type.__name__}: {u.exc_value} ({u.err_msg})")
codes = [
    psgrnd_main(["-c", "k=3", "-r", "color.rl", "-d", "graph.dt"]),
    psgrnd_main(["-r", "color.rl", "-d", "missing.dt"]),
    aspps_main(["-f", "k=3-color-graph.tdc", "-A", "-C"]),
    aspps_main(["-f", "missing.tdc"]),
]
gc.collect()
print(json.dumps([codes, recorded]))
"""


def test_skipped_collections_would_free_nothing_that_reports(workdir):
    _write(workdir, "color.rl", COLOR_RULES)
    _write(workdir, "graph.dt", TRIANGLE_DATA)
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", _COLLECTED],
        cwd=workdir, env=_child_env(), capture_output=True, text=True, check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 2, 0, 2], []], proc.stderr


def test_tool_processes_under_dev_mode_print_only_their_diagnostics(workdir):
    rl = _write(workdir, "queens.rl", QUEENS_RULES)
    dt = _write(workdir, "board.dt", QUEENS_DATA)

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "aspps", *argv],
            cwd=workdir, env=_child_env(), capture_output=True, text=True,
        )
        return proc.returncode, proc.stderr

    assert run("psgrnd", "-c", "n=6", "-r", rl, "-d", dt) == (0, "")
    assert run("aspps", "-f", "n=6-queens-board.tdc", "-A", "-C") == (0, "")
    missing = "cannot read missing.dt: No such file or directory"
    assert run("psgrnd", "-c", "n=6", "-r", rl, "-d", "missing.dt") == (2, f"psgrnd: {missing}\n")
    missing = "cannot read missing.tdc: No such file or directory"
    assert run("aspps", "-f", "missing.tdc", "-A") == (2, f"aspps: {missing}\n")


@pytest.mark.parametrize("argv", [[], ["solve"]], ids=["no-tool", "unknown-tool"])
def test_dispatcher_usage_exit_1(workdir, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "aspps", *argv],
        cwd=workdir, env=_child_env(), capture_output=True, text=True,
    )
    want = (1, "", "usage: python -m aspps {psgrnd|aspps} [options]\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == want


def test_importing_cli_loads_no_other_aspps_module(workdir):
    # perfbench's setup_s times exactly this import
    code = "import json, sys, aspps.cli; print(json.dumps(sorted(m for m in sys.modules if 'aspps' in m)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=workdir, env=_child_env(), capture_output=True, text=True, check=True,
    )
    assert json.loads(proc.stdout) == ["aspps", "aspps.cli"]


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from aspps import *", namespace)
    assert set(aspps.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(aspps, name) for name in aspps.__all__)
    with pytest.raises(AttributeError):
        aspps.no_such_name
