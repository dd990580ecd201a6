"""psgrnd / aspps command-line behaviour, run in-process."""

import re
from pathlib import Path

import pytest

from aspps.cli import STAT_FILE, aspps_main, psgrnd_main
from aspps.parser import MAX_TERM_DEPTH

from problems import COLOR_RULES, PIGEON_DATA, PIGEON_RULES, TRIANGLE_DATA


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


def test_psgrnd_name_orders_consts_rule_then_data(workdir):
    rl = _write(workdir, "r.rl", "pred p(d).\n-> p(1).\n")
    d1 = _write(workdir, "a.dt", "d(1).\n")
    d2 = _write(workdir, "b.dt", "d(2).\n")
    assert psgrnd_main(["-r", rl, "-d", d1, "-d", d2]) == 0
    assert (workdir / "r-a-b.tdc").exists()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-d", "g.dt"],  # no rule file
        ["-r", "a.rl", "-r", "b.rl", "-d", "g.dt"],  # two rule files
        ["-r", "a.rl"],  # no data file
        ["-r", "a.rl", "-d", "g.dt", "-c", "k3"],  # malformed const
        ["-r", "a.rl", "-d", "g.dt", "-c", "k=3", "-c", "k=4"],  # duplicate
        ["-r", "a.rl", "-d", "g.dt", "-x"],  # unknown flag
    ],
)
def test_psgrnd_usage_errors(workdir, capsys, argv):
    assert psgrnd_main(argv) == 1
    assert capsys.readouterr().err != ""
    assert not list(workdir.glob("*.tdc"))


def test_psgrnd_parse_error_reports_position(workdir, capsys):
    rl = _write(workdir, "bad.rl", "pred p(d).\np(X) -> \n")
    dt = _write(workdir, "g.dt", "d(1).\n")
    assert psgrnd_main(["-r", rl, "-d", dt]) == 2
    err = capsys.readouterr().err
    assert re.search(r"bad\.rl:\d+:\d+: ", err)
    assert not list(workdir.glob("*.tdc"))


def test_psgrnd_check_diagnostics_exit_2(workdir, capsys):
    rl = _write(workdir, "bad.rl", "pred p(d).\nvar d X.\n-> p(Y).\n")
    dt = _write(workdir, "g.dt", "d(1).\n")
    assert psgrnd_main(["-r", rl, "-d", dt]) == 2
    assert "variable Y not declared" in capsys.readouterr().err
    assert not list(workdir.glob("*.tdc"))


def test_psgrnd_missing_file_exit_2(workdir, capsys):
    dt = _write(workdir, "g.dt", "d(1).\n")
    assert psgrnd_main(["-r", "absent.rl", "-d", dt]) == 2
    assert "absent.rl" in capsys.readouterr().err


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


def test_aspps_requires_theory_file(workdir, capsys):
    assert aspps_main([]) == 1
    assert capsys.readouterr().err != ""


def test_aspps_missing_file_exit_2(workdir, capsys):
    assert aspps_main(["-f", "nope.tdc"]) == 2
    assert "nope.tdc" in capsys.readouterr().err


def test_aspps_rejects_bad_count(workdir, capsys):
    _write(workdir, "t.tdc", "tdc 1\natoms 0\ncards 0\nclauses 0\n")
    for bad in ("0", "-2", "many"):
        assert aspps_main(["-f", "t.tdc", "-C", bad]) == 1
        assert "positive integer" in capsys.readouterr().err


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
