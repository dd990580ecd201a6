"""Acceptance gate: eight end-to-end checks, one visible verdict line each.

Each test prints "[acceptance N] <label>: PASS|FAIL (<seconds>)" through the
capture-disabled channel so the verdict survives pytest's output capture,
then asserts. Random inputs are seeded, so the gate is reproducible.
"""

import random
import re
import time
from functools import lru_cache

import pytest

from aspps.cli import STAT_FILE, aspps_main, psgrnd_main
from aspps.database import build_database
from aspps.grounder import check_program, ground_theory
from aspps.parser import parse_data_file, parse_rule_file
from aspps.solver import Solver, solve
from aspps.tdc import check_model, read_tdc, write_tdc

from generators import random_ground_theory, random_program
from oracles import (
    count_queens,
    enumerate_models,
    naive_ground,
    normalize_theory,
    status_by_completion,
)
from problems import (
    COLOR_RULES,
    PIGEON_DATA,
    PIGEON_RULES,
    QUEENS_DATA,
    QUEENS_RULES,
    TRIANGLE_DATA,
    ground_problem,
)


def _report(capsys, num, label, ok, t0):
    secs = time.perf_counter() - t0
    with capsys.disabled():
        print(f"[acceptance {num}] {label}: {'PASS' if ok else 'FAIL'} ({secs:.2f}s)")


# -- shared deterministic corpora (the round-trip check reuses them) -------


@lru_cache(maxsize=None)
def _random_programs():
    rng = random.Random(8191)
    cases, tags = [], set()
    for _ in range(200):
        rules, data, t = random_program(rng)
        tags |= t
        prog = parse_rule_file(rules)
        db = build_database(parse_data_file(data))
        assert check_program(prog, db) == []
        cases.append((prog, db))
    return cases, tags


@lru_cache(maxsize=None)
def _random_theories():
    rng = random.Random(524287)
    return [random_ground_theory(rng, max_atoms=16, max_cards=3) for _ in range(200)]


@lru_cache(maxsize=None)
def _problem_theories():
    return {
        "triangle": ground_problem(COLOR_RULES, TRIANGLE_DATA, {"k": "3"}),
        "pigeon": ground_problem(PIGEON_RULES, PIGEON_DATA, {"p": "4", "h": "3"}),
        "queens": ground_problem(QUEENS_RULES, QUEENS_DATA, {"n": "6"}),
    }


def _stat_fields(line):
    return dict(part.split("=", 1) for part in line.split())


# -- criteria --------------------------------------------------------------


def test_acceptance_1_grounder_matches_naive_oracle(capsys):
    t0 = time.perf_counter()
    cases, tags = _random_programs()
    mismatches = 0
    for prog, db in cases:
        if normalize_theory(ground_theory(prog, db)) != naive_ground(prog, db):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    forms = {"plain", "data", "predef", "eatom", "schema", "list", "arith"}
    ok = mismatches == 0 and forms <= tags and elapsed < 10.0
    _report(capsys, 1, "grounder equals naive oracle on 200 random programs", ok, t0)
    assert mismatches == 0
    assert forms <= tags, tags
    assert elapsed < 10.0


def test_acceptance_2_solver_complete_on_random_theories(capsys):
    t0 = time.perf_counter()
    bad = 0
    for theory in _random_theories():
        res = solve(theory, max_models=None)
        found = {frozenset(a for a, v in m.items() if v) for m in res.models}
        if found != enumerate_models(theory) or len(found) != len(res.models):
            bad += 1
        elif not all(check_model(theory, m) for m in res.models):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 30.0
    _report(capsys, 2, "solver enumeration equals brute force on 200 theories", ok, t0)
    assert bad == 0
    assert elapsed < 30.0


def test_acceptance_3_triangle_coloring_six_models(capsys, tmp_path, monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "color.rl").write_text(COLOR_RULES, encoding="utf-8")
    (tmp_path / "graph.dt").write_text(TRIANGLE_DATA, encoding="utf-8")
    rc1 = psgrnd_main(["-r", "color.rl", "-d", "graph.dt", "-c", "k=3"])
    rc2 = aspps_main(["-f", "k=3-color-graph.tdc", "-C"])
    theory = read_tdc((tmp_path / "k=3-color-graph.tdc").read_text(encoding="utf-8"))
    oracle = len(enumerate_models(theory))  # sweeps all 2^9 assignments
    stats = _stat_fields((tmp_path / STAT_FILE).read_text(encoding="utf-8").splitlines()[-1])
    elapsed = time.perf_counter() - t0
    ok = rc1 == 0 and rc2 == 0 and stats["models"] == "6" and oracle == 6 and elapsed < 1.0
    _report(capsys, 3, "triangle 3-coloring end-to-end has 6 models", ok, t0)
    assert (rc1, rc2) == (0, 0)
    assert theory.n_atoms == 9
    assert oracle == 6
    assert stats["models"] == "6" and stats["result"] == "SAT"
    assert elapsed < 1.0


def test_acceptance_4_pigeonhole_unsat(capsys):
    t0 = time.perf_counter()
    theory = _problem_theories()["pigeon"]
    res = solve(theory, max_models=None)
    oracle_empty = not enumerate_models(theory)  # sweeps all 2^12 assignments
    elapsed = time.perf_counter() - t0
    ok = not res.sat and oracle_empty and elapsed < 1.0
    _report(capsys, 4, "pigeonhole 4-into-3 is unsatisfiable", ok, t0)
    assert theory.n_atoms == 12
    assert not res.sat and res.models == []
    assert oracle_empty
    assert elapsed < 1.0


def test_acceptance_5_six_queens_four_models(capsys, tmp_path, monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "queens.rl").write_text(QUEENS_RULES, encoding="utf-8")
    (tmp_path / "board.dt").write_text(QUEENS_DATA, encoding="utf-8")
    rc1 = psgrnd_main(["-c", "n=6", "-r", "queens.rl", "-d", "board.dt"])
    rc2 = aspps_main(["-f", "n=6-queens-board.tdc", "-C"])
    stats = _stat_fields((tmp_path / STAT_FILE).read_text(encoding="utf-8").splitlines()[-1])
    oracle = count_queens(6)
    elapsed = time.perf_counter() - t0
    ok = rc1 == 0 and rc2 == 0 and stats["models"] == "4" and oracle == 4 and elapsed < 5.0
    _report(capsys, 5, "6-queens counting reports 4 models", ok, t0)
    assert (rc1, rc2) == (0, 0)
    assert oracle == 4
    assert stats["models"] == "4" and stats["result"] == "SAT"
    assert elapsed < 5.0


def test_acceptance_6_cli_contract(capsys, tmp_path, monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "color.rl").write_text(COLOR_RULES, encoding="utf-8")
    (tmp_path / "graph.dt").write_text(TRIANGLE_DATA, encoding="utf-8")
    (tmp_path / "bad.rl").write_text("pred p(vtx).\np(X) ->\n", encoding="utf-8")
    ok = True

    # grounding succeeds silently, names the file after constants and stems,
    # and produces identical bytes when repeated
    assert psgrnd_main(["-r", "color.rl", "-d", "graph.dt", "-c", "k=3"]) == 0
    first = capsys.readouterr()
    tdc = tmp_path / "k=3-color-graph.tdc"
    ok &= first.out == "" and first.err == "" and tdc.exists()
    bytes1 = tdc.read_bytes()
    assert psgrnd_main(["-r", "color.rl", "-d", "graph.dt", "-c", "k=3"]) == 0
    capsys.readouterr()
    ok &= tdc.read_bytes() == bytes1

    # missing -r is a usage error; a syntax error diagnoses and writes nothing
    ok &= psgrnd_main(["-d", "graph.dt"]) == 1
    ok &= capsys.readouterr().err != ""
    ok &= psgrnd_main(["-r", "bad.rl", "-d", "graph.dt", "-c", "k=3"]) == 2
    err = capsys.readouterr().err
    ok &= "bad.rl" in err and not (tmp_path / "k=3-bad-graph.tdc").exists()

    # -A prints the first model's positive atoms, identically across runs
    assert aspps_main(["-f", "k=3-color-graph.tdc", "-A"]) == 0
    run1 = capsys.readouterr().out
    assert aspps_main(["-f", "k=3-color-graph.tdc", "-A"]) == 0
    run2 = capsys.readouterr().out
    theory = read_tdc(tdc.read_text(encoding="utf-8"))
    res = solve(theory, max_models=1)
    expected = [theory.atoms[a - 1].text for a in sorted(res.models[0]) if res.models[0][a]]
    ok &= run1 == run2 == "".join(line + "\n" for line in expected)

    # -C exhausts the space; -C 2 stops after two models
    assert aspps_main(["-f", "k=3-color-graph.tdc", "-C"]) == 0
    ok &= capsys.readouterr().out == "SAT\n"
    assert aspps_main(["-f", "k=3-color-graph.tdc", "-C", "2"]) == 0
    ok &= capsys.readouterr().out == "SAT\n"

    # four solver runs appended four stat lines; the two -A runs agree on
    # every field except the wall-clock one
    lines = (tmp_path / STAT_FILE).read_text(encoding="utf-8").splitlines()
    ok &= len(lines) == 4
    fields = [_stat_fields(l) for l in lines]
    ok &= all(re.fullmatch(r"\d+", f["time_ms"]) for f in fields)
    a, b = fields[0], fields[1]
    ok &= {k: v for k, v in a.items() if k != "time_ms"} == {
        k: v for k, v in b.items() if k != "time_ms"
    }
    ok &= (a["models"], fields[2]["models"], fields[3]["models"]) == ("1", "6", "2")
    ok &= all(f["file"] == "k=3-color-graph.tdc" and f["result"] == "SAT" for f in fields)

    _report(capsys, 6, "command-line contract holds bit-exactly", ok, t0)
    assert ok


def test_acceptance_7_format_round_trip(capsys):
    t0 = time.perf_counter()
    theories = [ground_theory(p, db) for p, db in _random_programs()[0]]
    theories += _random_theories()
    theories += list(_problem_theories().values())
    bad = 0
    for t in theories:
        text = write_tdc(t)
        back = read_tdc(text)
        if write_tdc(back) != text or (back.atoms, back.cards, back.clauses) != (
            t.atoms,
            t.cards,
            t.clauses,
        ):
            bad += 1
    ok = bad == 0
    _report(capsys, 7, f"read/write round-trip on {len(theories)} theories", ok, t0)
    assert bad == 0


def _propagation_flaw(theory, rng):
    """Drive one random decision sequence; return a description of the
    first propagation that pruned a surviving model, None if safe."""
    models = enumerate_models(theory)
    s = Solver(theory)
    decisions = []
    conf = s._initial_propagate()
    while conf is None:
        compatible = [
            m
            for m in models
            if all((a in m) == v for a, v in decisions)
        ]
        for aid in range(1, s.n_atoms + 1):
            v = s.assignment[aid]
            if v is not None and any((aid in m) != v for m in compatible):
                return f"atom {aid} forced to {v} against a surviving model"
        undec = [a for a in range(1, s.n_atoms + 1) if s.assignment[a] is None]
        if not undec:
            total = frozenset(a for a in range(1, s.n_atoms + 1) if s.assignment[a])
            return None if total in models else "total assignment is not a model"
        aid = rng.choice(undec)
        val = rng.random() < 0.5
        decisions.append((aid, val))
        conf = s.assign(aid, val, role="decision") or s.propagate()
    if any(all((a in m) == v for a, v in decisions) for m in models):
        return "conflict reported while a compatible model survives"
    return None


def test_acceptance_8_propagation_and_status_invariants(capsys):
    t0 = time.perf_counter()
    rng = random.Random(131071)
    flaws = []
    for _ in range(1000):
        theory = random_ground_theory(rng, max_atoms=10)
        flaw = _propagation_flaw(theory, rng)
        if flaw:
            flaws.append(flaw)

    status_bad = 0
    for _ in range(1000):
        theory = random_ground_theory(rng, max_atoms=10, max_cards=3)
        s = Solver(theory)
        for aid in range(1, theory.n_atoms + 1):
            pick = rng.random()
            if pick < 0.6:
                s.assign(aid, pick < 0.3)
        for card in theory.cards:
            values = [s.assignment[m] for m in card.members]
            want = status_by_completion(card.lo, card.hi, values)
            i = card.id - theory.n_atoms - 1
            tc, uc = s.card_true[i], s.card_undec[i]
            if s.card_status(i) is not want:
                status_bad += 1
            elif tc != sum(v is True for v in values) or uc != sum(v is None for v in values):
                status_bad += 1
    elapsed = time.perf_counter() - t0
    ok = not flaws and status_bad == 0 and elapsed < 30.0
    _report(capsys, 8, "propagation safety and card status agree on 1000+1000 instances", ok, t0)
    assert not flaws, flaws[:3]
    assert status_bad == 0
    assert elapsed < 30.0
