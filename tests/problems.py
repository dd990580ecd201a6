"""The benchmark encodings bundled in scripts/problems, read from there,
and a helper that grounds one."""

from __future__ import annotations

from pathlib import Path

from aspps.database import build_database
from aspps.grounder import check_program, ground_theory
from aspps.parser import parse_data_file, parse_rule_file

PROBLEMS = Path(__file__).resolve().parent.parent / "scripts" / "problems"


def _read(name: str) -> str:
    return (PROBLEMS / name).read_text(encoding="utf-8")


COLOR_RULES = _read("color.rl")
TRIANGLE_DATA = _read("graph.dt")
QUEENS_RULES = _read("queens.rl")
QUEENS_DATA = _read("board.dt")
PIGEON_RULES = _read("pigeon.rl")
PIGEON_DATA = _read("pigeon.dt")


def ground_problem(rules: str, data: str, consts: dict[str, str]):
    """Parse, check and ground one encoding; checks must pass."""
    atoms = parse_data_file(data, consts)
    prog = parse_rule_file(rules, consts)
    db = build_database(atoms)
    diags = check_program(prog, db)
    assert not diags, diags
    return ground_theory(prog, db)
