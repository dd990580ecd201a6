"""Seeded instances of the benchmark workloads, and independent checkers.

Each instance pairs a rule file from scripts/problems, read unchanged,
with a data file drawn from the seed. Facts are listed one per line in a
seed-shuffled order, so every seed hands the toolchain different bytes
while queens, pigeon and enum keep the same problem (and the same .tdc).

The checkers judge the models aspps prints from the problem itself:
placements, colorings and bijections are tested directly, and the
expected verdict and model count follow from the instance parameters,
never from the solver's own answer.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("queens", "pigeon", "color", "enum")

SIZES = {
    "full": {"queens": 16, "pigeon": (9, 8), "color": 300, "enum": 8},
    "small": {"queens": 6, "pigeon": (4, 3), "color": 12, "enum": 4},
}

COLORS = 3

_ATOM2 = re.compile(r"([a-z]\w*)\((-?\d+),(-?\d+)\)\Z")

# A checker gets the verdict and the printed models (lists of atom
# texts) and returns a list of problems; empty means correct.
Checker = Callable[[bool, list[list[str]]], list[str]]


@dataclass(frozen=True)
class Instance:
    workload: str
    rule_name: str
    rule_text: str
    data_name: str
    data_text: str
    aspps_args: tuple[str, ...]
    max_models: int | None
    check: Checker

    @property
    def tdc_name(self) -> str:
        """psgrnd's output name for one rule file and one data file."""
        return f"{Path(self.rule_name).stem}-{Path(self.data_name).stem}.tdc"


def make_instance(workload: str, seed: int, size: str, problems: Path) -> Instance:
    rng = random.Random(f"{workload}:{seed}")
    param = SIZES[size][workload]
    if workload == "queens":
        n = param
        data = _facts(rng, [f"row({i})." for i in range(1, n + 1)] + [f"col({i})." for i in range(1, n + 1)])
        return Instance(workload, "queens.rl", _rules(problems, "queens.rl"), "board.dt", data,
                        ("-A",), 1, lambda sat, models: check_queens(n, sat, models))
    if workload in ("pigeon", "enum"):
        p, h = param if workload == "pigeon" else (param, param)
        data = _facts(rng, [f"pigeon({i})." for i in range(1, p + 1)] + [f"hole({i})." for i in range(1, h + 1)])
        rules = _rules(problems, "pigeon.rl")
        if workload == "pigeon":
            return Instance(workload, "pigeon.rl", rules, "pigeon.dt", data,
                            (), 1, lambda sat, models: check_pigeon_unsat(p, h, sat))
        return Instance(workload, "pigeon.rl", rules, "pigeon.dt", data,
                        ("-C", "-A"), None, lambda sat, models: check_bijections(h, sat, models))
    if workload == "color":
        n = param
        edges = cycle_graph(n, rng)
        facts = [f"vtx({i})." for i in range(1, n + 1)] + [f"color({c})." for c in range(1, COLORS + 1)]
        facts += [f"edge({a},{b})." for a, b in edges]
        return Instance(workload, "color.rl", _rules(problems, "color.rl"), "graph.dt", _facts(rng, facts),
                        ("-A",), 1, lambda sat, models: check_coloring(n, edges, sat, models))
    raise ValueError(f"unknown workload {workload!r}")


def cycle_graph(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A Hamiltonian cycle through the vertices in seeded order.

    Every vertex has degree 2, below the 3 colors, so any assignment
    order extends greedily and chronological DPLL never backtracks: the
    workload measures data handling and grounding for every seed. Denser
    random graphs near the 3-coloring threshold give this solver
    heavy-tailed search times that depend on the seed.
    """
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return [(order[i], order[(i + 1) % n]) for i in range(n)]


def _facts(rng: random.Random, facts: list[str]) -> str:
    rng.shuffle(facts)
    return "".join(f + "\n" for f in facts)


def _rules(problems: Path, name: str) -> str:
    return (problems / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Reading aspps output.


def parse_output(text: str, instance: Instance) -> tuple[bool, list[list[str]]] | str:
    """The verdict and models printed by aspps with the instance's flags,
    or a problem description when the text is not in that format."""
    if text == "UNSAT\n":
        return False, []
    if "-A" not in instance.aspps_args:
        return (True, []) if text == "SAT\n" else f"unexpected output {text[:40]!r}"
    if not text.endswith("\n"):
        return "output does not end in a newline"
    models = [block.split("\n") for block in text[:-1].split("\n\n")]
    return True, models


def _pairs(pred: str, model: list[str]) -> list[tuple[int, int]] | None:
    out = []
    for text in model:
        m = _ATOM2.match(text)
        if m is None or m.group(1) != pred:
            return None
        out.append((int(m.group(2)), int(m.group(3))))
    return out


def _one_model(sat: bool, models: list[list[str]]) -> list[str]:
    if not sat:
        return ["satisfiable instance reported UNSAT"]
    if len(models) != 1:
        return [f"expected 1 model, got {len(models)}"]
    return []


# ---------------------------------------------------------------------------
# Checkers.


def check_queens(n: int, sat: bool, models: list[list[str]]) -> list[str]:
    problems = _one_model(sat, models)
    if problems:
        return problems
    queens = _pairs("q", models[0])
    if queens is None:
        return ["model holds atoms other than q(R,C)"]
    rows = sorted(r for r, _ in queens)
    cols = sorted(c for _, c in queens)
    if rows != list(range(1, n + 1)) or cols != list(range(1, n + 1)):
        return [f"not one queen per row and column: {sorted(queens)}"]
    if len({r - c for r, c in queens}) != n or len({r + c for r, c in queens}) != n:
        return ["two queens share a diagonal"]
    return []


def check_coloring(n: int, edges: list[tuple[int, int]], sat: bool, models: list[list[str]]) -> list[str]:
    problems = _one_model(sat, models)
    if problems:
        return problems
    pairs = _pairs("clr", models[0])
    if pairs is None:
        return ["model holds atoms other than clr(V,C)"]
    color: dict[int, int] = {}
    for v, c in pairs:
        if v in color:
            return [f"vertex {v} has two colors"]
        if not 1 <= c <= COLORS:
            return [f"vertex {v} has color {c} outside 1..{COLORS}"]
        color[v] = c
    if sorted(color) != list(range(1, n + 1)):
        return ["not every vertex is colored"]
    bad = [(a, b) for a, b in edges if color[a] == color[b]]
    return [f"edge {bad[0]} joins two vertices of one color"] if bad else []


def check_pigeon_unsat(p: int, h: int, sat: bool) -> list[str]:
    """More pigeons than holes admit no injection into the holes."""
    if p <= h:
        return [f"{p} pigeons fit {h} holes; the instance is not UNSAT"]
    return ["UNSAT instance reported satisfiable"] if sat else []


def check_bijections(h: int, sat: bool, models: list[list[str]]) -> list[str]:
    if not sat:
        return ["satisfiable instance reported UNSAT"]
    if len(models) != math.factorial(h):
        return [f"expected {math.factorial(h)} models, got {len(models)}"]
    seen = set()
    full = list(range(1, h + 1))
    for model in models:
        pairs = _pairs("in", model)
        if pairs is None:
            return ["model holds atoms other than in(P,H)"]
        if sorted(p for p, _ in pairs) != full or sorted(q for _, q in pairs) != full:
            return [f"model is not a bijection: {sorted(pairs)}"]
        seen.add(frozenset(pairs))
    if len(seen) != len(models):
        return [f"{len(models) - len(seen)} models repeat"]
    return []
