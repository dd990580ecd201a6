"""Pinned search statistics on the shipped problem encodings and on
random theories with cardinality constructs.

Branching, propagation order and backtracking all feed the counters, so
any change to how the solver picks or undoes literals that is meant to
keep its behaviour must leave these numbers exactly as they are. Only
propagations depends on the order in which propagation visits clauses,
and only on a run with conflicts. ReferenceSolver, which shares no
search code with the solver and keeps one visiting order, holds every
pin. The solver holds all but its propagations on runs with conflicts,
which are pinned on their own for the encodings.
"""

import hashlib
import random

import pytest

from aspps.solver import Solver

from generators import random_ground_theory
from oracles import ReferenceSolver
from problems import PROBLEMS, ground_problem



def _ground(rules: str, data: str, consts: dict[str, str]):
    return ground_problem(
        (PROBLEMS / rules).read_text(), (PROBLEMS / data).read_text(), consts
    )


def _bounded(solver, max_decisions: int):
    """solver, failing at the branch pick once the search has made more
    than max_decisions decisions, so that a fault which sends the search
    astray fails the pin instead of stalling it."""

    class Bounded(solver):
        def choose_branch(self):
            assert self.decisions <= max_decisions, f"{solver.__name__}: over {max_decisions} decisions"
            return super().choose_branch()

    return Bounded


# (decisions, propagations, conflicts, models) of ReferenceSolver, then
# of Solver: on a run with conflicts their propagations may differ.
@pytest.mark.parametrize(
    "rules, data, consts, max_models, reference, expected",
    [
        ("queens.rl", "board.dt", {"n": "8"}, 1, (6, 96, 3, 1), (6, 96, 3, 1)),
        ("queens.rl", "board.dt", {"n": "10"}, 1, (25, 429, 22, 1), (25, 428, 22, 1)),
        ("queens.rl", "board.dt", {"n": "6"}, None, (31, 524, 28, 4), (31, 524, 28, 4)),
        ("queens.rl", "board.dt", {"n": "14"}, 1, (169, 3861, 163, 1), (169, 3852, 163, 1)),
        ("queens.rl", "board.dt", {"n": "8"}, None, (409, 6850, 318, 92), (409, 6826, 318, 92)),
        ("pigeon.rl", "pigeon.dt", {"p": "6", "h": "5"}, 1, (119, 1130, 120, 0), (119, 1130, 120, 0)),
        ("pigeon.rl", "pigeon.dt", {"p": "5", "h": "5"}, None, (119, 805, 0, 120), (119, 805, 0, 120)),
    ],
    ids=[
        "queens8", "queens10", "queens6-all", "queens14", "queens8-all",
        "pigeon6-5", "pigeon5-5-all",
    ],
)
def test_search_statistics_pinned(rules, data, consts, max_models, reference, expected):
    theory = _ground(rules, data, consts)
    for solver, want in ((Solver, expected), (ReferenceSolver, reference)):
        res = _bounded(solver, 2 * want[0] + 10)(theory).run(max_models)
        s = res.stats
        got = (s.decisions, s.propagations, s.conflicts, len(res.models))
        assert got == want, solver.__name__


def _random_card_pins(solver):
    """All models of 300 random theories with up to 4 cards, most of
    them with negated card literals: summed counters, the model count, a
    digest of every model sequence and the number of theories with a
    negated card literal."""
    totals = [0, 0, 0, 0]
    negated_cards = 0
    digest = hashlib.sha256()
    for seed in range(300):
        t = random_ground_theory(random.Random(seed), max_atoms=10, max_cards=4)
        negated_cards += any(-lit > t.n_atoms for cl in t.clauses for lit in cl)
        res = solver(t).run(None)
        s = res.stats
        for k, x in enumerate((s.decisions, s.propagations, s.conflicts, len(res.models))):
            totals[k] += x
        for m in res.models:
            digest.update(repr([a for a, v in m.items() if v]).encode() + b"\n")
        digest.update(b"--\n")
    return totals, digest.hexdigest(), negated_cards


def test_random_card_theories_pinned():
    # ReferenceSolver holds every pin; the solver, whose cards are forced
    # by the fused loop in propagate, all but the summed propagations.
    digest = "d183728fe61e33c9ce5144d01c7505f7569ea48c5ba12a7251c8d2f3f3188307"
    assert _random_card_pins(ReferenceSolver) == ([2910, 3671, 141, 3069], digest, 190)
    totals, got, _ = _random_card_pins(Solver)
    decisions, _, conflicts, models = totals
    assert ([decisions, conflicts, models], got) == ([2910, 141, 3069], digest)
