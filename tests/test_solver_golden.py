"""Pinned search statistics on the shipped problem encodings and on
random theories with cardinality constructs.

Branching, propagation order and backtracking all feed the counters, so
any change to how the solver picks or undoes literals that is meant to
keep its behaviour must leave these numbers exactly as they are.
"""

import hashlib
import random

import pytest

from aspps.solver import solve

from generators import random_ground_theory
from problems import PROBLEMS, ground_problem



def _ground(rules: str, data: str, consts: dict[str, str]):
    return ground_problem(
        (PROBLEMS / rules).read_text(), (PROBLEMS / data).read_text(), consts
    )


@pytest.mark.parametrize(
    "rules, data, consts, max_models, expected",
    [
        ("queens.rl", "board.dt", {"n": "8"}, 1, (6, 96, 3, 1)),
        ("queens.rl", "board.dt", {"n": "10"}, 1, (25, 429, 22, 1)),
        ("queens.rl", "board.dt", {"n": "6"}, None, (31, 524, 28, 4)),
        ("queens.rl", "board.dt", {"n": "14"}, 1, (169, 3861, 163, 1)),
        ("queens.rl", "board.dt", {"n": "8"}, None, (409, 6850, 318, 92)),
        ("pigeon.rl", "pigeon.dt", {"p": "6", "h": "5"}, 1, (119, 1130, 120, 0)),
        ("pigeon.rl", "pigeon.dt", {"p": "5", "h": "5"}, None, (119, 805, 0, 120)),
    ],
    ids=[
        "queens8", "queens10", "queens6-all", "queens14", "queens8-all",
        "pigeon6-5", "pigeon5-5-all",
    ],
)
def test_search_statistics_pinned(rules, data, consts, max_models, expected):
    res = solve(_ground(rules, data, consts), max_models=max_models)
    s = res.stats
    assert (s.decisions, s.propagations, s.conflicts, len(res.models)) == expected


def test_random_card_theories_pinned():
    """All models of 300 random theories with up to 4 cards, most of
    them with negated card literals: summed counters, the model count and
    a digest of every model sequence. The pins do not go through any
    solver subclass, so they see every change to how cards propagate."""
    totals = [0, 0, 0, 0]
    negated_cards = 0
    digest = hashlib.sha256()
    for seed in range(300):
        t = random_ground_theory(random.Random(seed), max_atoms=10, max_cards=4)
        negated_cards += any(-lit > t.n_atoms for cl in t.clauses for lit in cl)
        res = solve(t, max_models=None)
        s = res.stats
        for k, x in enumerate((s.decisions, s.propagations, s.conflicts, len(res.models))):
            totals[k] += x
        for m in res.models:
            digest.update(repr([a for a, v in m.items() if v]).encode() + b"\n")
        digest.update(b"--\n")
    assert negated_cards == 190
    assert totals == [2910, 3671, 141, 3069]
    assert digest.hexdigest() == "d183728fe61e33c9ce5144d01c7505f7569ea48c5ba12a7251c8d2f3f3188307"
