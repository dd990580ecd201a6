"""Pinned search statistics on the shipped problem encodings.

Branching, propagation order and backtracking all feed the counters, so
any change to how the solver picks or undoes literals that is meant to
keep its behaviour must leave these numbers exactly as they are.
"""

from pathlib import Path

import pytest

from aspps.solver import solve

from problems import ground_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "scripts" / "problems"


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
        ("pigeon.rl", "pigeon.dt", {"p": "6", "h": "5"}, 1, (119, 1130, 120, 0)),
        ("pigeon.rl", "pigeon.dt", {"p": "5", "h": "5"}, None, (119, 805, 0, 120)),
    ],
    ids=["queens8", "queens10", "queens6-all", "pigeon6-5", "pigeon5-5-all"],
)
def test_search_statistics_pinned(rules, data, consts, max_models, expected):
    res = solve(_ground(rules, data, consts), max_models=max_models)
    s = res.stats
    assert (s.decisions, s.propagations, s.conflicts, len(res.models)) == expected
