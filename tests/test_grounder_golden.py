"""Pinned .tdc bytes of the shipped problem encodings.

Atom numbering, card numbering and clause order all follow the order in
which the grounder meets bindings, so any change to how it walks them
that is meant to keep its output must leave these hashes as they are.
"""

import hashlib

import pytest

from aspps.tdc import write_tdc

from problems import PROBLEMS, ground_problem



@pytest.mark.parametrize(
    "rules, data, consts, sha256",
    [
        (
            "queens.rl", "board.dt", {"n": "8"},
            "15ab7b2c4d2c67232fad35d84a6fc2ec12b065272f43415282c0f9243919437b",
        ),
        (
            "pigeon.rl", "pigeon.dt", {"p": "6", "h": "5"},
            "afedbf3ccff2fa6edc293e8b085259e3ab44726660954079de0667003dfd68e7",
        ),
        (
            "color.rl", "graph.dt", {"k": "3"},
            "0754f5d5a429599fd22ac20b5e6427893aa4edd3ad179b5804d013d7dc688aa8",
        ),
    ],
    ids=["queens8", "pigeon6-5", "color3"],
)
def test_tdc_bytes_pinned(rules, data, consts, sha256):
    theory = ground_problem(
        (PROBLEMS / rules).read_text(), (PROBLEMS / data).read_text(), consts
    )
    assert hashlib.sha256(write_tdc(theory).encode("utf-8")).hexdigest() == sha256
