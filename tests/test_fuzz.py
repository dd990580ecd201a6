"""Arbitrary and mutated input text: the parsers and the .tdc reader
either return or raise a ToolchainError, never anything else."""

import re

from hypothesis import given, settings, strategies as st

from aspps.errors import ToolchainError
from aspps.parser import parse_data_file, parse_rule_file
from aspps.tdc import read_tdc, write_tdc

from problems import (
    COLOR_RULES,
    PIGEON_DATA,
    PIGEON_RULES,
    QUEENS_DATA,
    QUEENS_RULES,
    TRIANGLE_DATA,
    ground_problem,
)

CONSTS = {"k": "3", "n": "4", "p": "3", "h": "2"}

RULE_SEEDS = (COLOR_RULES, QUEENS_RULES, PIGEON_RULES)
DATA_SEEDS = (TRIANGLE_DATA, QUEENS_DATA, PIGEON_DATA, "edge(a,b). w(1,-2).\nc.\n")
TDC_SEEDS = (
    write_tdc(ground_problem(COLOR_RULES, TRIANGLE_DATA, CONSTS)),
    "tdc 1\natoms 2\n1 p(1,a)\n2 q\ncards 1\n3 1 -1 2 1 2\nclauses 3\n2 -3 1\n1 -2\n0\n",
)
# '²' passes str.isdigit() but not int(); so does a run of more than
# 4 300 digits, which the "digits" mutation inserts.
SYNTAX = "abpqXY_()[]{}:,.|-><=!+*/ \n\t0123456789%\u00b2"
LONG_DIGITS = "1" * 4400


@st.composite
def _mutated(draw, seeds):
    """A seed text after a few random inserts, deletes and repeats."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        op = draw(st.sampled_from(("insert", "digits", "delete", "repeat")))
        if op == "insert":
            text = text[:i] + draw(st.text(SYNTAX, min_size=1, max_size=4)) + text[i:]
        elif op == "digits":
            text = text[:i] + LONG_DIGITS + text[i:]
        elif op == "delete":
            text = text[:i] + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


def _texts(seeds):
    return st.one_of(st.text(max_size=200), _mutated(seeds))


def _raises_only_toolchain_errors(fn, *args):
    try:
        fn(*args)
    except ToolchainError:
        pass


@settings(max_examples=400, deadline=None)
@given(_texts(DATA_SEEDS))
def test_parse_data_file_raises_only_toolchain_errors(text):
    # Cap integer literals at three digits, so ranges stay small to expand.
    text = re.sub(r"\d{4,}", lambda m: m.group()[:3], text)
    _raises_only_toolchain_errors(parse_data_file, text, CONSTS)


@settings(max_examples=400, deadline=None)
@given(_texts(RULE_SEEDS))
def test_parse_rule_file_raises_only_toolchain_errors(text):
    _raises_only_toolchain_errors(parse_rule_file, text, CONSTS)


@settings(max_examples=400, deadline=None)
@given(_texts(TDC_SEEDS))
def test_read_tdc_raises_only_toolchain_errors(text):
    _raises_only_toolchain_errors(read_tdc, text)


def _tokens(text):
    return [line.split() for line in text.split("\n") if line.strip()]


@settings(max_examples=400, deadline=None)
@given(_mutated(TDC_SEEDS))
def test_read_tdc_writes_back_what_it_reads(text):
    try:
        theory = read_tdc(text)
    except ToolchainError:
        return
    assert _tokens(write_tdc(theory)) == _tokens(text)
