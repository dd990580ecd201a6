""".tdc serialization, parsing, display and model checking."""

import hashlib
import random
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from aspps.errors import TdcError
from aspps.tdc import check_model, print_theory, read_tdc, write_tdc
from aspps.theory import CardConstruct, GroundAtom, GroundTheory

from generators import mutate_tdc_lines, random_ground_theory
from problems import (
    COLOR_RULES,
    PIGEON_DATA,
    PIGEON_RULES,
    QUEENS_DATA,
    QUEENS_RULES,
    TRIANGLE_DATA,
    ground_problem,
)


def _theory():
    atoms = (
        GroundAtom(1, "p", (1,), "p(1)"),
        GroundAtom(2, "p", (2,), "p(2)"),
        GroundAtom(3, "q", (1, "red"), "q(1,red)"),
    )
    cards = (CardConstruct(4, 1, 1, (1, 2)), CardConstruct(5, 0, 1, (1, 2, 3)))
    clauses = (
        (4,),
        (-1, 3),
        (-5, 2, -3),
        (),
    )
    return GroundTheory(atoms, cards, clauses)


EXPECTED = """\
tdc 1
atoms 3
1 p(1)
2 p(2)
3 q(1,red)
cards 2
4 1 1 2 1 2
5 0 1 3 1 2 3
clauses 4
1 4
2 -1 3
3 -5 2 -3
0
"""


def test_write_format_exact():
    assert write_tdc(_theory()) == EXPECTED


def test_read_write_inverse():
    t = read_tdc(EXPECTED)
    assert t.n_atoms == 3
    assert t.atoms[2].pred == "q" and t.atoms[2].args == (1, "red")
    assert t.cards[0] == CardConstruct(4, 1, 1, (1, 2))
    assert t.clauses[3] == ()
    assert write_tdc(t) == EXPECTED


def test_read_empty_theory():
    text = "tdc 1\natoms 0\ncards 0\nclauses 0\n"
    t = read_tdc(text)
    assert t.n_atoms == 0 and not t.cards and not t.clauses
    assert write_tdc(t) == text


def test_read_takes_the_64_bit_extremes():
    text = "tdc 1\natoms 1\n1 p(-9223372036854775808,9223372036854775807)\ncards 0\nclauses 0\n"
    t = read_tdc(text)
    assert t.atoms[0].args == (-(2**63), 2**63 - 1)
    assert write_tdc(t) == text


def test_read_tolerates_blank_lines():
    t = read_tdc("tdc 1\n\natoms 1\n1 p\n\ncards 0\nclauses 1\n1 -1\n")
    assert t.atoms[0].text == "p"
    assert t.clauses[0] == (-1,)


@pytest.mark.parametrize(
    "text,msg",
    [
        ("tdc 2\natoms 0\ncards 0\nclauses 0\n", "unsupported header"),
        ("atoms 0\ncards 0\nclauses 0\n", "unsupported header"),
        ("tdc 1\natoms x\ncards 0\nclauses 0\n", "not an integer"),
        ("tdc 1\natoms -1\ncards 0\nclauses 0\n", "may not be negative"),
        ("tdc 1\natoms 1\ncards 0\nclauses 0\n", "malformed atom line"),
        ("tdc 1\natoms 1\n2 p\ncards 0\nclauses 0\n", "ids must be dense"),
        ("tdc 1\natoms 1\n1 p\ncards 1\n3 0 1 1 1\nclauses 0\n", "ids must be dense"),
        ("tdc 1\natoms 1\n1 p\ncards 1\n2 0 1 2 1\nclauses 0\n", "declares 2 members"),
        ("tdc 1\natoms 1\n1 p\ncards 1\n2 -1 1 1 1\nclauses 0\n", "negative lower"),
        ("tdc 1\natoms 1\n1 p\ncards 1\n2 0 -2 1 1\nclauses 0\n", "below -1"),
        ("tdc 1\natoms 2\n1 p\n2 q\ncards 1\n3 2 1 2 1 2\nclauses 0\n", "above its upper"),
        ("tdc 1\natoms 1\n1 p\ncards 1\n2 0 1 1 5\nclauses 0\n", "not an atom id"),
        ("tdc 1\natoms 1\n1 p\ncards 1\n2 0 1 2 1 1\nclauses 0\n", "twice"),
        ("tdc 1\natoms 1\n1 p\ncards 0\nclauses 1\n2 1\n", "declares 2 literals"),
        ("tdc 1\natoms 1\n1 p\ncards 0\nclauses 1\n1 0\n", "out of range"),
        ("tdc 1\natoms 1\n1 p\ncards 0\nclauses 1\n1 9\n", "out of range"),
        ("tdc 1\natoms 0\ncards 0\nclauses 0\njunk\n", "trailing content"),
        ("tdc 1\natoms 1\n1\ncards 0\nclauses 0\n", "malformed atom line"),
        ("tdc 1\natoms 1\n\u00b2 p\ncards 0\nclauses 0\n", "malformed atom line"),
        ("tdc 1\natoms 1\n" + "1" * 5000 + " p\ncards 0\nclauses 0\n", "malformed atom line"),
        ("tdc 1\natoms 1\n1 p\ncards 1\n2 0\nclauses 0\n", "malformed card line"),
        # integers only as str(int) writes them, atom texts only as written
        ("tdc 1\natoms +1\n1 p\ncards 0\nclauses 0\n", "atoms count '\\+1' is not an integer"),
        ("tdc 1\natoms 1\n\u0661 p\ncards 0\nclauses 0\n", "malformed atom line"),
        ("tdc 1\natoms 1\n01 p\ncards 0\nclauses 0\n", "malformed atom line"),
        ("tdc 1\natoms 1\n1 p\ncards 0\nclauses 1\n1 1_0\n", "malformed clause line"),
        ("tdc 1\natoms 1\n1 p\ncards 0\nclauses 1\n1 -0\n", "malformed clause line"),
        ("tdc 1\natoms 1\n1 p(+1)\ncards 0\nclauses 0\n", "malformed atom text"),
        ("tdc 1\natoms 1\n1 p q\ncards 0\nclauses 0\n", "malformed atom text"),
        ("tdc 1\natoms 1\n1 p()\ncards 0\nclauses 0\n", "malformed atom text"),
        ("tdc 1\natoms 1\n1 p(a,)\ncards 0\nclauses 0\n", "malformed atom text"),
        ("tdc 1\natoms 1\n1 p(a b)\ncards 0\nclauses 0\n", "malformed atom text"),
        ("tdc 1\natoms 1\n1 p((1)\ncards 0\nclauses 0\n", "malformed atom text"),
        ("tdc 1\natoms 1\n1 p(X)\ncards 0\nclauses 0\n", "malformed atom text"),
        # 2**63 and -2**63-1: 19 digits, but outside the 64-bit range
        ("tdc 1\natoms 1\n1 p(9223372036854775808)\ncards 0\nclauses 0\n", "malformed atom text"),
        ("tdc 1\natoms 1\n1 p(a,-9223372036854775809)\ncards 0\nclauses 0\n", "malformed atom text"),
    ],
)
def test_read_rejects_malformed(text, msg):
    with pytest.raises(TdcError, match=msg):
        read_tdc(text)


def test_read_error_carries_file_and_line():
    try:
        read_tdc("tdc 1\natoms 1\n2 p\ncards 0\nclauses 0\n", file="bad.tdc")
    except TdcError as exc:
        assert str(exc).startswith("bad.tdc:3: ")
    else:
        pytest.fail("expected TdcError")


def test_print_theory_rendering():
    assert print_theory(_theory()) == (
        "1 {p(1), p(2)} 1\n"
        "-p(1) | q(1,red)\n"
        "-(0 {p(1), p(2), q(1,red)} 1) | p(2) | -q(1,red)\n"
        "FALSE\n"
    )


def test_print_theory_unbounded_card_omits_hi():
    t = GroundTheory(
        (GroundAtom(1, "a", (), "a"),),
        (CardConstruct(2, 1, -1, (1,)),),
        ((2,),),
    )
    assert print_theory(t) == "1 {a}\n"


def test_check_model_clauses_and_cards():
    t = _theory()
    # empty clause present: nothing satisfies the theory
    assert not check_model(t, {1: True, 2: False, 3: True})
    t2 = GroundTheory(t.atoms, t.cards, t.clauses[:3])
    assert check_model(t2, {1: True, 2: False, 3: True})
    # card 4 wants exactly one of p(1),p(2)
    assert not check_model(t2, {1: True, 2: True, 3: True})
    assert not check_model(t2, {1: False, 2: False, 3: False})
    # negative card literal: card 5 (at most one of the three) must fail
    assert not check_model(
        GroundTheory(t.atoms, t.cards, ((-5,),)),
        {1: True, 2: False, 3: False},
    )
    assert check_model(
        GroundTheory(t.atoms, t.cards, ((-5,),)),
        {1: True, 2: True, 3: False},
    )


def test_check_model_empty_theory():
    t = GroundTheory((), (), ())
    assert check_model(t, {})


@given(st.integers(0, 10**6))
def test_write_read_write_identity(seed):
    t = random_ground_theory(random.Random(seed), max_atoms=12)
    text = write_tdc(t)
    back = read_tdc(text)
    assert write_tdc(back) == text
    assert back.n_atoms == t.n_atoms
    assert back.cards == t.cards
    assert back.clauses == t.clauses


# ---------------------------------------------------------------------------
# Pinned outcomes: a digest of what read_tdc returns or raises on seeded
# line edits of write_tdc output. Any change to a theory read, to a
# diagnostic or to its line changes the digest.

PIN_CONSTS = {"k": "3", "n": "4", "p": "3", "h": "2"}


def _read_outcome(text):
    """("ok", the theory written back), or the kind of error and its text:
    a TdcError's file:line: message, any other exception's type name."""
    try:
        return "ok", write_tdc(read_tdc(text, file="m.tdc"))
    except TdcError as exc:
        return re.sub(r"'[^']*'|-?\d+", "_", exc.message), str(exc)
    except Exception as exc:
        return "not a TdcError", type(exc).__name__


def _tokens(text):
    return [line.split() for line in text.split("\n") if line.strip()]


def test_tdc_errors_pinned():
    theories = [
        ground_problem(rules, data, PIN_CONSTS)
        for rules, data in ((COLOR_RULES, TRIANGLE_DATA), (QUEENS_RULES, QUEENS_DATA), (PIGEON_RULES, PIGEON_DATA))
    ]
    theories += [random_ground_theory(random.Random(seed)) for seed in range(100)]
    texts = [write_tdc(t) for t in theories]
    rng = random.Random(20016)
    digest = hashlib.sha256()
    kinds = Counter()
    for case in range(2000):
        text = mutate_tdc_lines(rng, rng.choice(texts))
        kind, outcome = _read_outcome(text)
        if kind == "ok":  # what is read is written back, up to blanks
            assert _tokens(outcome) == _tokens(text), case
        kinds[kind] += 1
        digest.update(f"{case}\0{outcome}\0".encode())
    assert (dict(kinds), digest.hexdigest()) == (
        {
            "atom ids must be dense, expected _ got _": 324,
            "atoms count _ is not an integer": 8,
            "atoms count may not be negative": 1,
            "card _ declares _ members but lists _": 26,
            "card _ has lower bound above its upper bound": 2,
            "card _ has negative lower bound": 1,
            "card _ member _ is not an atom id": 4,
            "card ids must be dense, expected _ got _": 34,
            "cards count _ is not an integer": 4,
            "cards count may not be negative": 3,
            "clause declares _ literals but lists _": 89,
            "clauses count _ is not an integer": 6,
            "expected _, got _": 318,
            "literal _ out of range": 11,
            "malformed atom line _": 192,
            "malformed atom text _": 97,
            "malformed card line _": 73,
            "malformed clause line _": 94,
            "ok": 190,
            "trailing content _": 55,
            "unexpected end of file, expected atom": 81,
            "unexpected end of file, expected atoms count": 20,
            "unexpected end of file, expected card": 21,
            "unexpected end of file, expected cards count": 10,
            "unexpected end of file, expected clause": 96,
            "unexpected end of file, expected clauses count": 11,
            "unexpected end of file, expected header": 40,
            "unsupported header _": 189,
        },
        "82ea758d78041838e91cd0041841ab34a205bcb39f1feb42d535cb0f7894acd9",
    )
