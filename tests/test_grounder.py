"""Arithmetic evaluation, program checking and grounding."""

import random

import pytest
from hypothesis import given, strategies as st

from aspps.database import build_database
from aspps.errors import GroundError
from aspps.grounder import (
    Grounder,
    check_program,
    eval_arith,
    eval_predefined,
    ground_theory,
    output_name,
)
from aspps.model import ArithExpr, PlainAtom, Variable
from aspps.parser import parse_data_file, parse_rule_file
from aspps.tdc import write_tdc
from aspps.terms import arith_range

from generators import random_program
from oracles import reference_ground

X, Y = Variable("X"), Variable("Y")


def _ground(rules, data, consts=None):
    consts = consts or {}
    atoms = parse_data_file(data, consts)
    prog = parse_rule_file(rules, consts)
    db = build_database(atoms)
    diags = check_program(prog, db)
    assert not diags, diags
    return ground_theory(prog, db)


def _clause_texts(theory):
    from aspps.tdc import print_theory

    return print_theory(theory).splitlines()


# ---------------------------------------------------------------------------
# Arithmetic.


def test_eval_arith_basics():
    assert eval_arith(ArithExpr("+", (2, 3)), {}) == 5
    assert eval_arith(ArithExpr("-", (2, 5)), {}) == -3
    assert eval_arith(ArithExpr("*", (-3, 4)), {}) == -12
    assert eval_arith(ArithExpr("abs", (-7,)), {}) == 7
    assert eval_arith(ArithExpr("max", (2, 5)), {}) == 5
    assert eval_arith(ArithExpr("min", (2, 5)), {}) == 2
    assert eval_arith(X, {"X": 9}) == 9


def test_eval_arith_division_truncates_toward_zero():
    assert eval_arith(ArithExpr("/", (7, 2)), {}) == 3
    assert eval_arith(ArithExpr("/", (-7, 2)), {}) == -3
    assert eval_arith(ArithExpr("/", (7, -2)), {}) == -3
    assert eval_arith(ArithExpr("/", (-7, -2)), {}) == 3


def test_eval_arith_mod_follows_division():
    assert eval_arith(ArithExpr("mod", (7, 2)), {}) == 1
    assert eval_arith(ArithExpr("mod", (-7, 2)), {}) == -1
    assert eval_arith(ArithExpr("mod", (7, -2)), {}) == 1
    assert eval_arith(ArithExpr("mod", (-7, -2)), {}) == -1


def test_eval_arith_errors():
    with pytest.raises(GroundError, match="division by zero"):
        eval_arith(ArithExpr("/", (1, 0)), {})
    with pytest.raises(GroundError, match="mod by zero"):
        eval_arith(ArithExpr("mod", (1, 0)), {})
    with pytest.raises(GroundError, match="symbolic"):
        eval_arith(ArithExpr("+", ("red", 1)), {})
    with pytest.raises(GroundError, match="symbolic"):
        eval_arith(ArithExpr("+", (X, 1)), {"X": "red"})
    with pytest.raises(GroundError, match="not bound"):
        eval_arith(X, {})
    with pytest.raises(GroundError, match="overflow"):
        eval_arith(ArithExpr("*", (2**62, 4)), {})
    with pytest.raises(GroundError, match="overflow"):
        eval_arith(ArithExpr("abs", (-(2**63),)), {})


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(lambda b: b != 0))
def test_division_mod_identity(a, b):
    q = eval_arith(ArithExpr("/", (a, b)), {})
    r = eval_arith(ArithExpr("mod", (a, b)), {})
    assert q * b + r == a
    assert abs(r) < abs(b)
    # truncation: quotient never rounds away from zero
    assert abs(q * b) <= abs(a)


def test_eval_predefined():
    assert eval_predefined(PlainAtom("==", (2, 2)), {})
    assert not eval_predefined(PlainAtom("==", (2, 3)), {})
    assert eval_predefined(PlainAtom("==", ("red", "red")), {})
    assert not eval_predefined(PlainAtom("==", ("red", "blue")), {})
    assert not eval_predefined(PlainAtom("==", (1, "red")), {})
    assert eval_predefined(PlainAtom("<=", (2, 2)), {})
    assert eval_predefined(PlainAtom("<", (ArithExpr("+", (X, 1)), 3)), {"X": 1})
    assert not eval_predefined(PlainAtom(">", (2, 2)), {})
    assert eval_predefined(PlainAtom(">=", (3, 2)), {})
    with pytest.raises(GroundError, match="order comparison"):
        eval_predefined(PlainAtom("<", ("a", "b")), {})


# ---------------------------------------------------------------------------
# Program checks.


def _diags(rules, data):
    prog = parse_rule_file(rules)
    db = build_database(parse_data_file(data))
    return check_program(prog, db)


def test_check_accepts_clean_program():
    assert _diags("pred p(t).\nvar t X.\np(X) ->.", "t[1..3].") == []


def test_check_accepts_empty_type_extension():
    # a type with no data grounds every clause over it to nothing
    assert _diags("pred p(t).\nvar t X.\np(X) ->.", "u(1).") == []


def test_check_program_pred_vs_data_conflict():
    diags = _diags("pred p(t).\nvar t X.\np(X) ->.", "t[1..2]. p(1).")
    assert any("also defined by data" in d for d in diags)


def test_check_type_pred_must_be_data():
    diags = _diags("pred p(p2).\npred p2(t).\nvar p2 X.\np(X) ->.", "t[1..2].")
    assert any("must be a data predicate" in d for d in diags)


def test_check_type_pred_needs_unary_extension():
    diags = _diags("pred p(e).\nvar e X.\np(X) ->.", "e(1,2).")
    assert any("no unary extension" in d for d in diags)


def test_check_restriction():
    assert _diags("pred p(t,t): r.\nvar t X.\np(X,X) ->.", "t[1..2]. r(1,1).") == []
    diags = _diags("pred p(t,t): r.\nvar t X.\np(X,X) ->.", "t[1..2]. r(1).")
    assert any("not defined by the data" in d for d in diags)
    diags = _diags("pred p(t): q.\npred q(t).\nvar t X.\np(X) ->.", "t[1..2].")
    assert any("must be a data predicate" in d for d in diags)


def test_check_arity_mismatch():
    diags = _diags("pred p(t,t).\nvar t X.\np(X) ->.", "t[1..2].")
    assert any("expects 2 argument(s), got 1" in d for d in diags)
    diags = _diags("pred p(t).\nvar t X.\n-> 1 {p(X,X)} 1.", "t[1..2].")
    assert any("expects 1 argument(s), got 2" in d for d in diags)


def test_check_condition_must_be_data_or_predefined():
    diags = _diags(
        "pred p(t).\npred q(t).\nvar t X, L.\n-> 1 {p(L) : q(L)} 1.", "t[1..2]."
    )
    assert any("must use a data or predefined predicate" in d for d in diags)


def test_check_eatom_binder_reuse():
    diags = _diags(
        "pred p(t).\nvar t X, Y.\np(Y) -> p(Y):t(Y).", "t[1..2]."
    )
    assert any("may not occur outside its atom" in d for d in diags)


def test_check_eatom_domain_must_be_data():
    diags = _diags("pred p(t).\npred d(t).\nvar t X.\n-> p(X):d(X).", "t[1..2].")
    assert any("must be a data predicate" in d for d in diags)


def test_check_names_clause():
    diags = _diags("pred p(t,t).\nvar t X.\np(X) ->.", "t[1..2].")
    assert "clause 1" in diags[0]


# ---------------------------------------------------------------------------
# Grounding semantics.


def test_ground_plain_clause_over_types():
    t = _ground(
        "pred p(t).\npred q(t).\nvar t X.\np(X) -> q(X).", "t[1..2]."
    )
    assert [a.text for a in t.atoms] == ["p(1)", "q(1)", "p(2)", "q(2)"]
    assert _clause_texts(t) == ["-p(1) | q(1)", "-p(2) | q(2)"]


def test_ground_data_atom_simplifies():
    t = _ground(
        "pred p(t).\nvar t X, Y.\np(X), edge(X,Y) -> p(Y).",
        "t[1..2]. edge(1,2).",
    )
    # only the edge(1,2) instance survives; edge is evaluated away
    assert _clause_texts(t) == ["-p(1) | p(2)"]


def test_ground_predefined_simplifies():
    t = _ground("pred p(t).\nvar t X, Y.\np(X), X < Y -> p(Y).", "t[1..2].")
    assert _clause_texts(t) == ["-p(1) | p(2)"]


def test_ground_out_of_type_atom_is_false():
    # p(3) falls outside t = {1,2}: as a body atom the instance is
    # satisfied and dropped, as a head atom the literal disappears
    t = _ground("pred p(t).\nvar t X.\np(3) -> p(X).", "t[1..2].")
    assert _clause_texts(t) == []
    t = _ground("pred p(t).\nvar t X.\np(X) -> p(3).", "t[1..2].")
    assert _clause_texts(t) == ["-p(1)", "-p(2)"]


def test_ground_restriction_filters_instances():
    t = _ground(
        "pred p(t,t): r.\nvar t X, Y.\nr(X,Y) -> p(X,Y).",
        "t[1..2]. r(1,2). r(2,1).",
    )
    assert _clause_texts(t) == ["p(1,2)", "p(2,1)"]
    # demanding an out-of-restriction instance makes the head false,
    # leaving the empty clause
    t = _ground("pred p(t,t): r.\nvar t X.\n-> p(X,X).", "t[1..2]. r(1,2).")
    assert _clause_texts(t) == ["FALSE", "FALSE"]


def test_ground_eatom_becomes_unbounded_card():
    t = _ground("pred p(t).\nvar t Y.\n-> p(Y):t(Y).", "t[1..3].")
    assert _clause_texts(t) == ["1 {p(1), p(2), p(3)}"]


def test_ground_eatom_empty_domain_is_false():
    t = _ground("pred p(t).\nvar t X, Y.\np(X) -> p(Y):u(Y).", "t[1..2].")
    assert _clause_texts(t) == ["-p(1)", "-p(2)"]


def test_ground_eatom_singleton_stays_card():
    t = _ground("pred p(t).\nvar t Y.\n-> p(Y):t(Y).", "t[1..1].")
    assert _clause_texts(t) == ["1 {p(1)}"]


def test_member_only_variable_is_global():
    # X occurs only in the member atom, so the c-atom splits per X
    t = _ground("pred p(t).\nvar t X.\n-> 1 {p(X)} 1.", "t[1..3].")
    assert len(t.cards) == 3
    assert _clause_texts(t) == ["1 {p(1)} 1", "1 {p(2)} 1", "1 {p(3)} 1"]


def test_condition_variable_is_local():
    t = _ground("pred p(t).\nvar t L.\n-> 1 {p(L) : t(L)} 1.", "t[1..3].")
    assert len(t.cards) == 1
    assert _clause_texts(t) == ["1 {p(1), p(2), p(3)} 1"]


def test_condition_variable_shared_with_body_is_global():
    t = _ground(
        "pred p(t).\npred q(t).\nvar t L.\nq(L) -> 1 {p(L) : t(L)} 1.",
        "t[1..2].",
    )
    assert _clause_texts(t) == ["-q(1) | 1 {p(1)} 1", "-q(2) | 1 {p(2)} 1"]


def test_schema_conditions_filter_members():
    t = _ground(
        "pred p(t).\nvar t L.\n-> 2 {p(L) : t(L) : L <= 2}.",
        "t[1..3].",
    )
    assert _clause_texts(t) == ["2 {p(1), p(2)}"]


def test_catom_list_grounding():
    t = _ground(
        "pred a(t).\npred b(t).\nvar t X.\n-> 1 {a(X), b(X)} 1.", "t[1..2]."
    )
    assert _clause_texts(t) == ["1 {a(1), b(1)} 1", "1 {a(2), b(2)} 1"]


def test_card_folding_rules():
    # fewer members than the lower bound: constant false
    t = _ground("pred p(t).\nvar t X.\np(X) -> 2 {p(3)}.", "t[1..3]. u(1).")
    # member p(3) resolves, bound 2 > 1 member -> false head literal drops
    assert _clause_texts(t) == ["-p(1)", "-p(2)", "-p(3)"]
    # lo=0 and no upper bound: constant true
    t = _ground("pred p(t).\nvar t X.\np(X) -> 0 {p(X)}.", "t[1..2].")
    assert _clause_texts(t) == []
    # upper bound clamps to the member count
    t = _ground("pred p(t).\nvar t L.\n-> 1 {p(L) : t(L)} 5.", "t[1..2].")
    assert t.cards[0].lo == 1 and t.cards[0].hi == 2
    # clamped all the way to [0, n]: constant true
    t = _ground("pred p(t).\nvar t L.\np(1) -> {p(L) : t(L)} 5.", "t[1..2].")
    assert _clause_texts(t) == []


def test_identical_cards_share_one_id():
    t = _ground(
        "pred p(t).\npred flag.\nvar t L.\n"
        "-> 1 {p(L) : t(L)} 1.\nflag -> 1 {p(L) : t(L)} 1.",
        "t[1..2].",
    )
    assert len(t.cards) == 1
    assert _clause_texts(t) == ["1 {p(1), p(2)} 1", "-flag | 1 {p(1), p(2)} 1"]


def test_duplicate_members_collapse():
    t = _ground("pred p(t).\nvar t X.\n-> 2 {p(X), p(X)} 2.", "t[1..1].")
    # both list entries name the same instance; 2 required > 1 member -> false
    assert _clause_texts(t) == ["FALSE"]


def test_tautology_dropped_and_duplicates_merged():
    t = _ground("pred p(t).\nvar t X.\np(X) -> p(X).", "t[1..2].")
    assert _clause_texts(t) == []
    t = _ground("pred p(t).\nvar t X.\n-> p(X) | p(X).", "t[1..2].")
    assert _clause_texts(t) == ["p(1)", "p(2)"]


def test_duplicate_ground_clauses_retained():
    t = _ground("pred p(t).\nvar t X, Y.\n-> p(X).", "t[1..2].")
    # Y does not occur in the clause and is ignored: one instance per X
    assert _clause_texts(t) == ["p(1)", "p(2)"]
    t = _ground("pred p(t).\nvar t X.\np(1) ->.\np(1) ->.", "t[1..2].")
    assert _clause_texts(t) == ["-p(1)", "-p(1)"]


def test_empty_clause_emitted():
    # a true body atom is removed; with nothing left the instance is the
    # empty clause, which is emitted rather than swallowed
    t = _ground("pred p(t).\nvar t X.\n1 <= 2 ->.\n-> p(X).", "t[1..2].")
    assert _clause_texts(t) == ["FALSE", "p(1)", "p(2)"]


def test_ground_arith_error_propagates():
    prog = parse_rule_file("pred p(t).\nvar t X.\np(mod(X, X - 1)) ->.")
    db = build_database(parse_data_file("t[1..2]."))
    assert check_program(prog, db) == []
    with pytest.raises(GroundError, match="mod by zero"):
        ground_theory(prog, db)


def test_ground_symbol_comparison_error():
    prog = parse_rule_file("pred p(t).\nvar t X.\np(X), X < 3 ->.")
    db = build_database(parse_data_file("t(red). t(1)."))
    with pytest.raises(GroundError, match="order comparison"):
        ground_theory(prog, db)


def test_symbol_equality_grounds():
    t = _ground("pred p(t).\nvar t X.\np(X), X == red ->.", "t(red). t(blu).")
    assert _clause_texts(t) == ["-p(red)"]


def test_grounding_is_deterministic():
    rules = "pred p(t).\npred q(t).\nvar t X, L.\n-> 1 {p(L) : t(L)} 1 | q(X).\nq(X), p(X) ->."
    data = "t[1..3]."
    a = write_tdc(_ground(rules, data))
    b = write_tdc(_ground(rules, data))
    assert a == b


def test_atom_ids_dense_and_cards_after():
    t = _ground("pred p(t).\nvar t L.\n-> 1 {p(L) : t(L)} 1.", "t[1..3].")
    assert [a.id for a in t.atoms] == [1, 2, 3]
    assert [c.id for c in t.cards] == [4]
    assert t.card_by_id(4).members == (1, 2, 3)


def test_empty_program_grounds_to_empty_theory():
    t = _ground("pred p(t).", "t[1..2].")
    assert t.n_atoms == 0 and not t.cards and not t.clauses


# ---------------------------------------------------------------------------
# Instances dropped as satisfied keep their side effects: the atoms and
# cards they mention are interned, and their evaluation errors surface.


def test_dropped_instances_intern_their_atoms():
    t = _ground("pred p(t).\nvar t X.\np(X), X > 5 ->.", "t[1..2].")
    assert [a.text for a in t.atoms] == ["p(1)", "p(2)"]
    assert not t.clauses


def test_dropped_instances_intern_their_cards():
    t = _ground("pred p(t).\nvar t X, L.\n-> 1 {p(L) : t(L)} 1 | X > 0.", "t[1..2].")
    assert write_tdc(t).endswith("cards 1\n3 1 1 2 1 2\nclauses 0\n")


def test_dropped_instances_still_raise():
    prog = parse_rule_file("pred p(t).\nvar t X, Y.\np(X), X < 0, p(mod(Y, Y - 1)) ->.")
    db = build_database(parse_data_file("t[1..2]."))
    assert check_program(prog, db) == []
    with pytest.raises(GroundError, match="mod by zero"):
        ground_theory(prog, db)


# ---------------------------------------------------------------------------
# Differential: the grounder against full substitution (reference_ground).

REFERENCE_CASES = [
    # pruning atoms next to atoms that raise for some skipped binding
    ("pred p(t).\nvar t X, Y.\np(X), X < 0, p(mod(Y, Y - 1)) ->.", "t[1..2]."),
    ("pred p(t).\nvar t X, Y.\n-> p(X).\np(X), X > 5, Y / (X - 1) > 0 ->.", "t[1..3]."),
    ("pred p(t).\nvar t X.\n-> p(X).\np(X), X > 1, X * 4611686018427387904 > 0 ->.", "t[1..3]."),
    ("pred p(t).\nvar t X.\n-> p(X).\np(X), X + 1 > 2 ->.", "t(1). t(a)."),
    ("pred p(t).\nvar t X.\n-> p(X).\np(X), X < 3 ->.", "t(red). t(1)."),
    ("pred p(t).\nvar t X, Y.\n-> p(X).\nX > 9 -> p(Y) | 0 < abs(red).", "t[1..2]."),
    ("pred p(t).\nvar t X, Y.\n-> p(X).\np(X), X > 9, Y / (mod(Y, 3) - 2) > 0 ->.", "t[1..5]."),
    # dropped instances intern atoms and cards
    ("pred p(t).\nvar t X.\np(X), X > 5 ->.", "t[1..2]."),
    ("pred p(t).\nvar t X, L.\n-> 1 {p(L) : t(L)} 1 | X > 0.", "t[1..2]."),
    ("pred p(t, t).\nvar t X, Y.\n-> p(X, Y):t(Y) | X > 1.", "t[1..3]."),
    ("pred p(t).\nvar t X, Y.\np(Y), X < 2, Y > X -> p(X).", "t[1..3]."),
    # index-driven candidates, saturated and not
    (
        "pred c(v, k).\nvar v X, Y.\nvar k C.\n"
        "-> 1 {c(X, C) : k(C)} 1.\nc(X, C), c(Y, C), e(X, Y) ->.",
        "v[1..4]. k[1..2]. e(1,2). e(2,3). e(3,1). e(3,4). e(4,9).",
    ),
    (
        "pred c(v, k).\nvar v X, Y.\nvar k C.\nc(X, C), c(Y, C), e(X, Y) ->.",
        "v[1..3]. k[1..2]. e(1,2). e(2,3). e(3,1).",
    ),
    ("pred p(t).\nvar t X.\n-> p(X).\np(X), e(X, X) ->.", "t[1..3]. e(1,1). e(2,3). e(3,3)."),
    (
        "pred p(t).\nvar t X, Y.\n-> p(X).\np(X), p(Y), e(Y + 1, Y), e(X, Y) ->.",
        "t[1..3]. e(2,1). e(4,3). e(1,1). e(3,3). e(2,3).",
    ),
    ("pred p(t).\nvar t X, Y.\n-> p(X).\np(X), p(Y), e(Y, X) ->.", "t[1..3]. e(1,2). e(3,2). e(2,1)."),
    (
        "pred p(t).\nvar t X, Y, Z.\n-> p(X).\np(X), p(Z), f(X, Z, Y), f(Y, X, Z) ->.",
        "t[1..3]. f(1,2,3). f(3,1,2). f(2,3,1). f(1,3,2). f(2,1,3). f(1,1,1).",
    ),
    # restriction and constant atoms before the loops
    (
        "pred p(t, t): r.\nvar t X, Y.\n-> p(X, Y).\np(X, Y), X < Y ->.",
        "t[1..3]. r(1,2). r(2,1). r(3,3). r(3,7).",
    ),
    ("pred p(t).\nvar t X.\n-> p(X).\nflag, p(X) ->.\n1 > 2 -> p(X).", "t[1..2]. flag."),
]


def _small_terms():
    leaves = st.one_of(st.integers(min_value=-3, max_value=3), st.sampled_from([X, Y]))

    def compound(children):
        binary = st.sampled_from(["+", "-", "*", "/", "mod", "max", "min"])
        return st.one_of(
            st.tuples(binary, children, children).map(lambda t: ArithExpr(t[0], (t[1], t[2]))),
            children.map(lambda a: ArithExpr("abs", (a,))),
        )

    return st.recursive(leaves, compound, max_leaves=6)


@given(
    _small_terms(),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=0, max_value=4),
)
def test_arith_range_bounds_every_evaluation(term, xlo, xspan, ylo, yspan):
    # the interval check behind pruning: a range means no binding in the
    # domains raises and every value lies within it
    xs, ys = range(xlo, xlo + xspan + 1), range(ylo, ylo + yspan + 1)
    bounds = arith_range(term, {"X": (xs[0], xs[-1]), "Y": (ys[0], ys[-1])})
    if bounds is None:
        return
    for x in xs:
        for y in ys:
            assert bounds[0] <= eval_arith(term, {"X": x, "Y": y}) <= bounds[1]


def _tdc_or_error(ground, prog, db):
    try:
        return write_tdc(ground(prog, db))
    except GroundError as exc:
        return f"GroundError: {exc}"


def _assert_matches_reference(rules, data):
    prog = parse_rule_file(rules)
    db = build_database(parse_data_file(data))
    assert check_program(prog, db) == []
    assert _tdc_or_error(ground_theory, prog, db) == _tdc_or_error(reference_ground, prog, db)


@pytest.mark.parametrize("rules, data", REFERENCE_CASES)
def test_ground_matches_reference_on_hand_cases(rules, data):
    _assert_matches_reference(rules, data)


def test_ground_matches_reference_on_random_programs():
    for seed in range(1200):
        rules, data, _ = random_program(random.Random(seed))
        _assert_matches_reference(rules, data)


# ---------------------------------------------------------------------------
# Direct Grounder API.


def test_resolve_program_atom_interns_ids():
    prog = parse_rule_file("pred p(t).\nvar t X.\n-> p(X).")
    db = build_database(parse_data_file("t[1..2]."))
    g = Grounder(prog, db)
    assert g.resolve_program_atom("p", (1,)) == 1
    assert g.resolve_program_atom("p", (2,)) == 2
    assert g.resolve_program_atom("p", (1,)) == 1  # stable
    assert g.resolve_program_atom("p", (9,)) is None


def test_output_name_formats():
    assert output_name({}, "color.rl", ["graph.dt"]) == "color-graph.tdc"
    assert (
        output_name({"k": "3"}, "color.rl", ["graph.dt"]) == "k=3-color-graph.tdc"
    )
    assert (
        output_name({"n": "6", "m": "2"}, "a/queens.rl", ["b/board.dt", "extra.dt"])
        == "n=6-m=2-queens-board-extra.tdc"
    )
