"""Tokenizer, data-file parser and rule-file parser."""

import pytest
from hypothesis import given, strategies as st

from aspps.errors import ParseError
from aspps.model import (
    ArithExpr,
    CAtomList,
    CAtomSchema,
    EAtom,
    PlainAtom,
    PredDecl,
    VarDecl,
    Variable,
    program_text,
)
from aspps.parser import MAX_TERM_DEPTH, parse_data_file, parse_rule_file, tokenize

X, Y, C = Variable("X"), Variable("Y"), Variable("C")


# ---------------------------------------------------------------------------
# Tokenizer.


def test_tokenize_comments_and_layout():
    toks = tokenize("vtx(2). % a vertex\n")
    assert [(t.kind, t.value) for t in toks] == [
        ("ident", "vtx"), ("punct", "("), ("int", 2), ("punct", ")"), ("punct", "."),
    ]
    assert tokenize("") == []
    assert tokenize("  % only a comment\n") == []


def test_tokenize_constant_substitution():
    toks = tokenize("size(k).", {"k": "4"})
    assert [(t.kind, t.value) for t in toks][2] == ("int", 4)
    toks = tokenize("size(k).", {"k": "red"})
    assert [(t.kind, t.value) for t in toks][2] == ("ident", "red")
    toks = tokenize("size(k).", {"k": "-3"})
    assert [(t.kind, t.value) for t in toks][2] == ("int", -3)
    with pytest.raises(ParseError, match="not a valid token"):
        tokenize("size(k).", {"k": "3+4"})


def test_tokenize_positions_and_arrow_synonym():
    toks = tokenize("p(X) ->.\nq(Y) →.")
    arrow = [t for t in toks if t.value == "->"]
    assert len(arrow) == 2
    assert (arrow[0].line, arrow[1].line) == (1, 2)
    assert toks[0].col == 1 and toks[1].col == 2


def test_tokenize_rejects_out_of_range_and_illegal():
    with pytest.raises(ParseError, match="64-bit range"):
        tokenize(f"p({2**63}).")
    tokenize(f"p({2**63 - 1}).")  # max value is fine
    with pytest.raises(ParseError, match="illegal character"):
        tokenize("p($).")


# ---------------------------------------------------------------------------
# Data files.


def test_data_atoms_ranges_and_dedup():
    atoms = parse_data_file("vtx[1..3].\nedge(1,2).\nedge(1,2). flag. w(red,-2).\n")
    assert atoms == {
        ("vtx", (1,)), ("vtx", (2,)), ("vtx", (3,)),
        ("edge", (1, 2)), ("flag", ()), ("w", ("red", -2)),
    }


def test_data_degenerate_range():
    assert parse_data_file("p[5..5].") == {("p", (5,))}


def test_data_constant_substitution():
    assert parse_data_file("size(k).", {"k": "4"}) == {("size", (4,))}
    assert parse_data_file("color[1..k].", {"k": "2"}) == {("color", (1,)), ("color", (2,))}


def test_data_errors():
    with pytest.raises(ParseError, match="variable X not allowed in a data file"):
        parse_data_file("p(X).")
    with pytest.raises(ParseError, match="empty range"):
        parse_data_file("p[3..1].")
    with pytest.raises(ParseError, match="non-negative"):
        parse_data_file("p[-1..2].")
    with pytest.raises(ParseError, match="non-negative"):
        parse_data_file("p[n..3].")
    with pytest.raises(ParseError, match="single line"):
        parse_data_file("p(1,\n2).")
    with pytest.raises(ParseError, match="not terminated"):
        parse_data_file("p(1)")
    with pytest.raises(ParseError, match="empty statement"):
        parse_data_file("p(1). .")
    with pytest.raises(ParseError, match="reserved word"):
        parse_data_file("pred(1).")
    with pytest.raises(ParseError, match="expected"):
        parse_data_file("p(1) q(2).")


def test_data_error_position():
    try:
        parse_data_file("ok(1).\nbad(Z9).\n", file="d.dt")
    except ParseError as exc:
        assert (exc.file, exc.line, exc.col) == ("d.dt", 2, 5)
        assert str(exc) == "d.dt:2:5: variable Z9 not allowed in a data file"
    else:
        pytest.fail("expected ParseError")


# ---------------------------------------------------------------------------
# Rule files: declarations.


def test_pred_and_var_declarations():
    prog = parse_rule_file(
        "pred clr(vtx, color).\npred m(t): r.\npred flag.\nvar vtx X, Y.\n"
    )
    assert prog.pred_decls == [
        PredDecl("clr", ("vtx", "color")),
        PredDecl("m", ("t",), "r"),
        PredDecl("flag", ()),
    ]
    assert prog.var_decls == [VarDecl("vtx", ("X", "Y"))]


def test_declaration_errors():
    with pytest.raises(ParseError, match="declared twice with different signatures"):
        parse_rule_file("pred p(t).\npred p(t, t).")
    with pytest.raises(ParseError, match="declared twice"):
        parse_rule_file("pred p(t).\npred p(t).")
    with pytest.raises(ParseError, match="declared after use"):
        parse_rule_file("var t X.\np(X) ->.\npred p(t).")
    with pytest.raises(ParseError, match="duplicate variable"):
        parse_rule_file("var t X.\nvar u X.")
    with pytest.raises(ParseError, match="declared after use as a constant"):
        parse_rule_file("var t X.\np(X, c) ->.\nvar t c.")
    with pytest.raises(ParseError, match="restriction requires"):
        parse_rule_file("pred p: r.")
    with pytest.raises(ParseError, match="reserved word"):
        parse_rule_file("pred abs(t).")
    with pytest.raises(ParseError, match="reserved word"):
        parse_rule_file("var t mod.")


# ---------------------------------------------------------------------------
# Rule files: clauses and atom forms.


def _clause(text, preamble="pred p(t).\npred q(t).\nvar t X, Y.\nvar t L.\n"):
    prog = parse_rule_file(preamble + text)
    assert len(prog.clauses) == 1
    return prog.clauses[0]


def test_clause_shapes():
    c = _clause("p(X), q(Y) -> p(Y) | q(X).")
    assert len(c.body) == 2 and len(c.head) == 2
    assert _clause("-> p(1).").body == ()
    assert _clause("p(1) ->.").head == ()
    with pytest.raises(ParseError, match="empty body and an empty head"):
        parse_rule_file("->.")


def test_clause_line_recorded():
    prog = parse_rule_file("pred p(t).\nvar t X.\n\np(X) ->.\n")
    assert prog.clauses[0].line == 4


def test_plain_and_predefined_atoms():
    c = _clause("p(X + 1), X <= 2 * Y, edge(X, red) -> X == Y.")
    body = c.body
    assert body[0] == PlainAtom("p", (ArithExpr("+", (X, 1)),))
    assert body[1] == PlainAtom("<=", (X, ArithExpr("*", (2, Y))))
    assert body[2] == PlainAtom("edge", (X, "red"))
    assert c.head[0] == PlainAtom("==", (X, Y))


def test_zero_ary_atoms():
    c = _clause("flag -> p(1).")
    assert c.body[0] == PlainAtom("flag")
    with pytest.raises(ParseError, match="cannot stand alone"):
        _clause("X -> p(1).")


def test_eatom():
    c = _clause("-> p(Y):t(Y).")
    assert c.head[0] == EAtom("p", (Y,), "Y", "t")
    c = _clause("-> r(X, Y):dom(Y).", preamble="pred r(t, u).\nvar t X.\nvar u Y.\n")
    assert c.head[0] == EAtom("r", (X, Y), "Y", "dom")


def test_eatom_errors():
    with pytest.raises(ParseError, match="variable Z not declared"):
        _clause("-> p(Z):t(Z).")
    with pytest.raises(ParseError, match="final argument"):
        _clause("-> p(X):t(Y).")
    with pytest.raises(ParseError, match="only occur as the final argument"):
        _clause("-> r(Y, Y):t(Y).", preamble="pred r(t, t).\nvar t X, Y.\n")


def test_catom_schema():
    c = _clause("-> 1 {p(L) : t(L)} 1.")
    atom = c.head[0]
    assert atom == CAtomSchema(PlainAtom("p", (L := Variable("L"),)), (PlainAtom("t", (L,)),), 1, 1)
    c = _clause("-> {p(L) : t(L) : L <= 2}.")
    atom = c.head[0]
    assert atom.lo is None and atom.hi is None
    assert atom.conds[1] == PlainAtom("<=", (Variable("L"), 2))
    c = _clause("-> 2 {p(X)}.")
    assert c.head[0] == CAtomSchema(PlainAtom("p", (X,)), (), 2, None)


def test_catom_list():
    c = _clause("-> 1 {p(X), q(X)} 2.")
    assert c.head[0] == CAtomList(("p", "q"), (X,), 1, 2)
    with pytest.raises(ParseError, match="share one argument tuple"):
        _clause("-> 1 {p(X), q(Y)} 2.")


def test_catom_bound_errors():
    with pytest.raises(ParseError, match="is not an integer"):
        _clause("-> n {p(X)} 2.")
    with pytest.raises(ParseError, match="is not an integer"):
        _clause("-> 1 {p(X)} n.")
    with pytest.raises(ParseError, match="lower bound 3 exceeds upper bound 2"):
        _clause("-> 3 {p(X), q(X)} 2.")
    # substituted bounds work
    prog = parse_rule_file("pred p(t).\nvar t X.\n-> n {p(X)} m.", {"n": "0", "m": "1"})
    assert prog.clauses[0].head[0].lo == 0
    assert prog.clauses[0].head[0].hi == 1


def test_catom_member_errors():
    with pytest.raises(ParseError, match="must be predicate atoms"):
        _clause("-> 1 {X} 1.")
    with pytest.raises(ParseError, match="conditions must be predicate atoms"):
        _clause("-> 1 {p(X) : Y} 1.")


def test_undeclared_variables():
    with pytest.raises(ParseError, match="variable Z not declared"):
        _clause("p(Z) ->.")
    with pytest.raises(ParseError, match="variable Q not declared"):
        _clause("-> Q.")


def test_terms_and_arithmetic():
    c = _clause("p(X + Y * 2) ->.")
    assert c.body[0].args[0] == ArithExpr("+", (X, ArithExpr("*", (Y, 2))))
    c = _clause("p((X + 1) * 2) ->.")
    assert c.body[0].args[0] == ArithExpr("*", (ArithExpr("+", (X, 1)), 2))
    c = _clause("p(abs(X - Y)) ->.")
    assert c.body[0].args[0] == ArithExpr("abs", (ArithExpr("-", (X, Y)),))
    c = _clause("p(mod(X, 3)) ->.")
    assert c.body[0].args[0] == ArithExpr("mod", (X, 3))
    c = _clause("p(-4) ->.")
    assert c.body[0].args[0] == -4
    c = _clause("p(X - 1 - Y) ->.")
    assert c.body[0].args[0] == ArithExpr("-", (ArithExpr("-", (X, 1)), Y))


def test_term_errors():
    with pytest.raises(ParseError, match="expected integer after '-'"):
        _clause("p(-X) ->.")
    with pytest.raises(ParseError, match="abs takes 1 operand"):
        _clause("p(abs(X, Y)) ->.")
    with pytest.raises(ParseError, match="mod takes 2 operand"):
        _clause("p(mod(X)) ->.")
    with pytest.raises(ParseError, match="cannot appear inside a term"):
        _clause("p(q(X) + 1) ->.")
    with pytest.raises(ParseError, match="reserved word"):
        _clause("p(var) ->.")


@pytest.mark.parametrize(
    "nest",
    [
        lambda k: "(" * k + "X" + ")" * k,
        lambda k: "X" + " + 1" * k,
        lambda k: "abs(" * k + "X" + ")" * k,
        lambda k: "(" * (k // 2) + "X" + " * 2" * (k - k // 2) + ")" * (k // 2),
    ],
    ids=["parentheses", "operator-chain", "calls", "mixed"],
)
def test_term_nesting_limit(nest):
    _clause(f"p({nest(MAX_TERM_DEPTH)}) ->.")
    with pytest.raises(ParseError, match=f"term nested more than {MAX_TERM_DEPTH} levels deep"):
        _clause(f"p({nest(MAX_TERM_DEPTH + 1)}) ->.")


def test_comparison_requires_operator():
    with pytest.raises(ParseError, match="expected comparison operator"):
        _clause("X + 1 ->.")


# ---------------------------------------------------------------------------
# Round trip: rendering a parsed program re-parses to the same value.


ROUND_TRIP_SOURCES = [
    "pred clr(vtx,color).\nvar vtx X, Y.\nvar color C.\n"
    "-> 1{clr(X,C):color(C)}1.\nclr(X,C), clr(Y,C), edge(X,Y) ->.\n",
    "pred p(t): r.\npred q(t).\nvar t X, L.\n"
    "p(X) -> 0{p(L):t(L):L <= 2}3 | q(X).\n"
    "-> q(X):t(X).\np(abs(X-2)) -> X < 3.\n",
    "pred a(t).\npred b(t).\nvar t X.\n-> 1{a(X),b(X)}1.\nflag ->.\n",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_program_text_round_trip(src):
    prog = parse_rule_file(src)
    rendered = program_text(prog)
    again = parse_rule_file(rendered)
    assert (again.pred_decls, again.var_decls, again.clauses) == (
        prog.pred_decls, prog.var_decls, prog.clauses,
    )
    assert program_text(again) == rendered


# ---------------------------------------------------------------------------
# Property: any term AST renders to text that parses back to itself.


def _terms():
    leaves = st.one_of(
        st.integers(min_value=-60, max_value=60),
        st.sampled_from(["c", "red"]),
        st.sampled_from([X, Y]),
    )

    def compound(children):
        binary = st.sampled_from(["+", "-", "*", "/", "mod", "max", "min"])
        return st.one_of(
            st.tuples(binary, children, children).map(
                lambda t: ArithExpr(t[0], (t[1], t[2]))
            ),
            children.map(lambda a: ArithExpr("abs", (a,))),
        )

    return st.recursive(leaves, compound, max_leaves=8)


@given(_terms())
def test_term_render_parse_round_trip(term):
    from aspps.model import term_text

    text = term_text(term)
    prog = parse_rule_file(f"var t X, Y.\np({text}) ->.\n")
    assert prog.clauses[0].body[0].args[0] == term
