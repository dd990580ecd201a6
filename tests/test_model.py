"""The AST value types and their canonical rendering."""

import pytest

from aspps.model import (
    ArithExpr,
    CAtomList,
    CAtomSchema,
    Clause,
    EAtom,
    PlainAtom,
    PredDecl,
    Program,
    VarDecl,
    Variable,
    atom_terms,
    atom_variables,
    term_variables,
)

from rendering import atom_text, clause_text, program_text, term_text

X = Variable("X")
Y = Variable("Y")


def test_arith_expr_validates_operator_and_arity():
    ArithExpr("+", (X, 1))
    ArithExpr("abs", (X,))
    with pytest.raises(ValueError):
        ArithExpr("^", (X, 1))
    with pytest.raises(ValueError):
        ArithExpr("abs", (X, 1))
    with pytest.raises(ValueError):
        ArithExpr("mod", (X,))


def test_term_variables_in_occurrence_order():
    t = ArithExpr("-", (ArithExpr("+", (Y, X)), Y))
    assert list(term_variables(t)) == ["Y", "X", "Y"]
    assert list(term_variables(5)) == []
    assert list(term_variables("red")) == []


def test_term_text_precedence():
    assert term_text(ArithExpr("+", (X, ArithExpr("*", (Y, 2))))) == "X+Y*2"
    assert term_text(ArithExpr("*", (ArithExpr("+", (X, 1)), 2))) == "(X+1)*2"
    assert term_text(ArithExpr("-", (X, ArithExpr("-", (Y, 1))))) == "X-(Y-1)"
    assert term_text(ArithExpr("-", (ArithExpr("-", (X, Y)), 1))) == "X-Y-1"
    assert term_text(ArithExpr("/", (ArithExpr("/", (X, Y)), 2))) == "X/Y/2"
    assert term_text(ArithExpr("abs", (ArithExpr("-", (X, Y)),))) == "abs(X-Y)"
    assert term_text(ArithExpr("mod", (X, 3))) == "mod(X,3)"


def test_term_text_negative_literals():
    assert term_text(-2) == "-2"
    assert term_text(ArithExpr("+", (X, -2))) == "X+(-2)"
    assert term_text(ArithExpr("abs", (-5,))) == "abs(-5)"


def test_atom_text_forms():
    assert atom_text(PlainAtom("p")) == "p"
    assert atom_text(PlainAtom("p", (1, "red"))) == "p(1,red)"
    assert atom_text(PlainAtom("<=", (X, 3))) == "X <= 3"
    assert atom_text(EAtom("p", (X, Y), "Y", "d")) == "p(X,Y):d(Y)"
    schema = CAtomSchema(PlainAtom("p", (X,)), (PlainAtom("d", (X,)),), 1, 1)
    assert atom_text(schema) == "1{p(X):d(X)}1"
    nobounds = CAtomSchema(PlainAtom("p", (X,)), ())
    assert atom_text(nobounds) == "{p(X)}"
    lst = CAtomList(("a", "b"), (X,), None, 1)
    assert atom_text(lst) == "{a(X),b(X)}1"


def test_clause_text_shapes():
    p, q = PlainAtom("p", (X,)), PlainAtom("q", (X,))
    assert clause_text(Clause((p,), (q,))) == "p(X) -> q(X)."
    assert clause_text(Clause((), (q,))) == "-> q(X)."
    assert clause_text(Clause((p,), ())) == "p(X) ->."
    assert clause_text(Clause((p, q), (p, q))) == "p(X), q(X) -> p(X) | q(X)."


def test_program_text_layout():
    prog = Program(
        pred_decls=[PredDecl("clr", ("vtx", "color")), PredDecl("m", ("t",), "r")],
        var_decls=[VarDecl("vtx", ("X", "Y"))],
        clauses=[Clause((), (PlainAtom("clr", (X, 1)),))],
    )
    assert program_text(prog) == (
        "pred clr(vtx,color).\n"
        "pred m(t): r.\n"
        "var vtx X, Y.\n"
        "-> clr(X,1).\n"
    )
    assert program_text(Program()) == ""


def test_atom_variables_in_first_occurrence_order():
    Z = Variable("Z")
    member = PlainAtom("p", (ArithExpr("+", (Y, X)), 1))
    schema = CAtomSchema(member, (PlainAtom("d", (Z,)), PlainAtom("<", (X, Z))))
    assert atom_terms(schema) == (ArithExpr("+", (Y, X)), 1, Z, X, Z)
    assert atom_variables(schema) == ["Y", "X", "Z"]
    assert atom_variables(EAtom("p", (X, Y), "Y", "d")) == ["X", "Y"]
    assert atom_variables(CAtomList(("a", "b"), (Y, "red", Y))) == ["Y"]
    assert atom_variables(PlainAtom("p")) == []
