"""The AST value types, the package's other records, and the AST's
canonical rendering."""

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

from aspps.parser import Token
from aspps.solver import SolveResult, SolveStats
from aspps.theory import CardConstruct, GroundAtom, GroundTheory

from rendering import atom_text, clause_text, program_text, term_text

X = Variable("X")
Y = Variable("Y")


def test_arith_expr_validates_operator_and_arity():
    ArithExpr("+", (X, 1))
    ArithExpr(op="abs", operands=(X,))
    with pytest.raises(ValueError, match=r"^unknown arithmetic operator '\^'$"):
        ArithExpr("^", (X, 1))
    with pytest.raises(ValueError, match=r"^operator 'abs' takes 1 operand\(s\)$"):
        ArithExpr("abs", (X, 1))
    with pytest.raises(ValueError, match=r"^operator 'mod' takes 2 operand\(s\)$"):
        ArithExpr(operands=(X,), op="mod")


P = PlainAtom("p", (X, ArithExpr("+", (X, 1))))
GROUND = GroundTheory((GroundAtom(1, "p", (1, "a"), "p(1,a)"),), (CardConstruct(2, 0, -1, (1,)),), ((1,), ()))

# The repr of each record class: test_parser_outcomes_pinned hashes the
# reprs of what the parsers return.
RECORD_REPRS = [
    (X, "Variable(name='X')"),
    (P, "PlainAtom(pred='p', args=(Variable(name='X'),"
        " ArithExpr(op='+', operands=(Variable(name='X'), 1))))"),
    (PlainAtom("q"), "PlainAtom(pred='q', args=())"),
    (EAtom("p", (X, Y), "Y", "d"),
     "EAtom(pred='p', args=(Variable(name='X'), Variable(name='Y')), bound_var='Y', domain_pred='d')"),
    (CAtomSchema(PlainAtom("p"), (PlainAtom("d"),), 1),
     "CAtomSchema(member=PlainAtom(pred='p', args=()), conds=(PlainAtom(pred='d', args=()),), lo=1, hi=None)"),
    (CAtomList(("a", "b"), (X,), hi=2),
     "CAtomList(preds=('a', 'b'), args=(Variable(name='X'),), lo=None, hi=2)"),
    (Clause((), (PlainAtom("q"),), 7), "Clause(body=(), head=(PlainAtom(pred='q', args=()),), line=7)"),
    (PredDecl("p", ("d",)), "PredDecl(name='p', arg_types=('d',), restriction=None)"),
    (VarDecl("d", ("X", "Y")), "VarDecl(type_pred='d', var_names=('X', 'Y'))"),
    (Program([PredDecl("q", ())], [], [Clause((), (PlainAtom("q"),), 2)]),
     "Program(pred_decls=[PredDecl(name='q', arg_types=(), restriction=None)], var_decls=[],"
     " clauses=[Clause(body=(), head=(PlainAtom(pred='q', args=()),), line=2)])"),
    (Token("int", -3, 4, 5), "Token(kind='int', value=-3, line=4, col=5)"),
    (GROUND, "GroundTheory(atoms=(GroundAtom(id=1, pred='p', args=(1, 'a'), text='p(1,a)'),),"
             " cards=(CardConstruct(id=2, lo=0, hi=-1, members=(1,)),), clauses=((1,), ()))"),
    (SolveResult(True, [{1: True}]),
     "SolveResult(sat=True, models=[{1: True}], stats=SolveStats(decisions=0, propagations=0, conflicts=0))"),
]


@pytest.mark.parametrize("record,text", RECORD_REPRS, ids=[type(r).__name__ for r, _ in RECORD_REPRS])
def test_record_repr_unchanged(record, text):
    assert repr(record) == text


def test_frozen_records_refuse_assignment_and_hash_as_their_fields():
    for record in [r for r, _ in RECORD_REPRS] + [SolveStats(5, 33, 0)]:
        with pytest.raises(AttributeError):
            record.line = 1  # a field of some records, an attribute of none
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        if isinstance(record, (Program, SolveResult)):  # they hold lists
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(tuple(record))
    pred, args = P  # records are tuples of their fields
    assert (pred, args) == P and GROUND.n_atoms == 1 and GROUND.card_by_id(2).hi == -1
    assert Clause((P,), (), 3) != Clause((P,), (), 9)  # line is a field like any other


def test_solve_stats_compare_by_counters():
    assert SolveStats(5, 33, 0) == SolveStats(decisions=5, propagations=33, conflicts=0)
    assert SolveStats(5, 33, 0) != SolveStats(5, 33, 1)


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
