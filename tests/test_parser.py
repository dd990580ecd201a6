"""Tokenizer, data-file parser and rule-file parser."""

import hashlib
import random
import re

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
)
from aspps import parser
from aspps.parser import MAX_TERM_DEPTH, parse_data_file, parse_rule_file, tokenize

from generators import mutate_text, random_program
from rendering import program_text, term_text
from problems import COLOR_RULES, PIGEON_DATA, PIGEON_RULES, QUEENS_DATA, QUEENS_RULES, TRIANGLE_DATA

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


def test_tokenize_integers_past_the_conversion_limit():
    # int() refuses more than 4 300 digits; leading zeros count there too
    nines, zeros = "9" * 5000, "0" * 5000
    with pytest.raises(ParseError) as exc:
        tokenize(f"p(\n {nines}).")
    err = exc.value
    assert (err.message, err.line, err.col) == (f"integer constant {nines} out of 64-bit range", 2, 2)
    assert tokenize(f"p({zeros}7).")[2].value == 7
    for raw, want in ((nines, nines), (f"-{zeros}1{nines}", f"-1{nines}")):
        with pytest.raises(ParseError) as exc:
            tokenize("p(n).", {"n": raw})
        assert exc.value.message == f"integer constant {want} out of 64-bit range"
    assert tokenize("p(n).", {"n": f"-{zeros}7"})[2].value == -7
    with pytest.raises(ParseError, match="not a valid token"):
        tokenize("p(n).", {"n": f" -{zeros}7 "})


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


def test_data_range_length_limit(monkeypatch):
    monkeypatch.setattr(parser, "MAX_RANGE_LEN", 3)
    assert parse_data_file("p[2..4].") == {("p", (2,)), ("p", (3,)), ("p", (4,))}
    with pytest.raises(ParseError, match=r"1:1: range p\[2\.\.5\] has 4 elements, more than 3$"):
        parse_data_file("p[2..5].")


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
    with pytest.raises(ParseError, match="predicate d declared after use"):
        parse_rule_file("pred p(t).\nvar t X.\n-> p(X):d(X).\npred d(t).")
    with pytest.raises(ParseError, match="predicate c declared after use"):
        parse_rule_file("pred p(t).\nvar t X.\n-> 1 {p(X) : c(X)} 1.\npred c(t).")
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
    # but only when non-negative, reported at the bound, in either form
    preamble = "pred p(t).\npred q(t).\nvar t X.\n"
    for clause, col in [
        ("-> n {p(X)} 2.", 4),
        ("-> 1 {p(X)} n.", 13),
        ("-> n {p(X), q(X)} 2.", 4),
        ("-> 1 {p(X), q(X)} n.", 19),
    ]:
        for n in ("-1", "-2"):
            with pytest.raises(ParseError, match="cardinality bounds must be non-negative") as exc:
                parse_rule_file(preamble + clause, {"n": n})
            assert (exc.value.line, exc.value.col) == (4, col)


def _card_bounds(toks):
    """(form, side, token) of each cardinality bound in a token list."""
    bounds = []
    for i, t in enumerate(toks):
        if t.kind != "punct" or t.value != "{":
            continue
        j, depth, form = i + 1, 0, "schema"
        while toks[j].value != "}":
            depth += (toks[j].value == "(") - (toks[j].value == ")")
            if depth == 0 and toks[j].value == ",":
                form = "list"
            j += 1
        if toks[i - 1].kind == "int":
            bounds.append((form, "lower", toks[i - 1]))
        if j + 1 < len(toks) and toks[j + 1].kind == "int":
            bounds.append((form, "upper", toks[j + 1]))
    return bounds


def test_negative_bounds_of_random_programs():
    # each bound of each cardinality atom in turn becomes a -c constant
    seen = set()
    for seed in range(100):
        rules = random_program(random.Random(seed))[0]
        lines = rules.split("\n")
        for form, side, tok in _card_bounds(tokenize(rules)):
            seen.add((form, side))
            line = lines[tok.line - 1]
            start = tok.col - 1
            lines[tok.line - 1] = line[:start] + "bnd" + line[start + len(str(tok.value)):]
            text = "\n".join(lines)
            lines[tok.line - 1] = line
            for value in ("-1", "-2"):
                with pytest.raises(ParseError) as exc:
                    parse_rule_file(text, {"bnd": value}, "rules.rl")
                assert str(exc.value) == (
                    f"rules.rl:{tok.line}:{tok.col}: cardinality bounds must be non-negative"
                )
    assert seen == {(f, s) for f in ("schema", "list") for s in ("lower", "upper")}


def test_catom_member_errors():
    with pytest.raises(ParseError, match="must be predicate atoms"):
        _clause("-> 1 {X} 1.")
    with pytest.raises(ParseError, match="conditions must be predicate atoms"):
        _clause("-> 1 {p(X) : Y} 1.")


# A clause is checked against the declarations before it, which are all
# that apply: a predicate may not be declared after its use.


@pytest.mark.parametrize(
    "text, error",
    [
        ("pred p(t,t).\nvar t X.\np(X) ->.", "3:1: predicate p expects 2 argument(s), got 1"),
        ("pred p(t).\nvar t X.\np(X), p ->.", "3:7: predicate p expects 1 argument(s), got 0"),
        ("pred p(t,t).\nvar t X.\n-> p(X):t(X).", "3:4: predicate p expects 2 argument(s), got 1"),
        ("pred p(t).\nvar t X.\n-> 1 {p(X,X)} 1.", "3:7: predicate p expects 1 argument(s), got 2"),
        (
            "pred p(t).\npred q(t,t).\nvar t X.\n-> {p(X), q(X)} 1.",
            "4:11: predicate q expects 2 argument(s), got 1",
        ),
    ],
    ids=["plain", "bare", "e-atom", "schema", "list"],
)
def test_arity_mismatch(text, error):
    with pytest.raises(ParseError) as exc:
        parse_rule_file(text, file="rules.rl")
    assert str(exc.value) == f"rules.rl:{error}"


@pytest.mark.parametrize(
    "clause, error",
    [
        ("-> r(X):t(X).", "4:4: e-atom predicate r"),
        ("-> 1 {r(X) : t(X)} 1.", "4:7: cardinality member r"),
        ("-> 1 {p(X), r(X)} 1.", "4:13: cardinality member r"),
    ],
    ids=["e-atom", "schema", "list"],
)
def test_member_must_be_declared(clause, error):
    with pytest.raises(ParseError) as exc:
        parse_rule_file(f"pred p(t).\nvar t X.\n\n{clause}", file="rules.rl")
    assert str(exc.value) == f"rules.rl:{error} must be a declared program predicate"


@pytest.mark.parametrize(
    "clause, error",
    [
        ("-> 1 {p(L) : q(L)} 1.", "5:14: condition q"),
        ("-> 1 {p(L) : t(L) : flag} 1.", "5:21: condition flag"),
    ],
    ids=["atom", "bare"],
)
def test_condition_must_be_data_or_predefined(clause, error):
    with pytest.raises(ParseError) as exc:
        parse_rule_file(f"pred p(t).\npred q(t).\npred flag.\nvar t L.\n{clause}", file="rules.rl")
    assert str(exc.value) == f"rules.rl:{error} must use a data or predefined predicate"


def test_eatom_domain_must_be_data():
    with pytest.raises(ParseError) as exc:
        parse_rule_file("pred p(t).\npred d(t).\nvar t X.\n-> p(X):d(X).", file="rules.rl")
    assert str(exc.value) == "rules.rl:4:9: e-atom domain d must be a data predicate"


@pytest.mark.parametrize(
    "clause, col",
    [
        ("p(Y) -> p(Y):t(Y).", 16),  # an earlier atom
        ("-> p(Y):t(Y) | 1 {p(X) : X < Y}.", 11),  # a later one
        ("-> p(Y):t(Y) | p(Y):t(Y).", 11),  # the same e-atom twice
    ],
    ids=["earlier", "later", "twice"],
)
def test_eatom_binder_reuse(clause, col):
    with pytest.raises(ParseError) as exc:
        parse_rule_file(f"pred p(t).\nvar t X, Y.\n{clause}", file="rules.rl")
    assert str(exc.value) == f"rules.rl:3:{col}: e-atom binder Y may not occur outside its atom"


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
    # a comparison has exactly two operands: no chains
    with pytest.raises(ParseError, match="expected '->'"):
        _clause("X == 1 == 2 ->.")


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
    text = term_text(term)
    prog = parse_rule_file(f"var t X, Y.\np({text}) ->.\n")
    assert prog.clauses[0].body[0].args[0] == term


# ---------------------------------------------------------------------------
# Pinned outcomes: a digest of what the parsers return or raise on seeded
# mutations of the canonical encodings and of random programs. Any change
# to a result, a diagnostic or its position changes the digest.

PIN_CONSTS = (
    {"k": "3", "n": "4", "p": "3", "h": "2"},
    {"k": "-1", "n": "x"},
    {"k": "1 2"},
    {"n": "9" * 20},
    {},
)


def _pin_outcome(fn, text, consts):
    try:
        result = fn(text, consts, "pin")
    except ParseError as exc:
        return f"{exc.message} @{exc.file}:{exc.line}:{exc.col}", False
    if isinstance(result, set):
        return repr(sorted(map(repr, result))), True
    return repr(result), True


def test_parser_outcomes_pinned():
    gen = [random_program(random.Random(seed))[:2] for seed in range(40)]
    rule_seeds = [COLOR_RULES, QUEENS_RULES, PIGEON_RULES] + [r for r, _ in gen]
    data_seeds = [TRIANGLE_DATA, QUEENS_DATA, PIGEON_DATA, "edge(a,b). w(1,-2).\nc.\n"] + [d for _, d in gen]
    rng = random.Random(20011)
    digest = hashlib.sha256()
    accepted = 0
    for case in range(4000):
        kind = case % 3
        consts = rng.choice(PIN_CONSTS)
        if kind == 0:
            fn, text = parse_rule_file, mutate_text(rng, rng.choice(rule_seeds))
        elif kind == 1:
            text = mutate_text(rng, rng.choice(data_seeds))
            # Cap integer literals at three digits, so ranges stay small to expand.
            fn, text = parse_data_file, re.sub(r"\d{4,}", lambda m: m.group()[:3], text)
        else:
            fn, text = tokenize, mutate_text(rng, rng.choice(rule_seeds + data_seeds))
        outcome, ok = _pin_outcome(fn, text, consts)
        accepted += ok
        digest.update(f"{case}\0{outcome}\0".encode())
    assert (accepted, digest.hexdigest()) == (
        1373, "6e6cd10d7ad301d5375f4f7982e7c5b7d0839c8d5fab1cbd8bdc431a5bd205d1"
    )
