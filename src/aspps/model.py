"""Abstract syntax for typed clausal theories.

Terms are constants, variables, or arithmetic expressions; constants are
plain Python values (int for numerals, str for symbolic names, which
always start with a letter so the two never collide when printed).
Atoms come in four shapes: plain predicate applications, e-atoms
``p(t,Y):d(Y)`` binding their final argument existentially over a data
predicate, and cardinality atoms in schema form ``m{p(t):c1:...:ck}n``
or list form ``m{p1(t),...,pk(t)}n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Union

Const = Union[int, str]

# Arity of each arithmetic operator. Division truncates toward zero and
# mod is the matching remainder; both are evaluated in terms.compile_term.
ARITH_OPS = {"+": 2, "-": 2, "*": 2, "/": 2, "abs": 1, "mod": 2, "max": 2, "min": 2}

COMPARISONS = ("==", "<=", ">=", "<", ">")

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class ArithExpr:
    op: str
    operands: tuple["Term", ...]

    def __post_init__(self):
        if self.op not in ARITH_OPS:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")
        if len(self.operands) != ARITH_OPS[self.op]:
            raise ValueError(f"operator {self.op!r} takes {ARITH_OPS[self.op]} operand(s)")


Term = Union[Const, Variable, ArithExpr]


@dataclass(frozen=True)
class PlainAtom:
    """p(t1,...,tn); also covers predefined comparisons and 0-ary atoms."""

    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class EAtom:
    """p(t1,...,tk,Y):d(Y) with Y existentially bound over d's extension.

    bound_var is the final argument and may not occur anywhere else.
    """

    pred: str
    args: tuple[Term, ...]
    bound_var: str
    domain_pred: str


@dataclass(frozen=True)
class CAtomSchema:
    """m{p(t):c1:...:ck}n; conditions range over data or predefined
    predicates and bind their local variables."""

    member: PlainAtom
    conds: tuple[PlainAtom, ...]
    lo: int | None = None
    hi: int | None = None


@dataclass(frozen=True)
class CAtomList:
    """m{p1(t),...,pk(t)}n with one shared argument tuple."""

    preds: tuple[str, ...]
    args: tuple[Term, ...]
    lo: int | None = None
    hi: int | None = None


Atom = Union[PlainAtom, EAtom, CAtomSchema, CAtomList]


@dataclass(frozen=True)
class Clause:
    """body -> head; the body is a conjunction, the head a disjunction,
    and either side may be empty (but not both)."""

    body: tuple[Atom, ...]
    head: tuple[Atom, ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class PredDecl:
    """pred name(t1,...,tn) with unary data predicates as argument types
    and an optional restriction predicate of the same arity."""

    name: str
    arg_types: tuple[str, ...]
    restriction: str | None = None


@dataclass(frozen=True)
class VarDecl:
    type_pred: str
    var_names: tuple[str, ...]


@dataclass
class Program:
    pred_decls: list[PredDecl] = field(default_factory=list)
    var_decls: list[VarDecl] = field(default_factory=list)
    clauses: list[Clause] = field(default_factory=list)

    def pred_decl(self, name: str) -> PredDecl | None:
        for d in self.pred_decls:
            if d.name == name:
                return d
        return None

    def is_program_pred(self, name: str) -> bool:
        return self.pred_decl(name) is not None

    def var_type(self, name: str) -> str | None:
        for v in self.var_decls:
            if name in v.var_names:
                return v.type_pred
        return None


def substitute(term: Term, binding: Mapping[str, Const]) -> Term:
    """Replace bound variables by their constants; unbound variables and
    everything below them pass through unchanged."""
    if isinstance(term, Variable):
        val = binding.get(term.name)
        return term if val is None else val
    if isinstance(term, ArithExpr):
        return ArithExpr(term.op, tuple(substitute(t, binding) for t in term.operands))
    return term


def atom_kind(atom: Atom, prog: Program) -> str:
    """Classify an atom as program / data / predefined / e-atom / c-atom.

    A plain atom is a program atom when its predicate is declared, a
    predefined atom when its name is a comparison operator, and a data
    atom otherwise.
    """
    if isinstance(atom, EAtom):
        return "e-atom"
    if isinstance(atom, (CAtomSchema, CAtomList)):
        return "c-atom"
    if atom.pred in COMPARISONS:
        return "predefined"
    if prog.is_program_pred(atom.pred):
        return "program"
    return "data"


def term_variables(term: Term) -> Iterator[str]:
    """Yield variable names in left-to-right occurrence order."""
    if isinstance(term, Variable):
        yield term.name
    elif isinstance(term, ArithExpr):
        for t in term.operands:
            yield from term_variables(t)


# ---------------------------------------------------------------------------
# Canonical rendering. Parsing the rendered text yields a structurally
# identical program, which the parser tests rely on.

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def term_text(term: Term) -> str:
    return _term_text(term, 0)


def _term_text(term, min_prec):
    if isinstance(term, bool):
        raise TypeError("booleans are not terms")
    if isinstance(term, int):
        # parenthesize negative literals inside larger expressions so
        # the minus sign cannot merge with a preceding operator
        return f"({term})" if term < 0 and min_prec > 0 else str(term)
    if isinstance(term, str):
        return term
    if isinstance(term, Variable):
        return term.name
    if term.op in _PREC:
        p = _PREC[term.op]
        body = _term_text(term.operands[0], p) + term.op + _term_text(term.operands[1], p + 1)
        return f"({body})" if p < min_prec else body
    inner = ",".join(_term_text(t, 0) for t in term.operands)
    return f"{term.op}({inner})"


def _plain_text(atom: PlainAtom) -> str:
    if atom.pred in COMPARISONS:
        left, right = atom.args
        return f"{term_text(left)} {atom.pred} {term_text(right)}"
    if not atom.args:
        return atom.pred
    return f"{atom.pred}({','.join(term_text(t) for t in atom.args)})"


def atom_text(atom: Atom) -> str:
    if isinstance(atom, PlainAtom):
        return _plain_text(atom)
    if isinstance(atom, EAtom):
        args = ",".join(term_text(t) for t in atom.args)
        return f"{atom.pred}({args}):{atom.domain_pred}({atom.bound_var})"
    if isinstance(atom, CAtomSchema):
        inner = ":".join([_plain_text(atom.member)] + [_plain_text(c) for c in atom.conds])
    else:
        inner = ",".join(_plain_text(PlainAtom(p, atom.args)) for p in atom.preds)
    lo = "" if atom.lo is None else str(atom.lo)
    hi = "" if atom.hi is None else str(atom.hi)
    return f"{lo}{{{inner}}}{hi}"


def clause_text(clause: Clause) -> str:
    body = ", ".join(atom_text(a) for a in clause.body)
    head = " | ".join(atom_text(a) for a in clause.head)
    left = f"{body} ->" if body else "->"
    return f"{left} {head}." if head else f"{left}."


def program_text(prog: Program) -> str:
    """Render declarations first, then clauses, one statement per line."""
    lines = []
    for d in prog.pred_decls:
        args = f"({','.join(d.arg_types)})" if d.arg_types else ""
        rest = f": {d.restriction}" if d.restriction else ""
        lines.append(f"pred {d.name}{args}{rest}.")
    for v in prog.var_decls:
        lines.append(f"var {v.type_pred} {', '.join(v.var_names)}.")
    for c in prog.clauses:
        lines.append(clause_text(c))
    return "\n".join(lines) + ("\n" if lines else "")
