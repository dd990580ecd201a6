"""Abstract syntax for typed clausal theories.

Terms are constants, variables, or arithmetic expressions; constants are
plain Python values (int for numerals, str for symbolic names, which
always start with a letter so the two never collide when printed).
Atoms come in four shapes: plain predicate applications, e-atoms
``p(t,Y):d(Y)`` binding their final argument existentially over a data
predicate, and cardinality atoms in schema form ``m{p(t):c1:...:ck}n``
or list form ``m{p1(t),...,pk(t)}n``.

The parser builds these trees and the grounder reads them; nothing in
the package renders them back to text. The tests' canonical rendering,
whose text parses back to the same tree, is in tests/rendering.py.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence, Union

from .theory import INT_MAX, INT_MIN

Const = Union[int, str]

# Arity of each arithmetic operator. Division truncates toward zero and
# mod is the matching remainder; see aspps.terms.
ARITH_OPS = {"+": 2, "-": 2, "*": 2, "/": 2, "abs": 1, "mod": 2, "max": 2, "min": 2}

COMPARISONS = ("==", "<=", ">=", "<", ">")


class Variable(NamedTuple):
    name: str


class _ArithFields(NamedTuple):
    op: str
    operands: tuple["Term", ...]


class ArithExpr(_ArithFields):
    """op applied to operands; an unknown operator or a wrong operand
    count is a ValueError. (A NamedTuple body may not define __new__.)"""

    __slots__ = ()

    def __new__(cls, op: str, operands: tuple["Term", ...]):
        if op not in ARITH_OPS:
            raise ValueError(f"unknown arithmetic operator {op!r}")
        if len(operands) != ARITH_OPS[op]:
            raise ValueError(f"operator {op!r} takes {ARITH_OPS[op]} operand(s)")
        return super().__new__(cls, op, operands)


Term = Union[Const, Variable, ArithExpr]


class PlainAtom(NamedTuple):
    """p(t1,...,tn); also covers predefined comparisons and 0-ary atoms."""

    pred: str
    args: tuple[Term, ...] = ()


class EAtom(NamedTuple):
    """p(t1,...,tk,Y):d(Y) with Y existentially bound over d's extension.

    bound_var is the final argument and may not occur anywhere else.
    """

    pred: str
    args: tuple[Term, ...]
    bound_var: str
    domain_pred: str


class CAtomSchema(NamedTuple):
    """m{p(t):c1:...:ck}n; conditions range over data or predefined
    predicates and bind their local variables."""

    member: PlainAtom
    conds: tuple[PlainAtom, ...]
    lo: int | None = None
    hi: int | None = None


class CAtomList(NamedTuple):
    """m{p1(t),...,pk(t)}n with one shared argument tuple."""

    preds: tuple[str, ...]
    args: tuple[Term, ...]
    lo: int | None = None
    hi: int | None = None


Atom = Union[PlainAtom, EAtom, CAtomSchema, CAtomList]


class Clause(NamedTuple):
    """body -> head; the body is a conjunction, the head a disjunction,
    and either side may be empty (but not both)."""

    body: tuple[Atom, ...]
    head: tuple[Atom, ...]
    line: int = 0


class PredDecl(NamedTuple):
    """pred name(t1,...,tn) with unary data predicates as argument types
    and an optional restriction predicate of the same arity."""

    name: str
    arg_types: tuple[str, ...]
    restriction: str | None = None


class VarDecl(NamedTuple):
    type_pred: str
    var_names: tuple[str, ...]


class Program(NamedTuple):
    """A parsed rule file: the declarations and clauses in file order."""

    pred_decls: Sequence[PredDecl] = ()
    var_decls: Sequence[VarDecl] = ()
    clauses: Sequence[Clause] = ()


def term_variables(term: Term) -> Iterator[str]:
    """Yield variable names in left-to-right occurrence order."""
    if isinstance(term, Variable):
        yield term.name
    elif isinstance(term, ArithExpr):
        for t in term.operands:
            yield from term_variables(t)


def atom_terms(atom: Atom) -> tuple[Term, ...]:
    """An atom's argument terms: a schema's member arguments followed by
    its conditions', otherwise the atom's own arguments."""
    if isinstance(atom, CAtomSchema):
        return atom.member.args + tuple(t for c in atom.conds for t in c.args)
    return atom.args


def atom_variables(atom: Atom) -> list[str]:
    """The distinct variable names of an atom in first-occurrence order."""
    return list(dict.fromkeys(v for t in atom_terms(atom) for v in term_variables(t)))
