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

from dataclasses import dataclass, field
from typing import Iterator, Union

Const = Union[int, str]

# Arity of each arithmetic operator. Division truncates toward zero and
# mod is the matching remainder; see aspps.terms.
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
