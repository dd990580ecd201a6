"""Ground theory model shared by the grounder, the .tdc format and the
solver.

Atom ids are dense 1..N in order of first appearance; cardinality
constructs take ids N+1..N+C and hold atom ids as members, with hi = -1
meaning no upper bound. A clause is a plain tuple of literals, signed
ids referring to either kind; () is the empty clause.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # the solver side loads no parser-side module
    from .model import Const

# The range of every integer constant, in terms and in atom texts.
INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


class GroundAtom(NamedTuple):
    id: int
    pred: str
    args: tuple[Const, ...]
    text: str


class CardConstruct(NamedTuple):
    id: int
    lo: int
    hi: int  # -1 encodes "no upper bound"
    members: tuple[int, ...]


class GroundTheory(NamedTuple):
    atoms: tuple[GroundAtom, ...]
    cards: tuple[CardConstruct, ...]
    clauses: tuple[tuple[int, ...], ...]

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def card_by_id(self, cid: int) -> CardConstruct:
        return self.cards[cid - len(self.atoms) - 1]


def card_error(card: CardConstruct, expected_id: int, n_atoms: int) -> str | None:
    """The first rule a theory's card breaks, or None: ids are dense,
    bounds are lo >= 0 and hi >= -1 with lo <= hi when bounded, and
    members are distinct atom ids."""
    cid, lo, hi = card.id, card.lo, card.hi
    if cid != expected_id:
        return f"card ids must be dense, expected {expected_id} got {cid}"
    if lo < 0:
        return f"card {cid} has negative lower bound"
    if hi < -1:
        return f"card {cid} has upper bound below -1"
    if hi != -1 and lo > hi:
        return f"card {cid} has lower bound above its upper bound"
    for m in card.members:
        if not 1 <= m <= n_atoms:
            return f"card {cid} member {m} is not an atom id"
    if len(set(card.members)) != len(card.members):
        return f"card {cid} lists a member twice"
    return None


def clause_error(lits: tuple[int, ...], max_id: int) -> str | None:
    """The first literal of a clause that names no atom or card, or None:
    literals are signed ids 1..max_id, so 0 and ids above it are refused."""
    for lit in lits:
        if not 0 < abs(lit) <= max_id:
            return f"literal {lit} out of range"
    return None


def ground_atom_text(pred: str, args: tuple[Const, ...]) -> str:
    """Canonical space-free rendering, e.g. clr(1,r)."""
    if not args:
        return pred
    return f"{pred}({','.join(str(a) for a in args)})"


# An atom text as ground_atom_text writes it: a predicate name, then
# optionally its arguments, each an integer as str(int) spells it (at
# most 19 digits, and in the 64-bit range, which parse_ground_atom_text
# checks) or a symbolic constant, which starts lower-case.
_ARG = r"(?:0|-?[1-9][0-9]{0,18}|[a-z][A-Za-z0-9_]*)"
_ATOM_TEXT_RE = re.compile(rf"[A-Za-z][A-Za-z0-9_]*(?:\({_ARG}(?:,{_ARG})*\))?")


def parse_ground_atom_text(text: str) -> tuple[str, tuple[Const, ...]]:
    """Inverse of ground_atom_text, used when reading theories back in; a
    text that ground_atom_text would not write, such as p(+1), p(01),
    p(), 'p q' or p(9223372036854775808), is a ValueError."""
    if _ATOM_TEXT_RE.fullmatch(text):
        pred, paren, inner = text.partition("(")
        args = tuple(a if a[0].isalpha() else int(a) for a in inner[:-1].split(",")) if paren else ()
        if all(isinstance(a, str) or INT_MIN <= a <= INT_MAX for a in args):
            return pred, args
    raise ValueError(f"malformed atom text {text!r}")
