"""Extensions of data predicates, with closed-world membership tests.

Predicates are keyed by (name, arity), so the same name may carry
extensions of several arities. Lookups of unknown predicates are simply
false, never an error.
"""

from __future__ import annotations

from typing import Iterable

from .model import Const
from .parser import DataAtom

_EMPTY: frozenset = frozenset()


def _const_key(c):
    # integers ascending, then symbolic constants lexicographically
    return (1, 0, c) if isinstance(c, str) else (0, c, "")


class DataDatabase:
    def __init__(self, extensions: dict[tuple[str, int], frozenset]):
        self.extensions = extensions
        self._domains: dict[str, tuple[Const, ...]] = {}

    def contains(self, pred: str, args: tuple[Const, ...]) -> bool:
        return tuple(args) in self.extensions.get((pred, len(args)), _EMPTY)

    def unary_domain(self, pred: str) -> list[Const]:
        """The unary extension of pred in deterministic order, empty when
        it has none (check_program rejects such a type if it has facts).
        Sorted once per predicate; each call returns a fresh list."""
        domain = self._domains.get(pred)
        if domain is None:
            ext = self.extensions.get((pred, 1))
            if ext is None:
                return []
            domain = self._domains[pred] = tuple(sorted((row[0] for row in ext), key=_const_key))
        return list(domain)

    def predicate_names(self) -> set[str]:
        return {name for name, _ in self.extensions}


def build_database(atoms: Iterable[DataAtom]) -> DataDatabase:
    exts: dict[tuple[str, int], set] = {}
    for pred, args in atoms:
        exts.setdefault((pred, len(args)), set()).add(tuple(args))
    return DataDatabase({key: frozenset(rows) for key, rows in exts.items()})
