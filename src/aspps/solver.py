"""Model search over ground theories with cardinality constructs.

Three-valued DPLL with chronological backtracking. Each cardinality
construct keeps a pair of counters (true members, undetermined members)
from which its status is read off:

  true  when true >= lo and, bounded above, true + undetermined <= hi
  false when true + undetermined < lo, or true > hi

A construct may also be committed to a value by clause propagation
before its status is determined; the member-forcing rules then drive the
counters toward that value, and a determined status that contradicts a
committed value is a conflict. All choices are deterministic (lowest id
wins ties), so identical inputs yield identical statistics.

Branch scores are kept along the trail rather than recomputed per
decision: every trail entry that makes a literal true bumps its clause's
count of true literals, and a clause whose count leaves or returns to
zero moves the score of each atom it mentions. The count reads a card's
committed value, not its status, so the scores are exact at a
propagation fixpoint, where every card with a determined status has that
value committed.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from .theory import GroundTheory


@dataclass
class SolveStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0


@dataclass(frozen=True)
class Conflict:
    kind: str  # "atom", "card" or "clause"
    ref: int


@dataclass
class SolveResult:
    sat: bool
    models: list[dict[int, bool]]
    stats: SolveStats = field(default_factory=SolveStats)


class Solver:
    def __init__(self, theory: GroundTheory):
        self.theory = theory
        n = theory.n_atoms
        self.n_atoms = n
        self.assignment: list[bool | None] = [None] * (n + 1)
        self.card_value: list[bool | None] = [None] * len(theory.cards)
        # counters[i] = [true members, undetermined members] of card i
        self.counters = [[0, len(c.members)] for c in theory.cards]
        self.trail: list[tuple[str, int, bool, bool]] = []
        self.stats = SolveStats()
        self.queue: deque[int] = deque()
        self.dirty_cards: deque[int] = deque()
        n_ids = n + len(theory.cards)
        # occ[ref]: clauses mentioning ref with either sign.
        # sat_by[ref][value]: clauses whose literal on ref that value makes
        # true. branch_atoms[ci]: the atoms clause ci mentions, card
        # literals expanded into their members, repeats kept.
        # sat_count[ci]: true literals of clause ci on the trail.
        # score[aid]: occurrences of aid in branch_atoms of the clauses
        # with sat_count 0.
        self.occ: list[list[int]] = [[] for _ in range(n_ids + 1)]
        self.sat_by: list[tuple[list[int], list[int]]] = [
            ([], []) for _ in range(n_ids + 1)
        ]
        self.branch_atoms: list[list[int]] = []
        self.sat_count = [0] * len(theory.clauses)
        self.score = [0] * (n + 1)
        for ci, cl in enumerate(theory.clauses):
            atoms: list[int] = []
            for lit in cl.literals:
                ref = abs(lit)
                self.occ[ref].append(ci)
                self.sat_by[ref][lit > 0].append(ci)
                if ref <= n:
                    atoms.append(ref)
                else:
                    atoms.extend(theory.cards[ref - n - 1].members)
            for aid in atoms:
                self.score[aid] += 1
            self.branch_atoms.append(atoms)
        self.member_of: dict[int, list[int]] = {}
        for c in theory.cards:
            for m in c.members:
                self.member_of.setdefault(m, []).append(c.id)

    # -- plumbing ---------------------------------------------------------

    def _card_index(self, cid: int) -> int:
        return cid - self.n_atoms - 1

    def card_status(self, cid: int) -> bool | None:
        card = self.theory.cards[self._card_index(cid)]
        tc, uc = self.counters[self._card_index(cid)]
        if tc >= card.lo and (card.hi == -1 or tc + uc <= card.hi):
            return True
        if tc + uc < card.lo or (card.hi != -1 and tc > card.hi):
            return False
        return None

    def lit_value(self, lit: int) -> bool | None:
        ref = abs(lit)
        if ref <= self.n_atoms:
            v = self.assignment[ref]
        else:
            v = self.card_value[self._card_index(ref)]
            if v is None:
                v = self.card_status(ref)
        if v is None:
            return None
        return v if lit > 0 else not v

    def assign(self, aid: int, value: bool, role: str = "propagate") -> Conflict | None:
        cur = self.assignment[aid]
        if cur is not None:
            return None if cur == value else Conflict("atom", aid)
        self.assignment[aid] = value
        self.trail.append(("a", aid, role != "propagate", role == "flip"))
        if role == "decision":
            self.stats.decisions += 1
        else:
            self.stats.propagations += 1
        self.queue.append(aid)
        sat = self.sat_by[aid][value]
        if sat:
            self._satisfy(sat)
        for cid in self.member_of.get(aid, ()):
            c = self.counters[self._card_index(cid)]
            c[1] -= 1
            if value:
                c[0] += 1
            self.dirty_cards.append(cid)
        return None

    def _set_card_value(self, cid: int, value: bool) -> Conflict | None:
        idx = self._card_index(cid)
        cur = self.card_value[idx]
        if cur is not None:
            return None if cur == value else Conflict("card", cid)
        self.card_value[idx] = value
        self.trail.append(("c", cid, False, False))
        self.queue.append(cid)
        sat = self.sat_by[cid][value]
        if sat:
            self._satisfy(sat)
        st = self.card_status(cid)
        if st is not None:
            return None if st == value else Conflict("card", cid)
        return self._enforce_members(cid, value)

    def _satisfy(self, clauses: list[int]) -> None:
        """One more true literal in each clause; a clause leaving zero
        takes its atoms' occurrences out of the branch scores."""
        sat_count, score = self.sat_count, self.score
        for ci in clauses:
            sat_count[ci] += 1
            if sat_count[ci] == 1:
                for aid in self.branch_atoms[ci]:
                    score[aid] -= 1

    def _unsatisfy(self, clauses: list[int]) -> None:
        """Undo _satisfy for the same clauses."""
        sat_count, score = self.sat_count, self.score
        for ci in clauses:
            sat_count[ci] -= 1
            if sat_count[ci] == 0:
                for aid in self.branch_atoms[ci]:
                    score[aid] += 1

    def _enforce_members(self, cid: int, value: bool) -> Conflict | None:
        """Push undetermined members toward a committed card value.
        Callers guarantee the status is still undetermined."""
        idx = self._card_index(cid)
        card = self.theory.cards[idx]
        tc, uc = self.counters[idx]
        undec = [m for m in card.members if self.assignment[m] is None]
        force: bool | None = None
        if value:
            if card.hi != -1 and tc == card.hi:
                force = False
            elif tc + uc == card.lo:
                force = True
        else:
            down = tc < card.lo
            up = card.hi != -1 and tc + uc > card.hi
            if not down and not up:
                return Conflict("card", cid)
            if up and not down and tc + uc == card.hi + 1:
                force = True
            elif down and not up and tc == card.lo - 1:
                force = False
        if force is not None:
            for m in undec:
                conf = self.assign(m, force)
                if conf is not None:
                    return conf
        return None

    def _update_card(self, cid: int) -> Conflict | None:
        st = self.card_status(cid)
        v = self.card_value[self._card_index(cid)]
        if v is None:
            if st is not None:
                return self._set_card_value(cid, st)
            return None
        if st is not None:
            return None if st == v else Conflict("card", cid)
        return self._enforce_members(cid, v)

    def _check_clause(self, ci: int) -> Conflict | None:
        lits = self.theory.clauses[ci].literals
        unit = None
        open_count = 0
        for lit in lits:
            v = self.lit_value(lit)
            if v is True:
                return None
            if v is None:
                open_count += 1
                if open_count > 1:
                    return None
                unit = lit
        if open_count == 0:
            return Conflict("clause", ci)
        ref = abs(unit)
        if ref <= self.n_atoms:
            return self.assign(ref, unit > 0)
        return self._set_card_value(ref, unit > 0)

    def propagate(self) -> Conflict | None:
        while True:
            if self.dirty_cards:
                conf = self._update_card(self.dirty_cards.popleft())
            elif self.queue:
                qid = self.queue.popleft()
                conf = None
                for ci in self.occ[qid]:
                    conf = self._check_clause(ci)
                    if conf is not None:
                        break
            else:
                return None
            if conf is not None:
                return conf

    def _initial_propagate(self) -> Conflict | None:
        self.dirty_cards.extend(c.id for c in self.theory.cards)
        conf = self.propagate()
        if conf is not None:
            return conf
        for ci in range(len(self.theory.clauses)):
            conf = self._check_clause(ci) or self.propagate()
            if conf is not None:
                return conf
        return None

    # -- search -----------------------------------------------------------

    def choose_branch(self) -> int | None:
        """Undetermined atom occurring in the most unsatisfied clauses,
        counting cardinality literals through their members; lowest id
        breaks ties. With every clause satisfied, the lowest undetermined
        atom; None once the assignment is total.

        Reads the scores kept along the trail, so it is exact only at a
        propagation fixpoint (where run calls it): there every card with
        a determined status has that value committed."""
        best, best_score = None, -1
        assignment, score = self.assignment, self.score
        for aid in range(1, self.n_atoms + 1):
            if assignment[aid] is None and score[aid] > best_score:
                best, best_score = aid, score[aid]
        return best

    def _backtrack_flip(self) -> bool:
        """Undo through the most recent unflipped decision and assert its
        opposite. False when the search space is exhausted."""
        self.queue.clear()
        self.dirty_cards.clear()
        trail, assignment, sat_by = self.trail, self.assignment, self.sat_by
        member_of, counters = self.member_of, self.counters
        first_card = self.n_atoms + 1
        while trail:
            kind, ref, decision, flipped = trail.pop()
            if kind == "a":
                value = assignment[ref]
                assignment[ref] = None
                sat = sat_by[ref][value]
                if sat:
                    self._unsatisfy(sat)
                for cid in member_of.get(ref, ()):
                    c = counters[cid - first_card]
                    c[1] += 1
                    if value:
                        c[0] -= 1
                if decision and not flipped:
                    self.assign(ref, not value, role="flip")
                    return True
            else:
                idx = ref - first_card
                sat = sat_by[ref][self.card_value[idx]]
                if sat:
                    self._unsatisfy(sat)
                self.card_value[idx] = None
        return False

    def _model(self) -> dict[int, bool]:
        return {aid: self.assignment[aid] for aid in range(1, self.n_atoms + 1)}

    def run(self, max_models: int | None = 1) -> SolveResult:
        models: list[dict[int, bool]] = []
        conflict = self._initial_propagate()
        while True:
            if conflict is not None:
                self.stats.conflicts += 1
                if not self._backtrack_flip():
                    break
                conflict = self.propagate()
                continue
            aid = self.choose_branch()
            if aid is None:
                models.append(self._model())
                if max_models is not None and len(models) >= max_models:
                    break
                if not self._backtrack_flip():
                    break
                conflict = self.propagate()
                continue
            self.assign(aid, True, role="decision")
            conflict = self.propagate()
        return SolveResult(sat=bool(models), models=models, stats=self.stats)


def solve(theory: GroundTheory, max_models: int | None = 1) -> SolveResult:
    """Search for models; max_models=None enumerates all of them."""
    return Solver(theory).run(max_models)


def model_lines(theory: GroundTheory, model: dict[int, bool], pred: str | None = None) -> list[str]:
    """Texts of the atoms true in a model, ascending id, optionally
    restricted to one predicate."""
    out = []
    for a in theory.atoms:
        if model.get(a.id) and (pred is None or a.pred == pred):
            out.append(a.text)
    return out


def stat_line(
    file: str, sat: bool, models: int, stats: SolveStats, time_ms: int
) -> str:
    result = "SAT" if sat else "UNSAT"
    return (
        f"file={file} result={result} models={models}"
        f" decisions={stats.decisions} propagations={stats.propagations}"
        f" conflicts={stats.conflicts} time_ms={time_ms}"
    )


def record_stats(path: str, line: str) -> None:
    """Append one run line to the statistics file, creating it if needed."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def now_ms() -> float:
    return time.perf_counter() * 1000.0
