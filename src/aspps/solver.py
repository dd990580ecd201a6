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
value committed. Propagation reads the same counts: an id whose value
was just set visits only the clauses it made false that are still
unsatisfied.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterator
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
        # Per card index i (card id n + 1 + i): bounds (an unbounded hi is
        # the member count, which no count exceeds), members, committed
        # value, and the counts of true and undetermined members.
        self.card_lo = [c.lo for c in theory.cards]
        self.card_hi = [len(c.members) if c.hi == -1 else c.hi for c in theory.cards]
        self.card_members = [c.members for c in theory.cards]
        self.card_value: list[bool | None] = [None] * len(theory.cards)
        self.card_true = [0] * len(theory.cards)
        self.card_undec = [len(c.members) for c in theory.cards]
        # member_of[aid]: indices of the cards with aid as a member.
        self.member_of: list[list[int]] = [[] for _ in range(n + 1)]
        for i, c in enumerate(theory.cards):
            for m in c.members:
                self.member_of[m].append(i)
        self.trail: list[tuple[str, int, bool, bool]] = []
        self.stats = SolveStats()
        # queue: ids whose value was just set; dirty_cards: card indices.
        self.queue: deque[int] = deque()
        self.dirty_cards: deque[int] = deque()
        # sat_by[ref][value]: clauses whose literal on ref that value makes
        # true; sat_by[ref][not value] are those it makes false.
        # branch_atoms[ci]: the atoms clause ci mentions, card literals
        # expanded into their members, repeats kept.
        # sat_count[ci]: true literals of clause ci on the trail.
        # score[aid]: occurrences of aid in branch_atoms of the clauses
        # with sat_count 0.
        self.sat_by: list[tuple[list[int], list[int]]] = [
            ([], []) for _ in range(n + len(theory.cards) + 1)
        ]
        self.branch_atoms: list[list[int]] = []
        self.sat_count = [0] * len(theory.clauses)
        self.score = [0] * (n + 1)
        for ci, cl in enumerate(theory.clauses):
            atoms: list[int] = []
            for lit in cl.literals:
                ref = abs(lit)
                self.sat_by[ref][lit > 0].append(ci)
                if ref <= n:
                    atoms.append(ref)
                else:
                    atoms.extend(self.card_members[ref - n - 1])
            for aid in atoms:
                self.score[aid] += 1
            self.branch_atoms.append(atoms)

    # -- plumbing ---------------------------------------------------------

    def card_status(self, i: int) -> bool | None:
        """Status of card index i read off its counts."""
        tc, lo, hi = self.card_true[i], self.card_lo[i], self.card_hi[i]
        tu = tc + self.card_undec[i]
        if tc >= lo and tu <= hi:
            return True
        if tu < lo or tc > hi:
            return False
        return None

    def lit_value(self, lit: int) -> bool | None:
        ref = abs(lit)
        if ref <= self.n_atoms:
            v = self.assignment[ref]
        else:
            i = ref - self.n_atoms - 1
            v = self.card_value[i]
            if v is None:
                v = self.card_status(i)
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
        cards = self.member_of[aid]
        card_true, card_undec = self.card_true, self.card_undec
        for i in cards:
            card_undec[i] -= 1
            if value:
                card_true[i] += 1
        self.dirty_cards.extend(cards)
        return None

    def _set_card_value(self, i: int, value: bool) -> Conflict | None:
        cid = self.n_atoms + 1 + i
        cur = self.card_value[i]
        if cur is not None:
            return None if cur == value else Conflict("card", cid)
        self.card_value[i] = value
        self.trail.append(("c", cid, False, False))
        self.queue.append(cid)
        sat = self.sat_by[cid][value]
        if sat:
            self._satisfy(sat)
        st = self.card_status(i)
        if st is not None:
            return None if st == value else Conflict("card", cid)
        return self._enforce_members(i, value)

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

    def _enforce_members(self, i: int, value: bool) -> Conflict | None:
        """Push undetermined members of card i toward a committed value.
        Callers guarantee the status is still undetermined."""
        tc, uc = self.card_true[i], self.card_undec[i]
        lo, hi = self.card_lo[i], self.card_hi[i]
        force: bool | None = None
        if value:
            if tc == hi:
                force = False
            elif tc + uc == lo:
                force = True
        else:
            down = tc < lo
            up = tc + uc > hi
            if not down and not up:
                return Conflict("card", self.n_atoms + 1 + i)
            if up and not down and tc + uc == hi + 1:
                force = True
            elif down and not up and tc == lo - 1:
                force = False
        if force is not None:
            for m in [m for m in self.card_members[i] if self.assignment[m] is None]:
                conf = self.assign(m, force)
                if conf is not None:
                    return conf
        return None

    def _update_card(self, i: int) -> Conflict | None:
        st = self.card_status(i)
        v = self.card_value[i]
        if v is None:
            if st is not None:
                return self._set_card_value(i, st)
            return None
        if st is not None:
            return None if st == v else Conflict("card", self.n_atoms + 1 + i)
        return self._enforce_members(i, v)

    def _check_clause(self, ci: int) -> Conflict | None:
        unit = None
        open_count = 0
        for lit in self.theory.clauses[ci].literals:
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
        return self._set_card_value(ref - self.n_atoms - 1, unit > 0)

    def propagate(self) -> Conflict | None:
        """Run the queues to a fixpoint. A queued id visits only the
        clauses its value made false and that no true literal already
        satisfies: every other clause would check as not unit."""
        n = self.n_atoms
        while True:
            if self.dirty_cards:
                conf = self._update_card(self.dirty_cards.popleft())
            elif self.queue:
                ref = self.queue.popleft()
                value = self.assignment[ref] if ref <= n else self.card_value[ref - n - 1]
                conf = None
                for ci in self.sat_by[ref][not value]:
                    if not self.sat_count[ci]:
                        conf = self._check_clause(ci)
                        if conf is not None:
                            break
            else:
                return None
            if conf is not None:
                return conf

    def _initial_propagate(self) -> Conflict | None:
        self.dirty_cards.extend(range(len(self.card_lo)))
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
        propagation fixpoint (where models calls it): there every card
        with a determined status has that value committed."""
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
        member_of, card_true, card_undec = self.member_of, self.card_true, self.card_undec
        first_card = self.n_atoms + 1
        while trail:
            kind, ref, decision, flipped = trail.pop()
            if kind == "a":
                value = assignment[ref]
                assignment[ref] = None
                sat = sat_by[ref][value]
                if sat:
                    self._unsatisfy(sat)
                for i in member_of[ref]:
                    card_undec[i] += 1
                    if value:
                        card_true[i] -= 1
                if decision and not flipped:
                    self.assign(ref, not value, role="flip")
                    return True
            else:
                i = ref - first_card
                sat = sat_by[ref][self.card_value[i]]
                if sat:
                    self._unsatisfy(sat)
                self.card_value[i] = None
        return False

    def _model(self) -> dict[int, bool]:
        return {aid: self.assignment[aid] for aid in range(1, self.n_atoms + 1)}

    def models(self, max_models: int | None = 1) -> Iterator[dict[int, bool]]:
        """Yield models as the search finds them, stopping after
        max_models (None: all of them). Only the current assignment is
        kept, so a caller that drops each model runs in memory bounded by
        the theory."""
        found = 0
        conflict = self._initial_propagate()
        while True:
            if conflict is not None:
                self.stats.conflicts += 1
                if not self._backtrack_flip():
                    return
                conflict = self.propagate()
                continue
            aid = self.choose_branch()
            if aid is None:
                yield self._model()
                found += 1
                if max_models is not None and found >= max_models:
                    return
                if not self._backtrack_flip():
                    return
                conflict = self.propagate()
                continue
            self.assign(aid, True, role="decision")
            conflict = self.propagate()

    def run(self, max_models: int | None = 1) -> SolveResult:
        models = list(self.models(max_models))
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
