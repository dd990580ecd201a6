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

Cards are evaluated at one site, in propagate: only there is a card's
status committed, checked against its committed value, or used to force
members. A card is evaluated when it leaves the queue, and a card that a
clause has just committed as its unit literal at once, before the next
clause is checked. That fixes the order of propagation the counters
record: queueing the card reaches the same fixpoint, but a round that
ends in a conflict can then set other atoms first. A card is queued each
time one of its members is set; two kinds of entry are never made,
because their evaluation is a no-op. When a committed card forces its
undetermined members, it is not queued for them: once they are set its
status equals its committed value. Nor is a card queued whose committed
value already equals its determined status. Counts only move toward a
determined status while the trail grows, so a determined status stays so
until backtracking, and such an evaluation finds nothing to do whenever
it would run. Every other entry keeps its place in the queue, so the
order of the effective steps, and with it every counter, is the same as
if every entry were made. Forcing needs lo <= hi and distinct members;
Solver checks both, as read_tdc does, and also that card ids are dense,
members are atom ids and literals are in range.

Branch scores are kept along the trail rather than recomputed per
decision, and counted only when a branch is picked. A trail entry whose
value makes some literal true goes on a pending list. Just before each
branch pick, search counts the pending entries: each bumps the count of
true literals of the clauses its value makes true, and a clause whose
count leaves zero takes every atom it mentions out of the scores.
Backtracking undoes the counts of the entries it removes and skips the
pending ones, which were never counted; pending is empty at every
decision, so they all lie past the cut. A propagation round that ends in
a conflict is undone before any branch pick, so its entries are neither
counted nor uncounted. The count reads a card's committed value, not its
status, so the scores are exact at a propagation fixpoint, where every
card with a determined status has that value committed.

Propagation reads the same counts: an id whose value was just set visits
only the clauses it made false whose count is 0. A positive count comes
only from counted entries still on the trail, so every clause skipped
has a true literal and would check as not unit; a clause that only
pending entries satisfy is visited and checks as not unit. A count of
the clauses with no true literal lets the branch pick skip the scan once
every clause holds; it then takes the lowest undetermined atom,
searching up from a bound below which every atom is set. Each decision
keeps the bound that holds once it is flipped, since flipping restores
the state before it plus the decided atom.

Atoms and cards share one id space: atoms are 1..n_atoms and cards
follow them, and every per-id table is indexed by the id itself. A
card's committed value lives in the assignment next to the atoms' values.
The trail is a flat list of ids; the trail positions of the decisions
not yet flipped are kept on a stack, so backtracking cuts the trail at
the top position in one step.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Sequence
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
        for i, c in enumerate(theory.cards):
            if c.id != n + i + 1:
                raise ValueError(f"card ids must be dense, expected {n + i + 1} got {c.id}")
            if c.hi != -1 and c.lo > c.hi:
                raise ValueError(f"card {c.id} has lower bound above its upper bound")
            for m in c.members:
                if not 1 <= m <= n:
                    raise ValueError(f"card {c.id} member {m} is not an atom id")
            if len(set(c.members)) != len(c.members):
                raise ValueError(f"card {c.id} lists a member twice")
        size = n + len(theory.cards) + 1
        # assignment[ref]: an atom's value or a card's committed value,
        # then one slot that stays None, so index(None, k) always finds one.
        self.assignment: list[bool | None] = [None] * (size + 1)
        # Per card id (slots 0..n unused): bounds (an unbounded hi is the
        # member count, which no count exceeds), members, and the counts
        # of true and undetermined members.
        pad = [0] * (n + 1)
        self.card_lo = pad + [c.lo for c in theory.cards]
        self.card_hi = pad + [len(c.members) if c.hi == -1 else c.hi for c in theory.cards]
        self.card_members = [()] * (n + 1) + [c.members for c in theory.cards]
        self.card_true = [0] * size
        self.card_undec = pad + [len(c.members) for c in theory.cards]
        # member_of[ref]: ids of the cards with ref as a member. Ids in no
        # card share one empty tuple; an entry becomes a list when first
        # appended to, so an id that occurs nowhere costs no list.
        member_of: list[Sequence[int]] = [()] * size
        for c in theory.cards:
            for m in c.members:
                if member_of[m]:
                    member_of[m].append(c.id)
                else:
                    member_of[m] = [c.id]
        self.member_of = member_of
        # trail: ids in the order their values were set; decision_pos:
        # trail positions of the decisions not flipped yet.
        self.trail: list[int] = []
        self.decision_pos: list[int] = []
        # low_atom: every atom below it is set; decision_low: per entry of
        # decision_pos, the bound that holds once that decision is flipped.
        self.low_atom = 1
        self.decision_low: list[int] = []
        self.stats = SolveStats()
        # queue: ids whose value was just set; dirty_cards: card ids.
        self.queue: deque[int] = deque()
        self.dirty_cards: deque[int] = deque()
        # sat_by[ref][value]: clauses whose literal on ref that value makes
        # true; sat_by[ref][not value] are those it makes false. Ids in no
        # clause share one pair of empty tuples.
        # branch_atoms[ci]: the atoms clause ci mentions, card literals
        # expanded into their members, repeats kept.
        # pending: trail entries with a make-true list, not yet counted.
        # sat_count[ci]: true literals of clause ci among the counted
        # trail entries; open_clauses: the clauses with sat_count 0.
        # score[aid]: occurrences of aid in branch_atoms of the clauses
        # with sat_count 0.
        unused: tuple[Sequence[int], Sequence[int]] = ((), ())
        sat_by = self.sat_by = [unused] * size
        self.clause_lits = theory.clauses
        self.pending: list[int] = []
        self.branch_atoms: list[list[int]] = []
        self.sat_count = [0] * len(theory.clauses)
        self.open_clauses = len(theory.clauses)
        self.score = [0] * (n + 1)
        for ci, lits in enumerate(self.clause_lits):
            atoms: list[int] = []
            for lit in lits:
                ref = abs(lit)
                if not 0 < ref < size:
                    raise ValueError(f"literal {lit} out of range")
                if sat_by[ref] is unused:
                    sat_by[ref] = ([], [])
                sat_by[ref][lit > 0].append(ci)
                if ref <= n:
                    atoms.append(ref)
                else:
                    atoms.extend(self.card_members[ref])
            for aid in atoms:
                self.score[aid] += 1
            self.branch_atoms.append(atoms)

    # -- plumbing ---------------------------------------------------------

    def card_status(self, cid: int) -> bool | None:
        """Status of card cid read off its counts."""
        tc, lo, hi = self.card_true[cid], self.card_lo[cid], self.card_hi[cid]
        tu = tc + self.card_undec[cid]
        if tc >= lo and tu <= hi:
            return True
        if tu < lo or tc > hi:
            return False
        return None

    def assign(self, ref: int, value: bool, decision: bool = False) -> Conflict | None:
        """Set atom ref, or commit card ref, to value. Only an atom set
        other than by a decision counts as a propagation."""
        assignment = self.assignment
        cur = assignment[ref]
        if cur is not None:
            kind = "atom" if ref <= self.n_atoms else "card"
            return None if cur == value else Conflict(kind, ref)
        assignment[ref] = value
        if decision:
            self.decision_pos.append(len(self.trail))
            low = self.low_atom
            self.decision_low.append(low + 1 if ref == low else low)
            self.stats.decisions += 1
        elif ref <= self.n_atoms:
            self.stats.propagations += 1
        self.trail.append(ref)
        sat_by = self.sat_by[ref]
        if sat_by[not value]:
            self.queue.append(ref)
        if sat_by[value]:
            self.pending.append(ref)
        cards = self.member_of[ref]
        if cards:
            # Count ref in each card it is a member of, and queue the card
            # unless it is settled: its committed value equals its
            # determined status, which no further assignment can change.
            dirty, card_true, card_undec = self.dirty_cards, self.card_true, self.card_undec
            card_lo, card_hi = self.card_lo, self.card_hi
            for cid in cards:
                uc = card_undec[cid] - 1
                card_undec[cid] = uc
                tc = card_true[cid]
                if value:
                    tc += 1
                    card_true[cid] = tc
                v = assignment[cid]
                if v is None:
                    dirty.append(cid)
                elif v:
                    if tc < card_lo[cid] or tc + uc > card_hi[cid]:
                        dirty.append(cid)
                elif tc + uc >= card_lo[cid] and tc <= card_hi[cid]:
                    dirty.append(cid)
        return None

    def _count_pending(self) -> None:
        """Count the pending ids' true literals, in trail order: one more
        in each clause an id's value makes true; a clause leaving zero is
        no longer open and takes its atoms' occurrences out of the branch
        scores."""
        sat_count, score, branch_atoms = self.sat_count, self.score, self.branch_atoms
        assignment, sat_by = self.assignment, self.sat_by
        closed = 0
        for ref in self.pending:
            for ci in sat_by[ref][assignment[ref]]:
                sat_count[ci] += 1
                if sat_count[ci] == 1:
                    closed += 1
                    for aid in branch_atoms[ci]:
                        score[aid] -= 1
        self.open_clauses -= closed
        self.pending.clear()

    def _unsatisfy(self, clauses: list[int]) -> None:
        """Undo _count_pending's count of one id's true literals."""
        sat_count, score, branch_atoms = self.sat_count, self.score, self.branch_atoms
        opened = 0
        for ci in clauses:
            sat_count[ci] -= 1
            if sat_count[ci] == 0:
                opened += 1
                for aid in branch_atoms[ci]:
                    score[aid] += 1
        self.open_clauses += opened

    def _check_clause(self, ci: int) -> Conflict | int | None:
        """Check clause ci: a conflict when every literal is false. With
        one literal open and none true, set that literal's id; when it is
        a card, return its id, for propagate to evaluate at once."""
        n, assignment = self.n_atoms, self.assignment
        unit = None
        open_count = 0
        for lit in self.clause_lits[ci]:
            ref = lit if lit > 0 else -lit
            v = assignment[ref]
            if v is None and ref > n:
                v = self.card_status(ref)
            if v is None:
                open_count += 1
                if open_count > 1:
                    return None
                unit = lit
            elif v == (lit > 0):
                return None
        if open_count == 0:
            return Conflict("clause", ci)
        # unit is undetermined (a card: uncommitted, status open): no conflict.
        ref = abs(unit)
        self.assign(ref, unit > 0)
        return ref if ref > n else None

    def propagate(self) -> Conflict | None:
        """Run the queues to a fixpoint. A queued id visits only the
        clauses its value made false and that no counted trail entry
        satisfies: every other clause would check as not unit. This is
        the one site that evaluates cards: one off the queue, and one a
        clause just committed, before the id's next clause, which keeps
        the propagation order the counters record. An evaluation commits
        a determined status, conflicts with a committed value it
        contradicts, or forces members toward the committed value."""
        dirty, queue = self.dirty_cards, self.queue
        assignment, sat_by, sat_count = self.assignment, self.sat_by, self.sat_count
        card_true, card_undec, card_lo, card_hi = (
            self.card_true, self.card_undec, self.card_lo, self.card_hi
        )
        trail, member_of, card_members = self.trail, self.member_of, self.card_members
        pending = self.pending
        clauses: Iterator[int] = iter(())  # the rest of the visited id's clauses
        while True:
            for ci in clauses:
                if not sat_count[ci]:
                    cid = self._check_clause(ci)
                    if cid is not None:
                        if isinstance(cid, Conflict):
                            return cid
                        break
            else:
                if dirty:
                    cid = dirty.popleft()
                elif queue:
                    ref = queue.popleft()
                    clauses = iter(sat_by[ref][not assignment[ref]])
                    continue
                else:
                    return None
            tc, lo, hi = card_true[cid], card_lo[cid], card_hi[cid]
            tu = tc + card_undec[cid]
            v = assignment[cid]
            if tc >= lo and tu <= hi:
                st = True
            elif tu < lo or tc > hi:
                st = False
            else:
                # Status open: a committed card forces its members when a
                # bound leaves one way to reach its value. Needs lo <= hi
                # and distinct members, which __init__ checks. Each member
                # is set as assign would, but without queueing cid, whose
                # status then equals v; cid's counts move once at the end.
                if v is None:
                    continue
                if v:
                    if tc == hi:
                        force = False
                    elif tu == lo:
                        force = True
                    else:
                        continue
                elif tu == hi + 1 and tc >= lo:
                    force = True
                elif tc == lo - 1 and tu <= hi:
                    force = False
                else:
                    continue
                forced = 0
                for m in card_members[cid]:
                    if assignment[m] is not None:
                        continue
                    assignment[m] = force
                    trail.append(m)
                    sat = sat_by[m]
                    if sat[not force]:
                        queue.append(m)
                    if sat[force]:
                        pending.append(m)
                    forced += 1
                    for c in member_of[m]:  # as in assign, skipping cid
                        if c == cid:
                            continue
                        uc = card_undec[c] - 1
                        card_undec[c] = uc
                        t = card_true[c]
                        if force:
                            t += 1
                            card_true[c] = t
                        w = assignment[c]
                        if w is None:
                            dirty.append(c)
                        elif w:
                            if t < card_lo[c] or t + uc > card_hi[c]:
                                dirty.append(c)
                        elif t + uc >= card_lo[c] and t <= card_hi[c]:
                            dirty.append(c)
                card_undec[cid] = tu - tc - forced
                if force:
                    card_true[cid] = tc + forced
                self.stats.propagations += forced
                continue
            if v is None:
                self.assign(cid, st)
            elif v != st:
                return Conflict("card", cid)

    def _initial_propagate(self) -> Conflict | None:
        dirty = self.dirty_cards
        dirty.extend(range(self.n_atoms + 1, len(self.card_lo)))
        conf = self.propagate()
        for ci in range(len(self.clause_lits)):
            if conf is not None:
                return conf
            cid = self._check_clause(ci)
            if isinstance(cid, Conflict):
                return cid
            if cid is not None:
                dirty.append(cid)  # the queue is empty after propagate
            conf = self.propagate()
        return conf

    # -- search -----------------------------------------------------------

    def choose_branch(self) -> int | None:
        """Undetermined atom occurring in the most unsatisfied clauses,
        counting cardinality literals through their members; lowest id
        breaks ties. With every clause satisfied, the lowest undetermined
        atom; None once the assignment is total.

        Reads the scores kept along the trail. Search counts the pending
        trail entries right before calling it, at a propagation fixpoint,
        so every entry is counted and every card with a determined status
        has that value committed: the scores are exact there. A count is
        undone only when backtracking removes a counted entry, so while
        entries are pending, a positive count still means a true literal,
        which keeps propagation's skip of such clauses sound."""
        if not self.open_clauses:  # every score is 0
            aid = self.low_atom = self.assignment.index(None, self.low_atom)
            return aid if aid <= self.n_atoms else None
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
        # The pending ids were never counted. They are the last trail
        # entries with a make-true list, and all lie past the cut, since
        # pending is empty at every decision.
        pending = self.pending
        uncounted = len(pending)
        if self.decision_pos:
            pos = self.decision_pos.pop()
            self.low_atom = self.decision_low.pop()
            aid = trail[pos]
            flipped = not assignment[aid]
        else:
            pos, aid = 0, None
        for ref in reversed(trail[pos:]):
            value = assignment[ref]
            assignment[ref] = None
            sat = sat_by[ref][value]
            if sat:
                if uncounted:
                    uncounted -= 1
                else:
                    self._unsatisfy(sat)
            for cid in member_of[ref]:
                card_undec[cid] += 1
                if value:
                    card_true[cid] -= 1
        del trail[pos:]
        if pending:
            pending.clear()
        if aid is None:
            return False
        self.assign(aid, flipped)  # counted as a propagation
        return True

    def _model(self) -> dict[int, bool]:
        return dict(enumerate(self.assignment[1 : self.n_atoms + 1], 1))

    def search(self, max_models: int | None = 1) -> Iterator[list[bool | None]]:
        """Run the search, yielding the assignment list each time it is a
        model, until max_models (None: all of them). Index 0 is unused,
        1..n_atoms hold the atoms' values, the card ids above n_atoms the
        cards' committed values, and the last slot is always None. The
        list is the solver's own: read it before resuming."""
        found = 0
        conflict = self._initial_propagate()
        while True:
            if conflict is not None:
                self.stats.conflicts += 1
                if not self._backtrack_flip():
                    return
                conflict = self.propagate()
                continue
            if self.pending:
                self._count_pending()
            aid = self.choose_branch()
            if aid is None:
                yield self.assignment
                found += 1
                if max_models is not None and found >= max_models:
                    return
                if not self._backtrack_flip():
                    return
                conflict = self.propagate()
                continue
            self.assign(aid, True, decision=True)
            conflict = self.propagate()

    def models(self, max_models: int | None = 1) -> Iterator[dict[int, bool]]:
        """Yield models as dicts as the search finds them. Only the
        current assignment is kept, so a caller that drops each model
        runs in memory bounded by the theory."""
        for _ in self.search(max_models):
            yield self._model()

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
