"""Model search over ground theories with cardinality constructs.

Three-valued DPLL with chronological backtracking. Each cardinality
construct keeps a pair of counters (true members, members not false)
from which its status is read off:

  true  when true >= lo and, bounded above, not false <= hi
  false when not false < lo, or true > hi

Setting a member moves exactly one counter (true up when it is set true,
not false down when it is set false), and undoing it moves that counter
back; the members a committed card still has to force number not false
minus true.

A construct may also be committed to a value by clause propagation
before its status is determined; the member-forcing rules then drive the
counters toward that value, and a determined status that contradicts a
committed value is a conflict. All choices are deterministic (lowest id
wins ties), so identical inputs yield identical statistics.

Cards are evaluated at one site, in propagate, as they leave the card
queue: only there is a card's status committed, checked against its
committed value, or used to force members. A card that a clause commits
as its unit literal is queued there too. The order of propagation shows
in one counter only, propagations, and only on a round that ends in a
conflict: every order reaches the same fixpoint, or a conflict and the
same backtrack, but it decides which atoms are set before the conflict
is noticed. Models, model order, decisions and conflicts do not depend
on it. A card is queued when one of its members is set, except in three
cases where its evaluation would do nothing. When a committed card
forces its undetermined members, it is not queued for them: once they
are set its status equals its committed value. Nor is a card queued
whose committed value already equals its determined status: counts only
move toward a determined status while the trail grows, so it stays so
until backtracking. And a card committed true is queued only when the
count that moved meets the bound it approaches with members left to set:
on a true member when tc >= hi < tu, on a false one when tu <= lo > tc.
At every fixpoint no card acts, and a card can start to act only through
the count that just moved, past the bound that count approaches; so
every card that acts is still queued before the next pick, and
propagation reaches the same fixpoint or the same conflict. The entries
left out change only where in the queue an acting card is evaluated,
which shows, like the clause order, only in propagations on a round that
ends in a conflict. Forcing scans a card's members from the high end,
where the undetermined ones usually are, since picks break ties by the
lowest id. Forcing needs lo <= hi and distinct members; Solver checks
every rule read_tdc checks, by the same two functions: theory.card_error
(dense ids, bounds, members that are distinct atom ids) and
theory.clause_error (every literal names an atom or a card).

Branch scores are kept along the trail rather than recomputed per
decision, and counted only when a branch is picked. A trail entry whose
value makes some literal true goes on a pending list. Just before each
branch pick, search counts the pending entries. Backtracking undoes the
counts of the entries it removes and skips the pending ones, which were
never counted; pending is empty at every decision, so they all lie past
the cut. A propagation round that ends in a conflict is undone before
any branch pick, so its entries are neither counted nor uncounted. The
count reads a card's committed value, not its status, so the scores of
the unset atoms, the only ones a pick reads, are exact at a propagation
fixpoint, where every card with a determined status has that value
committed.

A pair is a clause of two atom literals on two different atoms; it keeps
no count. At a fixpoint, a pair (la | lb) whose atom a is unset has lb
not false, or la would have been forced. So it is open exactly when lb
is not true, and its share of a's score moves from b's side: counting a
value of b that makes lb true takes one from a's score, and undoing that
count gives it back. Every other clause, a card literal or one atom
twice (a | a, a | -a) included, is counted: each entry bumps the count
of true literals of the clauses its value makes true, and a clause whose
count leaves zero takes every atom it mentions out of the scores.

Propagation checks a pair's other literal in place. An id whose value
was just set first walks the other literals of the pairs it made false:
a true one needs nothing, an unset one is set, and a false one is a
conflict. It then visits the counted clauses it made false whose count
is 0. A positive count comes only from counted entries still on the
trail, so every clause skipped has a true literal and would check as not
unit; a clause that only pending entries satisfy is visited and checks
as not unit.

The branch scan marks the trail length at which it finds no unset atom
with a positive score. Every clause then holds, since at a fixpoint an
open clause has two undetermined literals, each of which scores an unset
atom; and a clause that holds at a fixpoint holds in every extension of
it. So until a backtrack cuts the trail below the mark, the pick skips
the scan and takes the lowest undetermined atom, searching up from a
bound below which every atom is set. Each decision keeps the bound that
holds once it is flipped, since flipping restores the state before it
plus the decided atom. A trail that holds every id ends the search for a
model without that scan.

Set-up queues every card, checks the clauses of fewer than two literals,
and then propagates once; unit propagation reaches one fixpoint in any
order. A longer clause needs no check there: nothing is counted before
the first branch pick, so one with a false literal is checked when the
last of them leaves the queue, and one with none has a true literal or
two open ones.

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
from typing import NamedTuple

from .theory import GroundTheory, card_error, clause_error

# What propagate returns on a conflict, and _check_clause on a clause
# with every literal false.
CONFLICT = -1


class SolveStats(NamedTuple):
    """The search counters."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0


class SolveResult(NamedTuple):
    """The verdict of a search, the models it found and its counters."""

    sat: bool
    models: list[dict[int, bool]]
    stats: SolveStats = SolveStats()


class Solver:
    def __init__(self, theory: GroundTheory):
        self.theory = theory
        n = theory.n_atoms
        self.n_atoms = n
        for i, c in enumerate(theory.cards):
            error = card_error(c, n + i + 1, n)
            if error:
                raise ValueError(error)
        self.n_ids = n + len(theory.cards)  # atoms and cards: ids 1..n_ids
        size = self.n_ids + 1
        # assignment[ref]: an atom's value or a card's committed value.
        self.assignment: list[bool | None] = [None] * size
        # Per card id (slots 0..n unused): bounds (an unbounded hi is the
        # member count, which no count exceeds), members, and the counts
        # of true members and of members not false.
        pad = [0] * (n + 1)
        self.card_lo = pad + [c.lo for c in theory.cards]
        self.card_hi = pad + [len(c.members) if c.hi == -1 else c.hi for c in theory.cards]
        self.card_members = [()] * (n + 1) + [c.members for c in theory.cards]
        self.card_true = [0] * size
        self.card_live = pad + [len(c.members) for c in theory.cards]
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
        self.decisions = self.propagations = self.conflicts = 0
        # queue: ids whose value was just set; dirty_cards: card ids.
        self.queue: deque[int] = deque()
        self.dirty_cards: deque[int] = deque()
        # A pair is a clause of two atom literals on different atoms; the
        # other clauses are counted (clause_lits), each by its index ci.
        # sat_by[ref], per value of ref (0 false, 1 true): [value] the
        # counted clauses that value makes true, [not value] those it
        # makes false; [2 + value] the other literals of the pairs it
        # makes false, which become necessary; [4 + value] the other
        # atoms of the pairs it makes true, whose score it lowers. Ids in
        # no clause share one empty, false entry, so one test skips them,
        # and the lists an entry leaves empty share one empty tuple.
        # branch_atoms[ci]: the atoms clause ci mentions, card literals
        # expanded into their members, repeats kept.
        # pending: trail entries whose value makes a clause true, not yet
        # counted.
        # sat_count[ci]: true literals of clause ci among the counted
        # trail entries.
        # score[aid]: occurrences of aid in branch_atoms of the clauses
        # with sat_count 0, plus the pairs of aid whose other literal no
        # counted entry makes true.
        # closed_at: a trail length at which every clause holds, set by
        # the branch scan, or -1 while there is none. The trail is never
        # shorter than it: a backtrack that cuts below it drops it.
        sat_by: list[list[Sequence[int]] | tuple[()]] = [()] * size
        self.sat_by = sat_by
        self.clause_lits: list[tuple[int, ...]] = []
        self.pending: list[int] = []
        self.branch_atoms: list[list[int]] = []
        score = self.score = [0] * (n + 1)
        self.closed_at = -1

        def add(ref, k, item):
            sat = sat_by[ref]
            if not sat:
                sat = sat_by[ref] = [(), (), (), (), (), ()]
            if sat[k]:
                sat[k].append(item)
            else:
                sat[k] = [item]

        for lits in theory.clauses:
            error = clause_error(lits, size - 1)
            if error:
                raise ValueError(error)
            if len(lits) == 2:
                la, lb = lits
                a, b = abs(la), abs(lb)
                if a != b and a <= n and b <= n:
                    add(a, 2 + (la < 0), lb)
                    add(a, 4 + (la > 0), b)
                    add(b, 2 + (lb < 0), la)
                    add(b, 4 + (lb > 0), a)
                    score[a] += 1
                    score[b] += 1
                    continue
            ci = len(self.clause_lits)
            self.clause_lits.append(lits)
            atoms: list[int] = []
            for lit in lits:
                ref = abs(lit)
                add(ref, lit > 0, ci)
                if ref <= n:
                    atoms.append(ref)
                else:
                    atoms.extend(self.card_members[ref])
            for aid in atoms:
                score[aid] += 1
            self.branch_atoms.append(atoms)
        self.sat_count = [0] * len(self.clause_lits)

    @property
    def stats(self) -> SolveStats:
        """A snapshot of the search counters."""
        return SolveStats(self.decisions, self.propagations, self.conflicts)

    # -- plumbing ---------------------------------------------------------

    def card_status(self, cid: int) -> bool | None:
        """Status of card cid read off its counts."""
        tc, lo, hi = self.card_true[cid], self.card_lo[cid], self.card_hi[cid]
        tu = self.card_live[cid]
        if tc >= lo and tu <= hi:
            return True
        if tu < lo or tc > hi:
            return False
        return None

    def assign(self, ref: int, value: bool, decision: bool = False) -> None:
        """Set atom ref, or commit card ref, to value; ref is unset. Only
        an atom set other than by a decision counts as a propagation."""
        assignment = self.assignment
        assignment[ref] = value
        if decision:
            self.decision_pos.append(len(self.trail))
            low = self.low_atom
            self.decision_low.append(low + 1 if ref == low else low)
            self.decisions += 1
        elif ref <= self.n_atoms:
            self.propagations += 1
        self.trail.append(ref)
        sat = self.sat_by[ref]
        if sat:
            if sat[2 + value] or sat[not value]:
                self.queue.append(ref)
            if sat[4 + value] or sat[value]:
                self.pending.append(ref)
        cards = self.member_of[ref]
        if cards:
            # Count ref in each card it is a member of, and queue the card
            # unless its evaluation would do nothing. A card committed true
            # acts only once the count that moved meets the bound it
            # approaches with members left to set: tc reaches hi below tu,
            # or tu falls to lo above tc. Any other card is queued unless
            # settled: its committed value equals its determined status,
            # which no further assignment can change.
            dirty, card_true, card_live = self.dirty_cards, self.card_true, self.card_live
            card_lo, card_hi = self.card_lo, self.card_hi
            for cid in cards:
                v = assignment[cid]
                if value:
                    tc = card_true[cid] + 1
                    card_true[cid] = tc
                    if v:
                        if tc >= card_hi[cid] < card_live[cid]:
                            dirty.append(cid)
                        continue
                    tu = card_live[cid]
                else:
                    tc = card_true[cid]
                    tu = card_live[cid] - 1
                    card_live[cid] = tu
                    if v:
                        if tu <= card_lo[cid] > tc:
                            dirty.append(cid)
                        continue
                if v is None or (tu >= card_lo[cid] and tc <= card_hi[cid]):
                    dirty.append(cid)

    def _count_pending(self) -> None:
        """Count the pending ids' true literals, in trail order: one less
        in the score of the other atom of each pair an id's value makes
        true, and one more in the count of each counted clause it makes
        true; a clause whose count leaves zero takes its atoms'
        occurrences out of the scores."""
        sat_count, score, branch_atoms = self.sat_count, self.score, self.branch_atoms
        assignment, sat_by = self.assignment, self.sat_by
        for ref in self.pending:
            sat = sat_by[ref]
            value = assignment[ref]
            for aid in sat[4 + value]:
                score[aid] -= 1
            for ci in sat[value]:
                sat_count[ci] += 1
                if sat_count[ci] == 1:
                    for aid in branch_atoms[ci]:
                        score[aid] -= 1
        self.pending.clear()

    def _unsatisfy(self, clauses: list[int]) -> None:
        """Undo _count_pending's count of one id's true literals in the
        counted clauses."""
        sat_count, score, branch_atoms = self.sat_count, self.score, self.branch_atoms
        for ci in clauses:
            sat_count[ci] -= 1
            if sat_count[ci] == 0:
                for aid in branch_atoms[ci]:
                    score[aid] += 1

    def _check_clause(self, ci: int) -> int | None:
        """Check clause ci: CONFLICT when every literal is false, else
        None. With one literal open and none true, set that literal's id;
        a card committed so is queued, for propagate to evaluate."""
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
            return CONFLICT
        # unit is undetermined (a card: uncommitted, status open): no conflict.
        ref = abs(unit)
        self.assign(ref, unit > 0)
        if ref > n:
            self.dirty_cards.append(ref)
        return None

    def propagate(self) -> int | None:
        """Run the queues to a fixpoint, returning None, or to a
        conflict, returning CONFLICT. A queued id first checks the other
        literal of each pair its value made false, then visits only the
        counted clauses its value made false and that no counted trail
        entry satisfies: every other clause would check as not unit.
        This is the one site that evaluates cards, each as it leaves the
        card queue, where a card a clause commits waits too. An
        evaluation commits a determined status, conflicts with a
        committed value it contradicts, or forces members toward the
        committed value."""
        dirty, queue = self.dirty_cards, self.queue
        assignment, sat_by, sat_count = self.assignment, self.sat_by, self.sat_count
        card_true, card_live, card_lo, card_hi = (
            self.card_true, self.card_live, self.card_lo, self.card_hi
        )
        trail, member_of, card_members = self.trail, self.member_of, self.card_members
        pending = self.pending
        while True:
            if dirty:
                cid = dirty.popleft()
            elif queue:
                ref = queue.popleft()
                sat = sat_by[ref]
                value = assignment[ref]
                # The other literal of each pair value made false.
                for lit in sat[2 + value]:
                    if lit > 0:
                        v = assignment[lit]
                        if v is None:
                            self.assign(lit, True)
                        elif not v:
                            return CONFLICT
                    else:
                        v = assignment[-lit]
                        if v is None:
                            self.assign(-lit, False)
                        elif v:
                            return CONFLICT
                for ci in sat[not value]:
                    if not sat_count[ci] and self._check_clause(ci) == CONFLICT:
                        return CONFLICT
                continue
            else:
                return None
            # The status rule, split by the committed value v and written
            # out (calling card_status here made the enum solve 12 %
            # slower). Committed true, the common case, reads only the
            # counts it tests: tc > hi or tu < lo is a conflict, and a
            # bound met exactly with tu - tc members undetermined forces
            # them; any other count leaves nothing to do.
            v = assignment[cid]
            tc, hi = card_true[cid], card_hi[cid]
            if v:
                if tc >= hi:
                    if tc > hi:
                        return CONFLICT
                    tu = card_live[cid]
                    if tu == tc:
                        continue
                    force = False
                else:
                    tu, lo = card_live[cid], card_lo[cid]
                    if tu > lo:
                        continue
                    if tu < lo:
                        return CONFLICT
                    if tu == tc:
                        continue
                    force = True
            else:
                tu, lo = card_live[cid], card_lo[cid]
                if tc >= lo and tu <= hi:
                    if v is None:
                        self.assign(cid, True)
                        continue
                    return CONFLICT
                if tu < lo or tc > hi:
                    if v is None:
                        self.assign(cid, False)
                    continue
                # Status open. A card committed false forces its members
                # when setting any one of them one way would make its
                # status true: they all go the other way.
                if v is None:
                    continue
                if tu == hi + 1 and tc >= lo:
                    force = True
                elif tc == lo - 1 and tu <= hi:
                    force = False
                else:
                    continue
            # Force the card's tu - tc undetermined members, scanning from
            # the high end, where they usually are. Needs lo <= hi
            # and distinct members, which __init__ checks. Each member is
            # set as assign would, but without queueing cid, whose status
            # then equals v; cid's count moves once at the end. Calling
            # assign per member, or one setter shared with assign, made the
            # enum solve 14-15 % slower.
            left = forced = tu - tc
            for m in reversed(card_members[cid]):
                if assignment[m] is not None:
                    continue
                assignment[m] = force
                trail.append(m)
                sat = sat_by[m]
                if sat:
                    if sat[2 + force] or sat[not force]:
                        queue.append(m)
                    if sat[4 + force] or sat[force]:
                        pending.append(m)
                for c in member_of[m]:  # as in assign, skipping cid
                    if c == cid:
                        continue
                    w = assignment[c]
                    if force:
                        t = card_true[c] + 1
                        card_true[c] = t
                        if w:
                            if t >= card_hi[c] < card_live[c]:
                                dirty.append(c)
                            continue
                        u = card_live[c]
                    else:
                        t = card_true[c]
                        u = card_live[c] - 1
                        card_live[c] = u
                        if w:
                            if u <= card_lo[c] > t:
                                dirty.append(c)
                            continue
                    if w is None or (u >= card_lo[c] and t <= card_hi[c]):
                        dirty.append(c)
                left -= 1
                if not left:
                    break
            if force:
                card_true[cid] = tu
            else:
                card_live[cid] = tc
            self.propagations += forced

    def _initial_propagate(self) -> int | None:
        """Queue every card, check each clause of fewer than two literals,
        then propagate once."""
        self.dirty_cards.extend(range(self.n_atoms + 1, self.n_ids + 1))
        for ci, lits in enumerate(self.clause_lits):
            if len(lits) < 2 and self._check_clause(ci) == CONFLICT:
                return CONFLICT
        return self.propagate()

    # -- search -----------------------------------------------------------

    def choose_branch(self) -> int | None:
        """Undetermined atom occurring in the most unsatisfied clauses,
        counting cardinality literals through their members; lowest id
        breaks ties. With every clause satisfied, the lowest undetermined
        atom; None once the assignment is total.

        Reads the scores kept along the trail. Search counts the pending
        trail entries right before calling it, at a propagation fixpoint,
        so every entry is counted and every card with a determined status
        has that value committed: the unset atoms' scores are exact there.
        A count is undone only when backtracking removes a counted entry,
        so while entries are pending, a positive count still means a true
        literal, which keeps propagation's skip of such clauses sound.

        A scan that finds no unset atom with a positive score marks the
        trail length: every clause holds there, and so in every extension,
        and later picks skip the scan until a backtrack cuts the trail
        below the mark. The end-game rests on the fixpoint invariant that
        every card with a determined status has it committed. A card with
        all members set has one, so a full trail is a total assignment,
        found without a scan; a shorter one leaves an atom unset, which
        index reaches before any card."""
        if self.closed_at >= 0:  # every clause holds
            if len(self.trail) == self.n_ids:
                return None
            aid = self.low_atom = self.assignment.index(None, self.low_atom)
            return aid
        best, best_score = None, -1
        assignment, score = self.assignment, self.score
        for aid in range(1, self.n_atoms + 1):
            if assignment[aid] is None and score[aid] > best_score:
                best, best_score = aid, score[aid]
        if best_score < 1:
            self.closed_at = len(self.trail)
        return best

    def _backtrack_flip(self) -> bool:
        """Undo through the most recent unflipped decision and assert its
        opposite. False when the search space is exhausted. The queues
        are empty: search empties them after a conflict."""
        trail, assignment, sat_by = self.trail, self.assignment, self.sat_by
        member_of, card_true, card_live = self.member_of, self.card_true, self.card_live
        score = self.score
        # The pending ids were never counted. They are the last trail
        # entries whose value makes a clause true, and all lie past the
        # cut, since pending is empty at every decision.
        pending = self.pending
        uncounted = len(pending)
        if self.decision_pos:
            pos = self.decision_pos.pop()
            self.low_atom = self.decision_low.pop()
            aid = trail[pos]
            flipped = not assignment[aid]
        else:
            pos, aid = 0, None
        if pos < self.closed_at:
            self.closed_at = -1
        for ref in reversed(trail[pos:]):
            value = assignment[ref]
            assignment[ref] = None
            sat = sat_by[ref]
            if sat and (sat[4 + value] or sat[value]):
                if uncounted:
                    uncounted -= 1
                else:
                    for partner in sat[4 + value]:
                        score[partner] += 1
                    if sat[value]:
                        self._unsatisfy(sat[value])
            if value:
                for cid in member_of[ref]:
                    card_true[cid] -= 1
            else:
                for cid in member_of[ref]:
                    card_live[cid] += 1
        del trail[pos:]
        if pending:
            pending.clear()
        if aid is None:
            return False
        self.assign(aid, flipped)  # counted as a propagation
        return True

    def search(self, max_models: int | None = 1) -> Iterator[list[bool | None]]:
        """Run the search, yielding the assignment list each time it is a
        model, until max_models (None: all of them). Index 0 is unused,
        1..n_atoms hold the atoms' values and the card ids above n_atoms
        the cards' committed values. The list is the solver's own: read
        it before resuming."""
        if max_models is not None and (
            isinstance(max_models, bool) or not isinstance(max_models, int) or max_models < 1
        ):
            raise ValueError(f"max_models must be None or at least 1, got {max_models!r}")
        found = 0
        conflict = self._initial_propagate()
        while True:
            if conflict is None:
                if self.pending:
                    self._count_pending()
                aid = self.choose_branch()
                if aid is not None:
                    self.assign(aid, True, decision=True)
                    conflict = self.propagate()
                    continue
                yield self.assignment
                found += 1
                if found == max_models:
                    return
            else:
                self.conflicts += 1
                self.queue.clear()
                self.dirty_cards.clear()
            if not self._backtrack_flip():
                return
            conflict = self.propagate()

    def models(self, max_models: int | None = 1) -> Iterator[dict[int, bool]]:
        """Yield models as dicts as the search finds them. Only the
        current assignment is kept, so a caller that drops each model
        runs in memory bounded by the theory."""
        n = self.n_atoms
        for assignment in self.search(max_models):
            yield dict(enumerate(assignment[1 : n + 1], 1))

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
