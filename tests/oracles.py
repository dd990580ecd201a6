"""Independent reference implementations the test suite checks against.

The naive grounder, model enumeration and status computation share no
logic with the package beyond the AST/theory data types: they are
re-derived from the definitions, the slow and obvious way. Five further
references keep the package's own earlier, plainer algorithm next to the
optimized one and reuse its primitives: branch selection by full rescan
(reference_branch), propagation over every occurrence of an id with
cards forced member by member through assign (ReferenceSolver, forcing
by the rule of forced_value), model printing through model_lines
(reference_aspps_stdout), a clause's global and schema-local variables
by per-atom-kind walks (reference_global_vars, reference_schema_locals)
and grounding over the full product of the variable domains
(reference_ground). counted_scores recounts the branch scores from the
trail, and CheckedSolver checks them, with the rest of the solver's
state, forcing left undone included, at every branch and backtrack.
eval_arith, eval_ground_term and eval_predefined evaluate a term or
comparison under a dict binding through the package's compiled terms.
"""

from __future__ import annotations

import io
import itertools
import os
import tempfile
from collections import Counter
from contextlib import redirect_stdout

from aspps.errors import GroundError
from aspps.grounder import Grounder
from aspps.model import (
    COMPARISONS,
    ArithExpr,
    CAtomList,
    CAtomSchema,
    EAtom,
    PlainAtom,
    Variable,
    term_variables,
)
from aspps.cli import aspps_main
from aspps.solver import Conflict, Solver, model_lines
from aspps.tdc import write_tdc
from aspps.terms import compile_comparison, compile_term

# ---------------------------------------------------------------------------
# Term evaluation under a dict binding of variable names, through the
# package's compiled terms.


def _flat(binding):
    return {name: i for i, name in enumerate(binding)}, list(binding.values())


def eval_arith(term, binding) -> int:
    """Evaluate a term to an integer under a binding of variable names."""
    slots, vals = _flat(binding)
    return compile_term(term, slots, arith=True)(vals)


def eval_ground_term(term, binding):
    """Reduce a term to a constant under a binding."""
    slots, vals = _flat(binding)
    return compile_term(term, slots)(vals)


def eval_predefined(atom: PlainAtom, binding) -> bool:
    """Evaluate a comparison atom under a binding."""
    slots, vals = _flat(binding)
    return compile_comparison(atom, slots)(vals)


# ---------------------------------------------------------------------------
# Naive grounder.
#
# Clause semantics, evaluated by brute force: enumerate every assignment
# of the clause's global variables over their declared domains, evaluate
# each atom by its definition, and normalize the surviving instances.
# An atom literal is rendered ("a", pred, args); a cardinality literal
# ("c", lo, hi, frozenset of member (pred, args)).  A clause is a
# frozenset of (sign, descriptor) pairs and the result is a Counter of
# clauses, so duplicates are compared too.


def _term_vars(t):
    if isinstance(t, Variable):
        yield t.name
    elif isinstance(t, ArithExpr):
        for s in t.operands:
            yield from _term_vars(s)


def _atom_terms(atom):
    if isinstance(atom, CAtomSchema):
        return atom.member.args + tuple(t for c in atom.conds for t in c.args)
    return atom.args


def _eval_term(t, binding):
    if isinstance(t, Variable):
        return binding[t.name]
    if isinstance(t, ArithExpr):
        vals = [_eval_term(s, binding) for s in t.operands]
        op = t.op
        if op == "abs":
            return abs(vals[0])
        a, b = vals
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            q = abs(a) // abs(b)
            return q if (a >= 0) == (b >= 0) else -q
        if op == "mod":
            q = abs(a) // abs(b)
            q = q if (a >= 0) == (b >= 0) else -q
            return a - b * q
        if op == "max":
            return max(a, b)
        return min(a, b)
    return t


def _compare(pred, a, b):
    if pred == "==":
        return a == b
    if pred == "<=":
        return a <= b
    if pred == ">=":
        return a >= b
    if pred == "<":
        return a < b
    return a > b


class NaiveGrounder:
    def __init__(self, prog, db):
        self.decls = {d.name: d for d in prog.pred_decls}
        self.var_types = {n: v.type_pred for v in prog.var_decls for n in v.var_names}
        self.db = db
        self.prog = prog

    def domain(self, name):
        return self.db.unary_domain(name)

    def resolve(self, pred, args):
        """(pred, args) if the instance respects its declaration, else None."""
        decl = self.decls[pred]
        for a, ty in zip(args, decl.arg_types):
            if not self.db.contains(ty, (a,)):
                return None
        if decl.restriction is not None and not self.db.contains(decl.restriction, args):
            return None
        return (pred, tuple(args))

    def card(self, lo, hi, members):
        lo = 0 if lo is None else lo
        n = len(members)
        if n < lo:
            return False
        hi = -1 if hi is None else min(hi, n)
        if hi != -1 and lo > hi:
            return False
        if lo == 0 and (hi == -1 or hi >= n):
            return True
        return ("c", lo, hi, frozenset(members))

    def atom_value(self, atom, binding):
        if isinstance(atom, PlainAtom):
            if atom.pred in ("==", "<=", ">=", "<", ">"):
                a = _eval_term(atom.args[0], binding)
                b = _eval_term(atom.args[1], binding)
                if atom.pred != "==" and (isinstance(a, str) or isinstance(b, str)):
                    raise ValueError("order comparison on symbols")
                return _compare(atom.pred, a, b)
            args = tuple(_eval_term(t, binding) for t in atom.args)
            if atom.pred in self.decls:
                r = self.resolve(atom.pred, args)
                return False if r is None else ("a",) + r
            return self.db.contains(atom.pred, args)
        if isinstance(atom, EAtom):
            prefix = tuple(_eval_term(t, binding) for t in atom.args[:-1])
            members = set()
            for y in self.domain(atom.domain_pred):
                r = self.resolve(atom.pred, prefix + (y,))
                if r is not None:
                    members.add(r)
            if not members:
                return False
            return self.card(1, None, members)
        if isinstance(atom, CAtomList):
            args = tuple(_eval_term(t, binding) for t in atom.args)
            members = set()
            for p in atom.preds:
                r = self.resolve(p, args)
                if r is not None:
                    members.add(r)
            return self.card(atom.lo, atom.hi, members)
        # schema: enumerate the local variables over their types
        local = self.schema_locals(atom, binding)
        domains = [self.domain(self.var_types[v]) for v in local]
        members = set()
        for combo in itertools.product(*domains):
            b = dict(binding)
            b.update(zip(local, combo))
            ok = True
            for c in atom.conds:
                if c.pred in ("==", "<=", ">=", "<", ">"):
                    if not _compare(c.pred, _eval_term(c.args[0], b), _eval_term(c.args[1], b)):
                        ok = False
                        break
                else:
                    cargs = tuple(_eval_term(t, b) for t in c.args)
                    if not self.db.contains(c.pred, cargs):
                        ok = False
                        break
            if not ok:
                continue
            r = self.resolve(atom.member.pred, tuple(_eval_term(t, b) for t in atom.member.args))
            if r is not None:
                members.add(r)
        return self.card(atom.lo, atom.hi, members)

    @staticmethod
    def schema_locals(atom, binding):
        order, seen = [], set()
        cond_vars = set()
        for c in atom.conds:
            for t in c.args:
                cond_vars.update(_term_vars(t))
        for t in _atom_terms(atom):
            for v in _term_vars(t):
                if v not in seen:
                    seen.add(v)
                    if v in cond_vars and v not in binding:
                        order.append(v)
        return order

    def clause_instance(self, clause, binding):
        """Normalized literal set, or None when the instance is satisfied."""
        lits = set()
        nbody = len(clause.body)
        for pos, atom in enumerate(clause.body + clause.head):
            positive = pos >= nbody
            v = self.atom_value(atom, binding)
            if isinstance(v, bool):
                if v is positive:
                    return None
                continue
            if (not positive, v) in lits:
                return None
            lits.add((positive, v))
        return frozenset(lits)

    def clause_globals(self, clause):
        atoms = clause.body + clause.head
        occ: dict[str, set[int]] = {}
        binders = set()
        for pos, atom in enumerate(atoms):
            if isinstance(atom, EAtom):
                binders.add(atom.bound_var)
            for t in _atom_terms(atom):
                for v in _term_vars(t):
                    occ.setdefault(v, set()).add(pos)
        local = set()
        for pos, atom in enumerate(atoms):
            if isinstance(atom, CAtomSchema):
                for c in atom.conds:
                    for t in c.args:
                        for v in _term_vars(t):
                            if occ[v] == {pos}:
                                local.add(v)
        return sorted(v for v in occ if v not in binders and v not in local)

    def ground(self) -> Counter:
        out: Counter = Counter()
        for clause in self.prog.clauses:
            gvars = self.clause_globals(clause)
            domains = [self.domain(self.var_types[v]) for v in gvars]
            for combo in itertools.product(*domains):
                inst = self.clause_instance(clause, dict(zip(gvars, combo)))
                if inst is not None:
                    out[inst] += 1
        return out


def naive_ground(prog, db) -> Counter:
    return NaiveGrounder(prog, db).ground()


def normalize_theory(theory) -> Counter:
    """The real grounder's output in the oracle's clause normal form."""
    amap = {a.id: ("a", a.pred, a.args) for a in theory.atoms}
    ref = dict(amap)
    for c in theory.cards:
        ref[c.id] = ("c", c.lo, c.hi, frozenset(amap[m][1:] for m in c.members))
    out: Counter = Counter()
    for cl in theory.clauses:
        out[frozenset((l > 0, ref[abs(l)]) for l in cl)] += 1
    return out


# ---------------------------------------------------------------------------
# Brute-force model enumeration over ground theories.


def enumerate_models(theory) -> set[frozenset[int]]:
    """Every satisfying total assignment, as frozensets of true atom ids.
    Bitmask sweep over all 2^n assignments."""
    n = theory.n_atoms
    full = (1 << n) - 1
    pre = []
    for cl in theory.clauses:
        pos = neg = 0
        card_lits = []
        for lit in cl:
            r = abs(lit)
            if r <= n:
                bit = 1 << (r - 1)
                if lit > 0:
                    pos |= bit
                else:
                    neg |= bit
            else:
                c = theory.card_by_id(r)
                mask = 0
                for m in c.members:
                    mask |= 1 << (m - 1)
                card_lits.append((lit > 0, c.lo, c.hi, mask))
        pre.append((pos, neg, card_lits))
    models = set()
    for mask in range(1 << n):
        for pos, neg, card_lits in pre:
            if mask & pos or neg & ~mask & full:
                continue
            for want, lo, hi, cmask in card_lits:
                cnt = (mask & cmask).bit_count()
                inside = cnt >= lo and (hi == -1 or cnt <= hi)
                if inside is want:
                    break
            else:
                break
        else:
            models.add(mask)
    return {frozenset(i + 1 for i in range(n) if m >> i & 1) for m in models}


# ---------------------------------------------------------------------------
# Cardinality status by completion.


def status_by_completion(lo, hi, member_values) -> bool | None:
    """Quantify over every completion of the undetermined members: True
    when all land inside the bounds, False when none do, None otherwise."""
    tc = sum(1 for v in member_values if v is True)
    uc = sum(1 for v in member_values if v is None)
    inside = [
        c >= lo and (hi == -1 or c <= hi) for c in range(tc, tc + uc + 1)
    ]
    if all(inside):
        return True
    if not any(inside):
        return False
    return None


# ---------------------------------------------------------------------------
# Independent n-queens counter.


def count_queens(n: int) -> int:
    count = 0
    cols, diag1, diag2 = set(), set(), set()

    def place(r):
        nonlocal count
        if r == n:
            count += 1
            return
        for c in range(n):
            if c in cols or r + c in diag1 or r - c in diag2:
                continue
            cols.add(c)
            diag1.add(r + c)
            diag2.add(r - c)
            place(r + 1)
            cols.remove(c)
            diag1.remove(r + c)
            diag2.remove(r - c)

    place(0)
    return count


# ---------------------------------------------------------------------------
# Branch selection by full rescan.


def lit_value(solver, lit: int) -> bool | None:
    """A literal's value under the solver's state: an atom's assignment,
    or a card's committed value, else its status from the counters."""
    ref = abs(lit)
    v = solver.assignment[ref]
    if v is None and ref > solver.n_atoms:
        v = solver.card_status(ref)
    if v is None:
        return None
    return v if lit > 0 else not v


def reference_branch(solver) -> int | None:
    """Undetermined atom occurring in the most unsatisfied clauses,
    counting cardinality literals through their members; lowest id
    breaks ties. With every clause satisfied, the lowest undetermined
    atom; None once the assignment is total. Recomputed from scratch by
    walking every clause under the solver's current assignment."""
    score: dict[int, int] = {}
    for cl in solver.theory.clauses:
        if any(lit_value(solver, l) is True for l in cl):
            continue
        for lit in cl:
            ref = abs(lit)
            if ref <= solver.n_atoms:
                if solver.assignment[ref] is None:
                    score[ref] = score.get(ref, 0) + 1
            else:
                for m in solver.card_members[ref]:
                    if solver.assignment[m] is None:
                        score[m] = score.get(m, 0) + 1
    if score:
        return min(score.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    for aid in range(1, solver.n_atoms + 1):
        if solver.assignment[aid] is None:
            return aid
    return None


def forced_value(solver, cid: int) -> bool | None:
    """The value card cid forces on its undetermined members, if any. A
    committed card whose status is open forces x when one member set to
    not x would leave no count, over the completions of the members,
    that gives the card its committed value. Read from the members'
    values and the card's bounds, not from the solver's counters."""
    v = solver.assignment[cid]
    card = solver.theory.card_by_id(cid)
    values = [solver.assignment[m] for m in card.members]
    if v is None or status_by_completion(card.lo, card.hi, values) is not None:
        return None
    tc = values.count(True)
    tu = tc + values.count(None)

    def holds(k):  # the card's truth with exactly k members true
        return card.lo <= k and (card.hi == -1 or k <= card.hi)

    if not any(holds(k) == v for k in range(tc + 1, tu + 1)):  # a member set true
        return False
    if not any(holds(k) == v for k in range(tc, tu)):  # a member set false
        return True
    return None


class ReferenceSolver(Solver):
    """The solver with full-occurrence propagation: a queued id checks
    every clause that mentions it with either sign, satisfied or not.
    Clauses its value made true, or that are already satisfied, check as
    not unit, so models, model order and every counter must equal the
    solver's. A card, queued or just committed by a clause, is evaluated
    by _update_card, which forces by forced_value and sets each member
    through assign, not by Solver.propagate's fused loop. assign then
    queues the forcing card for its own members too; those evaluations
    find nothing to do."""

    def __init__(self, theory):
        super().__init__(theory)
        self.occ: list[list[int]] = [[] for _ in self.sat_by]
        for ci, cl in enumerate(theory.clauses):
            for lit in cl:
                self.occ[abs(lit)].append(ci)

    def propagate(self):
        while True:
            if self.dirty_cards:
                conf = self._update_card(self.dirty_cards.popleft())
            elif self.queue:
                qid = self.queue.popleft()
                conf = None
                for ci in self.occ[qid]:
                    conf = self._check_clause(ci)
                    if isinstance(conf, int):  # a card the clause committed
                        conf = self._update_card(conf)
                    if conf is not None:
                        break
            else:
                return None
            if conf is not None:
                return conf

    def _update_card(self, cid: int) -> Conflict | None:
        tc, lo, hi = self.card_true[cid], self.card_lo[cid], self.card_hi[cid]
        tu = tc + self.card_undec[cid]
        if tc >= lo and tu <= hi:
            st: bool | None = True
        elif tu < lo or tc > hi:
            st = False
        else:
            st = None
        v = self.assignment[cid]
        if v is None:
            if st is not None:
                return self.assign(cid, st)
            return None
        if st is not None:
            return None if st == v else Conflict("card", cid)
        force = forced_value(self, cid)
        if force is not None:
            for m in self.card_members[cid]:
                if self.assignment[m] is None:
                    self.assign(m, force)
        return None


def counted_scores(solver) -> tuple[list[int], list[int], int]:
    """The solver's sat_count, score and open_clauses recomputed from the
    trail entries it has counted, which are all but the pending ones: per
    clause its literals those entries make true, per atom its occurrences
    in the clauses with none, a card literal counting through its
    members, and the number of such clauses."""
    counted = set(solver.trail) - set(solver.pending)
    members = {c.id: c.members for c in solver.theory.cards}
    sat_count = []
    score = [0] * (solver.n_atoms + 1)
    for cl in solver.theory.clauses:
        true_lits = sum(abs(l) in counted and solver.assignment[abs(l)] == (l > 0) for l in cl)
        sat_count.append(true_lits)
        if not true_lits:
            for lit in cl:
                for aid in members.get(abs(lit), (abs(lit),)):
                    score[aid] += 1
    return sat_count, score, sat_count.count(0)


class CheckedSolver(Solver):
    """Checks that no id is left pending when a branch is picked, that
    the counts behind the branch scores match a rescan of the counted
    trail entries right after every backtrack and at every branch, the
    branch itself against a full rescan, that propagation left no clause
    unit or falsified, that every card's true and undetermined counts
    match its members' values, that every card with a determined status
    has that value committed, that no committed card with an open status
    has members left to force (forced_value), that the count of open
    clauses is exact, that no atom below low_atom is undetermined, and
    that the decision stack holds exactly the trail positions of the
    decisions not undone. Members a card forces are set without going
    through assign, so decisions are recorded where assign makes them
    and dropped where a backtrack cuts the trail below them."""

    def __init__(self, theory):
        super().__init__(theory)
        self.decided = []  # (trail position, id) of each decision in place

    def assign(self, ref, value, decision=False):
        if decision and self.assignment[ref] is None:
            self.decided.append((len(self.trail), ref))
        return super().assign(ref, value, decision)

    def _backtrack_flip(self):
        more = super()._backtrack_flip()
        assert (self.sat_count, self.score, self.open_clauses) == counted_scores(self)
        # the flipped decision is now the last trail entry, not a decision
        self.decided = [(pos, ref) for pos, ref in self.decided if pos < len(self.trail) - 1]
        return more

    def choose_branch(self):
        assert not self.pending, self.pending
        assert (self.sat_count, self.score, self.open_clauses) == counted_scores(self)
        for cid in range(self.n_atoms + 1, self.n_atoms + 1 + len(self.theory.cards)):
            values = [self.assignment[m] for m in self.card_members[cid]]
            counts = (self.card_true[cid], self.card_undec[cid])
            assert counts == (values.count(True), values.count(None)), (cid, counts, values)
            status = self.card_status(cid)
            assert status is None or self.assignment[cid] == status, (cid, status)
            assert forced_value(self, cid) is None, (cid, "forcing left undone")
        for ci, cl in enumerate(self.theory.clauses):
            true_lits = 0
            for lit in cl:
                v = self.assignment[abs(lit)]
                true_lits += v is not None and v == (lit > 0)
            assert self.sat_count[ci] == true_lits
            values = [lit_value(self, lit) for lit in cl]
            assert True in values or values.count(None) >= 2, (ci, cl, values)
        assert self.open_clauses == self.sat_count.count(0)
        assert None not in self.assignment[1 : min(self.low_atom, self.n_atoms + 1)], self.low_atom
        assert all(self.trail[pos] == ref for pos, ref in self.decided), (self.decided, self.trail)
        decided = [pos for pos, _ in self.decided]
        assert self.decision_pos == decided, (self.decision_pos, self.trail)
        aid = super().choose_branch()
        assert aid == reference_branch(self)
        return aid


# ---------------------------------------------------------------------------
# What aspps prints, rendered from ReferenceSolver's model dicts.


def reference_aspps_stdout(theory, max_models, pred=None) -> str:
    """Standard output of aspps -A (pred None) or -S pred: each model's
    true atoms through model_lines, a blank line between models, UNSAT
    when there is none."""
    models = ReferenceSolver(theory).run(max_models).models
    if not models:
        return "UNSAT\n"
    return "\n".join("".join(line + "\n" for line in model_lines(theory, m, pred)) for m in models)


def aspps_stdout_mismatch(theory, workdir, pred) -> str | None:
    """Runs aspps_main on the theory under -A -C, -S pred -C and -A -C 3
    inside workdir, where it appends its stat line; describes the first
    run whose exit code or standard output differs from
    reference_aspps_stdout, None when all agree."""
    fd, path = tempfile.mkstemp(suffix=".tdc", dir=workdir)
    with open(fd, "w", encoding="utf-8") as fh:
        fh.write(write_tdc(theory))
    runs = ((["-A", "-C"], None, None), (["-S", pred, "-C"], None, pred), (["-A", "-C", "3"], 3, None))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for flags, max_models, shown_pred in runs:
            out = io.StringIO()
            with redirect_stdout(out):
                code = aspps_main(["-f", path, *flags])
            want = reference_aspps_stdout(theory, max_models, shown_pred)
            if code != 0 or out.getvalue() != want:
                return f"aspps {' '.join(flags)}: exit {code}, printed {out.getvalue()!r}, expected {want!r}"
    finally:
        os.chdir(cwd)
        os.unlink(path)
    return None


# ---------------------------------------------------------------------------
# Grounding over the full product of the global variables' domains.


def reference_global_vars(clause) -> list[str]:
    """Clause variables in first-occurrence order, minus e-atom binders
    and schema-local condition variables (those occurring in one
    schema's conditions and in no other atom)."""
    atoms = clause.body + clause.head
    occ: dict[str, set[int]] = {}
    order: list[str] = []
    cond_vars: dict[int, set[str]] = {}
    ebound: set[str] = set()

    def note(v, pos):
        if v not in occ:
            occ[v] = set()
            order.append(v)
        occ[v].add(pos)

    for pos, atom in enumerate(atoms):
        if isinstance(atom, PlainAtom):
            for t in atom.args:
                for v in term_variables(t):
                    note(v, pos)
        elif isinstance(atom, EAtom):
            for t in atom.args:
                for v in term_variables(t):
                    note(v, pos)
            ebound.add(atom.bound_var)
        elif isinstance(atom, CAtomSchema):
            cv = set()
            for t in atom.member.args:
                for v in term_variables(t):
                    note(v, pos)
            for c in atom.conds:
                for t in c.args:
                    for v in term_variables(t):
                        note(v, pos)
                        cv.add(v)
            cond_vars[pos] = cv
        else:
            for t in atom.args:
                for v in term_variables(t):
                    note(v, pos)

    local = set()
    for pos, cv in cond_vars.items():
        for v in cv:
            if occ[v] == {pos}:
                local.add(v)
    return [v for v in order if v not in ebound and v not in local]


def reference_schema_locals(atom: CAtomSchema, bound) -> list[str]:
    """Condition variables of a schema that are not in bound, in
    first-occurrence order over the member and then the conditions."""
    order: list[str] = []
    for t in atom.member.args + tuple(t for c in atom.conds for t in c.args):
        for v in term_variables(t):
            if v not in order:
                order.append(v)
    cond_vars = {v for c in atom.conds for t in c.args for v in term_variables(t)}
    return [v for v in order if v in cond_vars and v not in bound]


class ReferenceGrounder(Grounder):
    """The grounder with neither plans nor pruning: every binding of a
    clause's global variables is substituted, and every atom of every
    instance is evaluated in clause order from a dict binding. The
    global and schema-local variables come from the reference walks
    above. Interning, card folding and output assembly are the package's
    own, so its output must equal the real grounder's byte for byte, and
    so must the first error it raises."""

    def instantiate_eatom(self, atom: EAtom, binding):
        if atom.pred not in self.pred_decls:
            raise GroundError(f"e-atom predicate {atom.pred} is not declared")
        prefix = tuple(eval_ground_term(t, binding) for t in atom.args[:-1])
        members, seen = [], set()
        for y in self.db.unary_domain(atom.domain_pred):
            aid = self.resolve_program_atom(atom.pred, prefix + (y,))
            if aid is not None and aid not in seen:
                seen.add(aid)
                members.append(aid)
        if not members:
            return False
        return self._make_card(1, None, members)

    def instantiate_catom(self, atom, binding):
        if isinstance(atom, CAtomList):
            args = tuple(eval_ground_term(t, binding) for t in atom.args)
            members, seen = [], set()
            for p in atom.preds:
                if p not in self.pred_decls:
                    raise GroundError(f"cardinality member {p} is not declared")
                aid = self.resolve_program_atom(p, args)
                if aid is not None and aid not in seen:
                    seen.add(aid)
                    members.append(aid)
            return self._make_card(atom.lo, atom.hi, members)
        if atom.member.pred not in self.pred_decls:
            raise GroundError(f"cardinality member {atom.member.pred} is not declared")
        locals_ = reference_schema_locals(atom, binding)
        domains = []
        for v in locals_:
            ty = self.var_types.get(v)
            if ty is None:
                raise GroundError(f"local variable {v} has no declared type")
            domains.append(self.db.unary_domain(ty))
        members, seen = [], set()
        for combo in itertools.product(*domains):
            b = dict(binding)
            b.update(zip(locals_, combo))
            if not all(self._condition_holds(c, b) for c in atom.conds):
                continue
            args = tuple(eval_ground_term(t, b) for t in atom.member.args)
            aid = self.resolve_program_atom(atom.member.pred, args)
            if aid is not None and aid not in seen:
                seen.add(aid)
                members.append(aid)
        return self._make_card(atom.lo, atom.hi, members)

    def _condition_holds(self, cond, binding):
        if cond.pred in COMPARISONS:
            return eval_predefined(cond, binding)
        if cond.pred in self.pred_decls:
            raise GroundError(f"condition {cond.pred} must use a data or predefined predicate")
        args = tuple(eval_ground_term(t, binding) for t in cond.args)
        return self.db.contains(cond.pred, args)

    def _atom_value(self, atom, binding):
        if isinstance(atom, PlainAtom):
            if atom.pred in self.pred_decls:
                args = tuple(eval_ground_term(t, binding) for t in atom.args)
                aid = self.resolve_program_atom(atom.pred, args)
                return False if aid is None else aid
            if atom.pred in COMPARISONS:
                return eval_predefined(atom, binding)
            args = tuple(eval_ground_term(t, binding) for t in atom.args)
            return self.db.contains(atom.pred, args)
        if isinstance(atom, EAtom):
            return self.instantiate_eatom(atom, binding)
        return self.instantiate_catom(atom, binding)

    def ground_clause(self, clause, binding):
        lits, seen = [], set()
        sat = False
        nbody = len(clause.body)
        for pos, atom in enumerate(clause.body + clause.head):
            positive = pos >= nbody
            val = self._atom_value(atom, binding)
            if isinstance(val, bool):
                if val is positive:
                    sat = True
                continue
            lit = val if positive else -val
            if -lit in seen:
                sat = True
            if lit not in seen:
                seen.add(lit)
                lits.append(lit)
        return None if sat else tuple(lits)

    def ground(self):
        for clause in self.prog.clauses:
            gvars = reference_global_vars(clause)
            domains = []
            for v in gvars:
                ty = self.var_types.get(v)
                if ty is None:
                    raise GroundError(f"variable {v} is not declared")
                domains.append(self.db.unary_domain(ty))
            for combo in itertools.product(*domains):
                result = self.ground_clause(clause, dict(zip(gvars, combo)))
                if result is not None:
                    self.raw_clauses.append(result)
        return self._assemble()


def reference_ground(prog, db):
    """Ground a checked program by full substitution; see ReferenceGrounder."""
    return ReferenceGrounder(prog, db).ground()
