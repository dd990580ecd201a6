"""Independent reference implementations the test suite checks against.

The naive grounder, model enumeration and status computation share no
logic with the package beyond the AST/theory data types: they are
re-derived from the definitions, the slow and obvious way. So is
ReferenceSolver, a chronological DPLL search that reads only the ground
theory and shares no search code with the solver: it checks clauses by
rescanning their literals (lit_value), evaluates cards by
status_by_completion and forced_value, and picks by a full rescan
(reference_branch). Three further references keep the package's own
earlier, plainer algorithm next to the optimized one and reuse its
primitives: model printing through model_lines (reference_aspps_stdout),
a clause's global and schema-local variables by per-atom-kind walks
(reference_global_vars, reference_schema_locals) and grounding over the
full product of the variable domains (reference_ground). counted_scores
recounts the branch scores from the trail, check_scores compares what
the branch pick reads with it, and CheckedSolver runs that check, with
the rest of the solver's state, forcing left undone included, at every
branch and backtrack. eval_arith, eval_ground_term and eval_predefined
evaluate a term or comparison under a dict binding through compile_term
and compile_comparison, the grounder's earlier evaluator: each term
becomes a tree of closures over a flat value list, with every check at
its node.
"""

from __future__ import annotations

import io
import itertools
import operator
import os
import tempfile
from collections import Counter, deque
from contextlib import redirect_stdout

from aspps.errors import GroundError
from aspps.grounder import Grounder
from aspps.model import (
    COMPARISONS,
    INT_MAX,
    INT_MIN,
    ArithExpr,
    CAtomList,
    CAtomSchema,
    EAtom,
    PlainAtom,
    Variable,
    term_variables,
)
from aspps.cli import aspps_main
from aspps.solver import SolveResult, SolveStats, Solver, model_lines
from aspps.tdc import write_tdc

# ---------------------------------------------------------------------------
# Terms compiled to closures. A term compiles into a closure over a flat
# list of variable values; `slots` maps each bound variable name to its
# index. The closures raise GroundError wherever evaluation goes wrong: a
# symbolic value in arithmetic or in an order comparison, a zero divisor
# or a result outside the 64-bit range.


def _trunc_div(a, b):
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


def _div(a, b):
    if b == 0:
        raise GroundError("division by zero")
    return _trunc_div(a, b)


def _mod(a, b):
    if b == 0:
        raise GroundError("mod by zero")
    return a - b * _trunc_div(a, b)


_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div,
    "mod": _mod,
    "max": max,
    "min": min,
}

_ORDER = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt}


def _raiser(message):
    def fail(vals):
        raise GroundError(message)

    return fail


def _const(value):
    return lambda vals: value


def compile_term(term, slots, arith=False):
    """A closure computing term's value. In arithmetic context a symbolic
    value is an error. Division truncates toward zero and mod(a,b) =
    a - b*trunc(a/b); anything overflowing or divided by zero is an
    error too."""
    if isinstance(term, Variable):
        i = slots[term.name]
        if not arith:
            return lambda vals: vals[i]

        def var(vals):
            v = vals[i]
            if isinstance(v, str):
                raise GroundError(f"symbolic constant {v!r} in arithmetic")
            return v

        return var
    if isinstance(term, ArithExpr):
        fa = compile_term(term.operands[0], slots, True)
        if term.op == "abs":

            def unary(vals):
                a = fa(vals)
                r = -a if a < 0 else a
                if r > INT_MAX:
                    raise GroundError("arithmetic overflow")
                return r

            return unary
        fb = compile_term(term.operands[1], slots, True)
        op = _BINARY[term.op]

        def binary(vals):
            r = op(fa(vals), fb(vals))
            if INT_MIN <= r <= INT_MAX:
                return r
            raise GroundError("arithmetic overflow")

        return binary
    if arith and isinstance(term, str):
        return _raiser(f"symbolic constant {term!r} in arithmetic")
    return _const(term)


def compile_comparison(atom: PlainAtom, slots):
    """A closure deciding a comparison atom. == works on any constants
    by identity; the order comparisons require integers."""
    fa, fb = (compile_term(t, slots) for t in atom.args)
    if atom.pred == "==":
        return lambda vals: fa(vals) == fb(vals)
    cmp = _ORDER[atom.pred]
    message = f"order comparison {atom.pred} on symbolic constants"

    def order(vals):
        a = fa(vals)
        b = fb(vals)
        if isinstance(a, str) or isinstance(b, str):
            raise GroundError(message)
        return cmp(a, b)

    return order


# ---------------------------------------------------------------------------
# Term evaluation under a dict binding of variable names, through the
# compiled terms above.


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
# Values, branch pick and forcing, read off the ground theory and an
# assignment list alone (solver.theory and solver.assignment).


def card_status(solver, cid: int) -> bool | None:
    """Card cid's status over its members' values (status_by_completion)."""
    card = solver.theory.card_by_id(cid)
    return status_by_completion(card.lo, card.hi, [solver.assignment[m] for m in card.members])


def lit_value(solver, lit: int) -> bool | None:
    """A literal's value under the solver's assignment: an atom's value,
    or a card's committed value, else its status (card_status)."""
    ref = abs(lit)
    v = solver.assignment[ref]
    if v is None and ref > solver.theory.n_atoms:
        v = card_status(solver, ref)
    if v is None:
        return None
    return v if lit > 0 else not v


def reference_branch(solver) -> int | None:
    """Undetermined atom occurring in the most unsatisfied clauses,
    counting cardinality literals through their members; lowest id
    breaks ties. With every clause satisfied, the lowest undetermined
    atom; None once the assignment is total. Recomputed from scratch by
    walking every clause under the solver's current assignment."""
    theory, assignment = solver.theory, solver.assignment
    n = theory.n_atoms
    score: dict[int, int] = {}
    for cl in theory.clauses:
        if any(lit_value(solver, l) is True for l in cl):
            continue
        for lit in cl:
            ref = abs(lit)
            for aid in (ref,) if ref <= n else theory.card_by_id(ref).members:
                if assignment[aid] is None:
                    score[aid] = score.get(aid, 0) + 1
    if score:
        return min(score.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    for aid in range(1, n + 1):
        if assignment[aid] is None:
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


class ReferenceSolver:
    """Three-valued DPLL with chronological backtracking, read off the
    ground theory by the definitions above and sharing no code with
    Solver. Setting an id queues it when its value makes some literal
    false, and queues each card it is a member of unless the card is
    settled (committed, with that value as its status). Propagation
    evaluates queued cards first: it commits a determined status, finds
    a conflict with a committed value, or forces members one by one
    (forced_value), in the card's member order. A queued id checks every
    clause it occurs in, in clause order, and a card a clause commits is
    evaluated at once. Set-up evaluates every card, then checks every
    clause in order, propagating after each. The pick is
    reference_branch, true first; a flip counts as a propagation."""

    def __init__(self, theory):
        self.theory = theory
        self.n_atoms = theory.n_atoms
        size = self.n_atoms + len(theory.cards) + 1
        self.assignment: list[bool | None] = [None] * size
        self.trail: list[int] = []
        self.decision_pos: list[int] = []  # trail positions of unflipped decisions
        self.queue: deque[int] = deque()
        self.dirty_cards: deque[int] = deque()
        self.decisions = self.propagations = self.conflicts = 0
        self.literals = {lit for cl in theory.clauses for lit in cl}
        self.occ: list[list[int]] = [[] for _ in range(size)]
        for ci, cl in enumerate(theory.clauses):
            for lit in cl:
                self.occ[abs(lit)].append(ci)
        self.member_of: list[list[int]] = [[] for _ in range(size)]
        for card in theory.cards:
            for m in card.members:
                self.member_of[m].append(card.id)

    @property
    def stats(self) -> SolveStats:
        return SolveStats(self.decisions, self.propagations, self.conflicts)

    def assign(self, ref, value, decision=False):
        self.assignment[ref] = value
        if decision:
            self.decision_pos.append(len(self.trail))
            self.decisions += 1
        elif ref <= self.n_atoms:
            self.propagations += 1
        self.trail.append(ref)
        if (-ref if value else ref) in self.literals:
            self.queue.append(ref)
        for cid in self.member_of[ref]:
            v = self.assignment[cid]
            if v is None or card_status(self, cid) != v:
                self.dirty_cards.append(cid)

    def _update_card(self, cid) -> bool:
        """Evaluate card cid; True on a conflict."""
        status, v = card_status(self, cid), self.assignment[cid]
        if v is None:
            if status is not None:
                self.assign(cid, status)
            return False
        if status is not None:
            return status != v
        force = forced_value(self, cid)
        if force is not None:
            for m in self.theory.card_by_id(cid).members:
                if self.assignment[m] is None:
                    self.assign(m, force)
        return False

    def _check(self, ci) -> bool:
        """Check clause ci; True when every literal is false. With one
        literal open and none true, set that literal's id."""
        cl = self.theory.clauses[ci]
        values = [lit_value(self, lit) for lit in cl]
        if True in values or values.count(None) > 1:
            return False
        if None not in values:
            return True
        lit = cl[values.index(None)]
        self.assign(abs(lit), lit > 0)
        return abs(lit) > self.n_atoms and self._update_card(abs(lit))

    def propagate(self) -> bool:
        """Run the queues to a fixpoint, False, or to a conflict, True."""
        while self.dirty_cards or self.queue:
            if self.dirty_cards:
                if self._update_card(self.dirty_cards.popleft()):
                    return True
            elif any(self._check(ci) for ci in self.occ[self.queue.popleft()]):
                return True
        return False

    def choose_branch(self) -> int | None:
        return reference_branch(self)

    def search(self, max_models=1):
        """Yield the assignment list at each model, until max_models
        (None: all of them)."""
        self.dirty_cards.extend(range(self.n_atoms + 1, len(self.assignment)))
        conflict = self.propagate() or any(
            self._check(ci) or self.propagate() for ci in range(len(self.theory.clauses))
        )
        found = 0
        while True:
            if not conflict:
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
            if not self.decision_pos:
                return
            pos = self.decision_pos.pop()
            aid = self.trail[pos]
            for ref in self.trail[pos:]:
                self.assignment[ref] = None
            del self.trail[pos:]
            self.assign(aid, False)  # the flip of a decision set true
            conflict = self.propagate()

    def run(self, max_models=1) -> SolveResult:
        n = self.n_atoms
        models = [dict(enumerate(a[1 : n + 1], 1)) for a in self.search(max_models)]
        return SolveResult(bool(models), models, self.stats)


def search_outcome(result) -> tuple:
    """What the differentials require equal between two solvers: the
    models in order, decisions and conflicts, and propagations on a run
    without conflicts. Unit propagation reaches one fixpoint whatever the
    order it visits clauses in, so only the atoms set before a conflict is
    noticed depend on that order: propagations may differ on a run with
    conflicts, and nothing else may."""
    s = result.stats
    return result.models, s.decisions, s.conflicts, None if s.conflicts else s.propagations


def counted_scores(solver) -> tuple[list[int], list[int]]:
    """The branch-score counts recomputed from the trail entries the
    solver has counted, which are all but the pending ones: per clause the
    solver counts (clause_lits), its literals those entries make true, and
    per atom its occurrences in the clauses of the theory with none, a
    card literal counting through its members."""
    counted = set(solver.trail) - set(solver.pending)
    members = {c.id: c.members for c in solver.theory.cards}

    def true_lits(cl):
        return sum(abs(l) in counted and solver.assignment[abs(l)] == (l > 0) for l in cl)

    score = [0] * (solver.n_atoms + 1)
    for cl in solver.theory.clauses:
        if not true_lits(cl):
            for lit in cl:
                for aid in members.get(abs(lit), (abs(lit),)):
                    score[aid] += 1
    return [true_lits(cl) for cl in solver.clause_lits], score


def check_scores(solver) -> None:
    """The counts behind the branch scores against counted_scores: every
    clause count the solver keeps and the score of every unset atom. The
    score of an assigned atom is representation, which the pick never
    reads; a wrong one shows only once the atom is unset and read at a
    later pick."""
    sat_count, score = counted_scores(solver)
    assert solver.sat_count == sat_count, (solver.sat_count, sat_count)
    unset = [aid for aid in range(1, solver.n_atoms + 1) if solver.assignment[aid] is None]
    got = {aid: solver.score[aid] for aid in unset}
    assert got == {aid: score[aid] for aid in unset}, got


class CheckedSolver(Solver):
    """Checks that assign is only given an unset id, that both queues are
    empty when a backtrack starts, that no id is left pending when a
    branch is picked, that the clause counts the solver keeps and the
    scores of the unset atoms match a rescan of the counted trail entries
    (check_scores) right after every backtrack and at every branch, the
    branch itself against a full rescan (reference_branch), that
    propagation left no clause unit or falsified, that every card's
    counts of true members and of members not false match its members'
    values, right after every backtrack and at every branch, that every
    card with a determined status has that value committed, that no
    committed card with an open status has members left to force
    (forced_value), that the closure mark is absent or a trail position
    up to which every clause holds, that no atom below low_atom is
    undetermined, and that the decision stack holds exactly the trail
    positions of the decisions not undone. Members a card forces are set
    without going through assign, so decisions are recorded where assign
    makes them and dropped where a backtrack cuts the trail below them."""

    def __init__(self, theory):
        super().__init__(theory)
        self.decided = []  # (trail position, id) of each decision in place

    def assign(self, ref, value, decision=False):
        assert self.assignment[ref] is None, f"id {ref} is already set"
        if decision:
            self.decided.append((len(self.trail), ref))
        super().assign(ref, value, decision)

    def _backtrack_flip(self):
        assert not self.queue and not self.dirty_cards, "queues not emptied before a backtrack"
        more = super()._backtrack_flip()
        check_scores(self)
        self._check_card_counts()
        # the flipped decision is now the last trail entry, not a decision
        self.decided = [(pos, ref) for pos, ref in self.decided if pos < len(self.trail) - 1]
        return more

    def _check_card_counts(self):
        """Every card's true and not-false counts against its members."""
        for cid in range(self.n_atoms + 1, self.n_atoms + 1 + len(self.theory.cards)):
            values = [self.assignment[m] for m in self.card_members[cid]]
            counts = (self.card_true[cid], self.card_live[cid])
            want = (values.count(True), len(values) - values.count(False))
            assert counts == want, (cid, counts, values)

    def choose_branch(self):
        assert not self.pending, self.pending
        check_scores(self)
        self._check_card_counts()
        for cid in range(self.n_atoms + 1, self.n_atoms + 1 + len(self.theory.cards)):
            status = self.card_status(cid)
            assert status is None or self.assignment[cid] == status, (cid, status)
            assert forced_value(self, cid) is None, (cid, "forcing left undone")
        for ci, cl in enumerate(self.clause_lits):  # every entry is counted here
            true_lits = 0
            for lit in cl:
                v = self.assignment[abs(lit)]
                true_lits += v is not None and v == (lit > 0)
            assert self.sat_count[ci] == true_lits
        for ci, cl in enumerate(self.theory.clauses):
            values = [lit_value(self, lit) for lit in cl]
            assert True in values or values.count(None) >= 2, (ci, cl, values)
        # The closure mark: absent, or a trail position up to which every
        # clause holds.
        closed_at = self.closed_at
        if closed_at >= 0:
            assert closed_at <= len(self.trail), closed_at
            held = set(self.trail[:closed_at])
            for ci, cl in enumerate(self.theory.clauses):
                assert any(abs(l) in held and self.assignment[abs(l)] == (l > 0) for l in cl), ci
        else:
            assert closed_at == -1, closed_at
        assert None not in self.assignment[1 : min(self.low_atom, self.n_atoms + 1)], self.low_atom
        assert all(self.trail[pos] == ref for pos, ref in self.decided), (self.decided, self.trail)
        decided = [pos for pos, _ in self.decided]
        assert self.decision_pos == decided, (self.decision_pos, self.trail)
        aid = super().choose_branch()
        assert aid == reference_branch(self)
        return aid


# ---------------------------------------------------------------------------
# What aspps prints, rendered from ReferenceSolver's model dicts.


def reference_aspps_stdout(theory, models, pred=None) -> str:
    """Standard output of aspps -A (pred None) or -S pred for these model
    dicts: each model's true atoms through model_lines, a blank line
    between models, UNSAT when there is none."""
    if not models:
        return "UNSAT\n"
    return "\n".join("".join(line + "\n" for line in model_lines(theory, m, pred)) for m in models)


def aspps_stdout_mismatch(theory, workdir, pred, models=None) -> str | None:
    """Runs aspps_main on the theory under -A -C, -S pred -C and -A -C 3
    inside workdir, where it appends its stat line; describes the first
    run whose exit code or standard output differs from
    reference_aspps_stdout, None when all agree. models is every model
    of the theory in ReferenceSolver's order, searched for when None;
    -C 3 expects the first three."""
    if models is None:
        models = ReferenceSolver(theory).run(None).models
    fd, path = tempfile.mkstemp(suffix=".tdc", dir=workdir)
    with open(fd, "w", encoding="utf-8") as fh:
        fh.write(write_tdc(theory))
    runs = (
        (["-A", "-C"], models, None),
        (["-S", pred, "-C"], models, pred),
        (["-A", "-C", "3"], models[:3], None),
    )
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for flags, shown_models, shown_pred in runs:
            out = io.StringIO()
            with redirect_stdout(out):
                code = aspps_main(["-f", path, *flags])
            want = reference_aspps_stdout(theory, shown_models, shown_pred)
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

    def run(self, sink):
        for clause in self.prog.clauses:
            gvars = reference_global_vars(clause)
            domains = []
            for v in gvars:
                ty = self.var_types.get(v)
                if ty is None:
                    raise GroundError(f"variable {v} is not declared")
                domains.append(self.db.unary_domain(ty))
            kept = []
            for combo in itertools.product(*domains):
                result = self.ground_clause(clause, dict(zip(gvars, combo)))
                if result is not None:
                    kept.append(result)
            sink(kept, True)  # renumber every clause


def reference_ground(prog, db):
    """Ground a checked program by full substitution; see ReferenceGrounder."""
    return ReferenceGrounder(prog, db).ground()
