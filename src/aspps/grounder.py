"""Grounding: turn a checked program plus data into a ground theory.

Each clause is instantiated once per binding of its global variables
over their declared domains. Data and predefined atoms evaluate to
constants and simplify the clause; program atoms whose arguments fall
outside their declared types or restriction are constant false; e-atoms
and cardinality atoms become cardinality constructs, with structurally
identical constructs sharing one id. Every step is deterministic, so
grounding the same input twice produces byte-identical output.

Variables occurring in a cardinality schema's conditions and nowhere
else in the clause are local to the schema and enumerate its members;
all other variables (including ones occurring only in the member atom)
are global to the clause. The binder of an e-atom is local to it.

A clause is compiled once into a plan: its terms become closures over a
flat list of variable values, and its bindings are walked as nested
loops in global-variable order, so instances come out in the order of
the full cross product. A data or predefined atom is tested at the
first loop level where its variables are bound, and when it already
satisfies the instance the loops below it are skipped. Skipping is
allowed only where the skipped bindings could have no effect at all:
an interval check over the clause's domains shows that no evaluation
in the clause can raise, and every other atom is a program atom whose
instances are all interned already. Under the same condition a loop
whose variable is the last unbound argument of a data atom in the body
draws its values from an index of that atom's extension. Otherwise
each binding is still visited, so the atoms and cardinality constructs
of dropped instances are interned and errors surface at the same
binding as a plain walk over the product.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import prod
from pathlib import PurePath

from .database import DataDatabase
from .errors import GroundError
from .model import (
    COMPARISONS,
    CAtomList,
    CAtomSchema,
    Clause,
    EAtom,
    PlainAtom,
    Program,
    Variable,
    atom_variables,
    term_variables,
)
from .terms import atom_cannot_raise, compile_args, compile_comparison, domain_range
from .theory import CardConstruct, GroundAtom, GroundTheory, ground_atom_text

_EMPTY: frozenset = frozenset()

# While grounding, a literal is a signed reference: an atom's id, or
# _CARD plus a construct's index, renumbered once the atoms are counted.
_CARD = 1 << 62


# ---------------------------------------------------------------------------
# Static checks.


# Each variable of a clause can be one level of the grounder's recursive
# binding walk; with terms at most MAX_TERM_DEPTH deep, this keeps
# grounding well under Python's default recursion limit.
MAX_CLAUSE_VARS = 256


def check_program(prog: Program, db: DataDatabase) -> list[str]:
    """Validate a Program from parse_rule_file against the data, for the
    rules that need the data or every declaration; the rest is the
    parser's (see aspps.parser). Returns a list of diagnostics; empty
    means the program may be grounded."""
    diags: list[str] = []
    decls = {d.name: d for d in prog.pred_decls}
    data_names = db.predicate_names()
    for d in prog.pred_decls:
        if d.name in data_names:
            diags.append(
                f"predicate {d.name} is declared as a program predicate but also defined by data"
            )
        for ty in d.arg_types:
            diags.extend(_check_type_pred(ty, decls, db, f"declaration of {d.name}"))
        if d.restriction is not None:
            if d.restriction in decls:
                diags.append(f"restriction {d.restriction} of {d.name} must be a data predicate")
            elif (d.restriction, len(d.arg_types)) not in db.extensions:
                diags.append(
                    f"restriction {d.restriction}/{len(d.arg_types)} of {d.name}"
                    " is not defined by the data"
                )

    for v in prog.var_decls:
        diags.extend(_check_type_pred(v.type_pred, decls, db, f"declaration of {v.var_names[0]}"))

    for idx, clause in enumerate(prog.clauses, 1):
        where = f"clause {idx}" + (f" (line {clause.line})" if clause.line else "")
        n_vars = len({v for atom in clause.body + clause.head for v in atom_variables(atom)})
        if n_vars > MAX_CLAUSE_VARS:
            diags.append(f"{n_vars} variables in {where}, more than {MAX_CLAUSE_VARS}")
        diags.extend(_check_clause(clause, where, decls, db))
    return diags


def _check_type_pred(ty, decls, db, where):
    if ty in decls:
        return [f"type predicate {ty} in {where} must be a data predicate"]
    if any(name == ty for name, _ in db.extensions) and (ty, 1) not in db.extensions:
        return [f"type predicate {ty} in {where} has no unary extension"]
    return []


def _check_clause(clause, where, decls, db):
    diags = []
    atoms = clause.body + clause.head

    def check_pred(pred, nargs, what=None):
        """Check a program atom's arity; when what names the atom, pred
        must be a program predicate."""
        if pred not in decls:
            if what:
                diags.append(f"{what} {pred} in {where} must be a declared program predicate")
        elif len(decls[pred].arg_types) != nargs:
            diags.append(
                f"predicate {pred} expects {len(decls[pred].arg_types)}"
                f" argument(s), got {nargs} in {where}"
            )

    for pos, atom in enumerate(atoms):
        if isinstance(atom, PlainAtom):
            check_pred(atom.pred, len(atom.args))
        elif isinstance(atom, EAtom):
            check_pred(atom.pred, len(atom.args), "e-atom predicate")
            if atom.domain_pred in decls:
                diags.append(
                    f"e-atom domain {atom.domain_pred} in {where} must be a data predicate"
                )
            else:
                diags.extend(_check_type_pred(atom.domain_pred, decls, db, where))
            for other_pos, other in enumerate(atoms):
                if other_pos != pos and atom.bound_var in atom_variables(other):
                    diags.append(
                        f"e-atom binder {atom.bound_var} may not occur outside its atom in {where}"
                    )
                    break
        elif isinstance(atom, CAtomSchema):
            check_pred(atom.member.pred, len(atom.member.args), "cardinality member")
            diags.extend(
                f"condition {c.pred} in {where} must use a data or predefined predicate"
                for c in atom.conds
                if c.pred in decls
            )
        else:
            for p in atom.preds:
                check_pred(p, len(atom.args), "cardinality member")
    return diags


# ---------------------------------------------------------------------------
# Grounding proper.


class Grounder:
    """Holds the interning tables while grounding a program that passed
    check_program, which nothing here checks again.

    Atom ids are final as soon as they are interned; cardinality
    constructs are numbered after the total atom count is known.
    """

    def __init__(self, prog: Program, db: DataDatabase):
        self.prog = prog
        self.db = db
        self.pred_decls = {d.name: d for d in prog.pred_decls}
        self.var_types = {n: v.type_pred for v in prog.var_decls for n in v.var_names}
        self.atom_ids: dict[tuple, int] = {}
        self.atom_keys: list[tuple] = []
        self.card_ids: dict[tuple, int] = {}
        self.card_list: list[tuple] = []
        self.raw_clauses: list[tuple] = []
        self.interned = dict.fromkeys(self.pred_decls, 0)  # atoms per predicate
        self._sizes: dict[str, int] = {}
        self._indexes: dict[tuple, dict] = {}

    # -- atoms ------------------------------------------------------------

    def resolve_program_atom(self, pred, args):
        """Intern a ground program atom, or None when an argument falls
        outside its declared type or the restriction."""
        key = (pred, tuple(args))
        aid = self.atom_ids.get(key)
        if aid is not None:
            return aid
        decl = self.pred_decls[pred]
        for a, ty in zip(args, decl.arg_types):
            if not self.db.contains(ty, (a,)):
                return None
        if decl.restriction is not None and not self.db.contains(decl.restriction, args):
            return None
        aid = len(self.atom_keys) + 1
        self.atom_ids[key] = aid
        self.atom_keys.append(key)
        self.interned[pred] += 1
        return aid

    def _size(self, pred) -> int:
        """How many instances of pred its argument types and restriction
        allow; pred is saturated once that many are interned."""
        size = self._sizes.get(pred)
        if size is None:
            decl = self.pred_decls[pred]
            types = [self.db.extensions.get((ty, 1), _EMPTY) for ty in decl.arg_types]
            if decl.restriction is None:
                size = prod(len(t) for t in types)
            else:
                rows = self.db.extensions.get((decl.restriction, len(types)), _EMPTY)
                size = sum(all((a,) in t for a, t in zip(row, types)) for row in rows)
            self._sizes[pred] = size
        return size

    def _members(self, instances):
        """Distinct ids of the (pred, args) instances that resolve."""
        members, seen = [], set()
        for pred, args in instances:
            aid = self.resolve_program_atom(pred, args)
            if aid is not None and aid not in seen:
                seen.add(aid)
                members.append(aid)
        return members

    def _make_card(self, lo, hi, members):
        """Fold a member set with bounds into True, False or an interned
        construct; upper bounds clamp to the member count."""
        lo = 0 if lo is None else lo
        n = len(members)
        if n < lo:
            return False
        hi = -1 if hi is None else hi
        if hi != -1 and hi > n:
            hi = n
        if hi != -1 and lo > hi:
            return False
        if lo == 0 and (hi == -1 or hi >= n):
            return True
        key = (lo, hi, frozenset(members))
        idx = self.card_ids.get(key)
        if idx is None:
            idx = len(self.card_list)
            self.card_ids[key] = idx
            self.card_list.append((lo, hi, tuple(sorted(members))))
        return _CARD + idx

    # -- compiled atoms -----------------------------------------------------
    # Each closure takes the flat value list and returns True/False for a
    # constant atom, otherwise a reference.

    def _compile_atom(self, atom, slots, bound):
        if isinstance(atom, PlainAtom):
            if atom.pred not in self.pred_decls:
                return self._compile_test(atom, slots)
            pred, args = atom.pred, compile_args(atom.args, slots)
            resolve = self.resolve_program_atom

            def program(vals):
                aid = resolve(pred, args(vals))
                return False if aid is None else aid

            return program
        if isinstance(atom, EAtom):
            return self._compile_eatom(atom, slots)
        if isinstance(atom, CAtomList):
            return self._compile_list(atom, slots)
        return self._compile_schema(atom, slots, _schema_locals(atom, bound))

    def _compile_test(self, atom: PlainAtom, slots):
        """A data or predefined atom."""
        if atom.pred in COMPARISONS:
            return compile_comparison(atom, slots)
        args = compile_args(atom.args, slots)
        ext = self.db.extensions.get((atom.pred, len(atom.args)), _EMPTY)
        return lambda vals: args(vals) in ext

    def _compile_eatom(self, atom: EAtom, slots):
        """An e-atom becomes a 1{...} construct over the instances drawn
        from the domain predicate; with no instances it is plain false."""
        prefix = compile_args(atom.args[:-1], slots)

        def value(vals):
            pre = prefix(vals)
            domain = self.db.unary_domain(atom.domain_pred)
            members = self._members((atom.pred, pre + (y,)) for y in domain)
            return self._make_card(1, None, members) if members else False

        return value

    def _compile_list(self, atom: CAtomList, slots):
        args = compile_args(atom.args, slots)

        def value(vals):
            a = args(vals)
            return self._make_card(atom.lo, atom.hi, self._members((p, a) for p in atom.preds))

        return value

    def _compile_schema(self, atom: CAtomSchema, slots, locals_):
        """Members range over the local variables' domains, filtered by
        the conditions; locals take the slots after the globals."""
        pred = atom.member.pred
        member = compile_args(atom.member.args, slots)
        conds = [self._compile_test(c, slots) for c in atom.conds]
        local_slots = [slots[v] for v in locals_]

        def value(vals):
            domains = [self.db.unary_domain(self.var_types[v]) for v in locals_]

            def instances():
                for combo in product(*domains):
                    for s, c in zip(local_slots, combo):
                        vals[s] = c
                    if all(cond(vals) for cond in conds):
                        yield pred, member(vals)

            return self._make_card(atom.lo, atom.hi, self._members(instances()))

        return value

    def _candidates(self, atom: PlainAtom, var, domain, slots):
        """For a data atom whose last unbound variable is var: a closure
        from the bound values to the values of var, in domain order, that
        occur in the atom's extension beside them."""
        var_pos = atom.args.index(Variable(var))
        key_pos = tuple(p for p, t in enumerate(atom.args) if var not in term_variables(t))
        cache_key = (atom.pred, len(atom.args), key_pos, var_pos, self.var_types[var])
        table = self._indexes.get(cache_key)
        if table is None:
            rank = {v: r for r, v in enumerate(domain)}
            groups: dict[tuple, set] = {}
            for row in self.db.extensions.get((atom.pred, len(atom.args)), _EMPTY):
                if row[var_pos] in rank:
                    groups.setdefault(tuple(row[p] for p in key_pos), set()).add(row[var_pos])
            table = {k: sorted(vs, key=rank.__getitem__) for k, vs in groups.items()}
            self._indexes[cache_key] = table
        key = compile_args(tuple(atom.args[p] for p in key_pos), slots)
        return lambda vals: table.get(key(vals), ())

    # -- clauses ----------------------------------------------------------

    def global_vars(self, clause: Clause) -> list[str]:
        """Clause variables in first-occurrence order, minus e-atom
        binders and schema-local condition variables."""
        atoms = clause.body + clause.head
        # variable -> how many atoms it occurs in, in first-occurrence order
        counts = Counter(v for atom in atoms for v in atom_variables(atom))
        hidden = {atom.bound_var for atom in atoms if isinstance(atom, EAtom)}
        for atom in atoms:
            if isinstance(atom, CAtomSchema):
                hidden.update(v for c in atom.conds for v in atom_variables(c) if counts[v] == 1)
        return [v for v in counts if v not in hidden]

    def ground(self) -> GroundTheory:
        """Ground a program that passes check_program."""
        for clause in self.prog.clauses:
            gvars = self.global_vars(clause)
            domains = [self.db.unary_domain(self.var_types[v]) for v in gvars]
            if all(domains):
                self._ground_clause(clause, gvars, domains)
        return self._assemble()

    def _ground_clause(self, clause: Clause, gvars, domains):
        """Walk the bindings of one clause and keep its unsatisfied
        instances: body atoms contribute negated literals, head atoms
        positive ones, and () is the empty clause."""
        atoms = clause.body + clause.head
        nbody = len(clause.body)
        n = len(gvars)
        bound = set(gvars)
        slots = {v: i for i, v in enumerate(gvars)}
        ranges = {v: domain_range(d) for v, d in zip(gvars, domains)}
        for atom in atoms:
            if isinstance(atom, CAtomSchema):
                for v in _schema_locals(atom, bound):
                    slots.setdefault(v, len(slots))
                    ranges[v] = domain_range(self.db.unary_domain(self.var_types[v]))
        safe = all(atom_cannot_raise(atom, ranges) for atom in atoms)
        vals = [None] * len(slots)

        # A data or predefined atom is tested after binding its last
        # variable (tests[0]: before the loops) when the clause cannot
        # raise; every other atom is evaluated per binding, in order.
        tests: list[list] = [[] for _ in range(n + 1)]
        rest = []
        for pos, atom in enumerate(atoms):
            positive = pos >= nbody
            if safe and isinstance(atom, PlainAtom) and atom.pred not in self.pred_decls:
                level = max((slots[v] + 1 for t in atom.args for v in term_variables(t)), default=0)
                tests[level].append((self._compile_test(atom, slots), positive, atom))
            else:
                rest.append((positive, self._compile_atom(atom, slots, bound)))

        prunable = safe and all(isinstance(a, PlainAtom) for a in atoms)
        preds = {a.pred for a in atoms if a.pred in self.pred_decls} if prunable else set()
        candidates = [None] * n
        if prunable:
            for i, v in enumerate(gvars):
                for _test, positive, atom in tests[i + 1]:
                    if not positive and atom.pred not in COMPARISONS and Variable(v) in atom.args:
                        candidates[i] = self._candidates(atom, v, domains[i], slots)
                        break
        tests = [[(test, positive) for test, positive, _atom in level] for level in tests]

        atom_keys, raw = self.atom_keys, self.raw_clauses
        saturated, checked_at = False, -1

        def can_prune():
            """Skipping bindings is safe: nothing in them can raise or
            intern a new atom."""
            nonlocal saturated, checked_at
            if saturated or not prunable:
                return saturated
            if checked_at != len(atom_keys):
                checked_at = len(atom_keys)
                saturated = all(self.interned[p] == self._size(p) for p in preds)
            return saturated

        def emit(sat):
            lits, seen = [], set()
            for positive, value in rest:
                val = value(vals)
                if val is True or val is False:
                    if val is positive:
                        sat = True
                    continue
                lit = val if positive else -val
                if -lit in seen:
                    sat = True
                if lit not in seen:
                    seen.add(lit)
                    lits.append(lit)
            if not sat:
                raw.append(tuple(lits))

        def walk(i, sat):
            if i == n:
                emit(sat)
                return
            pick = candidates[i]
            values = pick(vals) if pick is not None and can_prune() else domains[i]
            level_tests = tests[i + 1]
            for v in values:
                vals[i] = v
                s = sat
                if not s:
                    for test, positive in level_tests:
                        if test(vals) is positive:
                            s = True
                            break
                if s and can_prune():
                    continue
                walk(i + 1, s)

        sat = any(test(vals) is positive for test, positive in tests[0])
        if not (sat and can_prune()):
            walk(0, sat)
        walk = None  # it refers to itself; free the plan now, not at the next collection

    def _assemble(self) -> GroundTheory:
        n = len(self.atom_keys)
        atoms = tuple(
            GroundAtom(i + 1, pred, args, ground_atom_text(pred, args))
            for i, (pred, args) in enumerate(self.atom_keys)
        )
        cards = tuple(
            CardConstruct(n + 1 + i, lo, hi, members)
            for i, (lo, hi, members) in enumerate(self.card_list)
        )

        shift = n + 1 - _CARD

        def renumber(lit):
            return lit + shift if lit >= _CARD else lit - shift if lit <= -_CARD else lit

        clauses = tuple(
            tuple(map(renumber, lits)) if any(abs(l) >= _CARD for l in lits) else lits
            for lits in self.raw_clauses
        )
        return GroundTheory(atoms, cards, clauses)


def _schema_locals(atom: CAtomSchema, bound) -> list[str]:
    """Condition variables of a schema that are not bound globally, in
    first-occurrence order over the member and then the conditions."""
    cond_vars = {v for c in atom.conds for v in atom_variables(c)}
    return [v for v in atom_variables(atom) if v in cond_vars and v not in bound]


def ground_theory(prog: Program, db: DataDatabase) -> GroundTheory:
    """Ground a program; one that fails check_program raises its first
    diagnostic."""
    diags = check_program(prog, db)
    if diags:
        raise GroundError(diags[0])
    return Grounder(prog, db).ground()


def output_name(consts: dict[str, str], rule_file: str, data_files: list[str]) -> str:
    """Output file name: name=value pairs in command-line order, then the
    base names of the rule file and data files, hyphen-joined, plus .tdc."""
    parts = [f"{k}={v}" for k, v in consts.items()]
    parts.append(PurePath(rule_file).stem)
    parts.extend(PurePath(f).stem for f in data_files)
    return "-".join(parts) + ".tdc"
