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

Each clause runs as one kernel: Python source generated from the clause,
compiled and run once. It has one loop per global variable, in
first-occurrence order, so instances come out in the order of the full
cross product; CPython compiles at most 20 nested blocks, so the loops
run in chained nests of at most 16, each calling the next. Terms are
expressions over the loop variables (see aspps.terms), and constants,
predicate names, extensions and indexes reach the kernel as arguments,
never as source text. Each atom is emitted once, in clause order, and
the kernel's Emitter records whether any of that code can raise. Where
none can, a data or predefined atom is tested at the first loop level
where its variables are bound, and when it already satisfies the
instance the loops below it are skipped. Skipping is allowed only where
the skipped bindings could have no effect at all: besides that no code
can raise, every other atom is a program atom whose instances are all
interned already. Under the same condition a loop whose variable is the
last unbound argument of a data atom in the body draws its values from
an index of that atom's extension. Otherwise each binding is still
visited, so the atoms and cardinality constructs of dropped instances
are interned and errors surface at the same binding as a plain walk
over the product. Clauses of one shape share a kernel source, which a
Grounder compiles once.

A kernel appends the clauses it keeps to one list, which it hands to the
sink of Grounder.run at the head of every loop but the innermost once the
list holds CHUNK. Grounder.ground collects them into a GroundTheory;
ground_to_file, psgrnd's path, writes their lines to a spool file as they
come, so that its memory grows with the atoms and constructs, not with
the clauses.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import suppress
from itertools import islice, product
from math import prod
from pathlib import PurePath
from types import CodeType

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
from .tdc import HEADER, atom_lines, card_lines, clause_lines, count_line, unchecked_clauses
from .terms import NAMESPACE, Emitter, domain_range
from .theory import CardConstruct, GroundAtom, GroundTheory, ground_atom_text

_EMPTY: frozenset = frozenset()

# While grounding, a literal is a signed reference: an atom's id, or
# _CARD plus a construct's index, renumbered once the atoms are counted.
_CARD = 1 << 62

# Kept clauses reach the sink of Grounder.run in lists of about this many:
# a kernel hands them over at the head of each loop but its innermost.
CHUNK = 512

_BLOCK = 1 << 16  # bytes per read when copying the spool


# ---------------------------------------------------------------------------
# Static checks.


# Each global variable of a clause is one loop of its kernel. CPython
# compiles at most 20 statically nested blocks, so a kernel chains nests
# of at most _NEST loops, each calling the next: 16 nests at the limit.
MAX_CLAUSE_VARS = 256
_NEST = 16
# A kernel keeps a True from can_prune() in `saturated`: saturation is
# final for the clause, so it asks again only while the answer is no.
_PRUNE = "(saturated or (saturated := can_prune()))"


def check_program(prog: Program, db: DataDatabase) -> list[str]:
    """Validate a Program from parse_rule_file against the data and
    every declaration: no program predicate is defined by data, type and
    restriction predicates are data predicates with fitting extensions,
    so is each e-atom's domain, and no clause has more than
    MAX_CLAUSE_VARS variables. The rules a clause and the declarations
    before it show broken are the parser's (see aspps.parser). Returns a
    list of diagnostics; empty means the program may be grounded."""
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
        for atom in clause.body + clause.head:
            if isinstance(atom, EAtom):
                diags.extend(_check_type_pred(atom.domain_pred, decls, db, where))
    return diags


def _check_type_pred(ty, decls, db, where):
    if ty in decls:
        return [f"type predicate {ty} in {where} must be a data predicate"]
    if any(name == ty for name, _ in db.extensions) and (ty, 1) not in db.extensions:
        return [f"type predicate {ty} in {where} has no unary extension"]
    return []


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
        self.interned = dict.fromkeys(self.pred_decls, 0)  # atoms per predicate
        self._sizes: dict[str, int] = {}
        self._indexes: dict[tuple, dict] = {}
        # kernel source -> its code object: clauses of one shape share a
        # source, since their constants reach the kernel through make()
        self._kernels: dict[str, CodeType] = {}

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

    def _make_card(self, lo, hi, members):
        """Fold a member set with bounds into True, False or an interned
        construct; upper bounds clamp to the member count."""
        lo = 0 if lo is None else lo
        n = len(members)
        if n < lo:
            return False
        hi = -1 if hi is None else min(hi, n)
        if lo == 0 and hi in (-1, n):
            return True
        key = (lo, hi, frozenset(members))
        idx = self.card_ids.get(key)
        if idx is None:
            idx = len(self.card_list)
            self.card_ids[key] = idx
            self.card_list.append((lo, hi, tuple(sorted(members))))
        return _CARD + idx

    def _fold(self, lo, hi, instances):
        """The construct over the distinct ids of the (pred, args)
        instances that resolve."""
        members, seen = [], set()
        for pred, args in instances:
            aid = self.resolve_program_atom(pred, args)
            if aid is not None and aid not in seen:
                seen.add(aid)
                members.append(aid)
        return self._make_card(lo, hi, members)

    def _eatom(self, pred, domain, prefix):
        """An e-atom is 1{...} over the instances drawn from its domain,
        so with none it is plain false."""
        return self._fold(1, None, ((pred, prefix + (y,)) for y in domain))

    def _index(self, atom: PlainAtom, var, domain):
        """For a data atom whose last unbound variable is var: a table
        from the other arguments' values to the values of var, in domain
        order, that occur in the atom's extension beside them; and the
        terms of those other arguments."""
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
        return table, tuple(atom.args[p] for p in key_pos)

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
        clauses: list[tuple] = []
        card_runs: list[tuple[int, int]] = []  # (start, stop) in clauses

        def collect(chunk, cards):
            if cards:
                card_runs.append((len(clauses), len(clauses) + len(chunk)))
            clauses.extend(chunk)

        self.run(collect)
        n = len(self.atom_keys)
        for start, stop in card_runs:
            clauses[start:stop] = renumber_cards(clauses[start:stop], n)
        atoms = tuple(
            GroundAtom(i + 1, pred, args, ground_atom_text(pred, args))
            for i, (pred, args) in enumerate(self.atom_keys)
        )
        return GroundTheory(atoms, tuple(map(CardConstruct._make, self.card_rows())), tuple(clauses))

    def run(self, sink) -> None:
        """Ground a program that passes check_program, handing its kept
        clauses in order to sink(clauses, cards). clauses is a list that
        is cleared once the sink returns, of about CHUNK clauses and at
        most CHUNK plus one innermost loop's worth. cards is True when
        they come from a rule clause with an e-atom or a cardinality
        atom, alone: they may hold raw card references (_CARD + index),
        which renumber_cards resolves once the atoms are counted."""
        kept: list[tuple] = []
        cards = False

        def flush():
            if kept:
                sink(kept, cards)
                kept.clear()

        for clause in self.prog.clauses:
            gvars = self.global_vars(clause)
            domains = [self.db.unary_domain(self.var_types[v]) for v in gvars]
            if all(domains):
                has_cards = not all(isinstance(a, PlainAtom) for a in clause.body + clause.head)
                if has_cards or cards or len(kept) >= CHUNK:
                    flush()
                cards = has_cards
                self._ground_clause(clause, gvars, domains, kept, flush)
        flush()

    def card_rows(self):
        """(id, lo, hi, members) of each construct, in id order."""
        n = len(self.atom_keys)
        return ((n + 1 + i, lo, hi, members) for i, (lo, hi, members) in enumerate(self.card_list))

    def _ground_clause(self, clause: Clause, gvars, domains, kept, flush):
        """Generate the clause's kernel, compile it unless a clause of
        the same shape has, and run it once, keeping clauses in kept."""
        kernel = _Kernel(self, clause, gvars, domains)
        atom_keys = self.atom_keys
        saturated, checked_at = False, -1

        def can_prune():
            """Skipping bindings is safe: nothing in them can raise or
            intern a new atom. Called only when the clause is prunable."""
            nonlocal saturated, checked_at
            if not saturated and checked_at != len(atom_keys):
                checked_at = len(atom_keys)
                saturated = all(self.interned[p] == self._size(p) for p in kernel.preds)
            return saturated

        source = kernel.source()
        code = self._kernels.get(source)
        if code is None:
            code = self._kernels[source] = compile(source, "<kernel>", "exec")
        namespace = dict(NAMESPACE)
        exec(code, namespace)
        namespace.pop("make")(
            self.atom_ids.get, self.resolve_program_atom, kept.append, kept, flush,
            can_prune, self._fold, self._eatom, product, *kernel.em.consts,
        )()


def renumber_cards(clauses, n_atoms: int) -> list[tuple]:
    """The clauses with each raw card reference _CARD + i replaced by the
    id n_atoms + 1 + i of construct i."""
    shift = n_atoms + 1 - _CARD

    def renumber(lit):
        return lit + shift if lit >= _CARD else lit - shift if lit <= -_CARD else lit

    return [tuple(map(renumber, lits)) for lits in clauses]


class _Kernel:
    """The source of one clause's kernel: make(...) takes the grounder's
    callbacks, then the constants k0, k1, ... of em, and returns nest0,
    which keeps the clause's unsatisfied instances in kept, flushing it
    at a loop head once it holds CHUNK: body atoms contribute negated
    literals, head atoms positive ones, and () is the empty clause."""

    def __init__(self, g: Grounder, clause: Clause, gvars, domains):
        self.g, self.gvars, self.domains = g, gvars, domains
        atoms = clause.body + clause.head
        self.bound = set(gvars)
        self.slots = {v: i for i, v in enumerate(gvars)}
        ranges = {v: domain_range(d) for v, d in zip(gvars, domains)}
        self.local_domains = {}
        for atom in atoms:
            if isinstance(atom, CAtomSchema):
                for v in _schema_locals(atom, self.bound):
                    self.slots.setdefault(v, len(self.slots))
                    self.local_domains[v] = g.db.unary_domain(g.var_types[v])
                    ranges[v] = domain_range(self.local_domains[v])
        self.em = Emitter({v: f"v{i}" for v, i in self.slots.items()}, ranges)
        self.defs: list[str] = []
        self.lines: list[str] = []

        # Each atom is emitted once, in clause order: a data or predefined
        # atom as the expression of its truth, any other as the statements
        # that set val. Only then is it known whether the clause can raise.
        data = [isinstance(a, PlainAtom) and a.pred not in g.pred_decls for a in atoms]
        code = [self.test(a) if d else self.value(a) for a, d in zip(atoms, data)]
        safe = not self.em.checked
        self.prunable = safe and all(isinstance(a, PlainAtom) for a in atoms)
        self.preds = {a.pred for a in atoms if a.pred in g.pred_decls} if self.prunable else set()

        # A data or predefined atom is tested after binding its last
        # variable (tests[0]: before the loops) when the clause cannot
        # raise; every other atom is evaluated per binding, in order.
        self.tests: list[list] = [[] for _ in range(len(gvars) + 1)]
        self.rest = []
        for pos, (atom, is_data, c) in enumerate(zip(atoms, data, code)):
            positive = pos >= len(clause.body)
            if is_data and safe:
                level = max((self.slots[v] + 1 for v in atom_variables(atom)), default=0)
                self.tests[level].append((atom, positive, c if positive else f"not {c}"))
            else:
                self.rest.append((positive, [f"val = {c}"] if is_data else c))

    def source(self) -> str:
        """Nests of at most _NEST loops, each calling the next with the
        values bound so far."""
        n, lines = len(self.gvars), self.lines
        lines.append(" def nest0(saturated=False):")
        lines.append(f"  s0 = {' or '.join(e for _, _, e in self.tests[0]) or False}")
        if self.prunable:
            lines.append("  if s0 and can_prune(): return")
        sat = "s0"  # the name of the satisfied flag
        for c, start in enumerate(range(0, max(n, 1), _NEST)):
            if c:
                lines.append(f" def nest{c}({''.join(f'v{i}, ' for i in range(start))}{sat}, saturated):")
            stop = min(start + _NEST, n)
            depth, sat = self.loops(start, stop, sat)
            if stop < n:
                lines.append(f"{' ' * depth}nest{c + 1}({''.join(f'v{i}, ' for i in range(stop))}{sat}, saturated)")
            else:
                self.body(depth, sat)
        consts = "".join(f", k{i}" for i in range(len(self.em.consts)))
        head = f"def make(ids_get, resolve, keep, kept, flush, can_prune, fold, eatom, product{consts}):"
        return "\n".join([head, *self.defs, *lines, " return nest0\n"])

    def test(self, atom: PlainAtom) -> str:
        """An expression that is true when a data or predefined atom
        holds."""
        em = self.em
        if atom.pred in COMPARISONS:
            return em.comparison(atom)
        ext = self.g.db.extensions.get((atom.pred, len(atom.args)), _EMPTY)
        return f"({em.args(atom.args)} in {em.const(ext)})"

    def loops(self, start, stop, sat):
        """Loops over gvars[start:stop] in a nest; returns the depth
        inside them and the satisfied flag there."""
        em, depth = self.em, 2
        for i in range(start, stop):
            values = em.const(self.domains[i])
            for atom, positive, _ in self.tests[i + 1] if self.prunable else ():
                if not positive and atom.pred not in COMPARISONS and Variable(self.gvars[i]) in atom.args:
                    table, key = self.g._index(atom, self.gvars[i], self.domains[i])
                    values = f"({em.const(table)}.get({em.args(key)}, ()) if {_PRUNE} else {values})"
                    break
            self.lines.append(f"{' ' * depth}for v{i} in {values}:")
            depth += 1
            if i < len(self.gvars) - 1:
                self.lines.append(f"{' ' * depth}if len(kept) >= {CHUNK}: flush()")
            level = [e for _, _, e in self.tests[i + 1]]
            if level:
                self.lines.append(f"{' ' * depth}s{i + 1} = {' or '.join([sat] + level)}")
                sat = f"s{i + 1}"
            if self.prunable:
                self.lines.append(f"{' ' * depth}if {sat} and {_PRUNE}: continue")
        return depth, sat

    def body(self, depth, sat):
        """Evaluate the other atoms in clause order, then keep the
        instance unless an atom or a complementary pair satisfies it."""
        pad = " " * depth
        lines = self.lines
        lines += [f"{pad}sat = {sat}", f"{pad}lits = []"]
        for positive, code in self.rest:
            lit, neg = ("val", "-val") if positive else ("-val", "val")
            lines.extend(pad + line for line in code)
            lines.append(f"{pad}if val is {not positive}: pass")
            lines.append(f"{pad}elif val is {positive} or {neg} in lits: sat = True")
            lines.append(f"{pad}elif {lit} not in lits: lits.append({lit})")
        lines.append(f"{pad}if not sat: keep(tuple(lits))")

    def value(self, atom) -> list[str]:
        """Statements setting val to a program atom's, an e-atom's or a
        cardinality atom's True, False or reference."""
        em, g = self.em, self.g
        if isinstance(atom, PlainAtom):
            key = f"key = ({em.const(atom.pred)}, {em.args(atom.args)})"
            return [key, "val = ids_get(key)", "if val is None: val = resolve(*key) or False"]
        if isinstance(atom, EAtom):
            domain = em.const(g.db.unary_domain(atom.domain_pred))
            return [f"val = eatom({em.const(atom.pred)}, {domain}, {em.args(atom.args[:-1])})"]
        bounds = f"{em.const(atom.lo)}, {em.const(atom.hi)}"
        if isinstance(atom, CAtomList):
            pairs = "".join(f"({em.const(p)}, key), " for p in atom.preds)
            return [f"key = {em.args(atom.args)}", f"val = fold({bounds}, ({pairs}))"]
        # a schema lists its members in a function of the globals it uses
        params = ", ".join(f"v{self.slots[v]}" for v in atom_variables(atom) if v in self.bound)
        locals_ = _schema_locals(atom, self.bound)
        names = ", ".join(f"v{self.slots[v]}" for v in locals_)
        doms = ", ".join(em.const(self.local_domains[v]) for v in locals_)
        member = f"({em.const(atom.member.pred)}, {em.args(atom.member.args)})"
        conds = " and ".join(self.test(c) for c in atom.conds) or "True"
        if not locals_:
            members = f"[{member}] if {conds} else []"
        else:
            loop = doms if len(locals_) == 1 else f"product({doms})"
            members = f"[{member} for {names} in {loop} if {conds}]"
        name = f"schema{len(self.defs)}"
        self.defs.append(f" def {name}({params}):\n  return {members}")
        return [f"val = fold({bounds}, {name}({params}))"]


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


class _Spool:
    """The .tdc lines of a Grounder.run's kept clauses, in an anonymous
    file made in directory. take is the run's sink. The first OSError,
    on making the file or on writing it, is held in error; the clauses
    after it are only counted, and the run goes on."""

    def __init__(self, directory: str):
        import tempfile

        self.count = 0
        # [cards, bytes] of each stretch of the file: one per card chunk,
        # one per run of other chunks
        self.stretches: list[list] = []
        self.file = self.error = None
        try:
            self.file = tempfile.TemporaryFile(dir=directory)
        except OSError as exc:
            self.error = exc

    def take(self, clauses, cards) -> None:
        self.count += len(clauses)
        if self.error is None:
            data = clause_lines(clauses).encode()
            try:
                self.file.write(data)
            except OSError as exc:
                self.error = exc
                return
            if cards or not self.stretches or self.stretches[-1][0]:
                self.stretches.append([cards, len(data)])
            else:
                self.stretches[-1][1] += len(data)

    def finish(self) -> None:
        """Flush the file, then raise the error held, if any."""
        if self.error is None:
            try:
                self.file.flush()
            except OSError as exc:
                self.error = exc
        if self.error is not None:
            raise self.error

    def copy(self, write, n_atoms: int) -> None:
        """Pass the clause lines to write, in blocks, with the card
        references of card chunks renumbered."""
        self.file.seek(0)
        read = self.file.read
        for cards, size in self.stretches:
            if cards:
                write(clause_lines(renumber_cards(unchecked_clauses(read(size)), n_atoms)).encode())
                continue
            for start in range(0, size, _BLOCK):
                write(read(min(_BLOCK, size - start)))


def ground_to_file(prog: Program, db: DataDatabase, path: str) -> None:
    """Ground a program that passes check_program into the .tdc file
    path, byte for byte what write_tdc(Grounder(prog, db).ground())
    writes, while memory grows with the atoms and constructs alone: the
    clause lines go to a spool next to path as they are kept, and path
    gets the atom and construct lines, then a copy of the spool. An
    error of grounding comes first; an OSError of the spool is raised
    once grounding has succeeded, before path is opened. On any failure
    no file of this call is left."""
    g = Grounder(prog, db)
    spool = _Spool(os.path.dirname(path) or os.curdir)
    try:
        g.run(spool.take)
        spool.finish()
        _write_theory(g, spool, path)
    finally:
        if spool.file is not None:
            # closing flushes what is left: after a failure, let its
            # error stand
            with suppress(OSError):
                spool.file.close()


def _write_theory(g: Grounder, spool: _Spool, path: str) -> None:
    """Write the theory whose clause lines spool holds to path, and
    remove path again when that fails."""
    n = len(g.atom_keys)
    out = None
    try:
        with open(path, "wb") as out:
            out.write((HEADER + count_line("atoms", n)).encode())
            for start in range(0, n, CHUNK):
                keys = g.atom_keys[start : start + CHUNK]
                texts = (ground_atom_text(pred, args) for pred, args in keys)
                out.write(atom_lines(enumerate(texts, start + 1)).encode())
            out.write(count_line("cards", len(g.card_list)).encode())
            cards = g.card_rows()
            while chunk := list(islice(cards, CHUNK)):
                out.write(card_lines(chunk).encode())
            out.write(count_line("clauses", spool.count).encode())
            spool.copy(out.write, n)
    except BaseException:
        if out is not None:  # this call made it: leave no partial theory
            with suppress(OSError):
                os.remove(path)
        raise


def output_name(consts: dict[str, str], rule_file: str, data_files: list[str]) -> str:
    """Output file name: name=value pairs in command-line order, then the
    base names of the rule file and data files, hyphen-joined, plus .tdc."""
    parts = [f"{k}={v}" for k, v in consts.items()]
    parts.append(PurePath(rule_file).stem)
    parts.extend(PurePath(f).stem for f in data_files)
    return "-".join(parts) + ".tdc"
