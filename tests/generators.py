"""Seeded random inputs for the differential tests.

random_program emits rule/data *text*, so the parser is exercised on the
way to the grounder; random_ground_theory and random_pair_theory build
ground theories directly, and planted_coloring grounds a random
3-colorable graph through scripts/problems/color.rl; mutate_text garbles
a text a little, and mutate_terms edits the terms of a rule text's
clauses token by token. All are deterministic functions of the supplied
rng or seed.
"""

from __future__ import annotations

import random
import re

from aspps.theory import CardConstruct, GroundAtom, GroundTheory

from problems import COLOR_RULES, ground_problem

# ---------------------------------------------------------------------------
# Typed micro-programs: at most 3 data predicates (2 unary types plus one
# binary relation), domains of size <= 4, at most 4 clauses, every atom
# form reachable.


def random_program(rng: random.Random):
    """Returns (rule_text, data_text, tags); tags name the atom forms and
    features the instance actually uses."""
    tags = set()
    types = ["t1"] + (["t2"] if rng.random() < 0.5 else [])
    domains = {}
    data_lines = []
    for ty in types:
        size = rng.randint(1, 4)
        if rng.random() < 0.5:
            domains[ty] = list(range(1, size + 1))
            data_lines.append(f"{ty}[1..{size}].")
            tags.add("range")
        else:
            lowest = rng.randint(-2, 2)
            domains[ty] = list(range(lowest, lowest + size))
            data_lines.append(" ".join(f"{ty}({v})." for v in domains[ty]))

    rel = None
    if rng.random() < 0.6:
        rel = "e2"
        ta, tb = rng.choice(types), rng.choice(types)
        pairs = [(a, b) for a in domains[ta] for b in domains[tb]]
        rng.shuffle(pairs)
        keep = pairs[: rng.randint(0, min(5, len(pairs)))]
        if keep:
            data_lines.append(" ".join(f"e2({a},{b})." for a, b in keep))
        else:
            rel = "e2_empty"  # mentioned in rules but absent from data

    preds = [("p1", [rng.choice(types)], None)]
    if rng.random() < 0.8:
        restriction = "e2" if rel == "e2" and rng.random() < 0.4 else None
        if restriction:
            tags.add("restriction")
        preds.append(("p2", [rng.choice(types), rng.choice(types)], restriction))
    if rng.random() < 0.6:
        preds.append(("p3", [rng.choice(types)], None))

    decl_lines = []
    for name, args, restriction in preds:
        tail = f": {restriction}" if restriction else ""
        decl_lines.append(f"pred {name}({', '.join(args)}){tail}.")

    globals_by_type = {}
    pool = iter(["X", "Y", "U", "V"])
    for ty in types:
        globals_by_type[ty] = [next(pool), next(pool)]
    local_pool = [("L1", types[0]), ("L2", types[-1])]
    binder_pool = [("B1", types[0]), ("B2", types[-1])]
    var_lines = []
    for ty in types:
        names = list(globals_by_type[ty])
        names += [n for n, t in local_pool + binder_pool if t == ty]
        var_lines.append(f"var {ty} {', '.join(names)}.")
    global_vars = [(v, ty) for ty in types for v in globals_by_type[ty]]

    def term(depth=0):
        r = rng.random()
        if r < 0.45:
            return rng.choice(global_vars)[0]
        if r < 0.7 or depth > 0:
            return str(rng.randint(-1, 4))
        tags.add("arith")
        a, b = term(1), term(1)
        pick = rng.randrange(7)
        if pick == 0:
            return f"{a} + {b}"
        if pick == 1:
            return f"{a} - {b}"
        if pick == 2:
            return f"2 * {a}"
        if pick == 3:
            return f"abs({a} - {b})"
        if pick == 4:
            return f"max({a}, {b})"
        if pick == 5:
            return f"min({a}, {b}) / 2"
        return f"mod({a}, 3)"

    def prog_atom(allow_sym=True):
        name, args, _ = rng.choice(preds)
        rendered = []
        for _ty in args:
            if allow_sym and rng.random() < 0.08:
                rendered.append(rng.choice(["red", "blu"]))
                tags.add("symbol")
            else:
                rendered.append(term())
        return f"{name}({', '.join(rendered)})"

    def data_atom():
        if rel == "e2" and rng.random() < 0.5:
            return f"e2({term()}, {term()})"
        ty = rng.choice(types)
        return f"{ty}({term()})"

    def predef_atom():
        op = rng.choice(["==", "<=", ">=", "<", ">"])
        return f"{term()} {op} {term()}"

    def bounds(net=""):
        lo = rng.choice([None, 0, 1, 2])
        hi = rng.choice([None, None, 3, 2, 1])
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        pre = "" if lo is None else f"{lo} "
        post = "" if hi is None else f" {hi}"
        return pre, post

    def eatom(binders):
        usable = [p for p in preds if len(p[1]) >= 1]
        name, args, _ = rng.choice(usable)
        if not binders:
            return None
        bvar, _bty = binders.pop()
        firsts = [term() for _ in args[:-1]]
        dom = rng.choice(types)
        inner = ", ".join(firsts + [bvar])
        return f"{name}({inner}):{dom}({bvar})"

    def schema_catom(locals_avail):
        name, args, _ = rng.choice(preds)
        lvar = locals_avail.pop() if locals_avail and rng.random() < 0.8 else None
        member_args = []
        for i, _ty in enumerate(args):
            if lvar is not None and (i == len(args) - 1 or rng.random() < 0.5):
                member_args.append(lvar[0])
            else:
                member_args.append(term())
        conds = []
        n_conds = rng.randint(0, 2) if lvar is not None else rng.randint(0, 1)
        for _ in range(max(1, n_conds) if lvar is not None else n_conds):
            kind = rng.random()
            if lvar is not None and kind < 0.5:
                conds.append(f"{lvar[1]}({lvar[0]})")
            elif lvar is not None and kind < 0.75:
                op = rng.choice(["<=", "<", ">=", "==", ">"])
                conds.append(f"{lvar[0]} {op} {term()}")
            elif rel == "e2" and kind < 0.9:
                a = lvar[0] if lvar is not None and rng.random() < 0.5 else term()
                conds.append(f"e2({a}, {term()})")
            else:
                ty = rng.choice(types)
                conds.append(f"{ty}({term()})")
        pre, post = bounds()
        inner = ": ".join([f"{name}({', '.join(member_args)})"] + conds)
        return f"{pre}{{{inner}}}{post}"

    def list_catom():
        arity1 = [p for p in preds if len(p[1]) == 1]
        if len(arity1) < 2:
            return None
        chosen = rng.sample(arity1, 2)
        arg = term()
        pre, post = bounds()
        names = ", ".join(f"{p[0]}({arg})" for p in chosen)
        return f"{pre}{{{names}}}{post}"

    clause_lines = []
    for _ in range(rng.randint(1, 4)):
        locals_avail = list(local_pool)
        binders = list(binder_pool)

        def one_atom():
            roll = rng.random()
            if roll < 0.30:
                tags.add("plain")
                return prog_atom()
            if roll < 0.45:
                tags.add("data")
                return data_atom()
            if roll < 0.58:
                tags.add("predef")
                return predef_atom()
            if roll < 0.70:
                a = eatom(binders)
                if a is not None:
                    tags.add("eatom")
                    return a
                tags.add("plain")
                return prog_atom()
            if roll < 0.88:
                tags.add("schema")
                return schema_catom(locals_avail)
            a = list_catom()
            if a is not None:
                tags.add("list")
                return a
            tags.add("schema")
            return schema_catom(locals_avail)

        nbody = rng.randint(0, 3)
        nhead = rng.randint(0, 2)
        if nbody == 0 and nhead == 0:
            nhead = 1
        body = [one_atom() for _ in range(nbody)]
        head = [one_atom() for _ in range(nhead)]
        clause_lines.append(f"{', '.join(body)} -> {' | '.join(head)}.")

    rule_text = "\n".join(decl_lines + var_lines + clause_lines) + "\n"
    data_text = "\n".join(data_lines) + "\n"
    return rule_text, data_text, tags


# ---------------------------------------------------------------------------
# Random ground theories.


def random_ground_theory(
    rng: random.Random,
    max_atoms: int = 16,
    max_cards: int = 3,
    bias_small: bool = True,
    empty_clause_rate: float = 0.02,
) -> GroundTheory:
    n = rng.randint(1, max_atoms)
    if bias_small:
        n = min(n, rng.randint(1, max_atoms))
    atoms = tuple(GroundAtom(i + 1, f"a{i + 1}", (), f"a{i + 1}") for i in range(n))
    cards = []
    for j in range(rng.randint(0, max_cards)):
        k = rng.randint(1, n)
        members = tuple(sorted(rng.sample(range(1, n + 1), k)))
        lo = rng.randint(0, k + 1) if rng.random() < 0.15 else rng.randint(0, k)
        hi = -1 if rng.random() < 0.4 else rng.randint(lo, k + 1)
        cards.append(CardConstruct(n + 1 + j, lo, hi, members))
    refs = list(range(1, n + 1)) + [c.id for c in cards]
    clauses = []
    for _ in range(rng.randint(1, 2 * n + 2)):
        if rng.random() < empty_clause_rate:
            clauses.append(())
            continue
        length = rng.randint(1, min(4, len(refs)))
        picked = rng.sample(refs, length)
        clauses.append(tuple(r if rng.random() < 0.5 else -r for r in picked))
    return GroundTheory(atoms, tuple(cards), tuple(clauses))


def reorder_members(theory: GroundTheory, rng: random.Random | None = None) -> GroundTheory:
    """theory with every card's members in another order: reversed, or
    shuffled by rng. A .tdc need not list them sorted, though every
    generator here does."""
    cards = []
    for c in theory.cards:
        members = list(reversed(c.members))
        if rng is not None:
            rng.shuffle(members)
        cards.append(c._replace(members=tuple(members)))
    return theory._replace(cards=tuple(cards))


def random_pair_theory(
    rng: random.Random, min_atoms: int = 100, max_atoms: int = 300, max_cards: int = 4
) -> GroundTheory:
    """A theory of mostly pairs, two atom literals of random signs on
    different atoms, 0.8 to 1.2 per atom, with a few unit clauses, a few
    clauses of three or four literals, and the two-literal clauses that
    are not pairs: a | a, a | -a and an atom literal with a card literal.
    Clauses come in random order, so an id's pairs and longer clauses mix
    on either side. Needs min_atoms >= 2; with fewer than three atoms the
    longer clauses have two literals."""
    n = rng.randint(min_atoms, max_atoms)
    atoms = tuple(GroundAtom(i + 1, f"a{i + 1}", (), f"a{i + 1}") for i in range(n))
    cards = []
    for j in range(rng.randint(0, max_cards)):
        k = rng.randint(1, min(n, 6))
        members = tuple(sorted(rng.sample(range(1, n + 1), k)))
        lo = rng.randint(0, k)
        hi = -1 if rng.random() < 0.4 else rng.randint(lo, k)
        cards.append(CardConstruct(n + 1 + j, lo, hi, members))

    def lit(ref):
        return ref if rng.random() < 0.5 else -ref

    pairs = n * rng.randint(8, 12) // 10
    clauses = [tuple(lit(a) for a in rng.sample(range(1, n + 1), 2)) for _ in range(pairs)]
    for _ in range(rng.randint(0, 3)):
        clauses.append((lit(rng.randint(1, n)),))
    for _ in range(rng.randint(1, n // 10 + 1)):
        length = rng.randint(min(3, n), min(4, n))
        clauses.append(tuple(lit(a) for a in rng.sample(range(1, n + 1), length)))
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(1, n)
        clauses.append((lit(a), lit(a)))
    for c in cards:
        clauses.append((lit(rng.randint(1, n)), lit(c.id)))
    rng.shuffle(clauses)
    return GroundTheory(atoms, tuple(cards), tuple(clauses))


def planted_coloring(v: int, d: float, seed: int) -> GroundTheory:
    """The 3-coloring theory of scripts/problems/color.rl on a graph of v
    vertices and int(v * d) distinct edges, each joining two classes of a
    3-coloring drawn from random.Random(seed): the graph is colorable by
    construction. Needs int(v * d) below the number of such edges."""
    rng = random.Random(seed)
    planted = [rng.randrange(3) for _ in range(v + 1)]
    edges: dict[tuple[int, int], None] = {}
    while len(edges) < int(v * d):
        x, y = sorted(rng.sample(range(1, v + 1), 2))
        if planted[x] != planted[y]:
            edges[x, y] = None
    data = f"vtx[1..{v}].\ncolor[1..3].\n" + "".join(f"edge({x},{y}).\n" for x, y in edges)
    return ground_problem(COLOR_RULES, data, {})


# ---------------------------------------------------------------------------
# Small random edits of a source text, for the pinned-outcome tests.

MUTATION_ALPHABET = "abpqXY_()[]{}:,.|-><=!+*/ \n\t0123456789%→$"
MUTATION_WORDS = ("pred", "var", "abs", "mod", "max", "min", "->", "..", "X", "p(X)", "1{", "}2")


def mutate_text(rng: random.Random, text: str, words=MUTATION_WORDS) -> str:
    """One to three random edits: insert characters, delete or repeat a
    span, or insert one of words."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        j = rng.randint(i, min(len(text), i + 12))
        op = rng.choice(("insert", "delete", "repeat", "keyword"))
        if op == "insert":
            text = text[:i] + "".join(rng.choice(MUTATION_ALPHABET) for _ in range(rng.randint(1, 4))) + text[i:]
        elif op == "delete":
            text = text[:i] + text[j:]
        elif op == "repeat":
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i] + " " + rng.choice(words) + " " + text[i:]
    return text


# Token-level edits of the clauses of a rule text, most of which still
# parse: each swaps an integer, an operator or a declared variable, or
# rewrites one term t as abs(t), mod(t, d), max(t, d), t / 0 or
# t * 2**62, which make some clauses raise when they are grounded.

_CLAUSE_TOKEN = re.compile(r"\s+|->|==|<=|>=|[A-Za-z][A-Za-z0-9_]*|[0-9]+|.")
_COMPARE_OPS = ("==", "<=", ">=", "<", ">")
_ARITH_OPS = ("+", "-", "*", "/")
_SMALL_INTS = ("0", "1", "2", "3")


def mutate_terms(rng: random.Random, text: str) -> str:
    """One to three token edits in the clauses of a rule text."""
    lines = text.split("\n")
    declared = [n for line in lines if line.startswith("var ") for n in re.findall(r"[A-Za-z]\w*", line)[2:]]
    binders = set(re.findall(r"(\w+)\):\w+\(\1\)", text))
    declared = [n for n in declared if n not in binders]
    clause_rows = [i for i, line in enumerate(lines) if line.strip() and not line.startswith(("pred ", "var "))]
    if not clause_rows or not declared:
        return text
    for _ in range(rng.randint(1, 3)):
        row = rng.choice(clause_rows)
        toks = _CLAUSE_TOKEN.findall(lines[row])
        solid = [i for i, t in enumerate(toks) if not t.isspace()]
        # a term: not an e-atom binder, a negative literal's digits or a
        # cardinality bound next to a brace
        terms = [
            i for n, i in enumerate(solid)
            if (toks[i] in declared or toks[i].isdigit() and toks[i - 1] != "-")
            and "}" not in (toks[solid[n - 1]] if n else "")
            and "{" not in (toks[solid[n + 1]] if n + 1 < len(solid) else "")
        ]
        ops = [i for i, t in enumerate(toks) if t in _COMPARE_OPS or t in _ARITH_OPS]
        edit = rng.choice(("int", "op", "var", "wrap", "zero", "big"))
        if edit == "op" and ops:
            i = rng.choice(ops)
            toks[i] = rng.choice(_COMPARE_OPS if toks[i] in _COMPARE_OPS else _ARITH_OPS)
        elif terms:
            i = rng.choice(terms)
            t = toks[i]
            if edit == "int":
                toks[i] = rng.choice(_SMALL_INTS) if t.isdigit() else t
            elif edit == "var":
                toks[i] = rng.choice(declared)
            elif edit == "wrap":
                other = rng.choice(_SMALL_INTS + (rng.choice(declared),))
                toks[i] = rng.choice((f"abs({t})", f"mod({t}, {other})", f"max({t}, {other})"))
            elif edit == "zero":
                toks[i] = f"{t} / 0"
            else:
                toks[i] = f"{t} * 4611686018427387904"
        lines[row] = "".join(toks)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Edits of a ground theory, for the .tdc reader's pinned outcomes and for
# the rules Solver shares with it.

# Tokens a .tdc line edit puts in place of one token: keywords, ids near
# the edges of every range, signs and separators int() accepts, digits
# int() refuses (a superscript, more than 4 300 of them) and atom texts
# with a bracket missing.
_TDC_TOKENS = (
    "0", "1", "2", "-1", "-2", "+1", "1_0", "x", "²", "9" * 25, "1" * 4400,
    "tdc", "atoms", "cards", "clauses", "p(1", "p)", "p(1,)", "(",
)


def mutate_tdc_lines(rng: random.Random, text: str) -> str:
    """One to three line edits of a .tdc text: drop, repeat or swap a
    line, cut the text short, insert a blank line, or edit one token of
    a line (bump a number by one or two, replace, drop or add a token)."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        op = rng.choice(("drop", "repeat", "swap", "cut", "blank", "token", "token", "token"))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "cut":
            del lines[i:]
        elif op == "blank":
            lines.insert(i, rng.choice(("", "  ")))
        else:
            toks = lines[i].split(" ")
            j = rng.randrange(len(toks))
            edit = rng.choice(("bump", "replace", "drop", "add"))
            if edit == "bump" and toks[j].lstrip("-").isdigit():
                toks[j] = str(int(toks[j]) + rng.choice((-2, -1, 1, 2)))
            elif edit == "drop":
                del toks[j]
            elif edit == "add":
                toks.insert(j, rng.choice(_TDC_TOKENS))
            else:
                toks[j] = rng.choice(_TDC_TOKENS)
            lines[i] = " ".join(toks)
    return "\n".join(lines)


def break_ground_theory(rng: random.Random, theory: GroundTheory) -> GroundTheory:
    """One or two edits that may break a rule every ground theory keeps:
    a card's id or bounds moved, a member moved or repeated, or a clause
    literal moved, possibly to 0 or past the last id."""
    cards, clauses = list(theory.cards), list(theory.clauses)
    top = theory.n_atoms + len(cards)
    for _ in range(rng.randint(1, 2)):
        if cards and rng.random() < 0.6:
            j = rng.randrange(len(cards))
            c = cards[j]
            members = list(c.members)
            edit = rng.choice(("id", "lo", "hi", "member", "repeat"))
            delta = rng.choice((-2, -1, 1, 2))
            if edit == "id":
                c = CardConstruct(c.id + delta, c.lo, c.hi, c.members)
            elif edit == "lo":
                c = CardConstruct(c.id, c.lo + delta, c.hi, c.members)
            elif edit == "hi":
                c = CardConstruct(c.id, c.lo, c.hi + delta, c.members)
            elif members:
                k = rng.randrange(len(members))
                if edit == "member":
                    members[k] = rng.choice((0, -members[k], members[k] + delta, top))
                else:
                    members.insert(k, members[k])
                c = CardConstruct(c.id, c.lo, c.hi, tuple(members))
            cards[j] = c
        elif clauses:
            j = rng.randrange(len(clauses))
            lits = list(clauses[j])
            if lits:
                k = rng.randrange(len(lits))
                lits[k] = rng.choice((0, top + 1, -(top + 1), lits[k] + rng.choice((-1, 1)) * top))
                clauses[j] = tuple(lits)
    return GroundTheory(theory.atoms, tuple(cards), tuple(clauses))
