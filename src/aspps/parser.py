"""Tokenizer and recursive-descent parsers for data and rule files.

Statements end with '.', comments run from '%' to end of line, and rule
file statements may span lines (data atoms must fit on one line):

  data file   p(c1,...,cn).        ground atom, constants only
              p[m..n].             range, expands to p(m),...,p(n)
  rule file   pred q(d1,...,dn).   program predicate declaration
              pred q(...): dm.     declaration with restriction predicate
              var d X, Y.          variable declarations, typed by d
              A1,...,Am -> B1|...|Bn.    clause; either side may be empty

Clause atoms are plain p(t,...), infix comparisons (== <= >= < >),
e-atoms p(t,Y):d(Y), or cardinality atoms m{...}n in schema form
p(t):cond:...:cond or list form p1(t),...,pk(t). Terms admit + - * /
infix arithmetic plus abs, mod, max, min calls.

An identifier starting with an upper-case letter is a variable reference
and must be declared before use; any other undeclared identifier is a
symbolic constant or predicate name. Command-line constants are
substituted token by token before parsing, so positions in diagnostics
always refer to the original text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .model import (
    ARITH_OPS,
    COMPARISONS,
    INT_MAX,
    INT_MIN,
    ArithExpr,
    CAtomList,
    CAtomSchema,
    Clause,
    Const,
    EAtom,
    PlainAtom,
    PredDecl,
    Program,
    Term,
    Variable,
    VarDecl,
)

KEYWORDS = frozenset({"pred", "var"})
FUNC_NAMES = frozenset({"abs", "mod", "max", "min"})
MAX_TERM_DEPTH = 100
RESERVED_PRED = KEYWORDS | FUNC_NAMES

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")

# multi-character punctuation first so '->' wins over '-', '..' over '.'
_PUNCT2 = ("->", "==", "<=", ">=", "..")
_PUNCT1 = "()[]{},.:|<>+-*/"

DataAtom = tuple[str, tuple[Const, ...]]


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "punct"
    value: str | int
    line: int
    col: int


def _check_int_range(value, file, line, col):
    if not INT_MIN <= value <= INT_MAX:
        raise ParseError(f"integer constant {value} out of 64-bit range", file, line, col)
    return value


def _subst_token(name, raw, file, line, col):
    """Turn a -c value into the token that replaces the constant name."""
    text = raw.strip()
    try:
        return Token("int", _check_int_range(int(text, 10), file, line, col), line, col)
    except ValueError:
        pass
    if _IDENT_RE.fullmatch(text):
        return Token("ident", text, line, col)
    raise ParseError(
        f"value {raw!r} of constant {name} is not a valid token", file, line, col
    )


def tokenize(text: str, consts: dict[str, str] | None = None, file: str = "<input>") -> list[Token]:
    """Lex a source text, applying constant substitution to identifier
    tokens whose name appears in consts."""
    consts = consts or {}
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "→":  # UTF-8 arrow, synonym for ->
            tokens.append(Token("punct", "->", line, col))
            i += 1
            col += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            name = m.group()
            if name in consts:
                tokens.append(_subst_token(name, consts[name], file, line, col))
            else:
                tokens.append(Token("ident", name, line, col))
            i = m.end()
            col += len(name)
            continue
        m = _INT_RE.match(text, i)
        if m:
            value = _check_int_range(int(m.group(), 10), file, line, col)
            tokens.append(Token("int", value, line, col))
            i = m.end()
            col += len(m.group())
            continue
        two = text[i : i + 2]
        if two in _PUNCT2:
            tokens.append(Token("punct", two, line, col))
            i += 2
            col += 2
            continue
        if c in _PUNCT1:
            tokens.append(Token("punct", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"illegal character {c!r}", file, line, col)
    return tokens


def _statements(tokens, file):
    """Split a token stream on '.' terminators."""
    stmts, cur = [], []
    for t in tokens:
        if t.kind == "punct" and t.value == ".":
            if not cur:
                raise ParseError("empty statement", file, t.line, t.col)
            stmts.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        t = cur[-1]
        raise ParseError("statement not terminated by '.'", file, t.line, t.col)
    return stmts


def expand_range(pred: str, lo: int, hi: int) -> set[DataAtom]:
    """Expand pred[lo..hi] into the atoms pred(lo), ..., pred(hi)."""
    if lo > hi:
        raise ValueError(f"empty range {pred}[{lo}..{hi}]")
    return {(pred, (i,)) for i in range(lo, hi + 1)}


class _Cursor:
    """Shared token-walking helpers for the statement parsers."""

    def __init__(self, toks, file):
        self.toks = toks
        self.file = file
        self.pos = 0

    def peek(self, ahead=0):
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else None

    def at_punct(self, *values, ahead=0):
        t = self.peek(ahead)
        return t is not None and t.kind == "punct" and t.value in values

    def take(self):
        t = self.peek()
        if t is None:
            self.fail("unexpected end of statement")
        self.pos += 1
        return t

    def expect_punct(self, value):
        t = self.peek()
        if t is None or t.kind != "punct" or t.value != value:
            self.fail(f"expected '{value}'")
        self.pos += 1
        return t

    def expect_ident(self, what="identifier"):
        t = self.peek()
        if t is None or t.kind != "ident":
            self.fail(f"expected {what}")
        self.pos += 1
        return t

    def done(self):
        return self.pos >= len(self.toks)

    def fail(self, message, tok=None):
        tok = tok or self.peek() or self.toks[-1]
        raise ParseError(message, self.file, tok.line, tok.col)


def parse_data_file(text: str, consts: dict[str, str] | None = None, file: str = "<data>") -> set[DataAtom]:
    """Parse a data file into a deduplicated set of ground atoms."""
    atoms: set[DataAtom] = set()
    for stmt in _statements(tokenize(text, consts, file), file):
        if stmt[0].line != stmt[-1].line:
            raise ParseError(
                "data statement must fit on a single line", file, stmt[0].line, stmt[0].col
            )
        cur = _Cursor(stmt, file)
        name_tok = cur.expect_ident("predicate name")
        name = name_tok.value
        if name in RESERVED_PRED:
            cur.fail(f"reserved word {name!r} cannot name a predicate", name_tok)
        if cur.at_punct("["):
            cur.take()
            lo = _range_bound(cur)
            cur.expect_punct("..")
            hi = _range_bound(cur)
            cur.expect_punct("]")
            if not cur.done():
                cur.fail("unexpected token after range")
            if lo > hi:
                raise ParseError(
                    f"empty range {name}[{lo}..{hi}]", file, name_tok.line, name_tok.col
                )
            atoms |= expand_range(name, lo, hi)
        elif cur.at_punct("("):
            cur.take()
            args = [_data_const(cur)]
            while cur.at_punct(","):
                cur.take()
                args.append(_data_const(cur))
            cur.expect_punct(")")
            if not cur.done():
                cur.fail("unexpected token after atom")
            atoms.add((name, tuple(args)))
        elif cur.done():
            atoms.add((name, ()))
        else:
            cur.fail("expected '(' or '[' after predicate name")
    return atoms


def _range_bound(cur):
    t = cur.peek()
    if t is not None and t.kind == "int":
        cur.take()
        if t.value < 0:
            cur.fail("range bounds must be non-negative integers", t)
        return t.value
    cur.fail("range bounds must be non-negative integers (substitute constants with -c)")


def _data_const(cur):
    t = cur.peek()
    if t is None:
        cur.fail("expected constant")
    if t.kind == "int":
        cur.take()
        return t.value
    if t.kind == "punct" and t.value == "-":
        cur.take()
        v = cur.peek()
        if v is None or v.kind != "int":
            cur.fail("expected integer after '-'")
        cur.take()
        return _check_int_range(-v.value, cur.file, t.line, t.col)
    if t.kind == "ident":
        if t.value[0].isupper():
            cur.fail(f"variable {t.value} not allowed in a data file", t)
        if t.value in KEYWORDS:
            cur.fail(f"reserved word {t.value!r} cannot be a constant", t)
        cur.take()
        return t.value
    cur.fail("expected constant")


# ---------------------------------------------------------------------------
# Rule files.


def parse_rule_file(text: str, consts: dict[str, str] | None = None, file: str = "<rules>") -> Program:
    """Parse declarations and clauses into a Program.

    Declarations must precede the first use of what they declare; this
    holds by construction for variables (an undeclared upper-case name
    is rejected where it occurs) and is checked retroactively for
    predicate declarations and for lower-case variable names that were
    already taken for constants.
    """
    prog = Program()
    var_types: dict[str, str] = {}
    pred_seen: dict[str, PredDecl] = {}
    used_preds: set[str] = set()
    used_consts: set[str] = set()
    for stmt in _statements(tokenize(text, consts, file), file):
        first = stmt[0]
        if first.kind == "ident" and first.value == "pred":
            decl = _parse_pred_decl(_Cursor(stmt, file))
            if decl.name in pred_seen:
                same = pred_seen[decl.name] == decl
                raise ParseError(
                    f"predicate {decl.name} declared twice"
                    + ("" if same else " with different signatures"),
                    file, first.line, first.col,
                )
            if decl.name in used_preds:
                raise ParseError(
                    f"predicate {decl.name} declared after use", file, first.line, first.col
                )
            pred_seen[decl.name] = decl
            prog.pred_decls.append(decl)
        elif first.kind == "ident" and first.value == "var":
            vdecl = _parse_var_decl(_Cursor(stmt, file), var_types, used_consts)
            prog.var_decls.append(vdecl)
        else:
            clause = _ClauseParser(stmt, file, var_types).parse()
            prog.clauses.append(clause)
            _note_uses(clause, used_preds, used_consts)
    return prog


def _parse_pred_decl(cur):
    cur.take()  # 'pred'
    name_tok = cur.expect_ident("predicate name")
    name = name_tok.value
    if name in RESERVED_PRED:
        cur.fail(f"reserved word {name!r} cannot name a predicate", name_tok)
    arg_types = []
    if cur.at_punct("("):
        cur.take()
        arg_types.append(cur.expect_ident("type predicate").value)
        while cur.at_punct(","):
            cur.take()
            arg_types.append(cur.expect_ident("type predicate").value)
        cur.expect_punct(")")
    restriction = None
    if cur.at_punct(":"):
        cur.take()
        if not arg_types:
            cur.fail("restriction requires a declared argument list")
        restriction = cur.expect_ident("restriction predicate").value
    if not cur.done():
        cur.fail("unexpected token in pred declaration")
    return PredDecl(name, tuple(arg_types), restriction)


def _parse_var_decl(cur, var_types, used_consts):
    cur.take()  # 'var'
    type_tok = cur.expect_ident("type predicate")
    names = []
    while True:
        t = cur.expect_ident("variable name")
        name = t.value
        if name in RESERVED_PRED:
            cur.fail(f"reserved word {name!r} cannot name a variable", t)
        if name in var_types:
            cur.fail(f"duplicate variable declaration for {name}", t)
        if name in used_consts:
            cur.fail(f"variable {name} declared after use as a constant", t)
        names.append(name)
        var_types[name] = type_tok.value
        if cur.at_punct(","):
            cur.take()
            continue
        break
    if not cur.done():
        cur.fail("unexpected token in var declaration")
    return VarDecl(type_tok.value, tuple(names))


def _note_uses(clause, used_preds, used_consts):
    def walk_term(t):
        if isinstance(t, str):
            used_consts.add(t)
        elif isinstance(t, ArithExpr):
            for s in t.operands:
                walk_term(s)

    def walk_plain(a):
        if a.pred not in COMPARISONS:
            used_preds.add(a.pred)
        for t in a.args:
            walk_term(t)

    for atom in clause.body + clause.head:
        if isinstance(atom, PlainAtom):
            walk_plain(atom)
        elif isinstance(atom, EAtom):
            used_preds.add(atom.pred)
            used_preds.add(atom.domain_pred)
            for t in atom.args:
                walk_term(t)
        elif isinstance(atom, CAtomSchema):
            walk_plain(atom.member)
            for c in atom.conds:
                walk_plain(c)
        else:
            used_preds.update(atom.preds)
            for t in atom.args:
                walk_term(t)


_ATOM_END = (",", "|", "->", "}")


class _ClauseParser(_Cursor):
    def __init__(self, toks, file, var_types):
        super().__init__(toks, file)
        self.var_types = var_types

    def parse(self):
        line = self.toks[0].line
        body, head = [], []
        if not self.at_punct("->"):
            body.append(self.parse_atom())
            while self.at_punct(","):
                self.take()
                body.append(self.parse_atom())
        self.expect_punct("->")
        if not self.done():
            head.append(self.parse_atom())
            while self.at_punct("|"):
                self.take()
                head.append(self.parse_atom())
        if not self.done():
            self.fail("expected end of statement")
        if not body and not head:
            t = self.toks[0]
            raise ParseError("clause has an empty body and an empty head", self.file, t.line, t.col)
        return Clause(tuple(body), tuple(head), line=line)

    # -- atoms ------------------------------------------------------------

    def parse_atom(self):
        t = self.peek()
        if t is None:
            self.fail("expected atom")
        if self.at_punct("{"):
            return self.parse_catom(None)
        if t.kind == "int" and self.at_punct("{", ahead=1):
            self.take()
            if t.value < 0:
                self.fail("cardinality bounds must be non-negative", t)
            return self.parse_catom(t.value)
        if t.kind == "ident" and self.at_punct("{", ahead=1):
            self.fail(
                f"cardinality bound {t.value!r} is not an integer (substitute it with -c)", t
            )
        if t.kind == "ident" and self.at_punct("(", ahead=1) and t.value not in FUNC_NAMES:
            atom = self.parse_pred_atom()
            if self.at_punct(":"):
                return self.parse_eatom_tail(atom)
            return atom
        if t.kind == "ident" and (self.peek(1) is None or self.at_punct(*_ATOM_END, ahead=1)):
            # bare identifier: a 0-ary atom, unless it names a variable
            self.take()
            if t.value in self.var_types:
                self.fail(f"variable {t.value} cannot stand alone as an atom", t)
            if t.value in RESERVED_PRED:
                self.fail(f"reserved word {t.value!r} cannot name a predicate", t)
            if t.value[0].isupper():
                self.fail(f"variable {t.value} not declared", t)
            return PlainAtom(t.value)
        left = self.parse_term()
        op = self.peek()
        if op is None or op.kind != "punct" or op.value not in COMPARISONS:
            self.fail("expected comparison operator after term")
        self.take()
        right = self.parse_term()
        return PlainAtom(op.value, (left, right))

    def parse_pred_atom(self):
        name_tok = self.expect_ident("predicate name")
        name = name_tok.value
        if name in RESERVED_PRED:
            self.fail(f"reserved word {name!r} cannot name a predicate", name_tok)
        self.expect_punct("(")
        args = [self.parse_term()]
        while self.at_punct(","):
            self.take()
            args.append(self.parse_term())
        self.expect_punct(")")
        return PlainAtom(name, tuple(args))

    def parse_eatom_tail(self, atom):
        self.expect_punct(":")
        dp_tok = self.expect_ident("domain predicate")
        if dp_tok.value in RESERVED_PRED:
            self.fail(f"reserved word {dp_tok.value!r} cannot name a predicate", dp_tok)
        self.expect_punct("(")
        var_tok = self.expect_ident("variable")
        self.expect_punct(")")
        name = var_tok.value
        if name not in self.var_types:
            self.fail(f"variable {name} not declared", var_tok)
        if not atom.args or atom.args[-1] != Variable(name):
            self.fail("e-atom binder must equal the final argument", var_tok)
        if any(name in _term_var_names(t) for t in atom.args[:-1]):
            self.fail(f"e-atom binder {name} may only occur as the final argument", var_tok)
        return EAtom(atom.pred, atom.args, name, dp_tok.value)

    def parse_catom(self, lo):
        open_tok = self.expect_punct("{")
        first = self.parse_member_atom()
        if self.at_punct(":"):
            conds = []
            while self.at_punct(":"):
                self.take()
                conds.append(self.parse_condition())
            self.expect_punct("}")
            hi = self.parse_upper_bound()
            self._check_bounds(lo, hi, open_tok)
            return CAtomSchema(first, tuple(conds), lo, hi)
        if self.at_punct(","):
            preds = [first.pred]
            while self.at_punct(","):
                self.take()
                nxt = self.parse_member_atom()
                if nxt.args != first.args:
                    self.fail("atoms in a cardinality list must share one argument tuple")
                preds.append(nxt.pred)
            self.expect_punct("}")
            hi = self.parse_upper_bound()
            self._check_bounds(lo, hi, open_tok)
            return CAtomList(tuple(preds), first.args, lo, hi)
        self.expect_punct("}")
        hi = self.parse_upper_bound()
        self._check_bounds(lo, hi, open_tok)
        return CAtomSchema(first, (), lo, hi)

    def parse_member_atom(self):
        t = self.peek()
        if t is not None and t.kind == "ident" and not self.at_punct("(", ahead=1):
            self.take()
            if t.value in self.var_types or t.value[0].isupper():
                self.fail("cardinality members must be predicate atoms", t)
            if t.value in RESERVED_PRED:
                self.fail(f"reserved word {t.value!r} cannot name a predicate", t)
            return PlainAtom(t.value)
        return self.parse_pred_atom()

    def parse_condition(self):
        t = self.peek()
        if t is not None and t.kind == "ident" and self.at_punct("(", ahead=1) and t.value not in FUNC_NAMES:
            return self.parse_pred_atom()
        if t is not None and t.kind == "ident" and (self.at_punct(":", ahead=1) or self.at_punct("}", ahead=1)):
            self.take()
            if t.value in self.var_types or t.value[0].isupper():
                self.fail("conditions must be predicate atoms or comparisons", t)
            if t.value in RESERVED_PRED:
                self.fail(f"reserved word {t.value!r} cannot name a predicate", t)
            return PlainAtom(t.value)
        left = self.parse_term()
        op = self.peek()
        if op is None or op.kind != "punct" or op.value not in COMPARISONS:
            self.fail("expected comparison operator in condition")
        self.take()
        right = self.parse_term()
        return PlainAtom(op.value, (left, right))

    def parse_upper_bound(self):
        t = self.peek()
        if t is not None and t.kind == "int":
            self.take()
            return t.value
        if t is not None and t.kind == "ident" and (self.peek(1) is None or self.at_punct(*_ATOM_END, ahead=1)):
            # an identifier right after '}' can only be an unsubstituted bound
            self.fail(
                f"cardinality bound {t.value!r} is not an integer (substitute it with -c)", t
            )
        return None

    def _check_bounds(self, lo, hi, tok):
        if lo is not None and hi is not None and lo > hi:
            self.fail(f"lower bound {lo} exceeds upper bound {hi}", tok)

    # -- terms -------------------------------------------------------------
    # Each parser below takes the number of parentheses and calls open
    # around it and returns the term with its operator depth. Their sum
    # may not exceed MAX_TERM_DEPTH anywhere in a term, which keeps
    # parsing and evaluating it far below the interpreter's recursion
    # limit.

    def parse_term(self):
        return self._sum(0)[0]

    def _sum(self, open_):
        t, depth = self._product(open_)
        while self.at_punct("+", "-"):
            op = self.take()
            right, rdepth = self._product(open_)
            depth = 1 + max(depth, rdepth)
            self._check_nesting(op, open_ + depth)
            t = ArithExpr(op.value, (t, right))
        return t, depth

    def _product(self, open_):
        t, depth = self._primary(open_)
        while self.at_punct("*", "/"):
            op = self.take()
            right, rdepth = self._primary(open_)
            depth = 1 + max(depth, rdepth)
            self._check_nesting(op, open_ + depth)
            t = ArithExpr(op.value, (t, right))
        return t, depth

    def _check_nesting(self, tok, levels):
        if levels > MAX_TERM_DEPTH:
            self.fail(f"term nested more than {MAX_TERM_DEPTH} levels deep", tok)

    def _primary(self, open_):
        t = self.peek()
        if t is None:
            self.fail("expected term")
        if t.kind == "int":
            self.take()
            return t.value, 0
        if self.at_punct("-"):
            self.take()
            v = self.peek()
            if v is None or v.kind != "int":
                self.fail("expected integer after '-'")
            self.take()
            return _check_int_range(-v.value, self.file, t.line, t.col), 0
        if self.at_punct("("):
            self._check_nesting(t, open_ + 1)
            self.take()
            inner = self._sum(open_ + 1)
            self.expect_punct(")")
            return inner
        if t.kind == "ident":
            name = t.value
            if name in FUNC_NAMES and self.at_punct("(", ahead=1):
                self._check_nesting(t, open_ + 1)
                self.take()
                self.take()
                args = [self._sum(open_ + 1)]
                while self.at_punct(","):
                    self.take()
                    args.append(self._sum(open_ + 1))
                self.expect_punct(")")
                if len(args) != ARITH_OPS[name]:
                    self.fail(f"{name} takes {ARITH_OPS[name]} operand(s)", t)
                depth = 1 + max(d for _, d in args)
                self._check_nesting(t, open_ + depth)
                return ArithExpr(name, tuple(a for a, _ in args)), depth
            if self.at_punct("(", ahead=1):
                self.fail(f"predicate {name} cannot appear inside a term", t)
            self.take()
            if name in self.var_types:
                return Variable(name), 0
            if name[0].isupper():
                self.fail(f"variable {name} not declared", t)
            if name in KEYWORDS:
                self.fail(f"reserved word {name!r} cannot be a constant", t)
            return name, 0
        self.fail("expected term")


def _term_var_names(term):
    if isinstance(term, Variable):
        return {term.name}
    if isinstance(term, ArithExpr):
        out = set()
        for t in term.operands:
            out |= _term_var_names(t)
        return out
    return set()
