"""Tokenizer and recursive-descent parsers for data and rule files.

Tokens are identifiers [A-Za-z][A-Za-z0-9_]*, unsigned decimal integers
and the punctuation ( ) [ ] { } , . : | < > + - * / -> == <= >= .. with
'→' read as '->'. Blank space is space, tab and carriage return, and a
newline ends a line; any other character is illegal. Statements end with
'.', comments run from '%' to end of line, and rule file statements may
span lines (data atoms must fit on one line):

  data file   p(c1,...,cn).        ground atom, constants only
              p[m..n].             range, expands to p(m),...,p(n);
                                   at most MAX_RANGE_LEN atoms
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
symbolic constant or predicate name. A command-line constant name=value
replaces each identifier token name by the one token that its value
spells, an identifier or an integer with an optional leading '-'
(CONST_VALUE_RE); positions in diagnostics refer to the original text.

check_program and the grounder rely on these guarantees of a Program
from parse_rule_file and do not check them again: each predicate and
variable is declared once, before its first use; every program atom has
its predicate's declared arity; e-atom predicates and cardinality
members are program predicates, and e-atom domains and schema conditions
are not; an e-atom's binder is its final argument and occurs nowhere
else in its clause; a comparison has two operands; cardinality bounds
are non-negative, the lower at most the upper; terms nest at most
MAX_TERM_DEPTH levels. A clause is checked against the declarations
before it, and each error is reported at the token that breaks a rule.
"""

from __future__ import annotations

import re
from typing import NamedTuple

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
    Variable,
    VarDecl,
    atom_variables,
    term_variables,
)

KEYWORDS = frozenset({"pred", "var"})
FUNC_NAMES = frozenset({"abs", "mod", "max", "min"})
MAX_TERM_DEPTH = 100
# A data range p[m..n] holds at most this many atoms, so a typo in a
# bound fails here instead of expanding until memory runs out.
MAX_RANGE_LEN = 1_000_000
RESERVED_PRED = KEYWORDS | FUNC_NAMES

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
CONST_VALUE_RE = re.compile(r"(?P<ident>" + IDENT_RE.pattern + r")|-?[0-9]+")

# One alternative per token kind, tried in order: multi-character
# punctuation comes first so '->' wins over '-' and '..' over '.'.
_TOKEN_RE = re.compile(
    r"(?P<nl>\n)|[ \t\r]+|%[^\n]*"
    r"|(?P<ident>" + IDENT_RE.pattern + r")|(?P<int>[0-9]+)"
    r"|(?P<punct>->|==|<=|>=|\.\.|[()\[\]{},.:|<>+\-*/]|→)"
    r"|(?P<bad>.)"
)

DataAtom = tuple[str, tuple[Const, ...]]


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "punct"
    value: str | int
    line: int
    col: int


def _check_int_range(value, file, line, col):
    if not INT_MIN <= value <= INT_MAX:
        raise ParseError(f"integer constant {value} out of 64-bit range", file, line, col)
    return value


def _int_value(text, file, line, col):
    """The range-checked value of an integer token: ASCII digits with an
    optional leading '-'. Leading zeros are dropped before converting,
    as int() refuses a text of more than 4 300 digits."""
    sign = "-" if text[0] == "-" else ""
    digits = text.lstrip("-0") or "0"
    if len(digits) > 19:
        raise ParseError(f"integer constant {sign}{digits} out of 64-bit range", file, line, col)
    return _check_int_range(int(sign + digits), file, line, col)


def _subst_token(name, raw, file, line, col):
    """Turn a -c value into the token that replaces the constant name."""
    m = CONST_VALUE_RE.fullmatch(raw)
    if m is None:
        raise ParseError(f"value {raw!r} of constant {name} is not a valid token", file, line, col)
    if m["ident"]:
        return Token("ident", raw, line, col)
    return Token("int", _int_value(raw, file, line, col), line, col)


def tokenize(text: str, consts: dict[str, str] | None = None, file: str = "<input>") -> list[Token]:
    """Lex a source text, applying constant substitution to identifier
    tokens whose name appears in consts."""
    consts = consts or {}
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:  # blank space or a comment
            continue
        if kind == "nl":
            line, line_start = line + 1, m.end()
            continue
        value, col = m.group(), m.start() - line_start + 1
        if kind == "ident" and value in consts:
            tokens.append(_subst_token(value, consts[value], file, line, col))
            continue
        if kind == "int":
            value = _int_value(value, file, line, col)
        elif kind == "bad":
            raise ParseError(f"illegal character {value!r}", file, line, col)
        elif value == "→":  # UTF-8 arrow, synonym for ->
            value = "->"
        tokens.append(Token(kind, value, line, col))
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

    def listed(self, item, sep=","):
        """One or more items separated by sep."""
        items = [item()]
        while self.at_punct(sep):
            self.take()
            items.append(item())
        return items

    def pred_name(self, what="predicate name"):
        t = self.expect_ident(what)
        if t.value in RESERVED_PRED:
            self.fail(f"reserved word {t.value!r} cannot name a predicate", t)
        return t.value

    def constant(self):
        """The symbolic constant named by the next identifier."""
        t = self.take()
        if t.value in KEYWORDS:
            self.fail(f"reserved word {t.value!r} cannot be a constant", t)
        return t.value

    def negated_int(self):
        """The integer after a '-' token, negated."""
        minus, v = self.take(), self.peek()
        if v is None or v.kind != "int":
            self.fail("expected integer after '-'")
        self.take()
        return _check_int_range(-v.value, self.file, minus.line, minus.col)

    def done(self):
        return self.pos >= len(self.toks)

    def fail(self, message, tok=None):
        tok = tok or self.peek() or self.toks[-1]
        raise ParseError(message, self.file, tok.line, tok.col)


def parse_data_file(text: str, consts: dict[str, str] | None = None, file: str = "<data>") -> set[DataAtom]:
    """Parse a data file into a deduplicated set of ground atoms."""
    atoms: set[DataAtom] = set()
    for stmt in _statements(tokenize(text, consts, file), file):
        cur = _Cursor(stmt, file)
        if stmt[0].line != stmt[-1].line:
            cur.fail("data statement must fit on a single line", stmt[0])
        name = cur.pred_name()
        if cur.at_punct("["):
            cur.take()
            lo = _range_bound(cur)
            cur.expect_punct("..")
            hi = _range_bound(cur)
            cur.expect_punct("]")
            if not cur.done():
                cur.fail("unexpected token after range")
            if lo > hi:
                cur.fail(f"empty range {name}[{lo}..{hi}]", stmt[0])
            if hi - lo >= MAX_RANGE_LEN:
                cur.fail(
                    f"range {name}[{lo}..{hi}] has {hi - lo + 1} elements,"
                    f" more than {MAX_RANGE_LEN}",
                    stmt[0],
                )
            atoms.update((name, (i,)) for i in range(lo, hi + 1))
        elif cur.at_punct("("):
            cur.take()
            args = cur.listed(lambda: _data_const(cur))
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
    if cur.at_punct("-"):
        return cur.negated_int()
    if t.kind == "ident":
        if t.value[0].isupper():
            cur.fail(f"variable {t.value} not allowed in a data file", t)
        return cur.constant()
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
    pred_decls: list[PredDecl] = []
    var_decls: list[VarDecl] = []
    clauses: list[Clause] = []
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
            pred_decls.append(decl)
        elif first.kind == "ident" and first.value == "var":
            vdecl = _parse_var_decl(_Cursor(stmt, file), var_types, used_consts)
            var_decls.append(vdecl)
        else:
            parser = _ClauseParser(stmt, file, var_types, pred_seen, used_preds, used_consts)
            clauses.append(parser.parse())
    return Program(pred_decls, var_decls, clauses)


def _parse_pred_decl(cur):
    cur.take()  # 'pred'
    name = cur.pred_name()
    arg_types = []
    if cur.at_punct("("):
        cur.take()
        arg_types = cur.listed(lambda: cur.expect_ident("type predicate").value)
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
    type_name = cur.expect_ident("type predicate").value

    def declare():
        t = cur.expect_ident("variable name")
        name = t.value
        if name in RESERVED_PRED:
            cur.fail(f"reserved word {name!r} cannot name a variable", t)
        if name in var_types:
            cur.fail(f"duplicate variable declaration for {name}", t)
        if name in used_consts:
            cur.fail(f"variable {name} declared after use as a constant", t)
        var_types[name] = type_name
        return name

    names = cur.listed(declare)
    if not cur.done():
        cur.fail("unexpected token in var declaration")
    return VarDecl(type_name, tuple(names))


_ATOM_END = (",", "|", "->", "}")


class _ClauseParser(_Cursor):
    """Parses one clause against the declarations before it, and records
    the predicate names and constants it reads in used_preds and
    used_consts."""

    def __init__(self, toks, file, var_types, decls, used_preds, used_consts):
        super().__init__(toks, file)
        self.var_types = var_types
        self.decls = decls
        self.used_preds = used_preds
        self.used_consts = used_consts
        self.binders = []  # (name, token) of each e-atom binder read

    def parse(self):
        body = [] if self.at_punct("->") else self.listed(self.parse_atom)
        self.expect_punct("->")
        head = [] if self.done() else self.listed(self.parse_atom, "|")
        if not self.done():
            self.fail("expected end of statement")
        if not body and not head:
            self.fail("clause has an empty body and an empty head", self.toks[0])
        # a binder may recur in an atom after its e-atom, so this waits
        # for the whole clause
        atoms = body + head
        for name, tok in self.binders:
            if sum(name in atom_variables(a) for a in atoms) > 1:
                self.fail(f"e-atom binder {name} may not occur outside its atom", tok)
        return Clause(tuple(body), tuple(head), line=self.toks[0].line)

    def pred_name(self, what="predicate name"):
        name = super().pred_name(what)
        self.used_preds.add(name)
        return name

    def constant(self):
        name = super().constant()
        self.used_consts.add(name)
        return name

    def program_atom(self, atom, tok, what=None):
        """atom, whose predicate name is token tok, checked against the
        declarations: a program predicate takes its declared number of
        arguments, and the atom named what must use one."""
        decl = self.decls.get(atom.pred)
        if decl is None:
            if what:
                self.fail(f"{what} {atom.pred} must be a declared program predicate", tok)
        elif len(decl.arg_types) != len(atom.args):
            n = len(decl.arg_types)
            self.fail(f"predicate {atom.pred} expects {n} argument(s), got {len(atom.args)}", tok)
        return atom

    # -- atoms ------------------------------------------------------------

    def parse_atom(self):
        t = self.peek()
        if t is None:
            self.fail("expected atom")
        if self.at_punct("{"):
            return self.parse_catom(None)
        if t.kind == "int" and self.at_punct("{", ahead=1):
            return self.parse_catom(self.parse_bound())
        if t.kind == "ident" and self.at_punct("{", ahead=1):
            self.fail_bound(t)
        if t.kind == "ident" and self.at_punct("(", ahead=1) and t.value not in FUNC_NAMES:
            atom = self.parse_pred_atom()
            if self.at_punct(":"):
                return self.parse_eatom_tail(self.program_atom(atom, t, "e-atom predicate"))
            return self.program_atom(atom, t)
        if t.kind == "ident" and (self.peek(1) is None or self.at_punct(*_ATOM_END, ahead=1)):
            return self.program_atom(self.bare_atom(), t)
        return self.parse_comparison("expected comparison operator after term")

    def bare_atom(self, variable_message=None):
        """The 0-ary atom named by the next identifier. If that names a
        variable, fail with variable_message, or by default with the
        message for a clause atom."""
        t = self.peek()
        if t.value in self.var_types:
            self.fail(variable_message or f"variable {t.value} cannot stand alone as an atom", t)
        if t.value[0].isupper():
            self.fail(variable_message or f"variable {t.value} not declared", t)
        return PlainAtom(self.pred_name())

    def parse_pred_atom(self):
        name = self.pred_name()
        self.expect_punct("(")
        args = self.listed(self.parse_term)
        self.expect_punct(")")
        return PlainAtom(name, tuple(args))

    def parse_comparison(self, message):
        left = self.parse_term()
        if not self.at_punct(*COMPARISONS):
            self.fail(message)
        op = self.take()
        return PlainAtom(op.value, (left, self.parse_term()))

    def parse_eatom_tail(self, atom):
        self.expect_punct(":")
        domain_tok = self.peek()
        domain = self.pred_name("domain predicate")
        if domain in self.decls:
            self.fail(f"e-atom domain {domain} must be a data predicate", domain_tok)
        self.expect_punct("(")
        var_tok = self.expect_ident("variable")
        self.expect_punct(")")
        name = var_tok.value
        if name not in self.var_types:
            self.fail(f"variable {name} not declared", var_tok)
        if not atom.args or atom.args[-1] != Variable(name):
            self.fail("e-atom binder must equal the final argument", var_tok)
        if any(name in term_variables(t) for t in atom.args[:-1]):
            self.fail(f"e-atom binder {name} may only occur as the final argument", var_tok)
        self.binders.append((name, var_tok))
        return EAtom(atom.pred, atom.args, name, domain)

    def parse_catom(self, lo):
        open_tok = self.expect_punct("{")
        first = self.parse_member_atom()

        def list_member():
            atom = self.parse_member_atom()
            if atom.args != first.args:
                self.fail("atoms in a cardinality list must share one argument tuple")
            return atom.pred

        conds, preds = (), None
        if self.at_punct(":"):
            self.take()
            conds = tuple(self.listed(self.parse_condition, ":"))
        elif self.at_punct(","):
            self.take()
            preds = (first.pred, *self.listed(list_member))
        self.expect_punct("}")
        hi = self.parse_upper_bound()
        if lo is not None and hi is not None and lo > hi:
            self.fail(f"lower bound {lo} exceeds upper bound {hi}", open_tok)
        if preds:
            return CAtomList(preds, first.args, lo, hi)
        return CAtomSchema(first, conds, lo, hi)

    def parse_member_atom(self):
        t = self.peek()
        if t is not None and t.kind == "ident" and not self.at_punct("(", ahead=1):
            atom = self.bare_atom("cardinality members must be predicate atoms")
        else:
            atom = self.parse_pred_atom()
        return self.program_atom(atom, t, "cardinality member")

    def parse_condition(self):
        t = self.peek()
        if t is not None and t.kind == "ident" and self.at_punct("(", ahead=1) and t.value not in FUNC_NAMES:
            atom = self.parse_pred_atom()
        elif t is not None and t.kind == "ident" and self.at_punct(":", "}", ahead=1):
            atom = self.bare_atom("conditions must be predicate atoms or comparisons")
        else:
            return self.parse_comparison("expected comparison operator in condition")
        if atom.pred in self.decls:
            self.fail(f"condition {atom.pred} must use a data or predefined predicate", t)
        return atom

    def parse_upper_bound(self):
        t = self.peek()
        if t is not None and t.kind == "int":
            return self.parse_bound()
        if t is not None and t.kind == "ident" and (self.peek(1) is None or self.at_punct(*_ATOM_END, ahead=1)):
            # an identifier right after '}' can only be an unsubstituted bound
            self.fail_bound(t)
        return None

    def parse_bound(self):
        """The value of the integer token at hand, a cardinality bound."""
        t = self.take()
        if t.value < 0:
            self.fail("cardinality bounds must be non-negative", t)
        return t.value

    def fail_bound(self, t):
        self.fail(f"cardinality bound {t.value!r} is not an integer (substitute it with -c)", t)

    # -- terms -------------------------------------------------------------
    # Each parser below takes the number of parentheses and calls open
    # around it and returns the term with its operator depth. Their sum
    # may not exceed MAX_TERM_DEPTH anywhere in a term, which keeps
    # parsing and evaluating it far below the interpreter's recursion
    # limit.

    def parse_term(self):
        return self._sum(0)[0]

    def _sum(self, open_):
        return self._left_assoc(open_, ("+", "-"), self._product)

    def _product(self, open_):
        return self._left_assoc(open_, ("*", "/"), self._primary)

    def _left_assoc(self, open_, ops, operand):
        t, depth = operand(open_)
        while self.at_punct(*ops):
            op = self.take()
            right, rdepth = operand(open_)
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
            return self.negated_int(), 0
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
                args = self.listed(lambda: self._sum(open_ + 1))
                self.expect_punct(")")
                if len(args) != ARITH_OPS[name]:
                    self.fail(f"{name} takes {ARITH_OPS[name]} operand(s)", t)
                depth = 1 + max(d for _, d in args)
                self._check_nesting(t, open_ + depth)
                return ArithExpr(name, tuple(a for a, _ in args)), depth
            if self.at_punct("(", ahead=1):
                self.fail(f"predicate {name} cannot appear inside a term", t)
            if name in self.var_types:
                self.take()
                return Variable(name), 0
            if name[0].isupper():
                self.fail(f"variable {name} not declared", t)
            return self.constant(), 0
        self.fail("expected term")
