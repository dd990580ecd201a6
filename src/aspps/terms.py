"""Terms emitted as Python source, and interval bounds on their values.

Emitter writes terms as Python expressions over the loop variables of a
clause's kernel (see aspps.grounder). The interval bounds, taken over
whole variable domains, decide for each term whether its evaluation can
raise GroundError: a symbolic value in arithmetic or in an order
comparison, a zero divisor or a result outside the 64-bit range. A term
they prove safe is plain arithmetic; elsewhere each operation calls a
checked helper of NAMESPACE that raises GroundError, operands first, so
errors surface in the order of a left-to-right evaluation. Emitting a
checked operation sets Emitter.checked, so that flag alone says whether
the emitted source can raise. Division truncates toward zero and
mod(a,b) = a - b*trunc(a/b). Constants never appear in the source: each
is an entry of Emitter.consts, named k<i>.
"""

from __future__ import annotations

import operator

from .errors import GroundError
from .model import INT_MAX, INT_MIN, ArithExpr, PlainAtom, Variable

# ---------------------------------------------------------------------------
# Emitted terms, and the helpers their source calls.


def _tdiv(a, b):
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


def _tmod(a, b):
    return a - b * _tdiv(a, b)


def _fit(r):
    if INT_MIN <= r <= INT_MAX:
        return r
    raise GroundError("arithmetic overflow")


def _num(v):
    if isinstance(v, str):
        raise GroundError(f"symbolic constant {v!r} in arithmetic")
    return v


def _abs(a):
    return _fit(abs(a))


def _div(a, b):
    if b == 0:
        raise GroundError("division by zero")
    return _fit(_tdiv(a, b))


def _mod(a, b):
    if b == 0:
        raise GroundError("mod by zero")
    return _tmod(a, b)


def _order(op, cmp):
    message = f"order comparison {op} on symbolic constants"

    def check(a, b):
        if isinstance(a, str) or isinstance(b, str):
            raise GroundError(message)
        return cmp(a, b)

    return check


_ORDER = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt}
_ORDER_HELPER = {op: f"_order{i}" for i, op in enumerate(_ORDER)}
_ORDER_PLAIN = {op: f"({{}} {op} {{}})" for op in _ORDER}

# The globals of generated source.
NAMESPACE = {
    "_tdiv": _tdiv, "_tmod": _tmod, "_fit": _fit, "_num": _num, "_abs": _abs, "_div": _div, "_mod": _mod,
    **{_ORDER_HELPER[op]: _order(op, cmp) for op, cmp in _ORDER.items()},
}

# Operator -> source template: _PLAIN where the bounds prove the term
# safe, _CHECKED elsewhere; each opens one parenthesis, so no term is too
# deep to compile. The operands are integers by then (a checked operand
# raises first), so max and min of them need no check.
_PLAIN = {
    "+": "({} + {})", "-": "({} - {})", "*": "({} * {})", "/": "_tdiv({}, {})",
    "mod": "_tmod({}, {})", "max": "max({}, {})", "min": "min({}, {})", "abs": "abs({})",
}
_CHECKED = {
    **_PLAIN, "+": "_fit({} + {})", "-": "_fit({} - {})", "*": "_fit({} * {})",
    "/": "_div({}, {})", "mod": "_mod({}, {})", "abs": "_abs({})",
}


class Emitter:
    """Source for terms whose variables are named by `names`; `ranges`
    are the bounds that decide which terms need no checks, and `checked`
    is set once any source emitted so far may raise."""

    def __init__(self, names, ranges):
        self.names = names
        self.ranges = ranges
        self.consts: list = []
        self.checked = False

    def _check(self, source) -> str:
        self.checked = True
        return source

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def term(self, term, arith=False) -> str:
        if isinstance(term, Variable):
            name = self.names[term.name]
            return self._check(f"_num({name})") if arith and self.ranges.get(term.name) is None else name
        if isinstance(term, ArithExpr):
            ops = [self.term(t, True) for t in term.operands]
            if arith_range(term, self.ranges) is not None:
                return _PLAIN[term.op].format(*ops)
            return self._check(_CHECKED[term.op].format(*ops))
        if arith and isinstance(term, str):
            return self._check(f"_num({self.const(term)})")
        return self.const(term)

    def args(self, terms) -> str:
        """A tuple of terms."""
        return "(" + "".join(f"{self.term(t)}, " for t in terms) + ")"

    def comparison(self, atom: PlainAtom) -> str:
        """== works on any constants; the order comparisons require
        integers."""
        a, b = (self.term(t) for t in atom.args)
        if atom.pred == "==":
            return f"({a} == {b})"
        if all(arith_range(t, self.ranges) is not None for t in atom.args):
            return _ORDER_PLAIN[atom.pred].format(a, b)
        return self._check(f"{_ORDER_HELPER[atom.pred]}({a}, {b})")


# ---------------------------------------------------------------------------
# Interval bounds: can evaluating a term raise? `ranges` maps each
# bound variable to the (lo, hi) bounds of its integer values, or to None
# when its domain holds a symbol or nothing at all.


_CORNER = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _tdiv, "max": max, "min": min}


def domain_range(values):
    """Bounds of a domain in unary_domain order (integers first)."""
    if not values or isinstance(values[-1], str):
        return None
    return values[0], values[-1]


def arith_range(term, ranges):
    """Bounds of an integer term's value over every binding, or None
    when evaluating it might raise."""
    if isinstance(term, Variable):
        return ranges.get(term.name)
    if isinstance(term, str):
        return None
    if not isinstance(term, ArithExpr):
        return term, term
    a = arith_range(term.operands[0], ranges)
    if a is None:
        return None
    alo, ahi = a
    op = term.op
    if op == "abs":
        lo, hi = (alo, ahi) if alo >= 0 else (-ahi, -alo) if ahi <= 0 else (0, max(-alo, ahi))
    else:
        b = arith_range(term.operands[1], ranges)
        if b is None:
            return None
        blo, bhi = b
        if op in ("/", "mod") and blo <= 0 <= bhi:
            return None
        if op == "mod":
            # the remainder has the sign of a and is smaller than |b|
            m = max(-blo, bhi) - 1
            lo, hi = (max(alo, -m) if alo < 0 else 0), (min(ahi, m) if ahi > 0 else 0)
        elif op in ("max", "min"):
            f = _CORNER[op]
            lo, hi = f(alo, blo), f(ahi, bhi)
        else:
            # +, -, * and truncating / away from 0 take extremes at corners
            corners = [_CORNER[op](x, y) for x in (alo, ahi) for y in (blo, bhi)]
            lo, hi = min(corners), max(corners)
    if lo < INT_MIN or hi > INT_MAX:
        return None
    return lo, hi
