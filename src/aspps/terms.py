"""Terms compiled to closures, and interval bounds on their values.

A term compiles once into a closure over a flat list of variable values,
so evaluating it under a binding builds no dict and walks no tree. The
closures raise the same GroundError, with the same message, wherever
evaluation goes wrong: a symbolic value in arithmetic or in an order
comparison, an unbound variable, a zero divisor or a result outside the
64-bit range. Division truncates toward zero and mod(a,b) = a - b*trunc(a/b).

The interval bounds decide ahead of time, over whole variable domains,
that none of those errors can happen.
"""

from __future__ import annotations

import operator
from operator import itemgetter

from .errors import GroundError
from .model import (
    COMPARISONS,
    INT_MAX,
    INT_MIN,
    ArithExpr,
    CAtomList,
    EAtom,
    PlainAtom,
    Variable,
)

# ---------------------------------------------------------------------------
# Compiled terms. A term compiles into a closure over a flat list of
# variable values; `slots` maps each bound variable name to its index.


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
    a - b*trunc(a/b); anything unbound, overflowing or divided by zero
    is an error too."""
    if isinstance(term, Variable):
        i = slots.get(term.name)
        if i is None:
            return _raiser(f"variable {term.name} is not bound")
        if not arith:
            return itemgetter(i)

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


def compile_args(terms, slots):
    """A closure computing the tuple of an atom's arguments."""
    if terms and all(isinstance(t, Variable) and t.name in slots for t in terms):
        if len(terms) == 1:
            i = slots[terms[0].name]
            return lambda vals: (vals[i],)
        return itemgetter(*(slots[t.name] for t in terms))
    fs = [compile_term(t, slots) for t in terms]
    return lambda vals: tuple([f(vals) for f in fs])


def compile_comparison(atom: PlainAtom, slots):
    """A closure deciding a comparison atom. == works on any constants
    by identity; the order comparisons require integers."""
    if atom.pred not in COMPARISONS or len(atom.args) != 2:
        return _raiser(f"malformed predefined atom {atom.pred}/{len(atom.args)}")
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
# Interval check: can any evaluation in a clause raise? `ranges` maps each
# bound variable to the (lo, hi) bounds of its integer values, or to None
# when its domain holds a symbol or nothing at all.


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
            f = _BINARY[op]
            lo, hi = f(alo, blo), f(ahi, bhi)
        else:
            # +, -, * and truncating / away from 0 take extremes at corners
            corners = [_BINARY[op](x, y) for x in (alo, ahi) for y in (blo, bhi)]
            lo, hi = min(corners), max(corners)
    if lo < INT_MIN or hi > INT_MAX:
        return None
    return lo, hi


def _term_safe(term, ranges):
    """True when evaluating term as an atom argument cannot raise."""
    if isinstance(term, Variable):
        return term.name in ranges
    if isinstance(term, ArithExpr):
        return arith_range(term, ranges) is not None
    return True


def _plain_atom_safe(atom: PlainAtom, ranges):
    """True when evaluating a plain atom's arguments, or deciding a
    comparison, cannot raise."""
    if atom.pred not in COMPARISONS:
        return all(_term_safe(t, ranges) for t in atom.args)
    if len(atom.args) != 2:
        return False
    if atom.pred == "==":
        return all(_term_safe(t, ranges) for t in atom.args)
    return all(arith_range(t, ranges) is not None for t in atom.args)


def atom_cannot_raise(atom, ranges) -> bool:
    """True when no binding within ranges makes evaluating atom raise."""
    if isinstance(atom, PlainAtom):
        return _plain_atom_safe(atom, ranges)
    if isinstance(atom, EAtom):
        return all(_term_safe(t, ranges) for t in atom.args[:-1])
    if isinstance(atom, CAtomList):
        return all(_term_safe(t, ranges) for t in atom.args)
    return _plain_atom_safe(atom.member, ranges) and all(
        _plain_atom_safe(c, ranges) for c in atom.conds
    )
