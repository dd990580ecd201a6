"""Canonical rendering of rule-file syntax trees, for the tests: parsing
the rendered text yields a structurally identical program."""

from aspps.model import COMPARISONS, Atom, CAtomSchema, Clause, EAtom, PlainAtom, Program, Term, Variable

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def term_text(term: Term) -> str:
    return _term_text(term, 0)


def _term_text(term, min_prec):
    if isinstance(term, bool):
        raise TypeError("booleans are not terms")
    if isinstance(term, int):
        # parenthesize negative literals inside larger expressions so
        # the minus sign cannot merge with a preceding operator
        return f"({term})" if term < 0 and min_prec > 0 else str(term)
    if isinstance(term, str):
        return term
    if isinstance(term, Variable):
        return term.name
    if term.op in _PREC:
        p = _PREC[term.op]
        body = _term_text(term.operands[0], p) + term.op + _term_text(term.operands[1], p + 1)
        return f"({body})" if p < min_prec else body
    inner = ",".join(_term_text(t, 0) for t in term.operands)
    return f"{term.op}({inner})"


def _plain_text(atom: PlainAtom) -> str:
    if atom.pred in COMPARISONS:
        left, right = atom.args
        return f"{term_text(left)} {atom.pred} {term_text(right)}"
    if not atom.args:
        return atom.pred
    return f"{atom.pred}({','.join(term_text(t) for t in atom.args)})"


def atom_text(atom: Atom) -> str:
    if isinstance(atom, PlainAtom):
        return _plain_text(atom)
    if isinstance(atom, EAtom):
        args = ",".join(term_text(t) for t in atom.args)
        return f"{atom.pred}({args}):{atom.domain_pred}({atom.bound_var})"
    if isinstance(atom, CAtomSchema):
        inner = ":".join([_plain_text(atom.member)] + [_plain_text(c) for c in atom.conds])
    else:
        inner = ",".join(_plain_text(PlainAtom(p, atom.args)) for p in atom.preds)
    lo = "" if atom.lo is None else str(atom.lo)
    hi = "" if atom.hi is None else str(atom.hi)
    return f"{lo}{{{inner}}}{hi}"


def clause_text(clause: Clause) -> str:
    body = ", ".join(atom_text(a) for a in clause.body)
    head = " | ".join(atom_text(a) for a in clause.head)
    left = f"{body} ->" if body else "->"
    return f"{left} {head}." if head else f"{left}."


def program_text(prog: Program) -> str:
    """Render declarations first, then clauses, one statement per line."""
    lines = []
    for d in prog.pred_decls:
        args = f"({','.join(d.arg_types)})" if d.arg_types else ""
        rest = f": {d.restriction}" if d.restriction else ""
        lines.append(f"pred {d.name}{args}{rest}.")
    for v in prog.var_decls:
        lines.append(f"var {v.type_pred} {', '.join(v.var_names)}.")
    for c in prog.clauses:
        lines.append(clause_text(c))
    return "\n".join(lines) + ("\n" if lines else "")
