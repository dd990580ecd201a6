"""Reading, writing and displaying ground theory (.tdc) files.

The format is line oriented:

    tdc 1
    atoms N
    <id> <text>          (N lines, ids dense 1..N)
    cards C
    <id> <lo> <hi> <k> <m1> ... <mk>
    clauses M
    <nlits> <lit> ...

Upper bound -1 means unbounded. Literals are signed ids; an id above N
names a cardinality construct. A clause line starting with 0 is the
empty clause. write_tdc and read_tdc are exact inverses, so a file read
and written back is byte identical.
"""

from __future__ import annotations

from .errors import TdcError
from .theory import CardConstruct, GroundAtom, GroundTheory, card_error, parse_ground_atom_text

FORMAT_VERSION = 1


def write_tdc(theory: GroundTheory) -> str:
    out = [f"tdc {FORMAT_VERSION}\n", f"atoms {len(theory.atoms)}\n"]
    for a in theory.atoms:
        out.append(f"{a.id} {a.text}\n")
    out.append(f"cards {len(theory.cards)}\n")
    for c in theory.cards:
        members = " ".join(str(m) for m in c.members)
        line = f"{c.id} {c.lo} {c.hi} {len(c.members)}"
        out.append(f"{line} {members}\n" if members else f"{line}\n")
    out.append(f"clauses {len(theory.clauses)}\n")
    for cl in theory.clauses:
        lits = " ".join(str(l) for l in cl)
        out.append(f"{len(cl)} {lits}\n" if lits else "0\n")
    return "".join(out)


class _Lines:
    def __init__(self, text, file):
        self.lines = text.split("\n")
        self.file = file
        self.pos = 0

    def next(self, what):
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            if line.strip():
                return line.strip(), self.pos
        raise TdcError(f"unexpected end of file, expected {what}", self.file, len(self.lines))

    def fail(self, msg, line_no):
        raise TdcError(msg, self.file, line_no)


def _count_line(src: _Lines, keyword: str) -> int:
    line, no = src.next(f"{keyword} count")
    parts = line.split()
    if len(parts) != 2 or parts[0] != keyword:
        src.fail(f"expected '{keyword} <count>', got {line!r}", no)
    try:
        n = int(parts[1])
    except ValueError:
        src.fail(f"{keyword} count {parts[1]!r} is not an integer", no)
    if n < 0:
        src.fail(f"{keyword} count may not be negative", no)
    return n


def read_tdc(text: str, file: str = "<tdc>") -> GroundTheory:
    src = _Lines(text, file)
    line, no = src.next("header")
    if line.split() != ["tdc", str(FORMAT_VERSION)]:
        src.fail(f"unsupported header {line!r}", no)

    n_atoms = _count_line(src, "atoms")
    atoms = []
    for i in range(n_atoms):
        line, no = src.next("atom")
        parts = line.split(None, 1)
        if len(parts) != 2 or not parts[0].isdigit():
            src.fail(f"malformed atom line {line!r}", no)
        if int(parts[0]) != i + 1:
            src.fail(f"atom ids must be dense, expected {i + 1} got {parts[0]}", no)
        try:
            pred, args = parse_ground_atom_text(parts[1])
        except ValueError as exc:
            src.fail(str(exc), no)
        atoms.append(GroundAtom(i + 1, pred, args, parts[1]))

    n_cards = _count_line(src, "cards")
    cards = []
    for i in range(n_cards):
        line, no = src.next("card")
        parts = line.split()
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            src.fail(f"malformed card line {line!r}", no)
        if len(nums) < 4:
            src.fail(f"malformed card line {line!r}", no)
        cid, lo, hi, k = nums[:4]
        if len(nums) - 4 != k:
            src.fail(f"card {cid} declares {k} members but lists {len(nums) - 4}", no)
        card = CardConstruct(cid, lo, hi, tuple(nums[4:]))
        error = card_error(card, n_atoms + i + 1, n_atoms)
        if error:
            src.fail(error, no)
        cards.append(card)

    n_clauses = _count_line(src, "clauses")
    max_id = n_atoms + n_cards
    clauses = []
    for _ in range(n_clauses):
        line, no = src.next("clause")
        parts = line.split()
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            src.fail(f"malformed clause line {line!r}", no)
        if not nums:
            src.fail("malformed clause line", no)
        k, lits = nums[0], nums[1:]
        if len(lits) != k:
            src.fail(f"clause declares {k} literals but lists {len(lits)}", no)
        for l in lits:
            if l == 0 or not 1 <= abs(l) <= max_id:
                src.fail(f"literal {l} out of range", no)
        clauses.append(tuple(lits))

    while src.pos < len(src.lines):
        line = src.lines[src.pos]
        src.pos += 1
        if line.strip():
            src.fail(f"trailing content {line.strip()!r}", src.pos)

    return GroundTheory(tuple(atoms), tuple(cards), tuple(clauses))


# ---------------------------------------------------------------------------
# Human-readable display.


def _card_text(card: CardConstruct, theory: GroundTheory) -> str:
    inner = ", ".join(theory.atoms[m - 1].text for m in card.members)
    tail = "" if card.hi == -1 else f" {card.hi}"
    return f"{card.lo} {{{inner}}}{tail}"


def _literal_text(lit: int, theory: GroundTheory) -> str:
    ref = abs(lit)
    if ref <= theory.n_atoms:
        text = theory.atoms[ref - 1].text
        return text if lit > 0 else f"-{text}"
    text = _card_text(theory.card_by_id(ref), theory)
    return text if lit > 0 else f"-({text})"


def print_theory(theory: GroundTheory) -> str:
    """Render every clause on its own line, literals joined by ' | ';
    the empty clause prints as FALSE."""
    lines = []
    for cl in theory.clauses:
        if not cl:
            lines.append("FALSE")
        else:
            lines.append(" | ".join(_literal_text(l, theory) for l in cl))
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Model checking.


def check_model(theory: GroundTheory, assignment: dict[int, bool]) -> bool:
    """True when a total assignment of the atoms satisfies every clause.
    A cardinality literal holds when the count of true members lies
    within its bounds."""

    def card_true(card: CardConstruct) -> bool:
        count = sum(1 for m in card.members if assignment[m])
        return count >= card.lo and (card.hi == -1 or count <= card.hi)

    def lit_true(lit: int) -> bool:
        ref = abs(lit)
        value = assignment[ref] if ref <= theory.n_atoms else card_true(theory.card_by_id(ref))
        return value if lit > 0 else not value

    return all(any(lit_true(l) for l in cl) for cl in theory.clauses)
