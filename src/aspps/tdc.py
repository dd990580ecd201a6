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
empty clause. read_tdc tolerates blank lines and runs of blanks, and
takes integers and atom texts only as write_tdc writes them (no '+1',
'01' or p(+1)), so a file it reads is written back byte identical up to
blanks. An atom text is a predicate name, then optionally its arguments
in parentheses, each an integer or a constant starting lower-case (no
p(), p(a,) or 'p q').
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import TdcError
from .theory import CardConstruct, GroundAtom, GroundTheory, card_error, clause_error, parse_ground_atom_text

FORMAT_VERSION = 1


def _ints(text: str) -> list[int] | None:
    """The blank-separated integers in text, each spelled as str(int)
    spells it, or None. int() alone also takes '+1', '1_0', '01', '-0'
    and non-ASCII digits, which write_tdc would write back otherwise."""
    parts = text.split()
    try:
        nums = list(map(int, parts))
    except ValueError:  # not an integer, or more digits than int() takes
        return None
    # Each such spelling needs a '0', '+', '_' or non-ASCII character;
    # most lines have none, and the round trip costs as much as int().
    if text.isascii() and not ("0" in text or "+" in text or "_" in text):
        return nums
    return nums if list(map(str, nums)) == parts else None


HEADER = f"tdc {FORMAT_VERSION}\n"


# One formatter per kind of line, shared by write_tdc and psgrnd's
# streamed write (aspps.grounder.ground_to_file); each formats a batch.


def count_line(keyword: str, count: int) -> str:
    """The line opening a section: atoms, cards or clauses, then its count."""
    return f"{keyword} {count}\n"


def atom_lines(atoms: Iterable[tuple[int, str]]) -> str:
    """The lines of (id, text) pairs."""
    return "".join([f"{aid} {text}\n" for aid, text in atoms])


def card_lines(cards: Iterable[tuple[int, int, int, tuple[int, ...]]]) -> str:
    """The lines of (id, lo, hi, members) constructs."""
    return "".join([" ".join(map(str, (cid, lo, hi, len(ms), *ms))) + "\n" for cid, lo, hi, ms in cards])


def clause_lines(clauses: Iterable[tuple[int, ...]]) -> str:
    """The lines of clauses, each a literal count and the literals."""
    return "".join([" ".join(map(str, (len(lits), *lits))) + "\n" for lits in clauses])


def unchecked_clauses(data: bytes) -> list[tuple[int, ...]]:
    """The clauses of lines that clause_lines wrote, read back without
    the checks of read_tdc."""
    return [tuple(map(int, line.split()[1:])) for line in data.splitlines()]


def write_tdc(theory: GroundTheory) -> str:
    return "".join([
        HEADER,
        count_line("atoms", len(theory.atoms)),
        atom_lines((a.id, a.text) for a in theory.atoms),
        count_line("cards", len(theory.cards)),
        card_lines(theory.cards),
        count_line("clauses", len(theory.clauses)),
        clause_lines(theory.clauses),
    ])


def read_tdc(text: str, file: str = "<tdc>") -> GroundTheory:
    # (line number, stripped text) of each non-blank line, made as read
    lines = ((no, line) for no, line in enumerate(map(str.strip, text.split("\n")), 1) if line)

    def take(what: str) -> tuple[int, str]:
        item = next(lines, None)
        if item is None:
            raise TdcError(f"unexpected end of file, expected {what}", file, text.count("\n") + 1)
        return item

    def count(keyword: str) -> int:
        no, line = take(f"{keyword} count")
        parts = line.split()
        if len(parts) != 2 or parts[0] != keyword:
            raise TdcError(f"expected '{keyword} <count>', got {line!r}", file, no)
        n = _ints(parts[1])
        if n is None:
            raise TdcError(f"{keyword} count {parts[1]!r} is not an integer", file, no)
        if n[0] < 0:
            raise TdcError(f"{keyword} count may not be negative", file, no)
        return n[0]

    no, line = take("header")
    if line.split() != ["tdc", str(FORMAT_VERSION)]:
        raise TdcError(f"unsupported header {line!r}", file, no)

    n_atoms = count("atoms")
    atoms = []
    for i in range(n_atoms):
        no, line = take("atom")
        parts = line.split(None, 1)
        aid = _ints(parts[0]) if len(parts) == 2 else None
        if aid is None:
            raise TdcError(f"malformed atom line {line!r}", file, no)
        if aid[0] != i + 1:
            raise TdcError(f"atom ids must be dense, expected {i + 1} got {parts[0]}", file, no)
        try:
            pred, args = parse_ground_atom_text(parts[1])
        except ValueError as exc:
            raise TdcError(str(exc), file, no) from None
        atoms.append(GroundAtom(i + 1, pred, args, parts[1]))

    n_cards = count("cards")
    cards = []
    for i in range(n_cards):
        no, line = take("card")
        nums = _ints(line) or []
        if len(nums) < 4:
            raise TdcError(f"malformed card line {line!r}", file, no)
        cid, lo, hi, k = nums[:4]
        if len(nums) - 4 != k:
            raise TdcError(f"card {cid} declares {k} members but lists {len(nums) - 4}", file, no)
        card = CardConstruct(cid, lo, hi, tuple(nums[4:]))
        error = card_error(card, n_atoms + i + 1, n_atoms)
        if error:
            raise TdcError(error, file, no)
        cards.append(card)

    n_clauses = count("clauses")
    max_id = n_atoms + n_cards
    clauses = []
    for _ in range(n_clauses):
        no, line = take("clause")
        nums = _ints(line)
        if nums is None:
            raise TdcError(f"malformed clause line {line!r}", file, no)
        lits = tuple(nums[1:])
        if len(lits) != nums[0]:
            raise TdcError(f"clause declares {nums[0]} literals but lists {len(lits)}", file, no)
        error = clause_error(lits, max_id)
        if error:
            raise TdcError(error, file, no)
        clauses.append(lits)

    for no, line in lines:
        raise TdcError(f"trailing content {line!r}", file, no)

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
    texts = (" | ".join(_literal_text(l, theory) for l in cl) or "FALSE" for cl in theory.clauses)
    return "".join(text + "\n" for text in texts)


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
