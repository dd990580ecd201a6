"""In-process traced run of one instance, timed at module entry points.

The pass mirrors what psgrnd and aspps do, calling the public functions
of each module and recording a span around each call. Layer names are
module names. Nothing inside the package is changed: tokenize is
replaced on aspps.parser for the duration of the pass, and the solver's
choose_branch and propagate are wrapped on the instance only.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from math import prod
from pathlib import Path

import aspps.parser as parser_mod
from aspps.cli import STAT_FILE
from aspps.database import build_database
from aspps.grounder import Grounder, check_program, ground_theory
from aspps.parser import parse_data_file, parse_rule_file
from aspps.solver import Solver, model_lines, record_stats, stat_line
from aspps.tdc import read_tdc, write_tdc

from workloads import Instance

ROOT_SPAN = "pipeline"


@dataclass(frozen=True, slots=True)
class Span:
    run_id: str
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Collects spans in memory; they are written out when the benchmark ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(self.run_id, span_id, parent, name, start, end))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def layer_times(spans: list[Span]) -> dict[str, tuple[float, float, int]]:
    """Per span name: (total time, self time, call count). Self time is a
    span's duration minus the durations of its direct children."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent_id is not None:
            child_time[s.parent_id] += s.end - s.start
    out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
    for s in spans:
        entry = out[s.name]
        entry[0] += s.end - s.start
        entry[1] += s.end - s.start - child_time[s.span_id]
        entry[2] += 1
    return {name: tuple(v) for name, v in out.items()}


@dataclass
class TracedPass:
    spans: list[Span]
    tdc_text: str
    output_text: str
    stats: dict[str, int]
    counts: dict[str, int]
    first_model_s: float


def traced_pass(inst: Instance, work: Path, tracer: Tracer) -> TracedPass:
    """One instance from data file to printed models, as the two CLIs run it."""
    tokens = 0
    real_tokenize = parser_mod.tokenize

    def tokenize(*args, **kwargs):
        nonlocal tokens
        with tracer.span("parser.tokenize"):
            toks = real_tokenize(*args, **kwargs)
        tokens += len(toks)
        return toks

    parser_mod.tokenize = tokenize
    try:
        with tracer.span(ROOT_SPAN):
            data_text = (work / inst.data_name).read_text(encoding="utf-8")
            with tracer.span("parser.data"):
                data_atoms = parse_data_file(data_text, {}, file=inst.data_name)
            rule_text = (work / inst.rule_name).read_text(encoding="utf-8")
            with tracer.span("parser.rules"):
                prog = parse_rule_file(rule_text, {}, file=inst.rule_name)
            with tracer.span("database.build"):
                db = build_database(data_atoms)
            with tracer.span("grounder.check"):
                diags = check_program(prog, db)
            if diags:
                raise RuntimeError(f"check_program rejected the instance: {diags}")
            with tracer.span("grounder.ground"):
                theory = ground_theory(prog, db)
            tdc_path = work / inst.tdc_name
            with tracer.span("tdc.write"):
                tdc_path.write_text(write_tdc(theory), encoding="utf-8")
            with tracer.span("tdc.read"):
                tdc_text = tdc_path.read_text(encoding="utf-8")
                th = read_tdc(tdc_text, file=inst.tdc_name)
            with tracer.span("solver.init"):
                solver = Solver(th)
            solver.choose_branch = tracer.wrap("solver.branch", solver.choose_branch)
            solver.propagate = tracer.wrap("solver.propagate", solver.propagate)
            with tracer.span("solver.run"):
                result = solver.run(inst.max_models)
            with tracer.span("cli.output"):
                lines = _printed_lines(inst, th, result)
                output_text = "".join(line + "\n" for line in lines)
                (work / "traced.out").write_text(output_text, encoding="utf-8")
                stat = stat_line(inst.tdc_name, result.sat, len(result.models), result.stats, 0)
                record_stats(str(work / STAT_FILE), stat)
    finally:
        parser_mod.tokenize = real_tokenize

    if inst.max_models == 1:
        first_model_s = _span_time(tracer.spans, "solver.run")
    else:
        start = time.perf_counter()
        Solver(th).run(1)
        first_model_s = time.perf_counter() - start

    bindings = sum(_bindings(Grounder(prog, db), db, clause) for clause in prog.clauses)
    counts = {
        "parser.tokens": tokens,
        "parser.data_atoms": len(data_atoms),
        "grounder.bindings": bindings,
        "grounder.clauses_kept": len(theory.clauses),
        "grounder.atoms": theory.n_atoms,
        "grounder.cards": len(theory.cards),
        "cli.output_lines": len(lines),
    }
    stats = {
        "models": len(result.models),
        "decisions": result.stats.decisions,
        "propagations": result.stats.propagations,
        "conflicts": result.stats.conflicts,
    }
    return TracedPass(tracer.spans, tdc_text, output_text, stats, counts, first_model_s)


def _bindings(grounder: Grounder, db, clause) -> int:
    """Global-variable bindings the grounder enumerates for one clause."""
    return prod(len(db.unary_domain(grounder.var_types[v])) for v in grounder.global_vars(clause))


def _span_time(spans: list[Span], name: str) -> float:
    return sum(s.end - s.start for s in spans if s.name == name)


def _printed_lines(inst: Instance, theory, result) -> list[str]:
    """What aspps prints to standard output for the instance's flags."""
    if not result.sat:
        return ["UNSAT"]
    if "-A" not in inst.aspps_args:
        return ["SAT"]
    lines: list[str] = []
    for i, model in enumerate(result.models):
        if i:
            lines.append("")
        lines.extend(model_lines(theory, model))
    return lines
