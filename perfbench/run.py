"""Benchmark of the two-stage toolchain: psgrnd grounds, aspps solves.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload queens --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1 --out r.json
    python3 perfbench/run.py --compare before.json after.json

Each workload is one seeded instance (see workloads.py). With --trace 0
the benchmark runs `python -m aspps psgrnd` and then `python -m aspps
aspps` as child processes, one at a time and each under a time limit,
and keeps repeating the pair until --seconds have passed. Every output is
checked by an independent checker; a non-zero exit, a timeout, a wrong
verdict, model count or model, or .tdc bytes that change between
repetitions count as a failed operation. With --trace 1 the child runs
alternate with an in-process pass that times each module's public entry
points (tracing.py), and the per-layer metrics are reported instead.

Two fixed probe programs run next to the CLIs, and the end-to-end times
total_s and setup_s are scaled by their speed, so that they follow the
code under test and not the load on a shared host (see PROBE).

Every metric is printed by name with its unit; timings as the median and
the highest percentile the sample count supports. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. --out writes the full result, including the exact
counts and hashes, and for traced runs the spans next to it;
--compare checks two such files for equal exact fields.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import workloads
from workloads import WORKLOADS, Instance, make_instance, parse_output

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBLEMS = ROOT / "scripts" / "problems"
SCRATCH = ROOT / ".perfbench_tmp"

# Five times the slowest stage of the full-size workloads (queens solve,
# 4-6 s); a stage or traced pass that runs longer is stopped and counted
# as failed. A run that starts its last repetition just before --seconds
# and then hits all three limits still ends within 180 s.
STAGE_LIMIT_S = 30.0

SETUP_SAMPLES = 3  # at the start of a run; one more follows every repetition

# On a shared host the speed of the same code drifts by 20-35 % over
# minutes. Two probes that use none of the code under test drift with it:
# PROBE, a pure-Python loop, run as a child process before and after every
# CLI pair, and a bare interpreter start (`python -c pass`), run next to
# every `import aspps.cli`. Each sample of total_s and setup_s is a wall
# time scaled by (reference probe time) / (the probe time measured next to
# it), i.e. seconds on a host where the probes take their reference times,
# as they do on a quiet 2 GHz Xeon VM. The unscaled wall times are
# total_wall_s and setup_wall_s.
PROBE = """
def f(a, i):
    return a[i & 1023] + i
a = list(range(1024))
d = {}
s = 0
for i in range(600000):
    s += f(a, i)
    d[i & 4095] = s & 255
"""
PROBE_REF_S = 0.25
BARE_START_REF_S = 0.05

# Metric names and units, and which of them are end-to-end, come from
# BENCHMARK.json next to this directory.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
UNITS = {**END_TO_END, **PER_LAYER}

# Span name -> metric of its total time.
SPAN_METRICS = {
    "parser.data": "parser.data_s",
    "parser.rules": "parser.rules_s",
    "parser.tokenize": "parser.tokenize_s",
    "database.build": "database.build_s",
    "grounder.check": "grounder.check_s",
    "grounder.ground": "grounder.ground_s",
    "tdc.write": "tdc.write_s",
    "tdc.read": "tdc.read_s",
    "solver.init": "solver.init_s",
    "solver.run": "solver.run_s",
    "solver.branch": "solver.branch_s",
    "solver.propagate": "solver.propagate_s",
    "cli.output": "cli.output_s",
    "pipeline": "trace.total_s",
}


class StageTimeout(Exception):
    pass


@dataclass
class Child:
    wall_s: float
    exit_code: int | None  # None when killed at the time limit
    maxrss_kb: int


@dataclass
class Result:
    workload: str
    seed: int
    size: str
    trace: int
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    exact: dict[str, object] = field(default_factory=dict)
    metrics: dict[str, dict] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


class Bench:
    """One workload instance in its own scratch directory."""

    def __init__(self, inst: Instance, result: Result, work: Path):
        self.inst = inst
        self.result = result
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.checked: dict[tuple[str, str], list[str]] = {}
        self.spans: list = []
        (work / inst.rule_name).write_text(inst.rule_text, encoding="utf-8")
        (work / inst.data_name).write_text(inst.data_text, encoding="utf-8")
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launch.py"))], cwd=work, env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    # -- child processes ---------------------------------------------------

    def child(self, args: list[str], stdout_name: str) -> Child:
        """Run `python <args>` in the scratch directory under the stage
        limit; wall time runs from spawn to exit, rusage is the child's own."""
        req = {"argv": [sys.executable, *args], "stdout": stdout_name, "stderr": "stderr.txt",
               "limit_s": STAGE_LIMIT_S}
        self.launcher.stdin.write(json.dumps(req) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise SystemExit("perfbench: the process launcher stopped")
        r = json.loads(reply)
        return Child(r["wall_s"], r["exit_code"], r["maxrss_kb"])

    def close(self) -> None:
        """End the launcher; it finishes its current child first, which
        the stage limit bounds."""
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=STAGE_LIMIT_S + 10)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()

    def measure_setup(self, record: bool = True) -> None:
        """A bare interpreter start, then one that imports aspps.cli."""
        bare, setup = (self.probe(code) for code in ("pass", "import aspps.cli"))
        if record:
            self.result.add("bare_start_s", bare)
            self.result.add("setup_wall_s", setup)
            self.result.add("setup_s", setup * BARE_START_REF_S / bare)

    def probe(self, code: str) -> float:
        """Wall time of `python -c <code>`, which must succeed."""
        c = self.child(["-c", code], "probe.out")
        if c.exit_code != 0:
            raise SystemExit(f"perfbench: `python -c {code!r}` failed: {self.stderr()}")
        return c.wall_s

    def stderr(self) -> str:
        return (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace").strip()[-300:]

    def cli_rep(self) -> None:
        """One instance through the two CLIs, timed and checked, between
        two runs of PROBE."""
        before = self.probe(PROBE)
        wall = self.cli_pair()
        after = self.probe(PROBE)
        self.result.add("probe_s", before)
        self.result.add("probe_s", after)
        if wall is not None:
            self.result.add("total_wall_s", wall)
            self.result.add("total_s", wall * PROBE_REF_S * 2 / (before + after))

    def cli_pair(self) -> float | None:
        """Runs psgrnd, then aspps, and checks their outputs; returns the
        two wall times' sum, or None after counting a failure."""
        inst, res = self.inst, self.result
        res.attempted += 1
        tdc = self.work / inst.tdc_name
        stat = self.work / "aspps.stat"
        tdc.unlink(missing_ok=True)
        stat.unlink(missing_ok=True)
        g = self.child(["-m", "aspps", "psgrnd", "-r", inst.rule_name, "-d", inst.data_name], "psgrnd.out")
        if g.exit_code != 0 or not tdc.is_file():
            res.fail(_child_failure("psgrnd", g, self.stderr()))
            return None
        s = self.child(["-m", "aspps", "aspps", "-f", inst.tdc_name, *inst.aspps_args], "aspps.out")
        if s.exit_code != 0:
            res.fail(_child_failure("aspps", s, self.stderr()))
            return None
        stats = _read_stat(stat)
        if stats is None:
            res.fail("aspps wrote no parsable aspps.stat line")
            return None
        problems = self.verify(tdc.read_bytes(), (self.work / "aspps.out").read_text(encoding="utf-8"), stats)
        if problems:
            res.fail("; ".join(problems))
            return None
        res.add("ground_s", g.wall_s)
        res.add("solve_s", s.wall_s)
        res.add("peak_rss_mb", max(g.maxrss_kb, s.maxrss_kb) / 1024.0)
        res.add("tdc_bytes", tdc.stat().st_size)
        return g.wall_s + s.wall_s

    def traced_rep(self, rep: int) -> None:
        import tracing  # imports aspps, which only traced runs need in-process

        res = self.result
        res.attempted += 1
        tracer = tracing.Tracer(f"{res.workload}-{res.seed}-{rep}")
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, STAGE_LIMIT_S)
        try:
            p = tracing.traced_pass(self.inst, self.work, tracer)
        except StageTimeout:
            res.fail(f"traced pass exceeded {STAGE_LIMIT_S:g} s")
            return
        except Exception as exc:  # a failed operation; the run goes on
            res.fail(f"traced pass raised {exc!r}")
            return
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.spans.extend(tracer.spans)
        problems = self.verify(p.tdc_text.encode("utf-8"), p.output_text, p.stats)
        layers = tracing.layer_times(p.spans)
        total, self_time, calls = (
            {name: v[i] for name, v in layers.items()} for i in range(3)
        )
        counts = dict(p.counts)
        counts["solver.branch_calls"] = calls.get("solver.branch", 0)
        counts["solver.propagate_calls"] = calls.get("solver.propagate", 0)
        for name, value in counts.items():
            ref = res.exact.setdefault(name, value)
            if value != ref:
                problems.append(f"{name} differs between repetitions: {value} vs {ref}")
        if problems:
            res.fail("; ".join(problems))
            return
        for span_name, metric in SPAN_METRICS.items():
            res.add(metric, total.get(span_name, 0.0))
        res.add("solver.other_s", self_time["solver.run"])
        res.add("solver.branch_share", total.get("solver.branch", 0.0) / total["solver.run"])
        res.add("trace.glue_s", self_time[tracing.ROOT_SPAN])
        res.add("trace.layers_s", sum(t for name, t in self_time.items() if name != tracing.ROOT_SPAN))
        res.add("solver.first_model_s", p.first_model_s)

    # -- checking ---------------------------------------------------------

    def verify(self, tdc_bytes: bytes, output: str, stats: dict[str, int]) -> list[str]:
        """Problems with one repetition's outputs. The .tdc bytes, the
        printed output (the CLI's and the traced pass's alike) and the
        search counters must repeat exactly; each distinct output is
        checked once against the problem and against its .tdc."""
        exact = self.result.exact
        problems = []
        tdc_sha = hashlib.sha256(tdc_bytes).hexdigest()
        if exact.setdefault("tdc.sha256", tdc_sha) != tdc_sha:
            problems.append("tdc bytes differ between repetitions")
        exact.setdefault("tdc_bytes", len(tdc_bytes))
        out_sha = hashlib.sha256(output.encode("utf-8")).hexdigest()
        if exact.setdefault("output.sha256", out_sha) != out_sha:
            problems.append("printed output differs between repetitions")
        key = (tdc_sha, out_sha)
        if key not in self.checked:
            self.checked[key] = check_output(self.inst, tdc_bytes.decode("utf-8"), output)
        problems += self.checked[key]
        for name, value in stats.items():
            ref = exact.setdefault(f"solver.{name}", value)
            if value != ref:
                problems.append(f"solver.{name} differs between repetitions: {value} vs {ref}")
        return problems


def check_output(inst: Instance, tdc_text: str, output: str) -> list[str]:
    """The instance's own checker, then check_model on every printed
    model against the theory read back from the .tdc."""
    from aspps.errors import TdcError
    from aspps.tdc import check_model, read_tdc

    parsed = parse_output(output, inst)
    if isinstance(parsed, str):
        return [parsed]
    sat, models = parsed
    problems = inst.check(sat, models)
    if problems or not models:
        return problems
    try:
        theory = read_tdc(tdc_text, file=inst.tdc_name)
    except TdcError as exc:
        return [f"unreadable .tdc: {exc}"]
    ids = {a.text: a.id for a in theory.atoms}
    for model in models:
        true = {ids.get(text) for text in model}
        if None in true:
            return ["model names an atom missing from the .tdc"]
        if not check_model(theory, {aid: aid in true for aid in range(1, theory.n_atoms + 1)}):
            return ["a printed model violates the ground theory"]
    return []


def _child_failure(tool: str, c: Child, stderr: str) -> str:
    if c.exit_code is None:
        return f"{tool} exceeded the {STAGE_LIMIT_S:g} s stage limit"
    return f"{tool} exited {c.exit_code}: {stderr}"


def _read_stat(path: Path) -> dict[str, int] | None:
    try:
        line = path.read_text(encoding="utf-8").strip().splitlines()[-1]
        fields = dict(part.split("=", 1) for part in line.split())
        return {k: int(fields[k]) for k in ("models", "decisions", "propagations", "conflicts")}
    except (OSError, IndexError, KeyError, ValueError):
        return None


def _raise_timeout(signum, frame):
    raise StageTimeout()


# ---------------------------------------------------------------------------
# Measuring and reporting.


def run_workload(workload: str, seed: int, seconds: float, traced: bool, size: str) -> tuple[Result, list]:
    res = Result(workload, seed, size, int(traced))
    inst = make_instance(workload, seed, size, PROBLEMS)
    work = SCRATCH / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = None
    try:
        bench = Bench(inst, res, work)
        bench.measure_setup(record=False)  # lets bytecode caches fill
        for _ in range(SETUP_SAMPLES):
            bench.measure_setup()
        start = time.perf_counter()
        rep = 0
        while True:
            rep_start = time.perf_counter()
            bench.cli_rep()
            bench.measure_setup()
            if traced:
                bench.traced_rep(rep)
            rep += 1
            # Stop at the repetition boundary nearest to --seconds.
            now = time.perf_counter()
            if now - start + (now - rep_start) / 2 >= seconds:
                break
        summarize(res)
        return res, bench.spans
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)


def summarize(res: Result) -> None:
    """Medians of the samples, the exact counts, and the metrics derived
    from several of them."""
    values = {name: statistics.median(v) for name, v in res.samples.items() if v}
    for name in PER_LAYER:
        if name not in values and isinstance(res.exact.get(name), (int, float)):
            values[name] = res.exact[name]
    if values.get("grounder.bindings"):
        values["grounder.keep_ratio"] = values["grounder.clauses_kept"] / values["grounder.bindings"]
    if {"trace.total_s", "total_wall_s", "setup_wall_s"} <= values.keys():
        # Two interpreters start per child run; the traced pass starts none.
        untraced = values["total_wall_s"] - 2 * values["setup_wall_s"]
        values["trace.overhead_s"] = values["trace.total_s"] - untraced
        values["trace.overhead_share"] = values["trace.overhead_s"] / untraced
        values["trace.accounted_share"] = values["trace.layers_s"] / untraced
    res.metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items() if name in values}


def tail(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, or the
    maximum when there are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (100 - p) / 100 >= 10:
            return f"p{p:g}", ordered[min(n - 1, int(n * p / 100))]
    return "max", ordered[-1]


def report(res: Result) -> None:
    attempted = max(res.attempted, 1)
    print(f"{res.workload}: seed={res.seed} size={res.size} trace={res.trace}"
          f" attempted={res.attempted} failed={res.failed}")
    for problem in res.problems:
        print(f"  FAILED: {problem}")
    print(f"  {'error_share':<24} {res.failed / attempted:.6g} ratio")
    for name, m in res.metrics.items():
        v = res.samples.get(name)
        if v:
            label, value = tail(v)
            print(f"  {name:<24} p50={statistics.median(v):.6g} {label}={value:.6g} n={len(v)} {m['unit']}")
        else:
            how = "exact" if name in res.exact else "derived"
            print(f"  {name:<24} {m['value']:.6g} {m['unit']} ({how})")
    for key in ("tdc.sha256", "output.sha256"):
        if key in res.exact:
            print(f"  {key:<24} {res.exact[key]}")
    m = {name: v["value"] for name, v in res.metrics.items()}
    if "trace.accounted_share" in m:
        print(f"  accounting: the layers' self times cover {m['trace.accounted_share']:.1%} of the untraced"
              f" total_wall_s net of 2 x setup_wall_s; tracing adds {m['trace.overhead_share']:.1%} to it")


def write_out(path: Path, results: list[Result], spans: list) -> None:
    doc = {"results": [{**asdict(r), "error_share": r.failed / max(r.attempted, 1)} for r in results]}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if spans:
        with open(path.with_name(path.name + ".spans.jsonl"), "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def compare(a_path: Path, b_path: Path) -> int:
    """Exit 0 when every exact field the two result files share is equal."""
    a = {r["workload"]: r for r in json.loads(a_path.read_text(encoding="utf-8"))["results"]}
    b = {r["workload"]: r for r in json.loads(b_path.read_text(encoding="utf-8"))["results"]}
    common = sorted(a.keys() & b.keys())
    if not common:
        print("perfbench: the two result files share no workload", file=sys.stderr)
        return 2
    differ = 0
    for w in common:
        ea, eb = a[w]["exact"], b[w]["exact"]
        if (a[w]["seed"], a[w]["size"]) != (b[w]["seed"], b[w]["size"]):
            print(f"{w}: note: seed/size {a[w]['seed']}/{a[w]['size']} vs {b[w]['seed']}/{b[w]['size']}")
        for key in sorted(ea.keys() | eb.keys()):
            if key not in ea or key not in eb:
                print(f"{w}: {key} only in {'first' if key in ea else 'second'} file")
            elif ea[key] != eb[key]:
                differ += 1
                print(f"{w}: DIFFERS {key}: {ea[key]} vs {eb[key]}")
            else:
                print(f"{w}: equal {key} = {ea[key]}")
    print(f"compare: {differ} exact field(s) differ across {len(common)} workload(s)")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="instance size; small is for the smoke test")
    ap.add_argument("--out", type=Path, help="write the full result (and spans) here")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare the exact fields of two --out files and exit")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    missing = [p for p in (SRC / "aspps" / "__init__.py", PROBLEMS) if not p.exists()]
    if missing:
        print(f"perfbench: not a source checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, spans = [], []
    for name in names:
        res, run_spans = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        report(res)
        results.append(res)
        spans += run_spans
    try:
        SCRATCH.rmdir()
    except OSError:
        pass
    if args.out:
        write_out(args.out, results, spans)

    wanted = set(PER_LAYER if args.trace else END_TO_END)
    if len(results) == 1:
        metrics = {k: v for k, v in results[0].metrics.items() if k in wanted}
    else:
        metrics = {f"{r.workload}.{k}": v for r in results for k, v in r.metrics.items() if k in wanted}
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    correct = failed == 0 and all(wanted <= r.metrics.keys() for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
