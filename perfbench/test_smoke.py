"""Smoke test of run.py on small instances.

Run with `python -m pytest perfbench` from the repository root.
"""

import json
import subprocess
import sys
from pathlib import Path

from workloads import check_bijections, check_coloring, check_pigeon_unsat, check_queens

RUN = Path(__file__).with_name("run.py")


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=RUN.parent.parent,
        capture_output=True, text=True, timeout=300,
    )


def test_run_covers_every_workload_and_compares(tmp_path):
    outs = []
    for trace in ("0", "1"):
        out = tmp_path / f"trace{trace}.json"
        p = _bench("--workload", "all", "--size", "small", "--seconds", "0", "--trace", trace, "--out", str(out))
        assert p.returncode == 0, p.stderr
        last = json.loads(p.stdout.splitlines()[-1])
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 4
        assert "queens.total_s" in last["metrics"] if trace == "0" else "enum.solver.models" in last["metrics"]
        outs.append(out)
    assert (tmp_path / "trace1.json.spans.jsonl").stat().st_size > 0

    # The untraced and traced runs agree on every exact field they share.
    assert _bench("--compare", *map(str, outs)).returncode == 0
    doc = json.loads(outs[1].read_text())
    doc["results"][0]["exact"]["solver.decisions"] += 1
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(doc))
    p = _bench("--compare", str(outs[1]), str(changed))
    assert p.returncode == 1 and "DIFFERS solver.decisions" in p.stdout


def test_checkers_reject_wrong_outputs():
    good = ["q(1,2)", "q(2,4)", "q(3,1)", "q(4,3)"]
    assert check_queens(4, True, [good]) == []
    assert check_queens(4, True, [["q(1,1)", "q(2,4)", "q(3,2)", "q(4,3)"]])  # (3,2) and (4,3) share a diagonal
    assert check_queens(4, False, [])

    edges = [(1, 2), (2, 3), (3, 1)]
    assert check_coloring(3, edges, True, [["clr(1,1)", "clr(2,2)", "clr(3,3)"]]) == []
    assert check_coloring(3, edges, True, [["clr(1,1)", "clr(2,2)", "clr(3,1)"]])
    assert check_coloring(3, edges, True, [["clr(1,1)", "clr(1,2)", "clr(2,2)", "clr(3,3)"]])

    assert check_pigeon_unsat(3, 2, False) == []
    assert check_pigeon_unsat(3, 2, True)

    perms = [["in(1,1)", "in(2,2)"], ["in(1,2)", "in(2,1)"]]
    assert check_bijections(2, True, perms) == []
    assert check_bijections(2, True, [perms[0], perms[0]])
    assert check_bijections(2, True, [perms[0], ["in(1,1)", "in(2,1)"]])
