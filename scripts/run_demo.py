#!/usr/bin/env python3
"""Ground and solve the three bundled encodings end to end.

Runs psgrnd and aspps in a scratch directory against scripts/problems/
and prints the resulting model counts:

    python3 scripts/run_demo.py
    python3 scripts/run_demo.py --queens 8 --colors 4
"""

import argparse
import os
import tempfile
from pathlib import Path

from aspps.cli import aspps_main, psgrnd_main
from aspps.grounder import output_name
from aspps.solver import model_lines, solve
from aspps.tdc import read_tdc

PROBLEMS = Path(__file__).resolve().parent / "problems"


def run(name, rule, data, consts, expect_sat):
    argv = []
    for k, v in consts.items():
        argv += ["-c", f"{k}={v}"]
    argv += ["-r", str(PROBLEMS / rule), "-d", str(PROBLEMS / data)]
    if psgrnd_main(argv) != 0:
        raise SystemExit(f"{name}: grounding failed")
    tdc = output_name(consts, rule, [data])
    theory = read_tdc(Path(tdc).read_text(encoding="utf-8"), file=tdc)
    print(f"{name}: {theory.n_atoms} atoms, {len(theory.cards)} cards, "
          f"{len(theory.clauses)} clauses -> {tdc}")

    res = solve(theory, max_models=None)
    print(f"  models: {len(res.models)}  (decisions={res.stats.decisions}, "
          f"propagations={res.stats.propagations}, conflicts={res.stats.conflicts})")
    if res.sat:
        print("  first model:", " ".join(model_lines(theory, res.models[0])))
    if res.sat != expect_sat:
        raise SystemExit(f"{name}: expected {'SAT' if expect_sat else 'UNSAT'}")

    # the CLI path over the same file must agree
    if aspps_main(["-f", tdc, "-C"]) != 0:
        raise SystemExit(f"{name}: aspps failed")
    last = Path("aspps.stat").read_text(encoding="utf-8").splitlines()[-1]
    print(f"  stat: {last}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--colors", type=int, default=3, help="colors for the graph problem")
    ap.add_argument("--queens", type=int, default=6, help="board size for n-queens")
    ap.add_argument("--pigeons", type=int, default=4)
    ap.add_argument("--holes", type=int, default=3)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="aspps-demo-") as scratch:
        os.chdir(scratch)
        run("triangle coloring", "color.rl", "graph.dt", {"k": args.colors}, True)
        run("n-queens", "queens.rl", "board.dt", {"n": args.queens}, True)
        run(
            "pigeonhole",
            "pigeon.rl",
            "pigeon.dt",
            {"p": args.pigeons, "h": args.holes},
            args.pigeons <= args.holes,
        )


if __name__ == "__main__":
    main()
