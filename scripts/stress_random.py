#!/usr/bin/env python3
"""Randomized differential stress of the grounder and the solver.

Grounds random typed programs and compares against the brute-force
substitution oracle and, byte for byte, against grounding by full
substitution; solves random ground theories and compares against model
enumeration over all assignments and, model order and search counters
included, against propagation over every occurrence of an id and against
a solver that checks its own state, branch scores included, at every
branch pick and backtrack, among them that no committed card is left
with members it should have forced; and checks that what aspps prints
under -A -C, -S <pred> -C and -A -C 3 equals those models rendered
through model_lines:

    python3 scripts/stress_random.py -n 2000 --seed 7
"""

import argparse
import random
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from aspps.database import build_database
from aspps.grounder import check_program, ground_theory
from aspps.parser import parse_data_file, parse_rule_file
from aspps.solver import solve
from aspps.tdc import check_model, read_tdc, write_tdc
from aspps.theory import GroundAtom, GroundTheory

from generators import random_ground_theory, random_program
from oracles import (
    CheckedSolver,
    ReferenceSolver,
    aspps_stdout_mismatch,
    enumerate_models,
    naive_ground,
    normalize_theory,
    reference_ground,
)


def stress_grounder(n, rng):
    t0 = time.perf_counter()
    for i in range(n):
        rules, data, _ = random_program(rng)
        prog = parse_rule_file(rules)
        db = build_database(parse_data_file(data))
        diags = check_program(prog, db)
        if diags:
            print(f"[grounder {i}] generator produced a rejected program: {diags}")
            print(rules)
            return False
        theory = ground_theory(prog, db)
        if normalize_theory(theory) != naive_ground(prog, db):
            print(f"[grounder {i}] mismatch with the substitution oracle")
            print(rules)
            print(data)
            return False
        if write_tdc(theory) != write_tdc(reference_ground(prog, db)):
            print(f"[grounder {i}] .tdc differs from grounding by full substitution")
            print(rules)
            print(data)
            return False
        if write_tdc(read_tdc(write_tdc(theory))) != write_tdc(theory):
            print(f"[grounder {i}] round-trip broke")
            return False
    print(f"grounder: {n} programs agree ({time.perf_counter() - t0:.2f}s)")
    return True


def stress_solver(n, rng, max_atoms):
    t0 = time.perf_counter()
    for i in range(n):
        theory = random_ground_theory(rng, max_atoms=max_atoms)
        res = solve(theory, max_models=None)
        found = {frozenset(a for a, v in m.items() if v) for m in res.models}
        want = enumerate_models(theory)
        if found != want:
            print(f"[solver {i}] found {len(found)} models, oracle says {len(want)}")
            print(write_tdc(theory))
            return False
        if not all(check_model(theory, m) for m in res.models):
            print(f"[solver {i}] returned a non-model")
            return False
        ref = ReferenceSolver(theory).run(None)
        if res.models != ref.models or res.stats != ref.stats:
            print(f"[solver {i}] models, model order or counters differ from"
                  f" full-occurrence propagation: {res.stats} vs {ref.stats}")
            print(write_tdc(theory))
            return False
        try:
            checked = CheckedSolver(theory).run(None)
        except AssertionError as exc:
            print(f"[solver {i}] solver state check failed: {exc!r}")
            print(write_tdc(theory))
            return False
        if res.models != checked.models or res.stats != checked.stats:
            print(f"[solver {i}] models, model order or counters differ under"
                  f" the state checks: {res.stats} vs {checked.stats}")
            print(write_tdc(theory))
            return False
    print(f"solver: {n} theories agree ({time.perf_counter() - t0:.2f}s)")
    return True


# Two atoms, -a1 | a2: its first model has no true atom.
EMPTY_MODEL_THEORY = GroundTheory(
    tuple(GroundAtom(i, f"a{i}", (), f"a{i}") for i in (1, 2)), (), ((-1, 2),)
)


def stress_cli(n, rng, max_atoms):
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as workdir:
        for i in range(n + 1):
            theory = EMPTY_MODEL_THEORY if i == 0 else random_ground_theory(rng, max_atoms=max_atoms)
            pred = f"a{rng.randint(1, theory.n_atoms)}"
            problem = aspps_stdout_mismatch(theory, workdir, pred)
            if problem:
                print(f"[cli {i}] {problem}")
                print(write_tdc(theory))
                return False
    print(f"cli: {n + 1} theories print their reference models ({time.perf_counter() - t0:.2f}s)")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", type=int, default=500, help="instances per component")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-atoms", type=int, default=12)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    ok = stress_grounder(args.n, rng)
    ok = stress_solver(args.n, rng, args.max_atoms) and ok
    ok = stress_cli(args.n, rng, args.max_atoms) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
