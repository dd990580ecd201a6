"""DPLL search over ground clausal theories with cardinality constructs."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from aspps.solver import Solver, model_lines, solve, stat_line
from aspps.tdc import check_model
from aspps.theory import CardConstruct, GroundAtom, GroundTheory

from generators import random_ground_theory
from oracles import CheckedSolver, ReferenceSolver, counted_scores, enumerate_models


def _atoms(n):
    return tuple(GroundAtom(i, f"a{i}", (), f"a{i}") for i in range(1, n + 1))


def _theory(n, cards=(), clauses=()):
    cs = tuple(CardConstruct(n + 1 + i, lo, hi, tuple(ms)) for i, (lo, hi, ms) in enumerate(cards))
    return GroundTheory(_atoms(n), cs, tuple(tuple(c) for c in clauses))


def _model_sets(result):
    return {frozenset(i for i, v in m.items() if v) for m in result.models}


def test_empty_theory_has_one_model():
    res = solve(_theory(0), max_models=None)
    assert res.sat and res.models == [{}]
    assert res.stats.decisions == 0 and res.stats.conflicts == 0


def test_empty_clause_unsat():
    res = solve(_theory(2, clauses=[()]))
    assert not res.sat and res.models == []


def test_unit_propagation_chain():
    # a1; a1 -> a2; a2 -> a3: forced without branching
    res = solve(_theory(3, clauses=[(1,), (-1, 2), (-2, 3)]))
    assert res.sat
    assert res.models[0] == {1: True, 2: True, 3: True}
    assert res.stats.decisions == 0
    assert res.stats.propagations == 3


def test_contradictory_units_unsat():
    res = solve(_theory(1, clauses=[(1,), (-1,)]))
    assert not res.sat
    assert res.stats.conflicts >= 1


def test_card_exactly_one_forces_rest_false():
    # 1 {a1,a2,a3} 1 asserted; a1 asserted: a2, a3 must go false
    res = solve(_theory(3, cards=[(1, 1, (1, 2, 3))], clauses=[(4,), (1,)]))
    assert res.sat
    assert res.models[0] == {1: True, 2: False, 3: False}
    assert res.stats.decisions == 0


def test_card_lower_bound_forces_rest_true():
    # 2 {a1,a2} asserted: both members forced true
    res = solve(_theory(2, cards=[(2, -1, (1, 2))], clauses=[(3,)]))
    assert res.sat
    assert res.models[0] == {1: True, 2: True}
    assert res.stats.decisions == 0


def test_negated_card_escape_forcing():
    # -(2 {a1,a2} 2) with a1 true: only escape is a2 false
    res = solve(_theory(2, cards=[(2, 2, (1, 2))], clauses=[(-3,), (1,)]))
    assert res.sat
    assert res.models[0] == {1: True, 2: False}
    assert res.stats.decisions == 0


def test_negated_card_no_escape_conflict():
    # 0 {a1} -1 is always true; asserting its negation dead-ends
    res = solve(_theory(1, cards=[(0, -1, (1,))], clauses=[(-2,)]))
    assert not res.sat


def test_card_unsatisfiable_bounds_detected():
    # 3 {a1,a2} asserted: only 2 members, status false immediately
    res = solve(_theory(2, cards=[(3, -1, (1, 2))], clauses=[(3,)]))
    assert not res.sat


@pytest.mark.parametrize(
    "theory, message",
    [
        (_theory(3, [(2, 1, (1, 2, 3))], [(4,)]), "card 4 has lower bound above its upper bound"),
        (_theory(3, [(1, 2, (1, 1, 2, 3))], [(4,), (1,)]), "card 4 lists a member twice"),
        (_theory(3, [(1, 1, (0, 1))], [(4,)]), "card 4 member 0 is not an atom id"),
        (_theory(3, [(1, 1, (1, 4))], [(4,)]), "card 4 member 4 is not an atom id"),
        (
            GroundTheory(_atoms(3), (CardConstruct(5, 1, 1, (1, 2)),), ((5,),)),
            "card ids must be dense, expected 4 got 5",
        ),
        (_theory(3, clauses=[(0, 1)]), "literal 0 out of range"),
        (_theory(3, [(1, 1, (1, 2))], [(-5,)]), "literal -5 out of range"),
    ],
    ids=[
        "lo-above-hi",
        "member-twice",
        "member-zero",
        "member-not-atom",
        "card-ids-not-dense",
        "literal-zero",
        "literal-above-ids",
    ],
)
def test_solver_rejects_degenerate_cards(theory, message):
    # read_tdc refuses every one of these; a library caller can build them
    with pytest.raises(ValueError, match=message):
        Solver(theory)


def test_enumeration_exact_models():
    # a1 | a2, not both
    res = solve(_theory(2, clauses=[(1, 2), (-1, -2)]), max_models=None)
    assert _model_sets(res) == {frozenset({1}), frozenset({2})}


def test_max_models_caps_enumeration():
    t = _theory(3)  # free atoms: 8 models total
    assert len(solve(t, max_models=1).models) == 1
    assert len(solve(t, max_models=3).models) == 3
    assert len(solve(t, max_models=None).models) == 8


def test_models_are_distinct_and_total():
    t = _theory(3, cards=[(1, 2, (1, 2, 3))], clauses=[(4,)])
    res = solve(t, max_models=None)
    seen = _model_sets(res)
    assert len(seen) == len(res.models)
    for m in res.models:
        assert set(m) == {1, 2, 3}
        assert check_model(t, m)


def test_stats_deterministic_across_runs():
    t = _theory(4, cards=[(1, 1, (1, 2, 3, 4))], clauses=[(5,), (1, 2), (-2, 3)])
    a = solve(t, max_models=None)
    b = solve(t, max_models=None)
    assert a.models == b.models
    assert a.stats == b.stats


def test_branching_prefers_frequent_atom():
    # a2 appears in both clauses, a1/a3 once each
    s = Solver(_theory(3, clauses=[(1, 2), (2, 3)]))
    assert s.choose_branch() == 2
    # members of a card literal count toward the tally
    s2 = Solver(_theory(3, cards=[(1, 1, (2, 3))], clauses=[(4,), (2, 3)]))
    assert s2.choose_branch() == 2
    # all clauses satisfied: lowest undetermined atom
    s3 = Solver(_theory(2))
    assert s3.choose_branch() == 1


def test_backtrack_skips_the_uncounted_round():
    # a5 is counted before the decision a1; a1, a2 and a3 make clauses
    # true in a round that ends in the conflict (-2 | -3) and are still
    # pending when it is undone, and the flipped -a1 is pending after it.
    t = _theory(6, clauses=[(5,), (5, 6), (1, 4), (-1, 2), (-1, 3), (-2, -3), (2, 4), (3, 6)])
    s = Solver(t)
    assert s._initial_propagate() is None
    s._count_pending()
    s.assign(1, True, decision=True)
    assert s.propagate() is not None
    assert s.pending == [1, 2, 3]
    assert s._backtrack_flip()
    assert (s.trail, s.pending) == ([5, 1], [1])
    assert (s.sat_count, s.score, s.open_clauses) == counted_scores(s)
    assert s.sat_count == [1, 1, 0, 0, 0, 0, 0, 0]


def test_unused_ids_share_empty_tables():
    # 200 000 atoms in no clause and no card: each costs its slots in the
    # flat tables, and no list of its own
    t = _theory(200_000)
    tracemalloc.start()
    try:
        Solver(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25_000_000, peak


def _peak_bytes_drawing(theory, count):
    tracemalloc.start()
    try:
        drawn = sum(1 for _ in Solver(theory).models(count))
        return drawn, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_models_run_in_flat_memory():
    # 2**30 models; keeping the 2 000 drawn first alone would take ~2 MB
    t = _theory(30)
    drawn_few, few = _peak_bytes_drawing(t, 2_000)
    drawn_many, many = _peak_bytes_drawing(t, 20_000)
    assert (drawn_few, drawn_many) == (2_000, 20_000)
    assert abs(many - few) < 32 * 1024, (few, many)


def test_model_lines_ascending_and_filtered():
    t = GroundTheory(
        (
            GroundAtom(1, "q", (2,), "q(2)"),
            GroundAtom(2, "p", (1,), "p(1)"),
            GroundAtom(3, "q", (1,), "q(1)"),
        ),
        (),
        (),
    )
    model = {1: True, 2: True, 3: False}
    assert model_lines(t, model) == ["q(2)", "p(1)"]
    assert model_lines(t, model, pred="q") == ["q(2)"]
    assert model_lines(t, model, pred="r") == []


def test_stat_line_format():
    from aspps.solver import SolveStats

    line = stat_line("g.tdc", True, 6, SolveStats(5, 33, 0), 12)
    assert line == (
        "file=g.tdc result=SAT models=6 decisions=5 propagations=33"
        " conflicts=0 time_ms=12"
    )
    line = stat_line("g.tdc", False, 0, SolveStats(1, 2, 3), 0)
    assert "result=UNSAT models=0" in line


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_solver_agrees_with_brute_force(seed):
    t = random_ground_theory(random.Random(seed), max_atoms=10)
    expected = enumerate_models(t)
    res = solve(t, max_models=None)
    assert _model_sets(res) == expected
    assert res.sat == bool(expected)
    for m in res.models:
        assert check_model(t, m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_first_model_valid_and_counted(seed):
    t = random_ground_theory(random.Random(seed), max_atoms=12)
    res = solve(t, max_models=1)
    if res.sat:
        assert len(res.models) == 1
        assert check_model(t, res.models[0])
    else:
        assert res.models == []
        assert not enumerate_models(t)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_incremental_branch_matches_rescan(seed):
    t = random_ground_theory(random.Random(seed), max_atoms=10, max_cards=4)
    for max_models in (None, 1):
        got = CheckedSolver(t).run(max_models)
        want = ReferenceSolver(t).run(max_models)
        assert got.models == want.models
        assert got.stats == want.stats
