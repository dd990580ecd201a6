"""DPLL search over ground clausal theories with cardinality constructs."""

import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from aspps.errors import TdcError
from aspps.solver import Solver, SolveStats, model_lines, solve, stat_line
from aspps.tdc import check_model, read_tdc, write_tdc
from aspps.theory import CardConstruct, GroundAtom, GroundTheory

from generators import (
    break_ground_theory,
    planted_coloring,
    random_ground_theory,
    random_pair_theory,
    reorder_members,
)
from oracles import CheckedSolver, ReferenceSolver, check_scores, enumerate_models, search_outcome
from problems import PIGEON_DATA, PIGEON_RULES, QUEENS_DATA, QUEENS_RULES, ground_problem


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
        (_theory(3, [(-1, 1, (1, 2))], [(4,)]), "card 4 has negative lower bound"),
        (_theory(3, [(0, -2, (1, 2))], [(4,)]), "card 4 has upper bound below -1"),
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
        "negative-lo",
        "hi-below-minus-one",
        "card-ids-not-dense",
        "literal-zero",
        "literal-above-ids",
    ],
)
def test_solver_rejects_degenerate_cards(theory, message):
    # read_tdc refuses every one of these; a library caller can build them
    with pytest.raises(ValueError, match=message):
        Solver(theory)


def test_solver_refuses_what_read_tdc_refuses():
    # Solver(t) raises ValueError(m) exactly when reading t's .tdc text
    # raises TdcError(m): the two share each rule of a ground theory.
    rng = random.Random(16)
    rules = set()
    for seed in range(600):
        theory = break_ground_theory(rng, random_ground_theory(random.Random(seed), max_cards=4))
        try:
            read_tdc(write_tdc(theory))
            want = None
        except TdcError as exc:
            want = exc.message
        try:
            Solver(theory)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want, seed
        rules.add(re.sub(r"-?\d+", "_", want or "accepted"))
    assert rules == {
        "accepted",
        "card _ has lower bound above its upper bound",
        "card _ has negative lower bound",
        "card _ has upper bound below _",
        "card _ lists a member twice",
        "card _ member _ is not an atom id",
        "card ids must be dense, expected _ got _",
        "literal _ out of range",
    }


def test_enumeration_exact_models():
    # a1 | a2, not both
    res = solve(_theory(2, clauses=[(1, 2), (-1, -2)]), max_models=None)
    assert _model_sets(res) == {frozenset({1}), frozenset({2})}


def test_max_models_caps_enumeration():
    t = _theory(3)  # free atoms: 8 models total
    assert len(solve(t, max_models=1).models) == 1
    assert len(solve(t, max_models=3).models) == 3
    assert len(solve(t, max_models=None).models) == 8


@pytest.mark.parametrize("max_models", [0, -5, 1.5, 2.0, True, "3"])
def test_max_models_below_one_is_refused(max_models):
    t = _theory(2)
    message = re.escape(f"max_models must be None or at least 1, got {max_models!r}")
    with pytest.raises(ValueError, match=message):
        solve(t, max_models)
    with pytest.raises(ValueError, match=message):
        next(Solver(t).search(max_models))
    with pytest.raises(ValueError, match=message):
        next(Solver(t).models(max_models))
    with pytest.raises(ValueError, match=message):
        Solver(t).run(max_models)


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
    check_scores(s)
    # a5 closes (5) and the pair (5 | 6), which leaves a6 in (3 | 6) only
    assert s.sat_count == [1]
    assert [s.score[aid] for aid in (2, 3, 4, 6)] == [3, 3, 2, 1]


def test_two_literal_clauses_that_are_not_pairs_are_counted():
    # A pair is two atom literals on two different atoms. A card literal,
    # a | -a and a | a keep the clause path: a clause count, and a check
    # that reads a card's status.
    t = _theory(3, cards=[(1, 1, (2, 3))], clauses=[(1, 4), (1, -1), (2, 2), (-1, 3)])
    s = Solver(t)
    assert s.clause_lits == [(1, 4), (1, -1), (2, 2)]
    # sat_by[ref][2:]: the partner lists, here only those of (-a1 | a3)
    assert [list(side) for side in s.sat_by[1][2:]] == [[], [3], [3], []]
    assert not any(s.sat_by[2][2:]) and not any(s.sat_by[4][2:])
    res = solve(t, max_models=None)
    assert _model_sets(res) == enumerate_models(t) == {frozenset({1, 2, 3}), frozenset({2})}


def test_pairs_made_unit_at_setup():
    # The unit clause a1 and the card 1 {a3} 1, which forces its member,
    # make the pairs (-a1 | a2) and (-a3 | -a4) unit during set-up, and
    # a4 false makes (a4 | a5) unit: five propagations, no decision.
    t = _theory(5, cards=[(1, 1, (3,))], clauses=[(1,), (6,), (-1, 2), (-3, -4), (4, 5)])
    res = solve(t)
    assert res.models == [{1: True, 2: True, 3: True, 4: False, 5: True}]
    assert res.stats == SolveStats(decisions=0, propagations=5, conflicts=0)


def test_backtrack_below_the_closure_mark_drops_it():
    # Deciding a1 closes both clauses, so the scan at the next pick marks
    # the trail there, and a2, a3 and a4 are then taken without a scan.
    # Flipping a1 cuts the trail below the mark and reopens both clauses:
    # a3 and a4 score 2 and a2 0, so the scan picks a3, not a2.
    t = _theory(4, clauses=[(1, 3, 4), (1, -3, 4)])
    s = CheckedSolver(t)
    picks = []
    pick = s.choose_branch

    def record():
        trail = list(s.trail)
        picks.append((trail, pick()))
        return picks[-1][1]

    s.choose_branch = record
    assert sum(1 for _ in s.models(None)) == 12
    assert [aid for _, aid in picks[:4]] == [1, 2, 3, 4]
    flipped = [i for i, (trail, _) in enumerate(picks) if trail == [1]]
    assert len(flipped) == 2  # a1 true, then a1 flipped to false
    assert picks[flipped[1]][1] == 3


def test_setup_checks_only_short_clauses():
    # Propagation checks every clause a false literal can make unit, so
    # set-up checks just the clauses of fewer than two literals, in order:
    # on queens8 the 8 unit card clauses, the only ones not pairs.
    # Committing a card sets no atom there, so propagation checks no
    # clause.
    t = ground_problem(QUEENS_RULES, QUEENS_DATA, {"n": "8"})
    s = Solver(t)
    checked = []
    check = s._check_clause

    def record(ci):
        checked.append(ci)
        return check(ci)

    s._check_clause = record
    assert s._initial_propagate() is None
    short = [cl for cl in t.clauses if len(cl) < 2]
    assert len(short) == 8 and all(cl[0] > t.n_atoms for cl in short)
    assert s.clause_lits == short
    assert checked == list(range(8))
    assert all(ref > t.n_atoms for ref in s.trail)


@pytest.mark.parametrize(
    "n, cards, clauses, conflict, models, stats",
    [
        # contradictory units
        (1, [], [(1,), (-1,)], True, [], SolveStats(0, 1, 1)),
        # a unit makes the card 2 {a1, a2} false against its unit clause
        (2, [(2, -1, (1, 2))], [(-1,), (3,)], True, [], SolveStats(0, 1, 1)),
        # a unit card clause forces both members
        (2, [(2, -1, (1, 2))], [(3,)], False, [{1: True, 2: True}], SolveStats(0, 2, 0)),
        # a unit card clause, then a unit that contradicts it: the unit
        # sets a1 before the committed card is evaluated, which finds the
        # conflict without forcing a2 (the reference forces a1 and a2
        # first: propagations 2)
        (2, [(2, -1, (1, 2))], [(3,), (-1,)], True, [], SolveStats(0, 1, 1)),
    ],
    ids=["contradictory-units", "unit-breaks-card", "card-forces", "card-then-contradicting-unit"],
)
def test_setup_outcomes_pinned(n, cards, clauses, conflict, models, stats):
    t = _theory(n, cards=cards, clauses=clauses)
    assert (Solver(t)._initial_propagate() is not None) == conflict
    res = Solver(t).run(None)
    assert (res.models, res.stats) == (models, stats)
    assert search_outcome(ReferenceSolver(t).run(None)) == search_outcome(res)


def test_clause_committed_card_waits_on_the_card_queue():
    # Deciding a3 makes (-a3 | 4) commit the card 2 {a1, a2}. The check
    # only queues the card; propagate then forces both members.
    t = _theory(3, cards=[(2, -1, (1, 2))], clauses=[(-3, 4)])
    s = Solver(t)
    assert s._initial_propagate() is None
    s.assign(3, True, decision=True)
    s.queue.clear()
    assert s._check_clause(0) is None
    assert list(s.dirty_cards) == [4]
    assert s.propagate() is None
    assert s.assignment[1:] == [True, True, True, True]


def test_committed_true_card_queued_only_when_it_acts():
    # pigeon 3/3: each pigeon's card 1 {in(p,H) : hole(H)} 1 is committed
    # true at set-up. A first false member leaves its not-false count
    # above lo, where an evaluation would do nothing, so no card is
    # queued; a second brings that count to lo with a member unset, which
    # the card must force.
    t = ground_problem(PIGEON_RULES, PIGEON_DATA, {"p": "3", "h": "3"})
    s = Solver(t)
    assert s._initial_propagate() is None
    ids = {a.text: a.id for a in t.atoms}
    a11, a12 = ids["in(1,1)"], ids["in(1,2)"]
    (pigeon1,) = [c.id for c in t.cards if a11 in c.members and a12 in c.members]
    assert s.assignment[pigeon1] is True
    s.assign(a11, False)
    assert not s.dirty_cards
    s.assign(a12, False)
    assert list(s.dirty_cards) == [pigeon1]
    assert s.propagate() is None
    assert s.assignment[ids["in(1,3)"]] is True


def test_member_order_does_not_matter():
    # Forcing scans a card's members from the high end, so reversed or
    # shuffled members are set in another order; the search outcome
    # (search_outcome) stays, under the solver's state checks.
    theories = [random_ground_theory(random.Random(seed), max_atoms=10, max_cards=4) for seed in range(200)]
    theories.append(ground_problem(PIGEON_RULES, PIGEON_DATA, {"p": "5", "h": "5"}))
    for i, t in enumerate(theories):
        want = search_outcome(CheckedSolver(t).run(None))
        for other in (reorder_members(t), reorder_members(t, random.Random(i))):
            assert search_outcome(CheckedSolver(other).run(None)) == want, i


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


def test_incremental_branch_matches_rescan():
    # Fixed seeds, so the check is the same on every run. The solver,
    # plain and under its state checks, against the reference, which
    # shares no search code with it. Propagation order may move
    # propagations on a run with conflicts, and nothing else
    # (search_outcome); its pins are on ReferenceSolver. The solver
    # queues a card that a clause commits, where the reference evaluates
    # it at once, and visits pairs before other clauses; propagations
    # differs from the reference's on 107 of these seeds, 15648 among
    # them.
    for seed in [*range(1000), 15648]:
        t = random_ground_theory(random.Random(seed), max_atoms=10, max_cards=4)
        for max_models in (None, 1):
            want = search_outcome(ReferenceSolver(t).run(max_models))
            assert search_outcome(Solver(t).run(max_models)) == want, seed
            assert search_outcome(CheckedSolver(t).run(max_models)) == want, seed


def test_large_theories_match_reference():
    # 100-300 atoms, past the small theories of the other differentials
    # and past 64, one machine word of atoms: the first three models and
    # the counters equal the reference's (search_outcome), plain and
    # under the solver's state checks. The reference's set-up checks
    # every clause and its propagation visits them in order.
    kept = sat = 0
    for seed in range(20):
        t = random_ground_theory(
            random.Random(seed), max_atoms=300, max_cards=6, bias_small=False, empty_clause_rate=0
        )
        if t.n_atoms < 100:
            continue
        want = search_outcome(ReferenceSolver(t).run(3))
        assert search_outcome(Solver(t).run(3)) == want, seed
        got = CheckedSolver(t).run(3)
        assert search_outcome(got) == want, seed
        kept += 1
        sat += got.sat
    assert (kept, sat) == (15, 5)


def test_pair_theories_match_reference():
    # Theories of mostly pairs of both signs (random_pair_theory, 100-300
    # atoms) and planted 3-colorings grounded through color.rl, whose
    # pairs all force false: the first three models and the counters equal
    # the reference's (search_outcome), plain and under the solver's state
    # checks. The reference visits each id's clauses in order, the solver
    # its pairs first, so propagations moves on some conflict rounds.
    theories = [random_pair_theory(random.Random(seed)) for seed in range(30)]
    theories += [planted_coloring(v, 2.25, seed) for v in (40, 80) for seed in (1, 2, 3)]
    searched = sat = moved = 0
    for i, t in enumerate(theories):
        want = ReferenceSolver(t).run(3)
        assert search_outcome(Solver(t).run(3)) == search_outcome(want), i
        got = CheckedSolver(t).run(3)
        assert search_outcome(got) == search_outcome(want), i
        searched += got.stats.decisions > 0
        sat += got.sat
        moved += got.stats.propagations != want.stats.propagations
    assert (searched, sat) == (32, 31)
    assert moved
