"""Closed-world data storage."""

from aspps.database import build_database


def test_build_and_contains():
    db = build_database({("vtx", (1,)), ("vtx", (2,)), ("edge", (1, 2)), ("flag", ())})
    assert db.contains("vtx", (1,))
    assert db.contains("edge", (1, 2))
    assert db.contains("flag", ())
    assert not db.contains("edge", (2, 1))  # closed world
    assert not db.contains("vtx", (9,))
    assert not db.contains("missing", (1,))
    assert not db.contains("vtx", (1, 2))  # wrong arity is just absent


def test_empty_database():
    db = build_database(set())
    assert not db.contains("p", (1,))
    assert db.unary_domain("p") == []
    assert db.predicate_names() == set()


def test_unary_domain_sorted_ints_then_symbols():
    db = build_database({("d", (3,)), ("d", (-1,)), ("d", ("b",)), ("d", ("a",)), ("d", (0,))})
    assert db.unary_domain("d") == [-1, 0, 3, "a", "b"]


def test_unary_domain_callers_cannot_change_it():
    db = build_database({("d", (2,)), ("d", (1,))})
    domain = db.unary_domain("d")
    domain.append(7)
    domain.sort(reverse=True)
    assert db.unary_domain("d") == [1, 2]
    assert db.unary_domain("d") is not db.unary_domain("d")


def test_unary_domain_of_absent_predicate_is_empty():
    db = build_database({("edge", (1, 2))})
    assert db.unary_domain("vtx") == []


def test_mixed_arity_predicate():
    db = build_database({("p", (1,)), ("p", (1, 2))})
    assert db.contains("p", (1,))
    assert db.contains("p", (1, 2))
    assert db.unary_domain("p") == [1]
    assert db.predicate_names() == {"p"}
