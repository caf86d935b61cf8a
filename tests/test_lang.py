from __future__ import annotations

import random

import pytest

from absint import lang
from absint.lang import (
    Assign,
    BinOp,
    Cmp,
    CondNondet,
    Const,
    If,
    Nondet,
    ParseError,
    Var,
    While,
    negate_cond,
    parse_program,
)
from helpers import pretty, random_program

RING = """
int i = 0;
while (0 < 1) {
  if (*) {
    i = i + 1;
    if (i > 42) {
      i = 0;
    }
  }
  assert (i < 1000);
}
"""


def test_ring_listing_parses_to_one_loop_with_nested_ifs():
    p = parse_program(RING)
    assert len(p.body) == 1
    loop = p.body[0]
    assert isinstance(loop, While)
    outer_if = loop.body[0]
    assert isinstance(outer_if, If)
    assert isinstance(outer_if.cond, CondNondet)
    inner_if = outer_if.then[1]
    assert isinstance(inner_if, If)
    assert inner_if.cond == Cmp(">", Var("i"), Const(42))


def test_empty_program():
    p = parse_program("")
    assert p.decls == () and p.body == ()


def test_malformed_assignment_reports_position():
    with pytest.raises(ParseError) as err:
        parse_program("int x;\nx = ;")
    assert "';'" in str(err.value)
    assert err.value.line == 2


def test_undeclared_variable_rejected():
    with pytest.raises(ParseError, match="undeclared"):
        parse_program("x = 3;")
    with pytest.raises(ParseError, match="undeclared"):
        parse_program("int x; x = y + 1;")


def test_duplicate_declaration_rejected():
    with pytest.raises(ParseError, match="already declared"):
        parse_program("int x; int x;")


def test_nondeterministic_assert_rejected():
    with pytest.raises(ParseError, match="assert"):
        parse_program("assert (*);")


def test_negation_table():
    c = Cmp(">", Var("x"), Const(42))
    assert negate_cond(c) == Cmp("<=", Var("x"), Const(42))
    assert negate_cond(negate_cond(c)) == c
    assert negate_cond(CondNondet()) == CondNondet()


def test_expressions_parse_left_associated():
    p = parse_program("int a; int b; a = a - b - 1;")
    stmt = p.body[0]
    assert isinstance(stmt, Assign)
    assert stmt.expr == BinOp("-", BinOp("-", Var("a"), Var("b")), Const(1))


def test_negative_literals():
    p = parse_program("int a = -3; a = a + -2;")
    assert p.decls[0].init == Const(-3)
    assert p.body[0].expr == BinOp("+", Var("a"), Const(-2))


def test_nondet_expression_and_condition():
    p = parse_program("int a; a = *; if (*) { a = 0; } while (a < * ) { a = a + 1; }")
    assert p.body[0].expr == Nondet()
    assert isinstance(p.body[1].cond, CondNondet)
    assert p.body[2].cond == Cmp("<", Var("a"), Nondet())


def test_pretty_round_trip_fixed():
    p = parse_program(RING)
    assert parse_program(pretty(p)) == p


def test_pretty_round_trip_random():
    # The grammar has no parentheses, so only parser-shaped (left-nested)
    # expression trees are printable; normalize through one parse first.
    rng = random.Random(1312)
    for _ in range(200):
        parsed = parse_program(pretty(random_program(rng, cache_mode=rng.random() < 0.3)))
        assert parse_program(pretty(parsed)) == parsed


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("int x; x = 1 # c", "expected ';' (at 'end of input')", 1, 14),
        ("int x; x = 1 # c\n", "expected ';' (at 'end of input')", 2, 1),
        ("int x; int x;", "variable 'x' already declared (at ';')", 1, 13),
        ("int y = 1;\nint x = y;", "declaration initializer must be a constant", 2, 9),
        ("int x;\nif (x) {}", "expected comparison operator (at ')')", 2, 6),
        ("int x;\nwhile (x < 1) {\n  x = 1;  # c", "unterminated block (at 'end of input')", 3, 11),
        ("int x;\nx = y;", "use of undeclared variable 'y'", 2, 5),
        ("int x; x = 1 + ; $", "unexpected character '$'", 1, 18),
        ("assert (*);", "assert condition must not be '*'", 1, 1),
        ("\n\n  foo = 1;", "use of undeclared variable 'foo'", 3, 3),
        ("int x;\nx = x - -;", "expected expression (at '-')", 2, 9),
        ("int x; if (x < 1) { } else x = 1;", "expected '{' (at 'x')", 1, 28),
    ],
)
def test_parse_error_positions(text, message, line, col):
    # A trailing comment does not move the end of input, and a bad
    # character anywhere is reported before any syntax error.
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert (str(err.value), err.value.line, err.value.col) == (f"{line}:{col}: {message}", line, col)


def test_valid_input_is_parsed_without_positions(monkeypatch):
    # Lines and columns are computed only for an error.
    expected = parse_program(RING)
    monkeypatch.setattr(lang, "_tokenize", None)
    assert parse_program(RING) == expected
