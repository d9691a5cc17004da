"""Unit tests for the positional-tuple predicate compiler."""

import pytest

from repro.errors import EvaluationError
from repro.esql.parser import parse_view
from repro.relational.compile import (
    compile_clause,
    compile_clauses,
    compile_condition,
    layout_slots,
    resolve_slot,
    schema_slots,
)
from repro.relational.expressions import (
    AttributeRef,
    Comparator,
    Condition,
    Constant,
    PrimitiveClause,
)
from repro.relational.schema import Schema

SCHEMA = Schema("R", ["A", "B"])
SLOTS = schema_slots(SCHEMA)
A = AttributeRef("A", "R")
B = AttributeRef("B", "R")


def clauses_of(text):
    view = parse_view(f"CREATE VIEW V AS SELECT R.A FROM R WHERE {text}")
    return [item.clause for item in view.where]


def binding(row):
    """The named row the interpreted path evaluates for ``row``."""
    named = {}
    for name, value in zip(SCHEMA.attribute_names, row):
        named[name] = value
        named[f"R.{name}"] = value
    return named


ROWS = [(1, 1), (1, 2), (2, 1), (3, 3), (None, 1), (1, None), (None, None)]


class TestSlotLayouts:
    def test_schema_slots_carry_bare_and_qualified_keys(self):
        assert SLOTS == {"A": 0, "R.A": 0, "B": 1, "R.B": 1}

    def test_schema_slots_unqualified_has_bare_keys_only(self):
        assert schema_slots(SCHEMA, qualified=False) == {"A": 0, "B": 1}

    def test_layout_slots_are_exactly_the_given_columns(self):
        assert layout_slots(["S.C", "R.A"]) == {"S.C": 0, "R.A": 1}

    def test_resolve_slot_prefers_the_qualified_key(self):
        assert resolve_slot(A, {"A": 0, "R.A": 1}) == 1

    def test_resolve_slot_falls_back_to_the_bare_name(self):
        assert resolve_slot(A, {"A": 4}) == 4

    def test_resolve_slot_miss_is_none(self):
        assert resolve_slot(A, {"R.B": 0, "B": 0}) is None

    def test_qualified_layout_has_no_bare_fallback(self):
        # A bare reference never matches a qualified delta-batch column,
        # just as it never matches a qualified key of a binding dict.
        slots = layout_slots(["R.A"])
        assert resolve_slot(AttributeRef("A"), slots) is None
        assert resolve_slot(A, slots) == 0


class TestCompileClause:
    @pytest.mark.parametrize("comparator", list(Comparator), ids=str)
    def test_every_shape_applies_the_comparator(self, comparator):
        shapes = {
            "attr-attr": PrimitiveClause(A, comparator, B),
            "attr-const": PrimitiveClause(A, comparator, Constant(2)),
            "const-attr": PrimitiveClause(Constant(2), comparator, B),
        }
        for shape, clause in shapes.items():
            predicate = compile_clause(clause, SLOTS)
            for row in ROWS:
                expected = clause.evaluate(binding(row))
                assert predicate(row) is expected, (shape, row)

    @pytest.mark.parametrize(
        "clause,row",
        [
            (PrimitiveClause(A, Comparator.EQ, B), (None, None)),
            (PrimitiveClause(A, Comparator.NE, Constant(1)), (None, 5)),
            (PrimitiveClause(Constant(1), Comparator.NE, B), (5, None)),
        ],
        ids=["attr-attr", "attr-const", "const-attr"],
    )
    def test_null_operand_never_matches(self, clause, row):
        assert compile_clause(clause, SLOTS)(row) is False

    @pytest.mark.parametrize(
        "clause",
        [
            PrimitiveClause(A, Comparator.NE, Constant(None)),
            PrimitiveClause(Constant(None), Comparator.NE, B),
        ],
        ids=["attr-const", "const-attr"],
    )
    def test_null_constant_is_always_false(self, clause):
        predicate = compile_clause(clause, SLOTS)
        assert not any(predicate(row) for row in ROWS)

    @pytest.mark.parametrize(
        "clause",
        [
            PrimitiveClause(AttributeRef("C", "R"), Comparator.EQ, B),
            PrimitiveClause(A, Comparator.EQ, AttributeRef("C", "R")),
            PrimitiveClause(Constant(1), Comparator.EQ, AttributeRef("C")),
        ],
        ids=["left", "right", "const-attr"],
    )
    def test_unresolved_operand_raises_only_when_called(self, clause):
        # Compiling never fails: like the interpreter, the error surfaces
        # on the first row, so an empty input evaluates cleanly.
        predicate = compile_clause(clause, SLOTS)
        with pytest.raises(EvaluationError, match="not present in row"):
            predicate((1, 2))

    @pytest.mark.parametrize(
        "text",
        ["R.A = R.B", "R.A < 2", "2 <= R.B", "R.A <> R.B", "R.B >= 1"],
    )
    def test_matches_the_interpreted_clause(self, text):
        (clause,) = clauses_of(text)
        predicate = compile_clause(clause, SLOTS)
        for row in ROWS:
            assert predicate(row) is clause.evaluate(binding(row)), row


class TestCompileClauses:
    def test_empty_conjunction_is_true(self):
        predicate = compile_clauses([], {})
        assert all(predicate(row) for row in ROWS)

    def test_conjunction_short_circuits_in_clause_order(self):
        unresolved = PrimitiveClause(AttributeRef("C"), Comparator.EQ, Constant(1))
        (first,) = clauses_of("R.A > 1")
        predicate = compile_clauses([first, unresolved], SLOTS)
        # A row the first clause rejects never reaches the second.
        assert predicate((0, 0)) is False
        with pytest.raises(EvaluationError):
            predicate((2, 0))

    def test_compile_condition_matches_condition_evaluate(self):
        condition = Condition(clauses_of("R.A > 0 AND R.B < 3 AND R.A <> R.B"))
        predicate = compile_condition(condition, SLOTS)
        for row in ROWS:
            assert predicate(row) is condition.evaluate(binding(row)), row
        assert [row for row in ROWS if predicate(row)] == [(1, 2), (2, 1)]

    def test_true_condition_passes_every_row(self):
        predicate = compile_condition(Condition.true(), SLOTS)
        assert all(predicate(row) for row in ROWS)
