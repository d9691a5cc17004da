"""Validate-once contract: rows are type-checked when they enter a relation.

Derivations of a validated relation whose attribute types are unchanged
adopt its row tuples without calling ``AttributeType.validate``; ``insert``
stores a well-typed caller tuple as is and builds a new tuple only when a
value is coerced or the row is not a tuple.  Every check of external data
still runs.
"""

import pytest

from repro.errors import TypeMismatchError
from repro.relational import algebra
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import AttributeType


@pytest.fixture
def calls(monkeypatch):
    """Counter of ``AttributeType.validate`` calls made after set-up."""
    counter = {"n": 0}
    original = AttributeType.validate

    def counting(self, value):
        counter["n"] += 1
        return original(self, value)

    monkeypatch.setattr(AttributeType, "validate", counting)
    return counter


@pytest.fixture
def r():
    schema = Schema(
        "R",
        [
            Attribute("A", AttributeType.INT),
            Attribute("B", AttributeType.STRING),
            Attribute("C", AttributeType.FLOAT),
        ],
    )
    return Relation(schema, [(1, "x", 1.5), (2, "y", None), (1, "x", 1.5)])


def assert_shares_rows(derived, source):
    assert len(derived.rows) == len(source.rows)
    assert derived.rows is not source.rows
    assert all(a is b for a, b in zip(derived.rows, source.rows))


class TestDerivationsAdoptRows:
    def test_copy(self, r, calls):
        copied = r.copy()
        assert calls["n"] == 0
        assert_shares_rows(copied, r)

    def test_copy_renamed(self, r, calls):
        copied = r.copy("S")
        assert calls["n"] == 0
        assert copied.name == "S"
        assert_shares_rows(copied, r)

    def test_with_renamed_relation(self, r, calls):
        renamed = r.with_renamed_relation("S")
        assert calls["n"] == 0
        assert_shares_rows(renamed, r)

    def test_with_renamed_attribute(self, r, calls):
        renamed = r.with_renamed_attribute("B", "Z")
        assert calls["n"] == 0
        assert renamed.schema.attribute_names == ("A", "Z", "C")
        assert_shares_rows(renamed, r)

    def test_algebra_rename(self, r, calls):
        renamed = algebra.rename(r, {"A": "K"}, new_name="S")
        assert calls["n"] == 0
        assert renamed.schema.attribute_names == ("K", "B", "C")
        assert_shares_rows(renamed, r)

    def test_distinct(self, r, calls):
        unique = r.distinct()
        assert calls["n"] == 0
        assert unique.rows == [(1, "x", 1.5), (2, "y", None)]
        assert unique.rows[0] is r.rows[0]
        assert unique.rows[1] is r.rows[1]

    def test_with_schema_dropped_attribute(self, r, calls):
        dropped = r.with_schema_dropped_attribute("B")
        assert calls["n"] == 0
        assert dropped.rows == [(1, 1.5), (2, None), (1, 1.5)]
        # The surviving values are the source's own objects.
        assert dropped.rows[0][1] is r.rows[0][2]

    def test_with_added_attribute_validates_the_default_once(self, r, calls):
        added = r.with_added_attribute(Attribute("D", AttributeType.FLOAT), 3)
        assert calls["n"] == 1  # the default, not once per row
        assert added.rows == [
            (1, "x", 1.5, 3.0),
            (2, "y", None, 3.0),
            (1, "x", 1.5, 3.0),
        ]
        assert type(added.rows[0][3]) is float

    def test_wrong_typed_default_raises(self, r):
        with pytest.raises(TypeMismatchError):
            r.with_added_attribute(Attribute("D", AttributeType.INT), "nope")


class TestInsertStoresWellTypedTuples:
    def test_well_typed_tuple_is_stored_as_is(self, r, calls):
        row = (5, "w", 2.5)
        assert r.insert(row) is row
        assert r.rows[-1] is row
        assert calls["n"] == 0  # exact types: no per-value validation

    def test_null_values_keep_the_callers_tuple(self, r):
        row = (None, "w", None)
        assert r.insert(row) is row

    def test_int_into_float_column_is_coerced(self, r):
        row = (5, "w", 2)
        stored = r.insert(row)
        assert stored is not row
        assert stored == (5, "w", 2.0)
        assert type(stored[2]) is float
        assert r.rows[-1] is stored

    def test_list_row_is_stored_as_a_tuple(self, r):
        stored = r.insert([5, "w", 2.5])
        assert type(stored) is tuple
        assert r.rows[-1] == (5, "w", 2.5)
        assert type(r.rows[-1]) is tuple

    def test_tuple_subclass_is_stored_as_a_plain_tuple(self, r):
        class Row(tuple):
            pass

        stored = r.insert(Row((5, "w", 2.5)))
        assert type(stored) is tuple

    def test_bool_into_int_column_raises(self, r):
        with pytest.raises(TypeMismatchError):
            r.insert((True, "w", 2.5))

    def test_delete_accepts_a_coercible_row(self, r):
        r.insert((5, "w", 2))
        assert r.delete((5, "w", 2))
        assert (5, "w", 2.0) not in r.rows


class TestTypeVectorCheckMatchesPerValueValidation:
    """The one-comparison path stores exactly what per-value validation would."""

    SCHEMA = Schema(
        "T",
        [
            Attribute("I", AttributeType.INT),
            Attribute("F", AttributeType.FLOAT),
            Attribute("S", AttributeType.STRING),
            Attribute("B", AttributeType.BOOL),
        ],
    )

    @pytest.mark.parametrize(
        "row",
        [
            (1, 2.5, "a", True),
            (1, 2, "a", False),
            (None, None, None, None),
            [0, -1.0, "", True],
            (10**30, float("inf"), "long" * 50, False),
        ],
    )
    def test_stored_row_equals_the_per_value_reference(self, row):
        stored = Relation(self.SCHEMA).insert(row)
        reference = tuple(
            attr.type.validate(value) for attr, value in zip(self.SCHEMA, row)
        )
        assert stored == reference
        assert list(map(type, stored)) == list(map(type, reference))
