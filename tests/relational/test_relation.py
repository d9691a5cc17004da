"""Unit tests for relation instances (bag semantics + mutation)."""

import pickle

import pytest

from repro.errors import SchemaError, TypeMismatchError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import AttributeType


@pytest.fixture
def r():
    return Relation(Schema("R", ["A", "B"]), [(1, 2), (3, 4), (1, 2)])


class TestConstruction:
    def test_rows_validated_on_insert(self, r):
        assert r.cardinality == 3

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Relation(Schema("R", ["A"]), [(1, 2)])

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeMismatchError):
            Relation(Schema("R", ["A"]), [("nope",)])

    def test_from_named_rows_fills_none(self):
        relation = Relation.from_named_rows(
            Schema("R", ["A", "B"]), [{"A": 1}, {"B": 2, "A": 3}]
        )
        assert relation.rows == [(1, None), (3, 2)]

    def test_empty_like(self, r):
        empty = r.empty_like()
        assert empty.cardinality == 0
        assert empty.schema == r.schema


class TestIntrospection:
    def test_value_by_attribute(self, r):
        assert r.value((1, 2), "B") == 2

    def test_named_row(self, r):
        assert r.named_row((1, 2)) == {"A": 1, "B": 2}

    def test_row_set_deduplicates(self, r):
        assert len(r.row_set()) == 2

    def test_byte_size(self, r):
        assert r.byte_size() == 3 * 8  # two 4-byte ints per tuple

    def test_bag_equality(self):
        a = Relation(Schema("R", ["A"]), [(1,), (2,)])
        b = Relation(Schema("R", ["A"]), [(2,), (1,)])
        assert a == b

    def test_bag_inequality_with_duplicates(self):
        a = Relation(Schema("R", ["A"]), [(1,), (1,)])
        b = Relation(Schema("R", ["A"]), [(1,)])
        assert a != b

    def test_unhashable(self, r):
        with pytest.raises(TypeError):
            hash(r)


class TestMutation:
    def test_insert_returns_validated_tuple(self, r):
        assert r.insert([5, 6]) == (5, 6)
        assert r.cardinality == 4

    def test_insert_many_counts(self, r):
        assert r.insert_many([(7, 8), (9, 10)]) == 2

    def test_delete_removes_one_occurrence(self, r):
        assert r.delete((1, 2)) is True
        assert r.rows.count((1, 2)) == 1

    def test_delete_missing_returns_false(self, r):
        assert r.delete((99, 99)) is False

    def test_delete_where(self, r):
        removed = r.delete_where(lambda row: row[0] == 1)
        assert removed == [(1, 2), (1, 2)]
        assert r.cardinality == 1

    def test_replace_rows_atomic_on_failure(self, r):
        before = list(r.rows)
        with pytest.raises(TypeMismatchError):
            r.replace_rows([(1, 2), ("bad", 3)])
        assert r.rows == before

    def test_clear(self, r):
        r.clear()
        assert not r


class TestDeleteLocator:
    """The packed key column a relation locates deleted rows through."""

    def test_first_delete_builds_it_and_insert_extends_it(self, r):
        assert r._locator is None
        assert r.delete((3, 4))
        assert bytes(r._locator) == (1).to_bytes(8, "big") * 2
        r.insert((-2, 0))
        assert bytes(r._locator[-8:]) == (-2).to_bytes(8, "big", signed=True)
        assert r.rows == [(1, 2), (1, 2), (-2, 0)]

    def test_bulk_mutations_drop_it(self, r):
        for mutate in (
            lambda: r.delete_where(lambda row: row[0] == 3),
            lambda: r.replace_rows([(1, 2)]),
            r.clear,
        ):
            r.insert((1, 2))
            assert r.delete((1, 2))
            assert r._locator is not None
            mutate()
            assert r._locator is None

    def test_schema_records_its_first_int_attribute(self):
        mixed = Schema(
            "M",
            [Attribute("S", AttributeType.STRING), Attribute("A"), Attribute("B")],
        )
        assert mixed.key_position == 1
        assert Schema("N", [Attribute("S", AttributeType.STRING)]).key_position is None

    def test_pickles_leave_it_out(self, r):
        untouched = Relation.from_validated(r.schema, [(1, 2), (1, 2)])
        assert r.delete((3, 4))
        payload = pickle.dumps(r)
        assert payload == pickle.dumps(untouched)
        shipped = pickle.loads(payload)
        assert shipped._locator is None
        assert shipped.delete((1, 2))
        assert shipped.rows == [(1, 2)]
        assert r.rows == [(1, 2), (1, 2)]

    def test_pickles_leave_out_indexes_and_column_store(self, r):
        untouched = Relation.from_validated(r.schema, r.rows)
        assert list(r.index_on(["A"]).probe((1,))) == [(1, 2), (1, 2)]
        r.column_store()
        payload = pickle.dumps(r)
        assert payload == pickle.dumps(untouched)
        shipped = pickle.loads(payload)
        assert shipped.index_count == 0
        assert shipped._column_store is None
        shipped.insert((1, 5))
        assert list(shipped.index_on(["A"]).probe((1,))) == [
            (1, 2), (1, 2), (1, 5)
        ]
        assert list(shipped.column_store().columns[1]) == [2, 4, 2, 5]


class TestSchemaEvolution:
    def test_drop_attribute_removes_column(self, r):
        evolved = r.with_schema_dropped_attribute("A")
        assert evolved.schema.attribute_names == ("B",)
        assert evolved.rows == [(2,), (4,), (2,)]

    def test_add_attribute_with_default(self, r):
        evolved = r.with_added_attribute(Attribute("C"), default=0)
        assert evolved.rows[0] == (1, 2, 0)

    def test_rename_attribute_keeps_rows(self, r):
        evolved = r.with_renamed_attribute("A", "X")
        assert evolved.schema.attribute_names == ("X", "B")
        assert evolved.rows == r.rows

    def test_rename_relation(self, r):
        assert r.with_renamed_relation("S").name == "S"


class TestDerivations:
    def test_distinct_preserves_first_order(self, r):
        assert r.distinct().rows == [(1, 2), (3, 4)]

    def test_copy_is_independent(self, r):
        duplicate = r.copy()
        duplicate.insert((9, 9))
        assert r.cardinality == 3

    def test_copy_renames(self, r):
        assert r.copy("S").name == "S"
