"""Unit tests for relation instances (bag semantics + mutation)."""

import enum
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


def fingerprint(value):
    """The locator character of one key: its four 16-bit words XOR-ed."""
    if value is None:
        return chr(0xFFFF)
    word = value & (2**64 - 1)
    return chr((word ^ word >> 16 ^ word >> 32 ^ word >> 48) & 0xFFFF)


def encoding(relation):
    """The relation's locator with its pending tail joined in."""
    return relation._locator + "".join(map(chr, relation._tail))


def reference_remove(rows, row):
    try:
        rows.remove(row)
    except ValueError:
        return False
    return True


class Level(enum.IntEnum):
    LOW = 1


class TestDeleteLocator:
    """The fingerprint string a relation locates deleted rows through."""

    def test_first_delete_builds_it_and_insert_extends_it(self, r):
        assert r._locator is None and r._tail is None
        assert r.delete((3, 4))
        assert r._locator == chr(1) * 2
        assert len(r._tail) == 0
        locator = r._locator
        r.insert((-2, 0))
        assert r._locator is locator
        assert r._tail.tolist() == [ord(fingerprint(-2))]
        assert encoding(r) == chr(1) * 2 + fingerprint(-2)
        assert r.rows == [(1, 2), (1, 2), (-2, 0)]

    def test_delete_joins_the_tail_before_it_searches(self, r):
        assert r.delete((3, 4))
        tail = r._tail
        for value in range(1000):
            r.insert((70000 + value, value))
        assert len(tail) == 1000 and r._tail is tail
        assert r.delete((70999, 999))
        assert len(r._tail) == 0
        assert len(r._locator) == len(r.rows) == 1001
        assert r._locator == "".join(fingerprint(row[0]) for row in r.rows)

    def test_never_deleted_from_it_has_neither_locator_nor_tail(self, r):
        r.insert((5, 6))
        assert r.delete_where(lambda row: row[0] == 5) == [(5, 6)]
        assert r._locator is None and r._tail is None

    def test_keys_sharing_their_low_16_bits_still_spread(self):
        keys = [0, 65536, -65536, 2**40]
        relation = Relation(Schema("R", ["A", "B"]), [(k, 0) for k in keys])
        assert not relation.delete((1, 0))
        assert len(set(relation._locator)) == len(keys)
        assert relation._locator == "".join(map(fingerprint, keys))
        assert relation.delete((2**40, 0))
        assert relation.delete((0, 0))
        assert relation.rows == [(65536, 0), (-65536, 0)]

    def test_null_beside_a_key_with_the_sentinel_fingerprint(self):
        rows = [(65535, 1), (None, 2), (-65536, 3), (None, 2), (65535, 2)]
        relation = Relation(Schema("R", ["A", "B"]), rows)
        reference = list(rows)
        for target in [(None, 2), (65535, 2), (-65536, 3), (None, 3),
                       (65535, 1), (None, 2), (None, 2)]:
            assert relation.delete(target) == reference_remove(reference, target)
            assert relation.rows == reference
            assert encoding(relation) == "".join(
                fingerprint(row[0]) for row in reference
            )

    def test_ints_beyond_int64_fold_onto_their_low_bits(self):
        huge = 2**64 + 5
        relation = Relation(
            Schema("R", ["A", "B"]), [(huge, 1), (-(2**70), 1), (5, 1)]
        )
        assert fingerprint(huge) == fingerprint(5)
        assert relation.delete((5, 1))
        assert relation.rows == [(huge, 1), (-(2**70), 1)]
        assert relation.delete((-(2**70), 1))
        assert relation.delete((huge, 1))
        assert not relation.rows and relation._locator == ""

    def test_an_int_enum_key_locates_like_its_int(self):
        relation = Relation(Schema("R", ["A", "B"]), [(2, 0), (Level.LOW, 0)])
        assert relation.delete((1, 0))
        assert relation.rows == [(2, 0)]
        relation.insert((1, 0))
        assert relation.delete((Level.LOW, 0))
        assert relation.rows == [(2, 0)]

    def test_copies_carry_no_locator_or_tail(self, r):
        assert r.delete((3, 4))
        r.insert((7, 8))
        for derived in (
            r.copy(),
            r.copy("S"),
            r.distinct(),
            r.with_renamed_relation("S"),
            r.with_renamed_attribute("A", "X"),
            pickle.loads(pickle.dumps(r)),
        ):
            assert derived._locator is None and derived._tail is None
            derived.insert((9, 9))
            assert derived.delete((9, 9))
            assert derived._tail is not r._tail
        assert r._tail.tolist() == [ord(fingerprint(7))]
        assert r.rows == [(1, 2), (1, 2), (7, 8)]

    def test_bulk_mutations_drop_it(self, r):
        for mutate in (
            lambda: r.delete_where(lambda row: row[0] == 3),
            lambda: r.replace_rows([(1, 2)]),
            r.clear,
        ):
            r.insert((1, 2))
            assert r.delete((1, 2))
            r.insert((5, 6))
            assert r._locator is not None and len(r._tail) == 1
            mutate()
            assert r._locator is None and r._tail is None

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
        assert shipped._locator is None and shipped._tail is None
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
