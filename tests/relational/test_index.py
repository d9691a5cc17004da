"""Unit tests for hash indexes and their ownership by relations."""

import pytest

from repro.relational.index import HashIndex
from repro.relational.relation import Relation
from repro.relational.schema import Schema


@pytest.fixture
def relation():
    return Relation(
        Schema("R", ["A", "B"]),
        [(1, 10), (2, 20), (1, 11), (None, 30)],
    )


class TestHashIndex:
    def test_probe_returns_matching_rows_in_order(self, relation):
        index = HashIndex((0,), relation.rows)
        assert list(index.probe((1,))) == [(1, 10), (1, 11)]
        assert list(index.probe((2,))) == [(2, 20)]

    def test_probe_misses_are_empty(self, relation):
        index = HashIndex((0,), relation.rows)
        assert list(index.probe((99,))) == []

    def test_null_keys_never_match(self, relation):
        # The None row is stored, but a None probe finds nothing (SQL NULL).
        index = HashIndex((0,), relation.rows)
        assert len(index) == 4
        assert list(index.probe((None,))) == []

    def test_composite_key(self, relation):
        index = HashIndex((0, 1), relation.rows)
        assert list(index.probe((1, 11))) == [(1, 11)]
        assert list(index.probe((1, 99))) == []

    def test_add_and_discard(self):
        index = HashIndex((0,))
        index.add((5, 1))
        index.add((5, 1))
        assert list(index.probe((5,))) == [(5, 1), (5, 1)]
        assert index.discard((5, 1))
        assert list(index.probe((5,))) == [(5, 1)]
        assert index.discard((5, 1))
        assert not index.discard((5, 1))
        assert index.distinct_keys == 0


class TestBucketLayout:
    """One row is a 1-tuple bucket, the second row makes it a list, and
    a key goes when its last row is discarded."""

    def test_single_attribute_keys_are_bare_values(self):
        index = HashIndex((1,), [(10, 5), (11, None)])
        assert index.key_of((10, 5)) == 5
        assert set(index._buckets) == {5, None}
        assert list(index.probe((5,))) == [(10, 5)]
        assert list(index.probe([5])) == [(10, 5)]
        assert list(index.probe((None,))) == []

    def test_composite_keys_stay_tuples(self):
        index = HashIndex((1, 0), [(10, 5)])
        assert index.key_of((10, 5)) == (5, 10)
        assert set(index._buckets) == {(5, 10)}
        assert list(index.probe((5, 10))) == [(10, 5)]
        assert list(index.probe((5, None))) == []

    def test_tuple_then_list_then_removal(self):
        index = HashIndex((0,))
        index.add((5, 1))
        assert index._buckets[5] == ((5, 1),)
        index.add((5, 2))
        assert index._buckets[5] == [(5, 1), (5, 2)]
        index.add((5, 3))
        assert list(index.probe((5,))) == [(5, 1), (5, 2), (5, 3)]
        assert index.discard((5, 2))
        assert index.discard((5, 1))
        assert index._buckets[5] == [(5, 3)]
        assert not index.discard((5, 9))
        assert index.discard((5, 3))
        assert 5 not in index._buckets
        assert len(index) == 0

    def test_tuple_bucket_discard_checks_the_row(self):
        index = HashIndex((0,), [(5, 1)])
        assert not index.discard((5, 2))
        assert not index.discard((6, 1))
        assert list(index.probe((5,))) == [(5, 1)]
        assert index.discard((5, 1))
        assert index.distinct_keys == 0

    def test_uniqueness_and_size_across_layouts(self):
        index = HashIndex((0,), [(1, 1), (2, 2)])
        assert index.is_unique
        index.add((1, 3))
        assert not index.is_unique
        assert len(index) == 3
        assert index.distinct_keys == 2


class TestRelationOwnedIndexes:
    def test_lazy_build_and_reuse(self, relation):
        assert relation.index_count == 0
        first = relation.index_on(["A"])
        second = relation.index_on(["A"])
        assert first is second  # cached, not rebuilt
        assert relation.index_count == 1

    def test_insert_maintains_built_indexes(self, relation):
        index = relation.index_on(["A"])
        relation.insert((1, 12))
        assert list(index.probe((1,))) == [(1, 10), (1, 11), (1, 12)]

    def test_delete_maintains_built_indexes(self, relation):
        index = relation.index_on(["A"])
        assert relation.delete((1, 10))
        assert list(index.probe((1,))) == [(1, 11)]

    def test_bulk_mutations_invalidate(self, relation):
        relation.index_on(["A"])
        relation.delete_where(lambda row: row[0] == 1)
        assert relation.index_count == 0
        index = relation.index_on(["A"])
        assert list(index.probe((1,))) == []
        relation.replace_rows([(7, 70)])
        assert relation.index_count == 0
        relation.index_on(["B"])
        relation.clear()
        assert relation.index_count == 0

    def test_cached_index_count_is_bounded(self):
        wide = Relation(
            Schema("W", [f"A{i}" for i in range(12)]),
            [tuple(range(12))],
        )
        for i in range(12):
            wide.index_on([f"A{i}"])
        assert wide.index_count <= Relation.MAX_CACHED_INDEXES
        # Survivors are still correct after the churn.
        assert list(wide.index_on(["A11"]).probe((11,))) == [tuple(range(12))]

    def test_index_on_unknown_attribute_raises(self, relation):
        from repro.errors import UnknownAttributeError

        with pytest.raises(UnknownAttributeError):
            relation.index_on(["Z"])


class TestCounterBagEquality:
    def test_bag_semantics_respects_multiplicity(self):
        schema = Schema("R", ["A"])
        assert Relation(schema, [(1,), (1,)]) != Relation(schema, [(1,)])
        assert Relation(schema, [(1,), (2,)]) == Relation(schema, [(2,), (1,)])

    def test_order_and_nulls_do_not_matter(self):
        schema = Schema("R", ["A", "B"])
        left = Relation(schema, [(None, 1), (2, None), (2, None)])
        right = Relation(schema, [(2, None), (None, 1), (2, None)])
        assert left == right
        assert left != Relation(schema, [(None, 1), (2, None)])

    def test_schema_names_must_match(self):
        left = Relation(Schema("R", ["A"]), [(1,)])
        right = Relation(Schema("R", ["B"]), [(1,)])
        assert left != right
