"""Property-based tests for the relational substrate's algebraic laws."""

import enum
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.algebra import (
    cs_intersection,
    difference,
    intersection,
    project,
    select,
    union,
)
from repro.relational.expressions import (
    AttributeRef,
    Comparator,
    Condition,
    Constant,
    PrimitiveClause,
)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import AttributeType

SCHEMA = Schema("R", ["A", "B"])
OTHER = Schema("S", ["A", "B"])

rows = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=30
)


def relation(schema, data):
    return Relation(schema, data)


@given(rows)
@settings(max_examples=60)
def test_select_is_idempotent(data):
    r = relation(SCHEMA, data)
    condition = Condition.of(
        PrimitiveClause(AttributeRef("A"), Comparator.GT, Constant(10))
    )
    once = select(r, condition)
    twice = select(once, condition)
    assert once.rows == twice.rows


@given(rows)
@settings(max_examples=60)
def test_select_partitions_relation(data):
    r = relation(SCHEMA, data)
    condition = Condition.of(
        PrimitiveClause(AttributeRef("A"), Comparator.GT, Constant(10))
    )
    negation = Condition.of(
        PrimitiveClause(AttributeRef("A"), Comparator.LE, Constant(10))
    )
    kept = select(r, condition)
    dropped = select(r, negation)
    assert kept.cardinality + dropped.cardinality == r.cardinality


@given(rows)
@settings(max_examples=60)
def test_project_distinct_never_grows(data):
    r = relation(SCHEMA, data)
    projected = project(r, ["A"], distinct=True)
    assert projected.cardinality <= r.cardinality
    assert projected.cardinality == len({row[0] for row in data})


@given(rows, rows)
@settings(max_examples=60)
def test_union_commutes_as_sets(left_data, right_data):
    left = relation(SCHEMA, left_data)
    right = relation(OTHER, right_data)
    a = union(left, right).row_set()
    b = union(right, left).row_set()
    assert a == b


@given(rows, rows)
@settings(max_examples=60)
def test_intersection_is_subset_of_both(left_data, right_data):
    left = relation(SCHEMA, left_data)
    right = relation(OTHER, right_data)
    shared = intersection(left, right).row_set()
    assert shared <= left.row_set()
    assert shared <= right.row_set()


@given(rows, rows)
@settings(max_examples=60)
def test_difference_disjoint_from_right(left_data, right_data):
    left = relation(SCHEMA, left_data)
    right = relation(OTHER, right_data)
    missing = difference(left, right).row_set()
    assert missing.isdisjoint(right.row_set())
    assert missing | (left.row_set() & right.row_set()) == left.row_set()


@given(rows, rows)
@settings(max_examples=60)
def test_inclusion_exclusion_on_distinct_sets(left_data, right_data):
    left = relation(SCHEMA, left_data)
    right = relation(OTHER, right_data)
    u = union(left, right).cardinality
    i = intersection(left, right).cardinality
    assert u + i == len(left.row_set()) + len(right.row_set())


@given(rows, rows)
@settings(max_examples=60)
def test_cs_intersection_symmetric_in_cardinality(left_data, right_data):
    left = relation(SCHEMA, left_data)
    right = relation(Schema("S", ["B", "C"]), right_data)
    forward = cs_intersection(left, right).cardinality
    backward = cs_intersection(right, left).cardinality
    assert forward == backward


# ----------------------------------------------------------------------
# Keyed deletes: the locator must behave exactly like list.remove
# ----------------------------------------------------------------------
class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


INT, STRING, FLOAT = AttributeType.INT, AttributeType.STRING, AttributeType.FLOAT

#: The INT attribute first, later (after a non-INT one), or absent.
LOCATOR_SCHEMAS = [
    Schema("K", [Attribute("A", INT), Attribute("S", STRING)]),
    Schema("L", [Attribute("S", STRING), Attribute("A", INT), Attribute("B", INT)]),
    Schema("N", [Attribute("S", STRING), Attribute("F", FLOAT)]),
]

#: Small pools so duplicates and hits are common; the ints cover the
#: int64 edges, values beyond them, NULL and an IntEnum equal to 1 and 2.
POOLS = {
    INT: st.sampled_from(
        [0, 1, 2, -1, 256, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**70,
         None, Level.LOW, Level.HIGH]
    ),
    STRING: st.sampled_from(["a", "b", None]),
    FLOAT: st.sampled_from([0.5, 1.0, None]),
}


def locator_ops(schema):
    row = st.tuples(*(POOLS[attr.type] for attr in schema))
    return st.lists(
        st.one_of(
            st.tuples(st.just("insert"), row),
            st.tuples(st.just("delete"), row),
            st.tuples(st.just("delete"), row),
            st.tuples(st.just("derive"), st.sampled_from(["copy", "rename"])),
            st.tuples(st.just("pickle"), st.none()),
            st.tuples(st.just("delete_where"), row),
        ),
        max_size=40,
    )


def reference_remove(rows, row):
    try:
        rows.remove(row)
    except ValueError:
        return False
    return True


def expected_locator(schema, rows):
    """A fresh encoding: per row, the XOR of the key's four 16-bit
    words (NULL: U+FFFF)."""
    position = schema.key_position
    chars = []
    for row in rows:
        value = row[position]
        if value is None:
            chars.append(chr(0xFFFF))
        else:
            word = value & (2**64 - 1)
            word ^= word >> 16 ^ word >> 32 ^ word >> 48
            chars.append(chr(word & 0xFFFF))
    return "".join(chars)


@given(
    st.sampled_from(LOCATOR_SCHEMAS).flatmap(
        lambda schema: st.tuples(st.just(schema), locator_ops(schema))
    )
)
@settings(max_examples=200, deadline=None)
def test_keyed_delete_matches_list_remove(case):
    schema, ops = case
    relation = Relation(schema)
    reference: list[tuple] = []
    for op, arg in ops:
        if op == "insert":
            reference.append(relation.insert(arg))
        elif op == "delete":
            assert relation.delete(arg) == reference_remove(reference, arg)
        elif op == "derive":
            relation = (
                relation.copy() if arg == "copy"
                else relation.with_renamed_relation("Z").with_renamed_relation(
                    schema.name
                )
            )
            assert relation._locator is None and relation._tail is None
        elif op == "pickle":
            relation = pickle.loads(pickle.dumps(relation))
            assert relation._locator is None and relation._tail is None
        else:
            removed = relation.delete_where(lambda stored: stored == arg)
            assert relation._locator is None and relation._tail is None
            kept = [stored for stored in reference if stored != arg]
            assert removed == [stored for stored in reference if stored == arg]
            reference = kept
        # Same survivors in the same order, down to which of several
        # equal rows (1 vs Level.LOW) went.
        assert relation.rows == reference
        assert [tuple(map(type, row)) for row in relation.rows] == [
            tuple(map(type, row)) for row in reference
        ]
        locator, tail = relation._locator, relation._tail
        assert (locator is None) == (tail is None)
        if schema.key_position is None:
            assert locator is None
        elif locator is not None:
            joined = locator + "".join(map(chr, tail))
            assert len(joined) == len(relation.rows)
            assert joined == expected_locator(schema, relation.rows)
