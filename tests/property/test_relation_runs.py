"""Property tests: ``Relation.apply_run`` equals the same ops one by one.

A run of inserts and deletes applied in one pass must end exactly where
``insert``/``delete`` applied one at a time end: the same rows in the
same order (down to which of several equal rows went), the same delete
locator and pending tail, and the same probe results from every built
hash index.  A run stops before the op that fails one by one — a delete
of a missing row or a row that fails validation — with the prefix
applied, and replaying that op fails the same way.
"""

import enum
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational.relation import Relation, _fingerprint
from repro.relational.schema import Attribute, Schema
from repro.relational.types import AttributeType


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


INT, STRING = AttributeType.INT, AttributeType.STRING

#: The INT attribute first, after a STRING one, or absent (no locator).
SCHEMAS = [
    Schema("K", [Attribute("A", INT), Attribute("S", STRING)]),
    Schema("L", [Attribute("S", STRING), Attribute("A", INT)]),
    Schema("N", [Attribute("S", STRING), Attribute("T", STRING)]),
]

#: Small pools, so duplicates and repeated deletes are common.  1,
#: 65536 and ``Level.LOW`` share a fingerprint (and 1 == Level.LOW);
#: 65535 shares NULL's.
assert _fingerprint(1) == _fingerprint(65536) == _fingerprint(Level.LOW)
assert _fingerprint(65535) == _fingerprint(None)
POOLS = {
    INT: st.sampled_from([1, 2, 65536, 65535, None, Level.LOW, -1]),
    STRING: st.sampled_from(["a", "b", None]),
}

#: Rows that fail validation: a wrong arity, a wrong type.
BAD_ROWS = [(1,), (object(), object())]


def rows_of(schema):
    return st.tuples(*(POOLS[attr.type] for attr in schema))


def ops_of(schema):
    row = rows_of(schema)
    return st.lists(
        st.one_of(
            st.tuples(st.just(True), row),
            st.tuples(st.just(False), row),
            st.tuples(st.just(False), row),
        ),
        max_size=30,
    )


@st.composite
def cases(draw):
    schema = draw(st.sampled_from(SCHEMAS))
    base = draw(st.lists(rows_of(schema), max_size=12))
    # One-by-one ops before the run: a locator with a pending tail, or
    # none at all.
    before = draw(ops_of(schema))
    run = draw(ops_of(schema))
    if draw(st.booleans()):
        run.insert(
            draw(st.integers(0, len(run))),
            (draw(st.booleans()), draw(st.sampled_from(BAD_ROWS))),
        )
    indexes = draw(
        st.lists(
            st.sampled_from([(0,), (1,), (0, 1)]), max_size=2, unique=True
        )
    )
    return schema, base, before, run, indexes


def one_by_one(relation, ops):
    """Apply ``ops`` singly; returns how many applied and the failure:
    None, ``"missing"`` or the validation error's message."""
    for position, (insert, row) in enumerate(ops):
        try:
            if insert:
                relation.insert(row)
            elif not relation.delete(row):
                return position, "missing"
        except SchemaError as error:
            return position, str(error)
    return len(ops), None


def state(relation, probes):
    """Everything a run must leave as one-by-one ops would."""
    return {
        "rows": list(relation.rows),
        "types": [tuple(map(type, row)) for row in relation.rows],
        "locator": relation._locator,
        "tail": None if relation._tail is None else list(relation._tail),
        "probes": {
            positions: [list(index.probe(key)) for key in probes]
            for positions, index in relation._indexes.items()
        },
        "buckets": {
            positions: {
                key: list(bucket) for key, bucket in index._buckets.items()
            }
            for positions, index in relation._indexes.items()
        },
    }


@given(cases())
@settings(max_examples=400, deadline=None)
def test_apply_run_equals_one_by_one(case):
    schema, base, before, ops, indexes = case
    singly, batched = Relation(schema, base), Relation(schema, base)
    for relation in (singly, batched):
        one_by_one(relation, before)
        for positions in indexes:
            relation.index_on_positions(positions)

    applied, failure = one_by_one(singly, ops)
    stored = batched.apply_run(ops)
    assert len(stored) == applied
    assert stored == [batched._validate(row) for _, row in ops[:applied]]
    if failure is not None:
        # The op the run stopped at fails one by one as well.
        insert, row = ops[applied]
        try:
            if insert:
                batched.insert(row)
                replayed = None
            else:
                replayed = None if batched.delete(row) else "missing"
        except SchemaError as error:
            replayed = str(error)
        assert replayed == failure

    probes = [
        (value,) for value in (1, 2, 65536, 65535, -1, "a", "b")
    ] + [(1, "a"), ("a", 1), (65536, "b"), ("b", 2)]
    assert state(batched, probes) == state(singly, probes)
    # The locator still finds every row: a further delete of each row
    # removes what list.remove would.
    reference = list(singly.rows)
    for row in list(batched.rows):
        assert batched.delete(row)
        reference.remove(row)
        assert batched.rows == reference


def test_a_run_without_deletes_only_appends_to_the_tail():
    schema = SCHEMAS[0]
    relation = Relation(schema, [(1, "a"), (2, "b")])
    assert relation.delete((1, "a"))
    locator = relation._locator
    relation.apply_run([(True, (3, "a")), (True, (65536, "b"))])
    assert relation._locator is locator
    assert list(relation._tail) == [3, _fingerprint(65536)]


def test_a_delete_takes_the_base_row_before_one_inserted_in_the_run():
    schema = SCHEMAS[0]
    relation = Relation(schema, [(Level.LOW, "a"), (2, "b")])
    relation.apply_run([(True, (1, "a")), (False, (1, "a"))])
    assert relation.rows == [(2, "b"), (1, "a")]
    assert [type(row[0]) for row in relation.rows] == [int, int]


def test_a_run_survives_a_pickle_round_trip_of_its_relation():
    schema = SCHEMAS[1]
    relation = Relation(schema, [("a", 1), ("b", 2), ("a", 1)])
    relation.apply_run([(False, ("a", 1)), (True, ("b", 3))])
    copy = pickle.loads(pickle.dumps(relation))
    assert copy.rows == relation.rows == [("b", 2), ("a", 1), ("b", 3)]
    copy.apply_run([(False, ("b", 3)), (False, ("a", 1))])
    assert copy.rows == [("b", 2)]
