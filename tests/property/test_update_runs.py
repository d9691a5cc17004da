"""Property tests: ``apply_updates`` lands runs as the per-update protocol.

``EVESystem.apply_updates`` cuts its stream into same-relation runs and
lands each on its source in one pass.  These tests drive streams made of
runs over the relations of join views — so a run at ``S`` meets views
with updates at ``R`` pending and is cut by the join-graph boundary
test — and put failing entries inside runs: a delete of a missing row,
a row of the wrong type, an unknown update kind.  Each stream is
compared with the per-update protocol (``space.insert``/``space.delete``
one at a time, maintenance by the listener path on the dict delta
plane, which applies extent rows with ``insert``/``delete``): the same
exception
and message, the same source rows in order, the same extents, the same
CF_M/CF_T/CF_IO counters, and the same updates, in the same order, seen
by an ``on_data_update`` listener.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MaintenanceConfig, SystemConfig
from repro.core.eve import EVESystem
from repro.errors import MaintenanceError
from repro.misd.statistics import RelationStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.space import InformationSpace
from repro.space.updates import UpdateKind

VALUES = st.integers(0, 4)
ROWS = st.tuples(VALUES, VALUES)

VIEWS = {
    "V0": "CREATE VIEW V0 AS SELECT R.A, S.C FROM R, S WHERE R.A = S.A",
    "V1": "CREATE VIEW V1 AS SELECT R.B, S.C FROM R, S "
    "WHERE R.A = S.A AND S.C < 3",
    "V2": "CREATE VIEW V2 AS SELECT R.A, S.C, T.D FROM R, S, T "
    "WHERE R.A = S.A AND S.C = T.D",
    "V3": "CREATE VIEW V3 AS SELECT R.A, R.B FROM R WHERE R.B > 1",
    # V3 under another name: twins share one compiled program.
    "V4": "CREATE VIEW V4 AS SELECT R.A, R.B FROM R WHERE R.B > 1",
}

#: Entries that fail inside a run, as the per-update protocol fails them.
FAILING = [
    ("delete", (9, 9)),  # no such row
    ("insert", ("x", 1)),  # a STRING in an INT column
    ("upsert", (1, 1)),  # no such update kind
]

CONFIGS = [SystemConfig(), SystemConfig.columnar()]
REFERENCE = SystemConfig(maintenance=MaintenanceConfig(representation="dict"))


@st.composite
def streams(draw):
    tables = [draw(st.lists(ROWS, max_size=6)) for _ in range(3)]
    runs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["R", "S", "T"]),
                st.lists(
                    st.tuples(st.sampled_from(["insert", "delete"]), ROWS),
                    min_size=1,
                    max_size=5,
                ),
            ),
            max_size=6,
        )
    )
    stream = [
        (relation, kind, row) for relation, ops in runs for kind, row in ops
    ]
    if draw(st.booleans()):
        relation = draw(st.sampled_from(["R", "S", "T"]))
        kind, row = draw(st.sampled_from(FAILING))
        stream.insert(
            draw(st.integers(0, len(stream))), (relation, kind, row)
        )
    views = draw(
        st.lists(st.sampled_from(sorted(VIEWS)), min_size=1, unique=True)
    )
    serving = draw(st.booleans())
    return tables, stream, views, draw(st.sampled_from(CONFIGS)), serving


def build(tables, views, config, serving):
    space = InformationSpace()
    for source, schema, rows in [
        ("IS1", Schema("R", ["A", "B"]), tables[0]),
        ("IS2", Schema("S", ["A", "C"]), tables[1]),
        ("IS3", Schema("T", ["D", "E"]), tables[2]),
    ]:
        space.add_source(source)
        space.register_relation(
            source,
            Relation(schema, rows),
            RelationStatistics(cardinality=max(len(rows), 1)),
        )
    eve = EVESystem(space=space, auto_synchronize=False, config=config)
    for name in views:
        eve.define_view(VIEWS[name])
    if serving:
        eve.snapshot().release()
    seen = []
    space.on_data_update(seen.append)
    return eve, seen


def live_deletes(eve, stream):
    """Deletes of rows the stream has not made live turn into inserts,
    so most deletes are valid and only the injected ones fail."""
    live = {name: list(eve.space.relation(name).rows) for name in "RST"}
    valid = []
    for relation, kind, row in stream:
        if kind == "delete" and row not in live[relation]:
            if row == (9, 9):
                valid.append((relation, kind, row))
                continue
            kind = "insert"
        if kind == "delete":
            live[relation].remove(row)
        elif kind == "insert" and row[0] != "x":
            live[relation].append(row)
        valid.append((relation, kind, row))
    return valid


def per_update(eve, stream):
    """The per-update protocol; returns the error it stopped at."""
    try:
        for relation, kind, row in stream:
            if UpdateKind(kind) is UpdateKind.INSERT:
                eve.space.insert(relation, row)
            else:
                eve.space.delete(relation, row)
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return type(error), str(error)
    return None


def batched(eve, stream):
    try:
        eve.apply_updates(stream)
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return type(error), str(error)
    return None


def observed(eve, seen, views):
    counters = eve.maintainer.counters
    return {
        "sources": {n: list(eve.space.relation(n).rows) for n in "RST"},
        "extents": {name: eve.extent(name).rows for name in views},
        "counters": (
            counters.messages,
            counters.bytes_transferred,
            counters.io_operations,
        ),
        "seen": list(seen),
    }


@given(streams())
@settings(max_examples=150, deadline=None)
def test_runs_land_as_the_per_update_protocol(case):
    tables, stream, views, config, serving = case
    reference, reference_seen = build(tables, views, REFERENCE, serving)
    stream = live_deletes(reference, stream)
    expected_error = per_update(reference, stream)

    eve, seen = build(tables, views, config, serving)
    assert batched(eve, stream) == expected_error
    assert observed(eve, seen, views) == observed(
        reference, reference_seen, views
    )


def test_a_run_stops_at_its_invalid_delete_and_flushes_the_prefix():
    eve, seen = build(
        [[(1, 1)], [(1, 2)], []], ["V0", "V3"], SystemConfig(), False
    )
    stream = [
        ("R", "insert", (1, 5)),
        ("R", "delete", (1, 1)),
        ("R", "delete", (9, 9)),
        ("R", "insert", (1, 6)),
    ]
    assert batched(eve, stream) == (
        MaintenanceError,
        "delete of non-existent row (9, 9) from IS1.R",
    )
    assert eve.space.relation("R").rows == [(1, 5)]
    assert eve.extent("V0").rows == [(1, 2)]
    assert eve.extent("V3").rows == [(1, 5)]
    assert [(u.kind, u.row) for u in seen] == [
        (UpdateKind.INSERT, (1, 5)),
        (UpdateKind.DELETE, (1, 1)),
    ]
    assert [flush.updates for flush in eve.last_report.flushes] == [2, 2]
