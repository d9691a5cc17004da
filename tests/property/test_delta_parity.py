"""Property tests: the tuple delta plane equals the binding plane.

The delta plane's contract (ISSUE 4): for any update storm, the
positional-tuple representation produces *identical delta rows, extents,
and byte-identical modeled CF_M/CF_T/CF_IO counters* to the dict-binding
reference — per update, through ``maintain_batch``, and through
``apply_updates`` flush boundaries.  The dict path stays selectable
(``representation="dict"``) precisely so these tests can keep pinning
it.  The extents the planes start from are pinned too: on every storm
shape the indexed engine evaluates to the naive engine's bag.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig, MaintenanceConfig, SystemConfig
from repro.core.eve import EVESystem
from repro.esql.evaluator import evaluate_view
from repro.esql.parser import parse_view
from repro.maintenance.delta import DeltaBatch
from repro.maintenance.simulator import ViewMaintainer
from repro.misd.statistics import RelationStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.space import InformationSpace

VALUES = st.integers(0, 6)
ROWS = st.tuples(VALUES, VALUES)

#: Single-site (one relation, one IS) and multi-site (two/three IS)
#: shapes; selections, equijoins, theta clauses, and a clause that is
#: undecidable until the second hop.
VIEWS = [
    "CREATE VIEW V AS SELECT R.A, R.B FROM R",
    "CREATE VIEW V AS SELECT R.A FROM R WHERE R.B > 2",
    "CREATE VIEW V AS SELECT R.A, S.C FROM R, S WHERE R.A = S.A",
    (
        "CREATE VIEW V AS SELECT R.B, S.C FROM R, S "
        "WHERE R.A = S.A AND S.C < 4"
    ),
    (
        "CREATE VIEW V AS SELECT R.A, S.C, T.D FROM R, S, T "
        "WHERE R.A = S.A AND S.C = T.D AND R.B <= T.D"
    ),
    # No equijoin link into S: exercises the cross-join (no-probe) step.
    "CREATE VIEW V AS SELECT R.A, S.C FROM R, S WHERE S.C > 1 AND R.B < 5",
]


@st.composite
def storm(draw):
    initial_r = draw(st.lists(ROWS, max_size=8))
    initial_s = draw(st.lists(ROWS, max_size=8))
    initial_t = draw(st.lists(ROWS, max_size=6))
    view_text = draw(st.sampled_from(VIEWS))
    operations = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.sampled_from(["R", "S", "T"]),
                ROWS,
            ),
            max_size=12,
        )
    )
    return initial_r, initial_s, initial_t, view_text, operations


def build_space(initial_r, initial_s, initial_t):
    space = InformationSpace()
    for source, schema, rows in [
        ("IS1", Schema("R", ["A", "B"]), initial_r),
        ("IS2", Schema("S", ["A", "C"]), initial_s),
        ("IS3", Schema("T", ["D", "E"]), initial_t),
    ]:
        space.add_source(source)
        space.register_relation(
            source,
            Relation(schema, rows),
            RelationStatistics(cardinality=max(len(rows), 1)),
        )
    return space


def factors(counters):
    return (
        counters.messages,
        counters.bytes_transferred,
        counters.io_operations,
    )


def replay(space, view, operations):
    """Filter the op stream to valid updates, applying them lazily.

    A generator, so ``for update in replay(...): maintain(update)``
    follows the sequential protocol exactly: each update lands on its
    source immediately before its own maintenance, never earlier.
    (Materializing the list first would apply *future* updates before
    maintaining the current one — not a state any sequential execution
    can produce, so maintenance is not required to survive it.)
    """
    for kind, relation_name, row in operations:
        if relation_name not in view.relation_names:
            continue
        source = space.owner_of(relation_name)
        if kind == "delete":
            if row not in source.relation(relation_name).rows:
                continue
            yield source.delete(relation_name, row)
        else:
            yield source.insert(relation_name, row)


@given(storm())
@settings(max_examples=100, deadline=None)
def test_indexed_engine_matches_naive_engine(data):
    initial_r, initial_s, initial_t, view_text, _ = data
    view = parse_view(view_text)
    space = build_space(initial_r, initial_s, initial_t)
    reference = evaluate_view(
        view, space.relations(), config=EngineConfig(engine="naive")
    )
    indexed = evaluate_view(view, space.relations())
    # The naive engine joins in literal FROM order, so the contract
    # against it is bag equality.
    assert sorted(indexed.rows) == sorted(reference.rows)
    assert indexed.schema == reference.schema


@given(storm())
@settings(max_examples=100, deadline=None)
def test_tuple_plane_matches_dict_plane_per_update(data):
    initial_r, initial_s, initial_t, view_text, operations = data
    view = parse_view(view_text)
    lanes = {}
    for representation, use_index in [
        ("dict", False),
        ("dict", True),
        ("tuple", True),
        ("tuple", False),
    ]:
        space = build_space(initial_r, initial_s, initial_t)
        extent = evaluate_view(view, space.relations())
        maintainer = ViewMaintainer(
            space,
            config=MaintenanceConfig(
                representation=representation, use_index=use_index
            ),
        )
        for update in replay(space, view, operations):
            maintainer.maintain(view, extent, update)
        lanes[(representation, use_index)] = (extent, maintainer.counters)

    reference_extent, reference_counters = lanes[("dict", False)]
    for key, (extent, counters) in lanes.items():
        # Same rows in the same order, not just bag equality: both
        # planes must accept candidates in the identical sequence.
        assert extent.rows == reference_extent.rows, key
        assert factors(counters) == factors(reference_counters), key


@given(storm())
@settings(max_examples=60, deadline=None)
def test_maintain_batch_matches_per_update_reference(data):
    initial_r, initial_s, initial_t, view_text, operations = data
    view = parse_view(view_text)
    # Restrict the storm to one relation: maintain_batch's equivalence
    # contract (an update's own relation is never joined, so any
    # single-relation stream batches safely end to end).
    operations = [op for op in operations if op[1] == "R"]

    reference_space = build_space(initial_r, initial_s, initial_t)
    reference_extent = evaluate_view(view, reference_space.relations())
    reference = ViewMaintainer(
        reference_space, config=MaintenanceConfig(representation="dict")
    )
    for update in replay(reference_space, view, operations):
        reference.maintain(view, reference_extent, update)

    space = build_space(initial_r, initial_s, initial_t)
    extent = evaluate_view(view, space.relations())
    maintainer = ViewMaintainer(space)
    updates = replay(space, view, operations)
    returned = maintainer.maintain_batch(view, extent, updates)

    assert extent.rows == reference_extent.rows
    assert factors(maintainer.counters) == factors(reference.counters)
    assert factors(returned) == factors(reference.counters)


@given(storm())
@settings(max_examples=60, deadline=None)
def test_single_site_query_rows_identical(data):
    """Source-level parity: the joined delta *rows themselves* agree."""
    initial_r, initial_s, initial_t, view_text, operations = data
    view = parse_view(view_text)
    if len(view.relation_names) < 2:
        return
    space = build_space(initial_r, initial_s, initial_t)
    condition = view.condition()
    r_schema = space.relation("R").schema
    seeds = [
        row for kind, name, row in operations if name == "R" and kind == "insert"
    ]
    columns = tuple(f"R.{attr}" for attr in r_schema.attribute_names)
    local = [name for name in view.relation_names if name != "R"]

    for name in local:
        source = space.owner_of(name)
        bindings = [dict(zip(columns, row)) for row in seeds]
        for use_index in (True, False):
            dict_result = source.answer_single_site_query(
                bindings, [name], condition, use_index=use_index
            )
            batch = source.answer_single_site_batch(
                DeltaBatch(columns, list(seeds), list(range(len(seeds)))),
                [name],
                condition,
                use_index=use_index,
            )
            dict_rows = [
                tuple(binding[column] for column in batch.columns)
                for binding in dict_result
            ]
            assert batch.rows == dict_rows, (name, use_index)
            assert len(batch.tags) == len(batch.rows)


@given(storm())
@settings(max_examples=40, deadline=None)
def test_apply_updates_matches_sequential_system(data):
    """EVESystem.apply_updates on an interleaved multi-relation stream
    equals the per-update listener path of the naive dict plane — flush
    boundaries restore the sequential protocol exactly where batching
    would break it."""
    initial_r, initial_s, initial_t, view_text, operations = data
    views = [view_text, VIEWS[0]]

    def build(config=None):
        eve = EVESystem(
            space=build_space(initial_r, initial_s, initial_t),
            auto_synchronize=False,
            config=config,
        )
        for index, text in enumerate(views):
            eve.define_view(text.replace("VIEW V ", f"VIEW V{index} "))
        return eve

    reference = build(
        SystemConfig(
            maintenance=MaintenanceConfig(
                representation="dict", use_index=False
            )
        )
    )
    intents = []
    for kind, relation_name, row in operations:
        source = reference.space.owner_of(relation_name)
        if kind == "delete" and row not in source.relation(relation_name).rows:
            continue
        intents.append((relation_name, kind, row))
        if kind == "insert":
            reference.space.insert(relation_name, row)
        else:
            reference.space.delete(relation_name, row)

    eve = build()
    eve.apply_updates(intents)
    for index in range(len(views)):
        name = f"V{index}"
        assert eve.extent(name).rows == reference.extent(name).rows
        recomputed = evaluate_view(
            eve.vkb.current(name), eve.space.relations()
        )
        assert sorted(eve.extent(name).rows) == sorted(recomputed.rows)
    assert factors(eve.maintainer.counters) == factors(
        reference.maintainer.counters
    )
