"""Property tests: the columnar plane equals the row planes.

The columnar plane's contract (ISSUE 6): for any update storm, the
column-at-a-time representation produces *identical delta rows, extents,
and byte-identical modeled CF_M/CF_T/CF_IO counters* to both the
dict-binding reference and the positional-tuple plane — per update,
through ``maintain_batch``, and through ``apply_updates`` flush
boundaries.  Kernels change execution only, never modeled accounting.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig, MaintenanceConfig, SystemConfig
from repro.core.eve import EVESystem
from repro.esql.evaluator import evaluate_view
from repro.esql.parser import parse_view
from repro.maintenance.delta import ColumnBatch, DeltaBatch
from repro.maintenance.simulator import ViewMaintainer
from repro.misd.statistics import RelationStatistics
from repro.relational.columnar import KernelCounters
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.space import InformationSpace

VALUES = st.integers(0, 6)
ROWS = st.tuples(VALUES, VALUES)

#: Same shape coverage as test_delta_parity: selections, equijoins,
#: theta clauses, a three-relation chain, and a pure cross join.
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
    # No equijoin link into S: exercises the cross-join (no-probe) kernel.
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
    """Valid updates only, applied lazily (sequential protocol)."""
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


# ----------------------------------------------------------------------
# Evaluation parity
# ----------------------------------------------------------------------
@given(storm())
@settings(max_examples=100, deadline=None)
def test_columnar_engine_matches_row_engines(data):
    initial_r, initial_s, initial_t, view_text, _ = data
    view = parse_view(view_text)
    space = build_space(initial_r, initial_s, initial_t)
    reference = evaluate_view(
        view, space.relations(), config=EngineConfig(engine="naive")
    )
    for use_index in (True, False):
        tuple_extent = evaluate_view(
            view,
            space.relations(),
            config=EngineConfig(use_index=use_index),
        )
        counters = KernelCounters()
        columnar_extent = evaluate_view(
            view,
            space.relations(),
            config=EngineConfig(
                representation="columnar", use_index=use_index
            ),
            kernel_counters=counters,
        )
        # Columnar must match the tuple plane in exact row order (same
        # greedy join order, same candidate sequence); the naive engine
        # joins in literal order, so against it the contract is bag
        # equality.
        assert columnar_extent.rows == tuple_extent.rows, use_index
        assert sorted(columnar_extent.rows) == sorted(reference.rows), use_index
        assert columnar_extent.schema == reference.schema
        assert counters.rows_scanned >= 0 and counters.rows_selected >= 0


# ----------------------------------------------------------------------
# Delta-plane parity
# ----------------------------------------------------------------------
@given(storm())
@settings(max_examples=100, deadline=None)
def test_columnar_plane_matches_row_planes_per_update(data):
    initial_r, initial_s, initial_t, view_text, operations = data
    view = parse_view(view_text)
    lanes = {}
    for representation, use_index in [
        ("dict", False),
        ("tuple", True),
        ("columnar", True),
        ("columnar", False),
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
        assert extent.rows == reference_extent.rows, key
        assert factors(counters) == factors(reference_counters), key


@given(storm())
@settings(max_examples=60, deadline=None)
def test_columnar_maintain_batch_matches_per_update_reference(data):
    initial_r, initial_s, initial_t, view_text, operations = data
    view = parse_view(view_text)
    # Single-relation streams batch safely end to end (maintain_batch's
    # equivalence contract); restrict the storm accordingly.
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
    maintainer = ViewMaintainer(
        space, config=MaintenanceConfig(representation="columnar")
    )
    updates = replay(space, view, operations)
    returned = maintainer.maintain_batch(view, extent, updates)

    assert extent.rows == reference_extent.rows
    assert factors(maintainer.counters) == factors(reference.counters)
    assert factors(returned) == factors(reference.counters)


@given(storm())
@settings(max_examples=60, deadline=None)
def test_single_site_columnar_rows_identical(data):
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
    local = [name for name in view.relation_names if name != "R"]

    for name in local:
        source = space.owner_of(name)
        for use_index in (True, False):
            row_batch = source.answer_single_site_batch(
                DeltaBatch.seed("R", r_schema, seeds, list(range(len(seeds)))),
                [name],
                condition,
                use_index=use_index,
            )
            column_batch = source.answer_single_site_columnar(
                ColumnBatch.seed("R", r_schema, seeds, list(range(len(seeds)))),
                [name],
                condition,
                use_index=use_index,
            )
            assert column_batch.columns == row_batch.columns, (name, use_index)
            assert column_batch.rows == row_batch.rows, (name, use_index)
            assert column_batch.tags == row_batch.tags, (name, use_index)


# ----------------------------------------------------------------------
# Full-system parity through flush boundaries
# ----------------------------------------------------------------------
@given(storm())
@settings(max_examples=40, deadline=None)
def test_columnar_apply_updates_matches_sequential_system(data):
    """EVESystem.apply_updates on the columnar profile equals the
    per-update dict-plane listener path — including interleaved
    multi-relation streams whose flush boundaries restore the
    sequential protocol."""
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

    eve = build(SystemConfig.columnar())
    eve.apply_updates(intents)
    for index in range(len(views)):
        name = f"V{index}"
        assert eve.extent(name).rows == reference.extent(name).rows
    assert factors(eve.maintainer.counters) == factors(
        reference.maintainer.counters
    )
    report = eve.last_report.to_dict()
    kernels = report["maintenance"]["kernels"]
    assert set(kernels) == {"rows_scanned", "rows_selected"}
