"""Preset parity: configuration spelling never changes outcomes.

The acceptance property of the config redesign (ISSUE 5): every
:class:`~repro.config.SystemConfig` preset must produce byte-identical
committed winners, QC-Values, extents, and modeled CF_M/CF_T/CF_IO
counters to the default spelling of the same planes.  The presets
deliberately span every plane pair the property tests already pin
(naive/indexed engines, dict/tuple delta representations,
plan-order/cost-order and plain/coalesced schedulers, exhaustive/pruned
policies), so
this test is the composition of those parities through the one public
entry point.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.eve import EVESystem
from repro.misd.statistics import RelationStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.changes import DeleteRelation
from repro.space.space import InformationSpace

ROWS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    min_size=1,
    max_size=5,
)


@st.composite
def scenario(draw):
    relations = draw(st.integers(min_value=2, max_value=4))
    tables = [draw(ROWS) for _ in range(relations)]
    updates = draw(
        st.lists(
            st.tuples(
                st.integers(0, relations - 1),
                st.sampled_from(["insert", "delete"]),
                st.tuples(st.integers(0, 5), st.integers(0, 5)),
            ),
            max_size=8,
        )
    )
    deleted = draw(st.integers(min_value=1, max_value=relations))
    return tables, updates, deleted


def build_eve(tables, **kwargs):
    """R_i with an equivalent mirror M_i each, one replaceable view per R_i."""
    space = InformationSpace()
    space.add_source("IS1")
    space.add_source("IS2")
    for index, rows in enumerate(tables):
        space.register_relation(
            "IS1",
            Relation(Schema(f"R{index}", ["A", "B"]), rows),
            RelationStatistics(cardinality=max(len(rows), 1)),
        )
        space.register_relation(
            "IS2",
            Relation(Schema(f"M{index}", ["A", "B"]), list(rows)),
            RelationStatistics(cardinality=max(len(rows), 1)),
        )
        space.mkb.add_equivalence(f"R{index}", f"M{index}", ["A", "B"])
    eve = EVESystem(space=space, **kwargs)
    for index in range(len(tables)):
        eve.define_view(
            f"CREATE VIEW V{index} (VE = '~') AS "
            f"SELECT R{index}.A (AR = true), "
            f"R{index}.B (AD = true, AR = true) "
            f"FROM R{index} (RR = true)"
        )
    return eve


def run(tables, updates, deleted, **kwargs):
    """Update storm then capability-change batch; full fingerprint."""
    eve = build_eve(tables, **kwargs)
    stream = []
    for index, kind, row in updates:
        for prefix in ("R", "M"):  # mirrors stay equivalent, like the ISs
            name = f"{prefix}{index}"
            if kind == "delete" and row not in eve.space.relation(name).rows:
                continue
            stream.append((name, kind, row))
    maintenance = eve.apply_updates(stream)
    results = eve.apply_changes(
        [DeleteRelation("IS1", f"R{index}") for index in range(deleted)]
    )
    return (
        [
            (record.name, record.alive, record.generations, record.current)
            for record in eve.vkb
        ],
        [
            (result.view_name, result.chosen.qc if result.chosen else None)
            for result in results
        ],
        {
            f"V{index}": eve.extent(f"V{index}")
            for index in range(len(tables))
            if eve.is_alive(f"V{index}")
        },
        (
            maintenance.messages,
            maintenance.bytes_transferred,
            maintenance.io_operations,
        ),
    )


def assert_same(reference, candidate, label):
    ref_vkb, ref_results, ref_extents, ref_counters = reference
    vkb, results, extents, counters = candidate
    assert vkb == ref_vkb, label
    assert results == ref_results, label  # winners + exact QC floats
    assert counters == ref_counters, label  # byte-identical CF counters
    assert set(extents) == set(ref_extents), label
    for name, extent in extents.items():
        # Relation equality is multiset row equality over the schema.
        assert extent == ref_extents[name], (label, name)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario())
def test_presets_commit_identical_outcomes(data):
    tables, updates, deleted = data
    reference = run(tables, updates, deleted)  # the default profile
    for label, config in {
        "reference": SystemConfig.reference(),
        "columnar": SystemConfig.columnar(),
        "bounded-unbinding": SystemConfig.bounded(budget_units=1e12),
    }.items():
        assert_same(
            reference, run(tables, updates, deleted, config=config), label
        )
