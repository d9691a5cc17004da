"""Unit tests for the Algorithm 1 maintenance simulator."""

import pytest

from repro.config import MaintenanceConfig
from repro.errors import ConfigurationError, MaintenanceError
from repro.esql.evaluator import evaluate_view
from repro.esql.parser import parse_view
from repro.maintenance.counters import MaintenanceCounters
from repro.maintenance.simulator import ViewMaintainer
from repro.misd.statistics import RelationStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.space import InformationSpace
from repro.space.updates import DataUpdate, UpdateKind


@pytest.fixture
def space():
    sp = InformationSpace()
    sp.add_source("IS1")
    sp.add_source("IS2")
    sp.register_relation(
        "IS1",
        Relation(Schema("R", ["A", "B"]), [(1, 10), (2, 20)]),
        RelationStatistics(cardinality=2, tuple_size=8),
    )
    sp.register_relation(
        "IS2",
        Relation(Schema("S", ["A", "C"]), [(1, 100), (2, 200), (2, 201)]),
        RelationStatistics(cardinality=3, tuple_size=8),
    )
    return sp


@pytest.fixture
def view():
    return parse_view(
        "CREATE VIEW V AS SELECT R.A, R.B, S.C FROM R, S WHERE R.A = S.A"
    )


def materialize(view, space):
    return evaluate_view(view, space.relations())


class TestInsertPropagation:
    def test_insert_extends_extent_correctly(self, space, view):
        extent = materialize(view, space)
        maintainer = ViewMaintainer(space)
        update = space.source("IS1").insert("R", (2, 21))
        maintainer.maintain(view, extent, update)
        recomputed = materialize(view, space)
        assert sorted(extent.rows) == sorted(recomputed.rows)

    def test_insert_with_no_matches_changes_nothing(self, space, view):
        extent = materialize(view, space)
        before = sorted(extent.rows)
        maintainer = ViewMaintainer(space)
        update = space.source("IS1").insert("R", (99, 0))
        maintainer.maintain(view, extent, update)
        assert sorted(extent.rows) == before

    def test_update_at_second_source(self, space, view):
        extent = materialize(view, space)
        maintainer = ViewMaintainer(space)
        update = space.source("IS2").insert("S", (1, 101))
        maintainer.maintain(view, extent, update)
        assert sorted(extent.rows) == sorted(materialize(view, space).rows)

    def test_selection_prunes_seed(self, space):
        view = parse_view(
            "CREATE VIEW V AS SELECT R.A FROM R WHERE R.B > 50"
        )
        extent = materialize(view, space)
        maintainer = ViewMaintainer(space)
        update = space.source("IS1").insert("R", (5, 10))  # fails R.B > 50
        maintainer.maintain(view, extent, update)
        assert extent.cardinality == 0


class TestDeletePropagation:
    def test_delete_removes_joined_rows(self, space, view):
        extent = materialize(view, space)
        maintainer = ViewMaintainer(space)
        update = space.source("IS1").delete("R", (2, 20))
        maintainer.maintain(view, extent, update)
        assert sorted(extent.rows) == sorted(materialize(view, space).rows)

    def test_inconsistent_extent_detected(self, space, view):
        maintainer = ViewMaintainer(space)
        empty = materialize(view, space).empty_like()
        update = space.source("IS1").delete("R", (1, 10))
        with pytest.raises(MaintenanceError):
            maintainer.maintain(view, empty, update)


class TestSequences:
    def test_long_update_stream_stays_consistent(self, space, view):
        extent = materialize(view, space)
        maintainer = ViewMaintainer(space)
        operations = [
            ("insert", "R", (3, 30)),
            ("insert", "S", (3, 300)),
            ("insert", "S", (3, 301)),
            ("delete", "R", (1, 10)),
            ("insert", "R", (1, 11)),
            ("delete", "S", (2, 200)),
        ]
        for kind, relation, row in operations:
            source = space.owner_of(relation)
            if kind == "insert":
                update = source.insert(relation, row)
            else:
                update = source.delete(relation, row)
            maintainer.maintain(view, extent, update)
            assert sorted(extent.rows) == sorted(
                materialize(view, space).rows
            ), f"diverged after {kind} {row} at {relation}"


class TestCounters:
    def test_counts_returned_per_update(self, space, view):
        extent = materialize(view, space)
        maintainer = ViewMaintainer(space)
        update = space.source("IS1").insert("R", (1, 12))
        counters = maintainer.maintain(view, extent, update)
        # notification + (delta to IS2, result back) = 3 messages
        assert counters.messages == 3
        assert counters.bytes_transferred > 0

    def test_counters_accumulate(self, space, view):
        extent = materialize(view, space)
        maintainer = ViewMaintainer(space)
        for row in [(1, 12), (1, 13)]:
            update = space.source("IS1").insert("R", row)
            maintainer.maintain(view, extent, update)
        assert maintainer.counters.messages == 6

    def test_single_relation_view_sends_only_notification(self, space):
        view = parse_view("CREATE VIEW V AS SELECT R.A FROM R")
        extent = materialize(view, space)
        maintainer = ViewMaintainer(space)
        update = space.source("IS1").insert("R", (7, 70))
        counters = maintainer.maintain(view, extent, update)
        assert counters.messages == 1  # footnote 12: no query needed

    def test_unrelated_update_rejected(self, space, view):
        maintainer = ViewMaintainer(space)
        extent = materialize(view, space)
        ghost = DataUpdate("IS9", "Zzz", UpdateKind.INSERT, (1,))
        with pytest.raises(MaintenanceError):
            maintainer.maintain(view, extent, ghost)


class TestCountersUnit:
    def test_merge_and_reset(self):
        a = MaintenanceCounters(1, 10, 100)
        b = MaintenanceCounters(2, 20, 200)
        merged = a.merged(b)
        assert (merged.messages, merged.bytes_transferred,
                merged.io_operations) == (3, 30, 300)
        a.reset()
        assert a.messages == 0

    def test_record_message_counts_bytes(self):
        counters = MaintenanceCounters()
        counters.record_message(64)
        counters.record_message(0)
        assert counters.messages == 2
        assert counters.bytes_transferred == 64

    def test_snapshot_is_an_independent_copy(self):
        counters = MaintenanceCounters(1, 10, 100)
        frozen = counters.snapshot()
        counters.record_message(5)
        counters.record_io(7)
        assert (frozen.messages, frozen.bytes_transferred,
                frozen.io_operations) == (1, 10, 100)

    def test_diff_recovers_the_delta_since_a_snapshot(self):
        counters = MaintenanceCounters(1, 10, 100)
        frozen = counters.snapshot()
        counters.record_message(32)
        counters.record_io(3)
        delta = counters.diff(frozen)
        assert (delta.messages, delta.bytes_transferred,
                delta.io_operations) == (1, 32, 3)


class TestRepresentations:
    def test_unknown_representation_rejected(self, space):
        with pytest.raises(ConfigurationError, match="representation"):
            ViewMaintainer(space, config=MaintenanceConfig(representation="quantum"))
        with pytest.raises(ConfigurationError, match="columnar"):
            MaintenanceConfig(representation="columnar")

    @pytest.mark.parametrize("representation", ["dict", "tuple"])
    def test_both_representations_maintain_correctly(
        self, space, view, representation
    ):
        extent = materialize(view, space)
        maintainer = ViewMaintainer(
            space, config=MaintenanceConfig(representation=representation)
        )
        update = space.source("IS1").insert("R", (2, 21))
        maintainer.maintain(view, extent, update)
        assert sorted(extent.rows) == sorted(materialize(view, space).rows)
        assert maintainer.representation == representation


class TestMaintainBatch:
    def test_empty_batch_is_a_noop(self, space, view):
        maintainer = ViewMaintainer(space)
        extent = materialize(view, space)
        before = sorted(extent.rows)
        counters = maintainer.maintain_batch(view, extent, [])
        assert counters.messages == 0
        assert counters.bytes_transferred == 0
        assert counters.io_operations == 0
        assert sorted(extent.rows) == before

    def test_mixed_insert_delete_stream(self, space, view):
        extent = materialize(view, space)
        maintainer = ViewMaintainer(space)
        source = space.source("IS1")
        updates = [
            source.insert("R", (1, 11)),
            source.insert("R", (2, 22)),
            source.delete("R", (1, 11)),
        ]
        counters = maintainer.maintain_batch(view, extent, updates)
        assert sorted(extent.rows) == sorted(materialize(view, space).rows)
        # One notification plus one query/response round trip per update.
        assert counters.messages == 9

    def test_unrelated_update_rejected(self, space, view):
        maintainer = ViewMaintainer(space)
        extent = materialize(view, space)
        ghost = DataUpdate("IS9", "Zzz", UpdateKind.INSERT, (1,))
        with pytest.raises(MaintenanceError):
            maintainer.maintain_batch(view, extent, [ghost])

    def test_batch_counters_equal_per_update_counters(self, view):
        def build():
            sp = InformationSpace()
            sp.add_source("IS1")
            sp.add_source("IS2")
            sp.register_relation(
                "IS1",
                Relation(Schema("R", ["A", "B"]), [(1, 10), (2, 20)]),
                RelationStatistics(cardinality=2, tuple_size=8),
            )
            sp.register_relation(
                "IS2",
                Relation(
                    Schema("S", ["A", "C"]), [(1, 100), (2, 200), (2, 201)]
                ),
                RelationStatistics(cardinality=3, tuple_size=8),
            )
            return sp

        rows = [(k % 3, k) for k in range(10)]

        reference_space = build()
        reference_extent = materialize(view, reference_space)
        reference = ViewMaintainer(
            reference_space, config=MaintenanceConfig(representation="dict")
        )
        for row in rows:
            update = reference_space.source("IS1").insert("R", row)
            reference.maintain(view, reference_extent, update)

        batch_space = build()
        batch_extent = materialize(view, batch_space)
        maintainer = ViewMaintainer(batch_space)
        updates = [
            batch_space.source("IS1").insert("R", row) for row in rows
        ]
        maintainer.maintain_batch(view, batch_extent, updates)

        assert batch_extent.rows == reference_extent.rows
        for attribute in ("messages", "bytes_transferred", "io_operations"):
            assert getattr(maintainer.counters, attribute) == getattr(
                reference.counters, attribute
            )

    def test_inconsistent_extent_detected_in_batch(self, space, view):
        extent = materialize(view, space)
        maintainer = ViewMaintainer(space)
        source = space.source("IS1")
        # Remove a joined row from the extent behind the maintainer's
        # back, then propagate its delete through the batch path.
        update = source.delete("R", (1, 10))
        extent.delete((1, 10, 100))
        with pytest.raises(MaintenanceError, match="inconsistent"):
            maintainer.maintain_batch(view, extent, [update])
