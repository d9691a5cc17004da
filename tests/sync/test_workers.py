"""Persistent-worker pool over the sharded VKB: lifecycle and parity.

The workers executor's contract beyond plain outcome parity (which
``tests/property/test_scheduler_parity.py`` pins): deterministic shard
routing, warm-pool reuse without snapshot re-shipping, delta-driven
mirror consistency, drift detection, and failure semantics — a crash
mid-group surfaces an exception naming the failing view, the pool
recycles, and the next batch on the same system re-bootstraps and
commits the serial outcome.
"""

import json

import pytest

from repro import (
    EVESystem,
    ShardRebalanced,
    SystemConfig,
    WorkerRecycled,
)
from repro.config import ScheduleConfig
from repro.errors import SynchronizationError
from repro.misd.statistics import RelationStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.changes import (
    DeleteRelation,
    RenameAttribute,
    RenameRelation,
)
from repro.sync.workers import (
    FAULT_ENV,
    _dedupe_rows,
    _outcomes_from_rows,
    relation_shard,
    view_home_shard,
)


def build_system(config=None):
    """Three mirrored relations, five views spread over them."""
    eve = EVESystem(config=config)
    eve.add_source("IS0")
    eve.add_source("IS1")
    for name in ("R0", "R1", "R2"):
        eve.register_relation(
            "IS0",
            Relation(Schema(name, ["A", "B"]), [(1, 10), (2, 20)]),
            RelationStatistics(cardinality=400, tuple_size=100),
        )
        eve.register_relation(
            "IS1",
            Relation(Schema(f"{name}M", ["A", "B"]), [(1, 10), (2, 20)]),
            RelationStatistics(cardinality=400, tuple_size=100),
        )
        eve.mkb.add_equivalence(name, f"{name}M", ["A", "B"])
    for index, relation in enumerate(["R0", "R0", "R1", "R2", "R1"]):
        eve.define_view(
            f"CREATE VIEW V{index} (VE = '~') AS "
            f"SELECT {relation}.A (AR = true), "
            f"{relation}.B (AD = true, AR = true) "
            f"FROM {relation} (RR = true)",
            materialize=False,
        )
    return eve


def fingerprint(eve):
    return [
        (record.name, record.alive, record.generations, record.current)
        for record in eve.vkb
    ]


CHANGES = [
    RenameAttribute("IS0", "R0", "A", "A2"),
    DeleteRelation("IS0", "R1"),
]


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_relation_shard_is_deterministic_and_in_range(self):
        for shards in (1, 2, 3, 7):
            for name in ("R0", "R1", "Donor3_1", "Mirror0"):
                home = relation_shard(name, shards)
                assert 0 <= home < shards
                assert home == relation_shard(name, shards)

    def test_single_shard_owns_everything(self):
        assert relation_shard("anything", 1) == 0

    def test_view_home_follows_the_first_relation(self):
        eve = build_system()
        record = next(iter(eve.vkb))
        first = record.current.relation_names[0]
        assert view_home_shard(record.current, 4) == relation_shard(
            first, 4
        )


# ----------------------------------------------------------------------
# Warm-pool reuse
# ----------------------------------------------------------------------
class TestWarmPool:
    def test_warm_batches_reuse_workers_and_ship_no_snapshot(self):
        serial = build_system()
        serial.apply_changes(list(CHANGES))
        serial.apply_changes([RenameRelation("IS0", "R2", "R2X")])
        reference = fingerprint(serial)

        eve = build_system(SystemConfig.sharded(2))
        rebalances = []
        eve.subscribe(ShardRebalanced, rebalances.append)
        try:
            eve.apply_changes(list(CHANGES))
            assert all(
                report.executor == "workers"
                for report in eve.last_schedule
            )
            cold = [
                dispatch
                for report in eve.last_schedule
                for dispatch in report.shards
            ]
            assert sum(d.snapshot_bytes for d in cold) > 0
            first_pids = dict(eve.scheduler._worker_pool.worker_pids)
            assert len(first_pids) == 2

            eve.apply_changes([RenameRelation("IS0", "R2", "R2X")])
            assert fingerprint(eve) == reference
            # Same processes, no re-bootstrap, zero snapshot bytes.
            assert dict(eve.scheduler._worker_pool.worker_pids) == first_pids
            warm = [
                dispatch
                for report in eve.last_schedule
                for dispatch in report.shards
            ]
            assert warm and all(d.snapshot_bytes == 0 for d in warm)
            assert all(d.bytes_shipped > 0 for d in warm)
            assert [event.reason for event in rebalances] == ["bootstrap"]
        finally:
            eve.close()

    def test_dispatch_accounting_reaches_the_system_report(self):
        eve = build_system(SystemConfig.sharded(2))
        try:
            eve.apply_changes(list(CHANGES))
            payload = eve.last_report.to_dict()
            rows = payload["schedule"]["shards"]
            assert rows == sorted(rows, key=lambda row: row["shard"])
            assert sum(row["views"] for row in rows) > 0
            batches = payload["schedule"]["batches"]
            assert all(batch["shards"] for batch in batches)
        finally:
            eve.close()

    def test_close_stops_the_fleet(self):
        eve = build_system(SystemConfig.sharded(2))
        eve.apply_changes([RenameAttribute("IS0", "R0", "A", "A2")])
        pool = eve.scheduler._worker_pool
        assert pool.worker_pids
        eve.close()
        assert pool.worker_pids == {}


# ----------------------------------------------------------------------
# Drift: out-of-band VKB/MKB mutation between batches
# ----------------------------------------------------------------------
class TestDrift:
    def test_out_of_band_define_view_forces_rebootstrap(self):
        eve = build_system(SystemConfig.sharded(2))
        rebalances = []
        eve.subscribe(ShardRebalanced, rebalances.append)
        try:
            eve.apply_changes([RenameAttribute("IS0", "R0", "A", "A2")])
            eve.define_view(
                "CREATE VIEW VX (VE = '~') AS SELECT R1.A (AR = true), "
                "R1.B (AD = true, AR = true) FROM R1 (RR = true)",
                materialize=False,
            )
            eve.apply_changes([DeleteRelation("IS0", "R1")])
            assert [event.reason for event in rebalances] == [
                "bootstrap",
                "drift",
            ]
        finally:
            eve.close()

        serial = build_system()
        serial.apply_changes([RenameAttribute("IS0", "R0", "A", "A2")])
        serial.define_view(
            "CREATE VIEW VX (VE = '~') AS SELECT R1.A (AR = true), "
            "R1.B (AD = true, AR = true) FROM R1 (RR = true)",
            materialize=False,
        )
        serial.apply_changes([DeleteRelation("IS0", "R1")])
        assert fingerprint(eve) == fingerprint(serial)

    def test_out_of_band_constraint_add_forces_rebootstrap(self):
        # The MKB blind spot: adding a constraint between batches
        # changes rewriting routes without touching VKB version or
        # relation names.  The worker mirrors must not keep searching
        # against the stale constraint set.
        eve = build_system(SystemConfig.sharded(2))
        rebalances = []
        eve.subscribe(ShardRebalanced, rebalances.append)
        try:
            eve.apply_changes([RenameAttribute("IS0", "R0", "A", "A2")])
            # A new route between relations the mirrors already hold:
            # no VKB bump, no relation-name change — only the
            # constraint fingerprint can catch this.
            eve.mkb.add_containment("R1", "R2M", ["A", "B"])
            eve.apply_changes([DeleteRelation("IS0", "R1")])
            assert [event.reason for event in rebalances] == [
                "bootstrap",
                "mkb-drift",
            ]
        finally:
            eve.close()

        serial = build_system()
        serial.apply_changes([RenameAttribute("IS0", "R0", "A", "A2")])
        serial.mkb.add_containment("R1", "R2M", ["A", "B"])
        serial.apply_changes([DeleteRelation("IS0", "R1")])
        assert fingerprint(eve) == fingerprint(serial)

    def test_in_batch_evolution_does_not_false_drift(self):
        # Capability-change batches evolve the parent MKB (renames
        # rewrite live constraints) — that must NOT read as drift, or
        # every warm batch would re-ship snapshots.
        eve = build_system(SystemConfig.sharded(2))
        rebalances = []
        eve.subscribe(ShardRebalanced, rebalances.append)
        try:
            eve.apply_changes([RenameAttribute("IS0", "R0", "A", "A2")])
            eve.apply_changes([RenameRelation("IS0", "R2", "R2X")])
            assert [event.reason for event in rebalances] == ["bootstrap"]
        finally:
            eve.close()


# ----------------------------------------------------------------------
# Failure semantics
# ----------------------------------------------------------------------
class TestCrashLifecycle:
    def test_crash_names_view_recycles_and_recovers(self, monkeypatch):
        eve = build_system(SystemConfig.sharded(2))
        events = []
        eve.subscribe(ShardRebalanced, events.append)
        eve.subscribe(WorkerRecycled, events.append)
        try:
            monkeypatch.setenv(FAULT_ENV, "V2")
            with pytest.raises(SynchronizationError, match="V2"):
                eve.apply_changes([DeleteRelation("IS0", "R1")])
            monkeypatch.delenv(FAULT_ENV)
            recycled = [
                event for event in events
                if isinstance(event, WorkerRecycled)
            ]
            assert any(event.reason == "crash" for event in recycled)
            assert eve.scheduler._worker_pool.worker_pids == {}

            # The next batch on the same system re-bootstraps a fresh
            # fleet and commits the serial outcome for its views.
            events.clear()
            eve.apply_changes([RenameAttribute("IS0", "R0", "A", "A2")])
            reboots = [
                event for event in events
                if isinstance(event, ShardRebalanced)
            ]
            assert reboots and reboots[0].reason == "recycle"
        finally:
            eve.close()

        # Serial reference for the recovery batch: the renamed views'
        # records must match a serial system that ran the same rename
        # (the crashed delete's syncs were lost in both worlds — the
        # exception propagated before anything was adopted).
        serial = build_system()
        serial.apply_changes([RenameAttribute("IS0", "R0", "A", "A2")])
        recovered = {
            record.name: (record.alive, record.current)
            for record in eve.vkb
            if record.name in ("V0", "V1")
        }
        expected = {
            record.name: (record.alive, record.current)
            for record in serial.vkb
            if record.name in ("V0", "V1")
        }
        assert recovered == expected

    def test_nothing_commits_when_any_shard_fails(self, monkeypatch):
        eve = build_system(SystemConfig.sharded(2))
        before = fingerprint(eve)
        try:
            monkeypatch.setenv(FAULT_ENV, "V2")
            with pytest.raises(SynchronizationError):
                eve.apply_changes([DeleteRelation("IS0", "R1")])
            # All-or-nothing: no partial adoption from healthy shards.
            assert fingerprint(eve) == before
        finally:
            eve.close()

    def test_hard_death_names_inflight_views(self, monkeypatch):
        eve = build_system(SystemConfig.sharded(2))
        events = []
        eve.subscribe(WorkerRecycled, events.append)
        try:
            monkeypatch.setenv(FAULT_ENV, "kill!V0")
            with pytest.raises(SynchronizationError, match="V0"):
                eve.apply_changes(
                    [RenameAttribute("IS0", "R0", "A", "A2")]
                )
            assert any(event.reason == "crash" for event in events)
        finally:
            eve.close()


# ----------------------------------------------------------------------
# The report layout outlives the fork executor
# ----------------------------------------------------------------------
class TestReportLayout:
    def test_schedule_batches_carry_null_executor_fallback(self):
        # ``executor_fallback`` stays in every schema-v4 schedule batch,
        # always null: only the removed fork executor could fall back.
        eve = build_system()
        eve.apply_changes([RenameAttribute("IS0", "R0", "A", "A2")])
        (report,) = eve.last_schedule
        assert report.executor == "serial"
        assert report.shards == ()
        payload = json.loads(eve.last_report.to_json())
        assert payload["schema_version"] == 4
        (batch,) = payload["schedule"]["batches"]
        assert "executor_fallback" in batch
        assert batch["executor_fallback"] is None


# ----------------------------------------------------------------------
# Dedupe wire rows (serialized by the workers executor)
# ----------------------------------------------------------------------
class _StubItem:
    def __init__(self, order, key, name):
        self.order = order
        self.coalesce_key = key
        self.view_name = name


class _StubOutcome:
    def __init__(self, item, results, coalesced):
        self.item = item
        self.results = results
        self.seconds = 0.25
        self.degraded = False
        self.coalesced = coalesced


class TestDedupeRows:
    def test_followers_ship_a_reference_not_a_payload(self):
        leader = _StubItem(0, ("k",), "V0")
        follower = _StubItem(1, ("k",), "V1")
        other = _StubItem(2, ("j",), "V2")
        rows = _dedupe_rows(
            [
                _StubOutcome(leader, ("payload",), coalesced=False),
                _StubOutcome(follower, ("payload",), coalesced=True),
                _StubOutcome(other, ("other",), coalesced=False),
            ]
        )
        kinds = [row[0] for row in rows]
        assert kinds == ["full", "coalesced", "full"]
        assert rows[1][2] == 0  # follower references the leader's order

    def test_full_rows_round_trip_uncommitted(self):
        item = _StubItem(3, ("k",), "V3")
        rows = _dedupe_rows(
            [_StubOutcome(item, ("payload",), coalesced=False)]
        )
        outcomes = []
        _outcomes_from_rows(rows, {3: item}, outcomes)
        (outcome,) = outcomes
        assert outcome.item is item
        assert outcome.results == ("payload",)
        assert (outcome.seconds, outcome.degraded, outcome.coalesced) == (
            0.25, False, False,
        )


# ----------------------------------------------------------------------
# Config surface
# ----------------------------------------------------------------------
class TestConfigSurface:
    def test_sharded_preset_round_trips(self):
        config = SystemConfig.sharded(4)
        assert config.schedule.executor == "workers"
        assert config.schedule.shards == 4
        assert SystemConfig.from_dict(config.to_dict()) == config

    def test_single_group_batches_still_use_the_pool(self):
        # The serial demotion for tiny batches must not bypass the
        # pool: mirrors have to see every batch or they drift.
        eve = build_system(
            SystemConfig(
                schedule=ScheduleConfig(executor="workers", shards=2)
            )
        )
        try:
            eve.apply_changes([RenameAttribute("IS0", "R2", "A", "A9")])
            (report,) = eve.last_schedule
            assert report.executor == "workers"
        finally:
            eve.close()
