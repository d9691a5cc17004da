"""System-level serving plane: EVESystem.snapshot + ServingFrontend.

Pins the tentpole contract at the public API: snapshots stay stable
across evolution batches, the bus surfaces publish/release accounting,
and the asyncio frontend answers reads concurrently with a running
synchronization on its writer thread.
"""

import asyncio

import pytest

from repro.config import SystemConfig
from repro.core.eve import EVESystem
from repro.errors import SynchronizationError
from repro.events import SnapshotPublished, SnapshotReleased
from repro.misd.statistics import RelationStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.serving import ServedRead, ServingFrontend
from repro.space.changes import DeleteRelation


def build_system(config=None):
    eve = EVESystem(config=config)
    eve.add_source("IS1")
    eve.add_source("IS2")
    eve.register_relation(
        "IS1",
        Relation(Schema("R", ["A", "B"]), [(1, 10), (2, 20)]),
        RelationStatistics(cardinality=2),
    )
    eve.register_relation(
        "IS2",
        Relation(Schema("RM", ["A", "B"]), [(1, 10), (2, 20)]),
        RelationStatistics(cardinality=2),
    )
    eve.mkb.add_equivalence("R", "RM", ["A", "B"])
    eve.define_view(
        "CREATE VIEW V (VE = '~') AS "
        "SELECT R.A (AR = true), R.B (AD = true, AR = true) "
        "FROM R (RR = true)"
    )
    eve.define_view(
        "CREATE VIEW W (VE = '~') AS "
        "SELECT R.A (AR = true), R.B (AD = true, AR = true) "
        "FROM R (RR = true)"
    )
    return eve


class TestSystemSnapshot:
    def test_snapshot_survives_an_evolution_batch(self):
        eve = build_system()
        before = eve.snapshot()
        rows_before = tuple(before.extent("V").rows)
        eve.apply_changes([DeleteRelation("IS1", "R")])
        # The pinned snapshot still serves the pre-batch extent…
        assert tuple(before.extent("V").rows) == rows_before
        # …while a fresh snapshot serves the rewritten one.
        after = eve.snapshot()
        assert after.version == before.version + 1
        assert tuple(after.extent("V").rows) == tuple(eve.extent("V").rows)
        before.release()
        after.release()

    def test_snapshot_survives_an_update_storm(self):
        eve = build_system()
        before = eve.snapshot()
        assert before.extent("V").cardinality == 2
        eve.apply_updates(
            [("R", "insert", (3, 30)), ("RM", "insert", (3, 30))]
        )
        assert before.extent("V").cardinality == 2  # pre-storm version
        with eve.snapshot() as after:
            assert after.extent("V").cardinality == 3
        before.release()

    def test_one_publish_per_batch_not_per_view(self):
        eve = build_system()
        eve.snapshot().release()
        published = []
        eve.subscribe(SnapshotPublished, published.append)
        eve.apply_changes([DeleteRelation("IS1", "R")])
        # Two views were rewritten and rematerialized; one version.
        (event,) = published
        assert set(event.touched) >= {"V", "W"}
        assert event.version == eve._extents.version

    def test_release_event_carries_remaining_pins(self):
        eve = build_system()
        released = []
        eve.subscribe(SnapshotReleased, released.append)
        first = eve.snapshot()
        second = eve.snapshot()
        first.release()
        second.release()
        assert [event.remaining for event in released] == [1, 0]
        assert released[0].version == first.version

    def test_unmaterialized_view_reads_as_absent(self):
        eve = build_system()
        with eve.snapshot() as snapshot:
            assert snapshot.get("nope") is None
            with pytest.raises(KeyError):
                snapshot.extent("nope")


class TestServingFrontend:
    def test_read_returns_versioned_rows(self):
        eve = build_system()
        frontend = ServingFrontend(eve)
        try:
            read = frontend.read_sync("V")
            assert isinstance(read, ServedRead)
            assert read.view == "V"
            assert read.version == frontend.version
            assert sorted(read.rows) == sorted(eve.extent("V").rows)
            assert read.cardinality == 2
        finally:
            frontend.close()

    def test_unknown_view_raises_synchronization_error(self):
        eve = build_system()
        frontend = ServingFrontend(eve)
        try:
            with pytest.raises(SynchronizationError, match="nope"):
                frontend.read_sync("nope")
        finally:
            frontend.close()

    def test_multi_view_snapshot_reads_one_version(self):
        eve = build_system()
        frontend = ServingFrontend(eve)
        try:
            with frontend.snapshot() as snapshot:
                v = tuple(snapshot.extent("V").rows)
                w = tuple(snapshot.extent("W").rows)
            assert sorted(v) == sorted(w)  # same defining relation
        finally:
            frontend.close()

    def test_async_reads_interleave_with_a_writer_batch(self):
        eve = build_system()

        async def scenario():
            async with ServingFrontend(eve) as frontend:
                start_version = frontend.version

                async def storm():
                    return await frontend.apply_changes(
                        [DeleteRelation("IS1", "R")]
                    )

                async def reader():
                    reads = []
                    while frontend.version == start_version:
                        reads.append(await frontend.read("V"))
                        await asyncio.sleep(0)
                    reads.append(await frontend.read("V"))
                    return reads

                results, reads = await asyncio.gather(storm(), reader())
                return start_version, results, reads

        start_version, results, reads = asyncio.run(scenario())
        assert all(result.survived for result in results)
        # Every read carries the version it was served from, and reads
        # taken before the commit swap served the pre-batch rows.
        for read in reads:
            assert read.version in (start_version, start_version + 1)
        assert reads[-1].version == start_version + 1
        assert sorted(reads[-1].rows) == sorted(eve.extent("V").rows)

    def test_async_updates_report_counters(self):
        eve = build_system()

        async def scenario():
            async with ServingFrontend(eve) as frontend:
                counters = await frontend.apply_updates(
                    [("R", "insert", (3, 30)), ("RM", "insert", (3, 30))]
                )
                read = await frontend.read("V")
                return counters, read

        counters, read = asyncio.run(scenario())
        assert counters.messages >= 0
        assert read.cardinality == 3

    def test_serving_section_in_report_after_frontend_writes(self):
        eve = build_system()

        async def scenario():
            async with ServingFrontend(eve) as frontend:
                await frontend.apply_changes([DeleteRelation("IS1", "R")])

        asyncio.run(scenario())
        serving = eve.last_report.to_dict()["serving"]
        assert serving["enabled"] is True
        assert serving["published"] == 1
        assert serving["copied"] == 0

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(SystemConfig.reference(), id="reference"),
            pytest.param(
                SystemConfig.bounded(budget_units=1e12), id="bounded"
            ),
        ],
    )
    def test_other_planes_serve_reads_too(self, config):
        eve = build_system(config)

        async def scenario():
            async with ServingFrontend(eve) as frontend:
                storm = asyncio.create_task(
                    frontend.apply_changes([DeleteRelation("IS1", "R")])
                )
                reads = []
                while not storm.done():
                    reads.append(await frontend.read("V"))
                    await asyncio.sleep(0)
                await storm
                reads.append(await frontend.read("V"))
                return reads

        reads = asyncio.run(scenario())
        final = reads[-1]
        assert sorted(final.rows) == sorted(eve.extent("V").rows)
        assert eve.vkb.current("V").relation_names == ("RM",)
        versions = [read.version for read in reads]
        assert versions == sorted(versions)  # monotone per client
