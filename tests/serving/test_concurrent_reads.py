"""Concurrency stress: snapshot reads are never torn, on any executor.

The satellite-3 acceptance property of the serving plane: reader
threads that continuously query views while ``apply_changes`` /
``apply_updates`` storms run on the ``serial`` executor (default and
reference planes) and the ``workers`` executor must only ever observe a
committed version — the
rows of every read equal the serial reference extent at that read's
version, never a mixture of two batches.

The serial reference replays the identical batch sequence and records
the extent of every view after each publish; because both systems
publish exactly one version per batch in the same order, version
numbers align and every concurrent read is checkable row-for-row.
"""

import threading

import pytest

from repro.config import SystemConfig
from repro.core.eve import EVESystem
from repro.misd.statistics import RelationStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.changes import (
    DeleteRelation,
    RenameAttribute,
    RenameRelation,
)

VIEWS = ["V0", "V1", "V2", "V3", "V4"]


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
            f"FROM {relation} (RR = true)"
        )
    return eve


#: One writer storm: alternating update streams and change batches.
#: Each entry publishes exactly one version.
BATCHES = [
    ("updates", [("R0", "insert", (3, 30)), ("R0M", "insert", (3, 30))]),
    ("changes", [RenameAttribute("IS0", "R0", "A", "A2")]),
    ("updates", [("R1", "insert", (4, 40)), ("R1M", "insert", (4, 40))]),
    ("changes", [DeleteRelation("IS0", "R1")]),
    ("changes", [RenameRelation("IS0", "R2", "R2X")]),
    ("updates", [("R2X", "delete", (1, 10)), ("R2M", "delete", (1, 10))]),
]


def run_batch(eve, kind, payload):
    if kind == "updates":
        eve.apply_updates(list(payload))
    else:
        eve.apply_changes(list(payload))


def extents_by_version(eve):
    """{view: sorted rows} for every currently materialized view."""
    with eve.snapshot() as snapshot:
        return {
            name: tuple(sorted(snapshot.extent(name).rows))
            for name in snapshot.names()
        }


def serial_reference():
    """version -> {view: sorted rows} for the whole batch sequence."""
    eve = build_system()
    eve.snapshot().release()  # arm serving so versions align
    reference = {0: extents_by_version(eve)}
    for kind, payload in BATCHES:
        run_batch(eve, kind, payload)
        reference[eve._extents.version] = extents_by_version(eve)
    assert sorted(reference) == list(range(len(BATCHES) + 1))
    return reference, [
        (record.name, record.alive, record.generations, record.current)
        for record in eve.vkb
    ]


def storm_with_readers(config, reader_count=3):
    """Run the batch sequence under ``config`` with live readers."""
    eve = build_system(config)
    eve.snapshot().release()
    stop = threading.Event()
    observations = [[] for _ in range(reader_count)]
    errors = []

    def reader(slot):
        try:
            while not stop.is_set():
                with eve.snapshot() as snapshot:
                    for name in snapshot.names():
                        rows = tuple(sorted(snapshot.extent(name).rows))
                        observations[slot].append(
                            (snapshot.version, name, rows)
                        )
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [
        threading.Thread(target=reader, args=(slot,), daemon=True)
        for slot in range(reader_count)
    ]
    for thread in threads:
        thread.start()
    try:
        for kind, payload in BATCHES:
            run_batch(eve, kind, payload)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        eve.close()
    assert not errors, errors
    fingerprint = [
        (record.name, record.alive, record.generations, record.current)
        for record in eve.vkb
    ]
    return observations, fingerprint


EXECUTORS = [
    pytest.param(None, id="serial"),
    pytest.param(SystemConfig.reference(), id="reference"),
    pytest.param(SystemConfig.sharded(2), id="workers"),
]


@pytest.mark.parametrize("config", EXECUTORS)
def test_reads_are_never_torn(config):
    reference, serial_vkb = serial_reference()
    observations, vkb = storm_with_readers(config)

    # Committed outcomes match the serial reference exactly.
    assert vkb == serial_vkb

    total = 0
    for slot, reads in enumerate(observations):
        versions = [version for version, _, _ in reads]
        # Monotone versions per reader: a client never travels back.
        assert versions == sorted(versions), f"reader {slot} went back"
        for version, name, rows in reads:
            total += 1
            expected = reference[version]
            # The read names a committed version and equals that
            # version's serial extent byte for byte — pre-batch or
            # post-batch, never a mixture.
            assert version in reference, (slot, version)
            assert name in expected, (slot, version, name)
            assert rows == expected[name], (
                f"reader {slot} tore view {name} at version {version}"
            )
    assert total > 0, "readers never observed anything"
