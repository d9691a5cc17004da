"""Unit tests for the MVCC extent store (repro.relational.versioning).

The storage half of the serving-plane contract: direct mode is a plain
dict with zero overhead, the first snapshot arms serving mode, batches
stage into an overlay and publish one immutable version at commit, and
pinned readers keep their mapping across any number of later publishes.
"""

import pytest

from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.versioning import ExtentStore


def rel(name, rows):
    return Relation(Schema(name, ["A", "B"]), rows)


class TestDirectMode:
    def test_behaves_like_a_dict(self):
        store = ExtentStore()
        store["V"] = rel("V", [(1, 2)])
        assert "V" in store
        assert store["V"].rows == [(1, 2)]
        assert store.get("W") is None
        store.update({"W": rel("W", [(3, 4)])})
        assert len(store) == 2
        assert sorted(store) == ["V", "W"]
        assert store.names() == ("V", "W")
        assert store.pop("W").rows == [(3, 4)]
        assert store.pop("W", "gone") == "gone"
        with pytest.raises(KeyError):
            store["missing"]

    def test_no_version_churn_without_snapshots(self):
        store = ExtentStore()
        with store.batch():
            store["V"] = rel("V", [(1, 2)])
            store.pop("V")
            store["V"] = rel("V", [(5, 6)])
        assert store.version == 0
        assert store.publishes == 0
        assert store.staged_writes == 0
        assert not store.serving

    def test_mutable_returns_the_live_relation(self):
        store = ExtentStore()
        extent = rel("V", [(1, 2)])
        store["V"] = extent
        assert store.mutable("V") is extent  # no copy in direct mode
        assert store.copies == 0
        assert store.mutable("missing") is None


class TestServingMode:
    def test_first_snapshot_arms_serving(self):
        store = ExtentStore()
        store["V"] = rel("V", [(1, 2)])
        snapshot = store.snapshot()
        assert store.serving
        assert snapshot.version == 0
        assert snapshot.extent("V").rows == [(1, 2)]
        snapshot.release()

    def test_batch_commit_publishes_one_version(self):
        store = ExtentStore()
        store["V"] = rel("V", [(1, 2)])
        store.snapshot().release()
        with store.batch():
            store["V"] = rel("V", [(9, 9)])
            store["W"] = rel("W", [(3, 4)])
        assert store.version == 1
        assert store.publishes == 1
        with store.snapshot() as snapshot:
            assert snapshot.version == 1
            assert snapshot.extent("V").rows == [(9, 9)]
            assert snapshot.names() == ("V", "W")

    def test_pinned_reader_never_sees_the_open_batch(self):
        store = ExtentStore()
        store["V"] = rel("V", [(1, 2)])
        store.snapshot().release()
        reader = store.snapshot()
        with store.batch():
            store["V"] = rel("V", [(9, 9)])
            store.pop("V")  # even deletion stays invisible
            # Mid-batch: the pinned mapping is untouched.
            assert reader.extent("V").rows == [(1, 2)]
        # Post-commit: the pin still resolves to its own version.
        assert reader.version == 0
        assert reader.extent("V").rows == [(1, 2)]
        assert store.get("V") is None
        reader.release()

    def test_out_of_batch_write_publishes_immediately(self):
        store = ExtentStore()
        store.snapshot().release()
        store["V"] = rel("V", [(1, 2)])
        assert store.version == 1
        store.pop("V")
        assert store.version == 2
        assert store.snapshot().get("V") is None

    def test_nested_batches_publish_once_at_outermost_exit(self):
        store = ExtentStore()
        store.snapshot().release()
        with store.batch():
            store["V"] = rel("V", [(1, 2)])
            with store.batch():
                store["W"] = rel("W", [(3, 4)])
            assert store.version == 0  # inner exit does not publish
        assert store.version == 1
        assert store.publishes == 1

    def test_empty_batch_publishes_nothing(self):
        store = ExtentStore()
        store["V"] = rel("V", [(1, 2)])
        store.snapshot().release()
        with store.batch():
            pass
        assert store.version == 0
        assert store.publishes == 0

    def test_writer_reads_see_the_overlay(self):
        store = ExtentStore()
        store["V"] = rel("V", [(1, 2)])
        store.snapshot().release()
        with store.batch():
            store["V"] = rel("V", [(9, 9)])
            # The writer's own view includes its staged writes…
            assert store["V"].rows == [(9, 9)]
            store.pop("V")
            assert store.get("V") is None
            assert "V" not in store
            assert store.names() == ()


class TestCopyOnWrite:
    def test_mutable_copies_once_per_batch(self):
        store = ExtentStore()
        live = rel("V", [(1, 2)])
        store["V"] = live
        store.snapshot().release()
        with store.batch():
            staged = store.mutable("V")
            assert staged is not live  # copy-on-write
            assert staged.rows == live.rows
            assert store.mutable("V") is staged  # second touch: no copy
        assert store.copies == 1
        # The published version carries the staged copy; the pinned
        # original Relation was never mutated.
        assert store.snapshot().extent("V") is staged

    def test_untouched_views_share_their_relation_across_versions(self):
        store = ExtentStore()
        untouched = rel("U", [(7, 7)])
        store["U"] = untouched
        store["V"] = rel("V", [(1, 2)])
        store.snapshot().release()
        for generation in range(3):
            with store.batch():
                store["V"] = rel("V", [(generation, generation)])
        assert store.copies == 0  # fresh assignment, not COW
        # Byte-for-byte sharing: the same object, three versions later.
        assert store.snapshot().extent("U") is untouched

    def test_mutable_of_staged_deletion_is_none(self):
        store = ExtentStore()
        store["V"] = rel("V", [(1, 2)])
        store.snapshot().release()
        with store.batch():
            store.pop("V")
            assert store.mutable("V") is None


class TestPins:
    def test_pin_accounting(self):
        store = ExtentStore()
        store["V"] = rel("V", [(1, 2)])
        first = store.snapshot()
        second = store.snapshot()
        assert store.active_pins == 2
        first.release()
        first.release()  # idempotent
        assert store.active_pins == 1
        second.release()
        assert store.active_pins == 0

    def test_pins_span_versions(self):
        store = ExtentStore()
        store["V"] = rel("V", [(1, 2)])
        old = store.snapshot()
        with store.batch():
            store["V"] = rel("V", [(9, 9)])
        new = store.snapshot()
        assert (old.version, new.version) == (0, 1)
        assert store.active_pins == 2
        old.release()
        new.release()

    def test_callbacks_fire_outside_the_lock(self):
        published, released = [], []
        store = ExtentStore(
            on_publish=lambda *args: published.append(args),
            on_release=lambda *args: released.append(args),
        )
        store["V"] = rel("V", [(1, 2)])
        snapshot = store.snapshot()
        with store.batch():
            store["W"] = rel("W", [(3, 4)])
            store["V"] = rel("V", [(5, 6)])
        assert published == [(1, ("V", "W"), 2, 1)]
        snapshot.release()
        assert released == [(0, 0)]


class TestSharedRowIsolation:
    """Copy-on-write shares row tuples, never row lists or indexes."""

    def test_staged_mutations_leave_the_pinned_relation_intact(self):
        store = ExtentStore()
        live = rel("V", [(1, 2), (3, 4), (5, 6)])
        live.index_on(["A"])
        store["V"] = live
        pinned = store.snapshot()
        rows_before = list(live.rows)
        with store.batch():
            staged = store.mutable("V")
            assert staged is not live
            assert all(a is b for a, b in zip(staged.rows, live.rows))
            staged.insert((7, 8))
            assert staged.delete((1, 2))
            staged.index_on(["B"])
            staged.index_on(["A", "B"])
        extent = pinned.extent("V")
        assert extent is live
        assert extent.rows == rows_before
        assert all(a is b for a, b in zip(extent.rows, rows_before))
        assert extent.index_count == 1
        assert list(extent.index_on(["A"]).probe((1,))) == [(1, 2)]
        assert not extent.index_on(["A"]).probe((7,))
        pinned.release()
        with store.snapshot() as fresh:
            assert fresh.extent("V").rows == [(3, 4), (5, 6), (7, 8)]

    def test_staged_delete_with_a_built_locator_leaves_the_pin_intact(self):
        store = ExtentStore()
        live = rel("V", [(1, 2), (3, 4), (1, 2), (5, 6), (9, 9)])
        assert live.delete((9, 9))  # builds the live relation's locator
        live.insert((8, 8))  # leaves a pending tail entry
        live_locator, live_tail = live._locator, live._tail.tolist()
        store["V"] = live
        pinned = store.snapshot()
        rows_before = list(live.rows)
        with store.batch():
            staged = store.mutable("V")
            assert staged.delete((1, 2))
            assert staged._locator is not live._locator
            assert staged._tail is not live._tail
            staged.insert((7, 8))
            assert staged.delete((5, 6))
            assert not staged.delete((9, 9))
        extent = pinned.extent("V")
        assert extent is live
        assert extent.rows == rows_before
        assert extent._locator is live_locator
        assert extent._tail.tolist() == live_tail == [8]
        assert len(live_locator) + len(live_tail) == len(rows_before)
        pinned.release()
        with store.snapshot() as fresh:
            assert fresh.extent("V").rows == [(3, 4), (1, 2), (8, 8), (7, 8)]
