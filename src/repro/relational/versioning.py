"""MVCC extent versions: immutable snapshots over mutable storage.

The serving plane's storage contract, next to the index and column-store
lifecycles: an :class:`ExtentStore` holds every materialized view extent
and publishes them as *versions* — immutable ``{view name: Relation}``
mappings replaced wholesale at batch commit points.  Readers pin the
version current at query start (:meth:`ExtentStore.snapshot`) and read
it lock-free; writers stage into a private overlay and publish one new
version per batch, so a reader never observes a half-applied storm.

Two modes, switched by the first :meth:`ExtentStore.snapshot` call:

* **Direct** (the default): no snapshot has ever been taken.  Every
  write lands in the live mapping in place, exactly like the plain dict
  this store replaced — zero copies, zero version churn, zero overhead
  for the library-call workflows that never serve reads.
* **Serving**: once a snapshot exists, published mappings and the
  Relation objects inside them are frozen.  Writes inside a batch
  bracket (:meth:`batch`) stage into an overlay; in-place maintenance
  asks :meth:`mutable` for a staged copy-on-write Relation (at most one
  copy per touched view per batch — untouched views share their
  Relation object across versions, byte for byte).  Commit builds the
  next mapping from ``current + overlay`` and swaps the reference under
  the store lock; pinned readers keep whichever mapping they pinned.

The read path holds no shared lock after the pin: a pin is one lock
acquisition to increment a refcount, and every subsequent
:meth:`ExtentSnapshot.extent` call is a plain dict lookup against an
immutable mapping.

Thread safety: all store mutations take the internal lock.  Nothing
forks the store: the ``workers`` executor spawns its processes and ships
them plain extents, never the store itself.

The store keeps the mutating half of the mapping API (``get`` /
``pop`` / ``update`` / item access) so the synchronization machinery —
including worker-pool bootstrap, which reads extents per shard — works
unchanged against it.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator, Mapping
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.relational.relation import Relation

__all__ = ["ExtentSnapshot", "ExtentStore"]


_SENTINEL = object()


class ExtentSnapshot:
    """One pinned extent version: an immutable read-only view handle.

    Obtained from :meth:`ExtentStore.snapshot` (or
    :meth:`~repro.core.eve.EVESystem.snapshot`).  Reads are plain
    lookups against the pinned mapping — no lock, no copy — and stay
    valid for the snapshot's lifetime regardless of concurrent batches.
    Release the pin with :meth:`release` (or use the handle as a
    context manager); reads after release still resolve (the mapping is
    immutable) but the version is no longer accounted as pinned.
    """

    __slots__ = ("version", "_mapping", "_store", "_released")

    def __init__(
        self,
        version: int,
        mapping: "Mapping[str, Relation]",
        store: "ExtentStore",
    ) -> None:
        #: The monotone version number this snapshot pinned.
        self.version = version
        self._mapping = mapping
        self._store = store
        self._released = False

    # -- reads (lock-free) ---------------------------------------------
    def extent(self, view_name: str) -> "Relation":
        """The pinned extent of ``view_name`` (KeyError if absent)."""
        return self._mapping[view_name]

    def get(self, view_name: str) -> "Relation | None":
        """The pinned extent, or None if not materialized here."""
        return self._mapping.get(view_name)

    def names(self) -> tuple[str, ...]:
        """Every view materialized in this version, sorted."""
        return tuple(sorted(self._mapping))

    def __contains__(self, view_name: str) -> bool:
        return view_name in self._mapping

    def __len__(self) -> int:
        return len(self._mapping)

    # -- lifecycle ------------------------------------------------------
    @property
    def released(self) -> bool:
        """Whether :meth:`release` has run (idempotent)."""
        return self._released

    def release(self) -> None:
        """Drop this snapshot's pin (idempotent)."""
        if not self._released:
            self._released = True
            self._store._unpin(self.version)

    def __enter__(self) -> "ExtentSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        state = "released" if self._released else "pinned"
        return (
            f"ExtentSnapshot(version={self.version}, "
            f"views={len(self._mapping)}, {state})"
        )


class ExtentStore:
    """Versioned store of materialized view extents (see module doc).

    ``on_publish(version, touched, views, pins)`` and
    ``on_release(version, remaining)`` are optional callbacks the owner
    uses to surface :class:`~repro.events.SnapshotPublished` /
    :class:`~repro.events.SnapshotReleased` events; they run outside
    the store lock.
    """

    def __init__(
        self,
        on_publish: Callable[[int, tuple[str, ...], int, int], None]
        | None = None,
        on_release: Callable[[int, int], None] | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._current: dict[str, "Relation"] = {}
        #: Overlay of the open batch (serving mode only); a value of
        #: None stages a deletion.
        self._overlay: dict[str, "Relation | None"] = {}
        self._batch_depth = 0
        self._serving = False
        #: Monotone version counter; 0 until the first serving publish.
        self.version = 0
        #: Cumulative accounting (diffed per call for reports).
        self.publishes = 0
        self.staged_writes = 0
        self.copies = 0
        #: version -> live pin count.
        self._pins: dict[int, int] = {}
        self.on_publish = on_publish
        self.on_release = on_release

    # -- mapping API (writer-side: overlay over current) ---------------
    def get(self, view_name: str, default=None):
        """The latest extent as the writer sees it (overlay included)."""
        if not self._serving:
            # Direct mode: single dict ops are GIL-atomic; skipping the
            # lock keeps the store free for never-serving workloads.
            return self._current.get(view_name, default)
        with self._lock:
            if view_name in self._overlay:
                staged = self._overlay[view_name]
                return default if staged is None else staged
            return self._current.get(view_name, default)

    def __getitem__(self, view_name: str) -> "Relation":
        found = self.get(view_name, _SENTINEL)
        if found is _SENTINEL:
            raise KeyError(view_name)
        return found

    def __contains__(self, view_name: str) -> bool:
        return self.get(view_name, _SENTINEL) is not _SENTINEL

    def __len__(self) -> int:
        with self._lock:
            return len(self._merged())

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._merged()))

    def names(self) -> tuple[str, ...]:
        """Every materialized view name, sorted (overlay included)."""
        with self._lock:
            return tuple(sorted(self._merged()))

    def _merged(self) -> dict[str, "Relation"]:
        if not self._overlay:
            return self._current
        merged = dict(self._current)
        for name, staged in self._overlay.items():
            if staged is None:
                merged.pop(name, None)
            else:
                merged[name] = staged
        return merged

    def __setitem__(self, view_name: str, extent: "Relation") -> None:
        if not self._serving:
            self._current[view_name] = extent
            return
        with self._lock:
            self._overlay[view_name] = extent
            self.staged_writes += 1
            publish = self._batch_depth == 0
        if publish:
            # Out-of-batch serving write (define_view/refresh outside a
            # batch): publish a one-write version immediately.
            self._publish()

    def pop(self, view_name: str, default=None):
        """Remove ``view_name``; returns the removed extent or default."""
        if not self._serving:
            return self._current.pop(view_name, default)
        publish = False
        with self._lock:
            staged = self._overlay.get(view_name, _SENTINEL)
            if staged is None:
                return default
            removed = (
                staged
                if staged is not _SENTINEL
                else self._current.get(view_name, _SENTINEL)
            )
            if removed is _SENTINEL:
                return default
            self._overlay[view_name] = None
            self.staged_writes += 1
            publish = self._batch_depth == 0
        if publish:
            self._publish()
        return removed

    def update(self, mapping: "Mapping[str, Relation]") -> None:
        """Bulk-adopt extents (worker-child bootstrap path)."""
        if not self._serving:
            self._current.update(mapping)
            return
        with self._lock:
            self._overlay.update(mapping)
            self.staged_writes += len(mapping)
            publish = self._batch_depth == 0 and bool(mapping)
        if publish:
            self._publish()

    def mutable(self, view_name: str) -> "Relation | None":
        """The extent as an in-place-mutation target, or None.

        Direct mode returns the live Relation.  Serving mode returns
        the batch's staged copy, creating it on first touch — the one
        copy a maintained view pays per batch; repeat calls inside the
        same batch return the same staged object, and views the batch
        never touches are never copied.
        """
        if not self._serving:
            return self._current.get(view_name)
        with self._lock:
            staged = self._overlay.get(view_name, _SENTINEL)
            if staged is None:
                return None
            if staged is _SENTINEL:
                live = self._current.get(view_name)
                if live is None:
                    return None
                staged = live.copy()
                self._overlay[view_name] = staged
                self.staged_writes += 1
                self.copies += 1
            return staged

    # -- batch bracket --------------------------------------------------
    def batch(self) -> "_BatchBracket":
        """Context manager bracketing one atomic multi-view commit."""
        return _BatchBracket(self)

    def _begin_batch(self) -> None:
        with self._lock:
            self._batch_depth += 1

    def _commit_batch(self) -> None:
        with self._lock:
            self._batch_depth -= 1
            publish = (
                self._batch_depth == 0
                and self._serving
                and bool(self._overlay)
            )
        if publish:
            self._publish()

    def _publish(self) -> None:
        """Swap in ``current + overlay`` as the next pinned version."""
        with self._lock:
            if not self._overlay:
                return
            touched = tuple(sorted(self._overlay))
            self._current = self._merged()
            self._overlay = {}
            self.version += 1
            self.publishes += 1
            version = self.version
            views = len(self._current)
            pins = sum(self._pins.values())
        if self.on_publish is not None:
            self.on_publish(version, touched, views, pins)

    # -- snapshots ------------------------------------------------------
    @property
    def serving(self) -> bool:
        """Whether serving mode is armed (any snapshot ever taken)."""
        return self._serving

    @property
    def active_pins(self) -> int:
        """Total live snapshot pins across all versions."""
        with self._lock:
            return sum(self._pins.values())

    def snapshot(self) -> ExtentSnapshot:
        """Pin the current version for lock-free reads.

        The first call arms serving mode: from here on, published
        mappings are immutable and every batch commit produces a new
        version.  Take the first snapshot before starting concurrent
        writers — arming mid-batch cannot retroactively freeze
        Relations the open batch already mutated in place.
        """
        with self._lock:
            self._serving = True
            version = self.version
            mapping = self._current
            self._pins[version] = self._pins.get(version, 0) + 1
        return ExtentSnapshot(version, mapping, self)

    def _unpin(self, version: int) -> None:
        with self._lock:
            remaining = self._pins.get(version, 0) - 1
            if remaining > 0:
                self._pins[version] = remaining
            else:
                self._pins.pop(version, None)
                remaining = 0
        if self.on_release is not None:
            self.on_release(version, remaining)


class _BatchBracket:
    """``with store.batch():`` — publish once at the outermost exit."""

    __slots__ = ("_store",)

    def __init__(self, store: ExtentStore) -> None:
        self._store = store

    def __enter__(self) -> ExtentStore:
        self._store._begin_batch()
        return self._store

    def __exit__(self, *exc_info) -> None:
        # Publish even on error: committed searches already landed in
        # the VKB and sync log, so holding their extents back would
        # desynchronize readers from the journal (the sequential
        # reference could never produce that state either).
        self._store._commit_batch()
