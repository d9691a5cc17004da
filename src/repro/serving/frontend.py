"""Asyncio frontend over :meth:`~repro.core.eve.EVESystem.snapshot`.

The serving contract, end to end:

* **Reads never block on writers.**  :meth:`ServingFrontend.read` pins
  the extent version current at call time (one refcount increment) and
  then reads the pinned immutable mapping without any shared lock, so
  a running ``apply_changes`` storm on the writer thread cannot stall
  it — the read simply serves the pre-batch version until the batch's
  single atomic commit swap.
* **Writes serialize on one writer thread.**  :meth:`apply_changes`
  and :meth:`apply_updates` run on a dedicated single-thread executor;
  awaiting them yields the event loop to concurrent reads.  The
  underlying scheduler executor (``serial`` / ``workers``) is whatever
  the system's config says — the frontend adds no constraint.
* **Reads are torn-proof.**  A :class:`ServedRead` carries the version
  it was served from; its rows equal that version's committed extent
  byte for byte, never a mixture of two batches.

Constructing the frontend arms the system's MVCC serving mode (takes
and releases one snapshot), which must happen before concurrent
writers start — exactly what creating the frontend first guarantees.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.errors import SynchronizationError

if TYPE_CHECKING:
    from repro.core.eve import EVESystem, SynchronizationResult
    from repro.maintenance.counters import MaintenanceCounters
    from repro.relational.versioning import ExtentSnapshot

__all__ = ["ServedRead", "ServingFrontend"]


@dataclass(frozen=True)
class ServedRead:
    """One served view read: the rows plus the version they came from."""

    view: str
    #: The extent version this read was served from.
    version: int
    #: The view's committed rows at that version, materialized.
    rows: tuple[tuple, ...]

    @property
    def cardinality(self) -> int:
        """Row count of the served extent."""
        return len(self.rows)


class ServingFrontend:
    """Serve snapshot-isolated view reads concurrently with evolution.

    Usage::

        frontend = ServingFrontend(eve)
        async def client():
            read = await frontend.read("V")          # lock-free
        async def operator():
            await frontend.apply_changes(storm)      # writer thread

    Reads run inline on the event loop (they are non-blocking by
    construction); writes run on the frontend's single writer thread so
    one batch commits at a time and ``await`` keeps the loop serving.
    """

    def __init__(self, system: "EVESystem") -> None:
        self._system = system
        # Arm MVCC serving mode before any writer this frontend
        # dispatches can run; from here on every batch publishes an
        # immutable extent version.
        system.snapshot().release()
        self._writer = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="eve-serving-writer"
        )
        self._closed = False

    @property
    def system(self) -> "EVESystem":
        """The served :class:`~repro.core.eve.EVESystem`."""
        return self._system

    @property
    def version(self) -> int:
        """The currently published extent version."""
        return self._system._extents.version

    # -- reads (lock-free after the pin) -------------------------------
    def read_sync(self, view_name: str) -> ServedRead:
        """Read one view at the current version (thread-safe, blocking
        only for the pin's refcount increment — never on writers)."""
        snapshot = self._system.snapshot()
        try:
            relation = snapshot.get(view_name)
            if relation is None:
                raise SynchronizationError(
                    f"view {view_name!r} is not materialized at "
                    f"version {snapshot.version}"
                )
            return ServedRead(
                view_name, snapshot.version, tuple(relation.rows)
            )
        finally:
            snapshot.release()

    async def read(self, view_name: str) -> ServedRead:
        """Async read of one view at the version current at call time."""
        return self.read_sync(view_name)

    def snapshot(self) -> "ExtentSnapshot":
        """A multi-read pin: query several views at one version.

        The caller owns the pin — release it (or use ``with``).
        """
        return self._system.snapshot()

    # -- writes (serialized on the writer thread) ----------------------
    async def apply_changes(self, changes: Iterable) -> (
        "list[SynchronizationResult]"
    ):
        """Run one capability-change batch on the writer thread."""
        batch = list(changes)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._writer, self._system.apply_changes, batch
        )

    async def apply_updates(self, updates: Iterable) -> (
        "MaintenanceCounters"
    ):
        """Run one data-update stream on the writer thread."""
        stream = list(updates)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._writer, self._system.apply_updates, stream
        )

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Drain the writer thread (idempotent; readers keep working)."""
        if not self._closed:
            self._closed = True
            self._writer.shutdown(wait=True)

    async def __aenter__(self) -> "ServingFrontend":
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()
