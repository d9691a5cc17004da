"""The system's event/observer bus: typed notifications, one surface.

Before this module, observers of the system's behaviour had to poke at
ad-hoc result state — ``EVESystem.last_schedule``, manual
``MaintenanceCounters`` snapshots, the synchronization log.  The bus
replaces those pokes with push notifications:
``EVESystem.subscribe(event_type, handler)`` registers a callable that
receives every event of that type, carrying the same payload objects
the system already produces (:class:`~repro.sync.pipeline.StageCounters`,
:class:`~repro.sync.scheduler.ScheduleReport`,
:class:`~repro.maintenance.counters.MaintenanceCounters`).

Six event types cover the operator-visible lifecycle:

* :class:`ViewSynchronized` — a view's rewriting search committed (or
  marked the view undefined); carries the full
  :class:`~repro.core.eve.SynchronizationResult`.
* :class:`BatchScheduled` — one scheduled sub-batch of
  ``apply_changes`` completed; carries its
  :class:`~repro.sync.scheduler.ScheduleReport`.
* :class:`ViewMaintained` — a materialized extent absorbed a data
  update (or a batched flush of updates); carries the per-call
  :class:`~repro.maintenance.counters.MaintenanceCounters` diff.
* :class:`DegradedToFirstLegal` — a scheduler budget demoted a view's
  search to the old-EVE first-legal policy.
* :class:`SynchronizationDeferred` — a scheduler budget parked a view
  (resumable via ``EVESystem.resume_deferred``).
* :class:`CacheInvalidated` — the shared assessment cache was flushed
  (capability change or relation registration).

Two more cover the persistent-worker pool's lifecycle:

* :class:`ShardRebalanced` — the sharded worker pool (re)built its VKB
  partition (first dispatch, or drift detected in the parent VKB/MKB).
* :class:`WorkerRecycled` — a shard's worker process was torn down
  (crash mid-group, or pool shutdown) and will be respawned on the next
  dispatch.

And two cover the online serving plane's version/pin accounting:

* :class:`SnapshotPublished` — a batch commit swapped in a new extent
  version (MVCC publish; see :mod:`repro.relational.versioning`).
* :class:`SnapshotReleased` — a reader released its pin on a version.

Delivery contract: handlers run synchronously on the thread that
produced the event — under a serving frontend that may be its writer
thread.  Worker processes of the ``workers`` executor never emit: the
parent emits once when it adopts their results.
Handlers must not raise; an exception propagates to the emitting call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # imported lazily to avoid package cycles
    from repro.core.eve import SynchronizationResult
    from repro.maintenance.counters import MaintenanceCounters
    from repro.space.changes import SchemaChange
    from repro.sync.pipeline import StageCounters
    from repro.sync.scheduler import DeferredSynchronization, ScheduleReport

__all__ = [
    "BatchScheduled",
    "CacheInvalidated",
    "DegradedToFirstLegal",
    "EventBus",
    "ShardRebalanced",
    "SnapshotPublished",
    "SnapshotReleased",
    "SynchronizationDeferred",
    "SystemEvent",
    "ViewMaintained",
    "ViewSynchronized",
    "WorkerRecycled",
]


# ----------------------------------------------------------------------
# Event types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SystemEvent:
    """Base class of every bus event (subscribe to it for a firehose)."""


@dataclass(frozen=True)
class ViewSynchronized(SystemEvent):
    """One view's rewriting search committed its outcome."""

    view_name: str
    change: "SchemaChange"
    #: Full search outcome: evaluations, chosen winner, stage counters.
    result: "SynchronizationResult"

    @property
    def survived(self) -> bool:
        """Whether the search committed a rewriting (vs. undefined)."""
        return self.result.chosen is not None

    @property
    def counters(self) -> "StageCounters | None":
        """The search's per-stage pipeline accounting, if recorded."""
        return self.result.counters


@dataclass(frozen=True)
class BatchScheduled(SystemEvent):
    """One scheduled sub-batch of ``apply_changes`` completed."""

    #: Full per-batch accounting (executor, timings, deferrals, ...).
    report: "ScheduleReport"


@dataclass(frozen=True)
class ViewMaintained(SystemEvent):
    """A materialized extent absorbed one flush of data updates."""

    view_name: str
    #: Relations the flushed updates targeted, in first-seen order.
    relations: tuple[str, ...]
    #: Number of data updates in the flush (1 on the per-update path).
    updates: int
    #: Modeled CF_M / CF_T / CF_IO charged by this flush.
    counters: "MaintenanceCounters"


@dataclass(frozen=True)
class DegradedToFirstLegal(SystemEvent):
    """A scheduler budget demoted a view to the first-legal policy."""

    view_name: str
    budget: float | None = None
    budget_units: float | None = None


@dataclass(frozen=True)
class SynchronizationDeferred(SystemEvent):
    """A scheduler budget parked a view past the deadline."""

    record: "DeferredSynchronization"

    @property
    def view_name(self) -> str:
        """The parked view (replayable via ``resume_deferred``)."""
        return self.record.view_name


@dataclass(frozen=True)
class CacheInvalidated(SystemEvent):
    """The shared assessment cache was flushed."""

    reason: str


@dataclass(frozen=True)
class ShardRebalanced(SystemEvent):
    """The persistent-worker pool (re)built its VKB partition."""

    #: Number of shards in the new partition.
    shards: int
    #: Alive views distributed across the partition.
    views: int
    #: Why the partition was (re)built: "bootstrap" on first dispatch,
    #: "drift" when the parent VKB changed out-of-band, "mkb-drift"
    #: when constraints were added to the parent MKB out-of-band,
    #: "recycle" after a worker crash forced a pool teardown.
    reason: str


@dataclass(frozen=True)
class SnapshotPublished(SystemEvent):
    """A batch commit published a new extent version (MVCC swap)."""

    #: The monotone version number just published.
    version: int
    #: Views whose extents this publish staged (created, replaced, or
    #: dropped), sorted.
    touched: tuple[str, ...]
    #: Total views materialized in the published version.
    views: int
    #: Snapshot pins live across all versions at publish time.
    pins: int


@dataclass(frozen=True)
class SnapshotReleased(SystemEvent):
    """A reader released its pin on one extent version."""

    #: The version whose pin was dropped.
    version: int
    #: Pins still live on that version after the release.
    remaining: int


@dataclass(frozen=True)
class WorkerRecycled(SystemEvent):
    """One shard's worker process was torn down for respawning."""

    shard: int
    #: OS pid of the recycled worker process (None if it never spawned).
    pid: int | None
    #: Why the worker was recycled ("crash", "shutdown", ...).
    reason: str


_EVENT_TYPES = {
    cls.__name__: cls
    for cls in (
        SystemEvent,
        ViewSynchronized,
        BatchScheduled,
        ViewMaintained,
        DegradedToFirstLegal,
        SynchronizationDeferred,
        CacheInvalidated,
        ShardRebalanced,
        SnapshotPublished,
        SnapshotReleased,
        WorkerRecycled,
    )
}


# ----------------------------------------------------------------------
# The bus
# ----------------------------------------------------------------------
@dataclass
class EventBus:
    """Synchronous publish/subscribe over the typed events above.

    Emission is cheap when nobody listens (one dict lookup), so the hot
    paths guard event *construction* with :meth:`wants` and skip even
    building the payload for an unobserved type.
    """

    _handlers: dict[type[SystemEvent], list[Callable[[Any], None]]] = field(
        default_factory=dict
    )

    @staticmethod
    def _resolve(event_type: type[SystemEvent] | str) -> type[SystemEvent]:
        if isinstance(event_type, str):
            try:
                return _EVENT_TYPES[event_type]
            except KeyError:
                raise ConfigurationError(
                    f"unknown event type {event_type!r}; expected one of "
                    f"{', '.join(sorted(_EVENT_TYPES))}"
                ) from None
        if isinstance(event_type, type) and issubclass(
            event_type, SystemEvent
        ):
            return event_type
        raise ConfigurationError(
            f"cannot subscribe to {event_type!r}; expected a SystemEvent "
            f"subclass or its name"
        )

    def subscribe(
        self,
        event_type: type[SystemEvent] | str,
        handler: Callable[[Any], None],
    ) -> Callable[[Any], None]:
        """Register ``handler`` for every event of ``event_type``.

        ``event_type`` is an event class (or its name); subscribing to
        :class:`SystemEvent` receives every event.  Returns ``handler``
        so the call can be used as a decorator.
        """
        resolved = self._resolve(event_type)
        self._handlers.setdefault(resolved, []).append(handler)
        return handler

    def unsubscribe(
        self,
        event_type: type[SystemEvent] | str,
        handler: Callable[[Any], None],
    ) -> None:
        """Remove one prior subscription (no-op if absent)."""
        resolved = self._resolve(event_type)
        handlers = self._handlers.get(resolved, [])
        if handler in handlers:
            handlers.remove(handler)

    def wants(self, event_type: type[SystemEvent]) -> bool:
        """Whether any handler would receive an event of this type."""
        if self._handlers.get(SystemEvent):
            return True
        return bool(self._handlers.get(event_type))

    def emit(self, event: SystemEvent) -> None:
        """Deliver ``event`` to its type's handlers, then the firehose."""
        for handler in self._handlers.get(type(event), ()):
            handler(event)
        if type(event) is not SystemEvent:
            for handler in self._handlers.get(SystemEvent, ()):
                handler(event)
