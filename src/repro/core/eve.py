"""The EVE system facade: the top of Fig. 1, wired end to end.

:class:`EVESystem` owns the information space, the MKB, the VKB, the view
synchronizer, the QC-Model evaluator, and the maintenance simulator, and
exposes the workflow a warehouse operator walks through:

1. register sources, relations, constraints, statistics;
2. define E-SQL views (optionally materializing them);
3. feed data updates — materialized views are maintained incrementally
   (batched streams go through :meth:`EVESystem.apply_updates`, which
   groups updates per view and streams each group through the
   maintainer's compiled tuple pipeline);
4. feed capability changes — affected views are synchronized through the
   streaming rewriting-search pipeline
   (:class:`~repro.sync.pipeline.RewritingSearchPipeline`): candidate
   rewritings stream out of pluggable generators, are legality-filtered
   and deduplicated in-flight, and ranked with upper-bound pruning; the
   best legal rewriting is committed (the paper's headline improvement
   over the first EVE prototype, which "simply picked the first legal
   view rewriting it discovered" — that behaviour survives as the
   ``first_legal`` search policy).

Dispatch is *indexed*: the VKB maintains a relation → views inverted
index, so a capability change or data update touches only the views that
actually reference the changed relation.  Batches of changes go through
:meth:`EVESystem.apply_changes`, which applies the whole batch to the
space first and then visits each affected view once — replaying only the
changes relevant to it and rematerializing its extent a single time.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.config import SystemConfig
from repro.errors import (
    EvaluationError,
    SynchronizationError,
    UnknownRelationError,
)
from repro.esql import explain as explain_plans
from repro.esql.ast import ViewDefinition, coalesce_fingerprint
from repro.esql.evaluator import evaluate_view
from repro.esql.parser import parse_view
from repro.esql.validate import ViewValidator
from repro.events import (
    BatchScheduled,
    CacheInvalidated,
    DegradedToFirstLegal,
    EventBus,
    SnapshotPublished,
    SnapshotReleased,
    SynchronizationDeferred,
    ViewMaintained,
    ViewSynchronized,
)
from repro.misd.statistics import RelationStatistics
from repro.qc.assessment_cache import AssessmentCache
from repro.qc.model import Evaluation, QCModel
from repro.qc.params import TradeoffParameters
from repro.qc.workload import WorkloadSpec
from repro.relational.columnar import KernelCounters
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.versioning import ExtentSnapshot, ExtentStore
from repro.report import (
    PLAN_CAPTURE_LIMIT,
    EvaluationPlanCapture,
    MaintenanceFlush,
    MaintenancePlanCapture,
    SystemReport,
)
from repro.space.changes import (
    DeleteRelation,
    RenameRelation,
    SchemaChange,
)
from repro.space.source import clause_decidable
from repro.space.space import InformationSpace, placement_maps
from repro.space.updates import DataUpdate, UpdateKind
from repro.sync.legality import check_legality
from repro.sync.pipeline import (
    RewritingSearchPipeline,
    SearchPolicy,
    StageCounters,
)
from repro.sync.rewriting import Rewriting
from repro.sync.scheduler import (
    BatchWorkPlan,
    DeferredSynchronization,
    ScheduleReport,
    SynchronizationScheduler,
    UnitBudgetMeter,
    ViewWorkItem,
    build_work_plan,
    rebind_results,
)
from repro.sync.synchronizer import ViewSynchronizer
from repro.sync.vkb import ViewKnowledgeBase, ViewRecord
from repro.maintenance.counters import MaintenanceCounters
from repro.maintenance.simulator import ViewMaintainer


@dataclass
class SynchronizationResult:
    """Outcome of synchronizing one view under one capability change.

    A coalesced follower's result
    (:func:`~repro.sync.scheduler.rebind_results`) holds only its
    chosen evaluation until ``evaluations`` is first read; that read
    renders the list from its leader's and caches it.  Every other
    reader — equality, ``repr``, :meth:`ranking`, pickling — sees the
    same list a direct search would have produced.
    """

    view_name: str
    change: SchemaChange
    evaluations: list[Evaluation]
    chosen: Evaluation | None
    #: Per-stage pipeline accounting (generated / filtered / pruned /
    #: assessed); None only for results predating the pipeline.
    counters: StageCounters | None = None
    #: The search policy that produced this result.
    policy: SearchPolicy | None = None

    @property
    def survived(self) -> bool:
        """Whether a legal rewriting was committed for the view."""
        return self.chosen is not None

    def ranking(self) -> list[str]:
        """Candidate names in QC-rank order (winner first)."""
        return [e.name for e in self.evaluations]

    @classmethod
    def on_read(
        cls, view_name, change, render, chosen, counters, policy
    ) -> "SynchronizationResult":
        """A result whose ``evaluations`` are ``render(chosen)``, called
        on the first read."""
        result = cls(view_name, change, [], chosen, counters, policy)
        del result.evaluations
        result._render_evaluations = render
        return result

    def __getattr__(self, name: str):
        # Reached only for attributes the instance lacks: the unread
        # ``evaluations`` of an :meth:`on_read` result.
        state = self.__dict__
        if name == "evaluations":
            render = state.get("_render_evaluations")
            if render is not None:
                state.setdefault(name, render(self.chosen))
                state.pop("_render_evaluations", None)
            if name in state:
                return state[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )


class _PendingMaintenance:
    """One view's unflushed update run inside :meth:`EVESystem.apply_updates`.

    Carries the updates in stream order, the relations present in order
    of first appearance (the O(1) fast path of the join-graph boundary
    test), and the cardinality overlays a deferred flush must price
    modeled I/O against.  Overlays are captured *only at skip events*:
    between two boundary events none of a pending update's priced
    relations can change (any update to a relation the view references
    is itself a boundary), so every update enqueued before a skip shares
    the catalog state captured at that skip, and updates after the last
    skip price the live catalog.  The common single-relation storm
    therefore allocates nothing per update.
    """

    __slots__ = ("updates", "relations", "closed")

    def __init__(self) -> None:
        self.updates: list[DataUpdate] = []
        self.relations: dict[str, None] = {}
        #: (end_index, sizes): updates[:end_index] not covered by an
        #: earlier entry price against ``sizes``; past the last entry,
        #: against the live catalog.
        self.closed: list[tuple[int, dict[str, int]]] = []

    def extend(self, updates: list[DataUpdate]) -> None:
        """Queue a landed same-relation run for the next flush of this
        view."""
        self.updates.extend(updates)
        self.relations[updates[0].relation] = None

    def foreign(self, relation: str) -> bool:
        """Whether updates at a relation other than ``relation`` are
        queued."""
        return len(self.relations) > 1 or relation not in self.relations

    def mark_boundary(self, sizes: dict[str, int]) -> None:
        """A skipped foreign update is about to change the catalog:
        freeze the pricing state for every update enqueued so far."""
        end = len(self.updates)
        if end and (not self.closed or self.closed[-1][0] != end):
            self.closed.append((end, sizes))

    def overlays(self) -> list[dict[str, int] | None] | None:
        """Per-update ``relation_sizes`` for the flush (None = live)."""
        if not self.closed:
            return None
        result: list[dict[str, int] | None] = []
        boundary = 0
        for end, sizes in self.closed:
            result.extend([sizes] * (end - boundary))
            boundary = end
        result.extend([None] * (len(self.updates) - boundary))
        return result


class EVESystem:
    """End-to-end Evolvable View Environment over a simulated space.

    ``config`` (a :class:`~repro.config.SystemConfig`) is the one entry
    point for every behavioural knob: evaluation engine, search policy
    and generator chain, batch scheduling, and delta representation.

    Observers subscribe to the system's typed event bus
    (:meth:`subscribe`); each :meth:`apply_changes` /
    :meth:`apply_updates` call additionally aggregates its event
    payloads into a serializable :class:`~repro.report.SystemReport`
    exposed as :attr:`last_report`.

    Concurrent readers use the online serving plane: :meth:`snapshot`
    pins the current extent version for lock-free reads while batches
    keep committing (see :mod:`repro.relational.versioning` and
    :mod:`repro.serving`).
    """

    def __init__(
        self,
        params: TradeoffParameters | None = None,
        space: InformationSpace | None = None,
        auto_synchronize: bool = True,
        config: SystemConfig | None = None,
    ) -> None:
        #: The resolved system profile; every subsystem below is built
        #: from its slice.
        self.config = config if config is not None else SystemConfig()
        self.space = space if space is not None else InformationSpace()
        self.params = params if params is not None else TradeoffParameters()
        self.auto_synchronize = auto_synchronize
        #: Typed event bus; see :meth:`subscribe`.
        self.events = EventBus()
        #: Batch executor built from ``config.schedule``: the default
        #: (serial, cost-ordered, no budget) reproduces the sequential
        #: reference exactly.
        self.scheduler = SynchronizationScheduler(self.config.schedule)
        #: ScheduleReports of the most recent :meth:`apply_changes`
        #: call, one per chain-free sub-batch.
        self.last_schedule: tuple[ScheduleReport, ...] = ()
        #: SystemReport of the most recent :meth:`apply_changes` or
        #: :meth:`apply_updates` call (None before the first call).
        self.last_report: SystemReport | None = None
        #: Column-kernel rows scanned vs selected across evaluation call
        #: sites (define/refresh/rematerialize); non-zero only when the
        #: engine runs the columnar plane.
        self.kernel_counters = KernelCounters()
        # Guards VKB commits and extent bookkeeping: a serving
        # frontend's writer thread commits beside the caller's thread.
        self._commit_lock = threading.Lock()
        #: Crash-consistency journal: inside apply_changes, every
        #: committed result is appended here the moment it lands so an
        #: executor exception cannot desynchronize VKB and sync log.
        self._batch_journal: list[SynchronizationResult] | None = None
        self.vkb = ViewKnowledgeBase()
        #: The system's assessment memo.  Neither the rewriting search
        #: nor :meth:`rank_rewritings` consults it: each search assesses
        #: candidates no earlier search produced, and no caller re-ranks
        #: one candidate set on one system, so it would never hit.
        #: Still invalidated (and ``CacheInvalidated`` still emitted) on
        #: every capability change and relation registration.
        self.assessment_cache = AssessmentCache()
        self.synchronizer = ViewSynchronizer(
            self.space.mkb,
            generators=self.config.search.build_generators(),
        )
        self.qc_model = QCModel(self.space.mkb, self.params)
        self.pipeline = RewritingSearchPipeline(
            self.synchronizer, self.qc_model, config=self.config.search
        )
        self.maintainer = ViewMaintainer(
            self.space, config=self.config.maintenance
        )
        #: True while :meth:`apply_updates` batches maintenance itself;
        #: the per-update listener backs off so updates are not
        #: propagated twice.
        self._defer_maintenance = False
        #: MVCC extent storage: a plain-dict-speed store until the
        #: first :meth:`snapshot` arms serving mode, then versioned
        #: copy-on-write publishing at batch commit points.
        self._extents: ExtentStore = ExtentStore(
            on_publish=self._on_snapshot_published,
            on_release=self._on_snapshot_released,
        )
        self._sync_log: list[SynchronizationResult] = []
        #: Coalesce fingerprint -> (the class's one copy of that key,
        #: the view last materialized with it); see
        #: :meth:`_share_twin_rows`.
        self._twins: dict[str, tuple[str, str]] = {}
        self.space.on_data_update(self._handle_data_update)
        self.space.on_capability_change(self._invalidate_cache)
        self.space.on_capability_change(self._handle_capability_change)

    def _invalidate_cache(self, change: SchemaChange) -> None:
        self.assessment_cache.invalidate()
        if self.events.wants(CacheInvalidated):
            self.events.emit(CacheInvalidated("capability-change"))

    # ------------------------------------------------------------------
    # Online serving plane (MVCC snapshots)
    # ------------------------------------------------------------------
    def _on_snapshot_published(
        self, version: int, touched: tuple[str, ...], views: int, pins: int
    ) -> None:
        if self.events.wants(SnapshotPublished):
            self.events.emit(
                SnapshotPublished(version, touched, views, pins)
            )

    def _on_snapshot_released(self, version: int, remaining: int) -> None:
        if self.events.wants(SnapshotReleased):
            self.events.emit(SnapshotReleased(version, remaining))

    def snapshot(self) -> ExtentSnapshot:
        """Pin the current extent version for lock-free concurrent reads.

        Returns an :class:`~repro.relational.versioning.ExtentSnapshot`
        — a read-only view-query handle over the extents committed as
        of this call.  Reads against it never block on running batches
        and never observe a half-applied storm: each
        :meth:`apply_changes` / :meth:`apply_updates` call publishes
        its extents as one atomic version swap, and the snapshot keeps
        serving the version it pinned.  Release the pin with
        ``snapshot.release()`` (or use it as a context manager).

        The first call arms MVCC serving mode for the system's
        lifetime; take it before starting concurrent writers (the
        :class:`~repro.serving.ServingFrontend` does this on
        construction).  Version/pin traffic is observable through
        :class:`~repro.events.SnapshotPublished` /
        :class:`~repro.events.SnapshotReleased` events and the
        ``serving`` section of :attr:`last_report`.
        """
        return self._extents.snapshot()

    def _serving_marks(self) -> tuple[int, int, int]:
        """Cumulative store counters, for per-call report diffs."""
        store = self._extents
        return (store.publishes, store.staged_writes, store.copies)

    def _serving_section(
        self, marks: tuple[int, int, int]
    ) -> dict[str, object]:
        """The ``serving`` report section for the call since ``marks``."""
        store = self._extents
        return {
            "enabled": store.serving,
            "version": store.version,
            "published": store.publishes - marks[0],
            "staged": store.staged_writes - marks[1],
            "copied": store.copies - marks[2],
            "pins": store.active_pins,
        }

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    @property
    def mkb(self):
        """The space's Meta Knowledge Base (schemas, constraints, stats)."""
        return self.space.mkb

    @property
    def policy(self) -> SearchPolicy:
        """The active rewriting-search policy (from ``config.search``)."""
        return self.pipeline.policy

    def add_source(self, name: str):
        """Register an information source and return its handle."""
        return self.space.add_source(name)

    def register_relation(
        self,
        source: str,
        relation: Relation,
        statistics: RelationStatistics | None = None,
    ) -> Relation:
        """Attach ``relation`` (plus optional statistics) to ``source``.

        Registration changes ownership maps and replacement routes, so
        the shared assessment cache is invalidated first.
        """
        # New relations change ownership maps and replacement routes.
        self.assessment_cache.invalidate()
        if self.events.wants(CacheInvalidated):
            self.events.emit(CacheInvalidated("relation-registered"))
        return self.space.register_relation(source, relation, statistics)

    # ------------------------------------------------------------------
    # Event bus
    # ------------------------------------------------------------------
    def subscribe(self, event_type, handler):
        """Register ``handler`` for every event of ``event_type``.

        ``event_type`` is one of the :mod:`repro.events` classes (or its
        name); subscribing to :class:`~repro.events.SystemEvent` is the
        firehose.  Handlers run synchronously on the emitting thread —
        under a serving frontend that may be its writer thread — and
        must not raise.  Returns ``handler`` (decorator-friendly).
        """
        return self.events.subscribe(event_type, handler)

    def unsubscribe(self, event_type, handler) -> None:
        """Remove one prior :meth:`subscribe` registration."""
        self.events.unsubscribe(event_type, handler)

    def close(self) -> None:
        """Release external resources — currently the scheduler's
        persistent worker pool, when one is running.

        The system stays fully usable afterwards: a later
        ``executor="workers"`` batch simply bootstraps a fresh fleet.
        Only systems configured with the workers executor hold any
        out-of-process state, so for every other profile this is a
        no-op.
        """
        self.scheduler.close()

    # ------------------------------------------------------------------
    # View definition
    # ------------------------------------------------------------------
    def define_view(
        self, view: ViewDefinition | str, materialize: bool = True
    ) -> ViewRecord:
        """Validate, register, and (by default) materialize a view."""
        definition = parse_view(view) if isinstance(view, str) else view
        _, schemas = self._owners_and_schemas(definition)
        resolved = ViewValidator(schemas).resolve_view(definition)
        record = self.vkb.define(resolved)
        if materialize:
            extent = evaluate_view(
                resolved,
                self.space.relation,
                self.space.mkb.statistics,
                config=self.config.engine,
                kernel_counters=self.kernel_counters,
            )
            self._extents[resolved.name] = self._share_twin_rows(
                resolved, extent
            )
        return record

    def _share_twin_rows(
        self, view: ViewDefinition, extent: Relation
    ) -> Relation:
        """``extent``, over the row tuples of its twin's extent when the
        two are equal.

        The twin is the view last materialized with the same
        :func:`~repro.esql.ast.coalesce_fingerprint`, the key the
        scheduler coalesces and the maintainer shares programs on.  Such
        views evaluate to equal rows, so a class of copies keeps one set
        of tuples instead of one per view.  The rows are compared, not
        assumed, so a twin rewritten or maintained since shares its
        tuples only while its rows still equal ``extent``'s.  ``view``
        adopts the class's first rendered key string, so twins hold one
        copy of their key.
        """
        key = coalesce_fingerprint(view)
        key, twin_name = self._twins.get(key, (key, None))
        view._coalesce_key = key
        self._twins[key] = (key, view.name)
        twin = self._extents.get(twin_name) if twin_name is not None else None
        if twin is not None and twin.rows == extent.rows:
            return Relation.from_validated(extent.schema, twin.rows)
        return extent

    def extent(self, view_name: str) -> Relation:
        """The materialized extent of ``view_name``."""
        try:
            return self._extents[view_name]
        except KeyError:
            raise SynchronizationError(
                f"view {view_name!r} is not materialized"
            ) from None

    def refresh(self, view_name: str) -> Relation:
        """Recompute the extent from scratch (full recomputation)."""
        view = self.vkb.current(view_name)
        self._extents[view_name] = evaluate_view(
            view,
            self.space.relation,
            self.space.mkb.statistics,
            config=self.config.engine,
            kernel_counters=self.kernel_counters,
        )
        return self._extents[view_name]

    # ------------------------------------------------------------------
    # Data updates -> incremental maintenance (index-dispatched)
    # ------------------------------------------------------------------
    def _handle_data_update(self, update: DataUpdate) -> None:
        if self._defer_maintenance:
            return
        observed = self.events.wants(ViewMaintained)
        # One version per propagated update: every affected extent's
        # maintenance lands in the same atomic publish.
        with self._extents.batch():
            for record in self.vkb.views_referencing(update.relation):
                extent = self._extents.mutable(record.name)
                if extent is None:
                    continue
                charged = self.maintainer.maintain(
                    record.current, extent, update
                )
                if observed:
                    self.events.emit(
                        ViewMaintained(
                            record.name, (update.relation,), 1, charged
                        )
                    )

    def apply_updates(
        self,
        updates: Iterable[tuple],
    ) -> MaintenanceCounters:
        """Apply a batched data-update stream, maintenance batched per view.

        Each entry is ``(relation, kind, row)`` with ``kind`` an
        :class:`~repro.space.updates.UpdateKind` (or its string value).
        The stream is cut into *runs* of consecutive updates at one
        relation; each run lands on its owning source in one pass
        (:meth:`~repro.space.space.InformationSpace.apply_run`), in
        stream order, and ``on_data_update`` listeners see each of its
        updates once the run has landed.  Instead of propagating each
        update through every referencing view immediately (the
        per-update listener path), updates accumulate per affected
        materialized view and flow through
        :meth:`~repro.maintenance.simulator.ViewMaintainer.maintain_batch`
        — one view resolution and one compiled tuple pipeline per run.

        Outcomes are identical to the sequential per-update protocol.
        A view's pending batch must be flushed before an update lands on
        a *different* relation the view joins — past that boundary the
        pending deltas would join against rows from the future.  The
        boundary test is a *join-graph dependency analysis*, not a
        relation-identity check: the incoming row is evaluated against
        the view's WHERE clauses linking its relation to each pending
        update's relation (plus the incoming relation's local
        selections), and when every pending delta provably cannot join
        the row — a failed equijoin key, a failed local selection — the
        batch keeps growing across the boundary.  A view whose pending
        updates all sit on the run's relation needs no test, so a run
        lands whole unless a view with foreign pending updates is
        waiting; that view gets the test row by row, each row landing
        as a run of one.  Modeled CF_IO prices each update against an
        enqueue-time cardinality snapshot
        (:class:`~repro.maintenance.simulator.ViewMaintainer`'s
        ``relation_sizes`` overlay), so deferred flushes charge exactly
        what the sequential protocol charged even though the catalog
        has since moved on.  Single-relation streams — the common storm
        shape — batch end to end, adversarial interleavings keep
        batching as far as the join graph allows, and only updates that
        can actually reach a pending delta force per-update work; never
        wrong extents, never drifted counters
        (``tests/property/test_delta_parity.py``).

        A failing update (a delete of a missing row, a row of the wrong
        type, a malformed entry) raises the per-update protocol's error
        at its position: the updates before it stay applied, and every
        pending view is still flushed.  A listener that raises stops the
        stream the same way, after its run has landed and been queued,
        so every extent still matches the sources.

        Returns the maintenance counters accumulated by the stream;
        per-flush accounting lands in :attr:`last_report` and on
        :class:`~repro.events.ViewMaintained` events.
        """
        before = self.maintainer.counters.snapshot()
        kernels_before = self.maintainer.kernel_counters.snapshot()
        serving_marks = self._serving_marks()
        pending: dict[str, _PendingMaintenance] = {}
        flushes: list[MaintenanceFlush] = []

        def flush(view_name: str) -> None:
            work = pending.pop(view_name)
            record = self.vkb.record(view_name)
            extent = self._extents.mutable(view_name)
            if not record.alive or extent is None:
                return
            charged = self.maintainer.maintain_batch(
                record.current, extent, work.updates,
                relation_sizes=work.overlays(),
            )
            relations = tuple(work.relations)
            flushes.append(
                MaintenanceFlush(
                    view_name, relations, len(work.updates), charged
                )
            )
            if self.events.wants(ViewMaintained):
                self.events.emit(
                    ViewMaintained(
                        view_name, relations, len(work.updates), charged
                    )
                )

        def land(relation: str, run: list[tuple[bool, tuple]]) -> None:
            """Land one same-relation run, cut before every row that a
            view with foreign pending updates must test first."""
            referencing = self.vkb.views_referencing(relation)
            start, end = 0, len(run)
            while start < end:
                stop = end
                # Flush any view whose pending deltas could actually
                # join against the next row once it lands; a view that
                # safely batches across the boundary instead freezes its
                # pricing state (the landing row changes a cardinality
                # its pending deltas are priced by).
                for record in referencing:
                    work = pending.get(record.name)
                    if work is None or not work.foreign(relation):
                        continue
                    stop = start + 1
                    if self._pending_joins_update(
                        record.current, work, relation, run[start][1]
                    ):
                        flush(record.name)
                    else:
                        work.mark_boundary(
                            {
                                name: self.space.relation(name).cardinality
                                for name in record.current.relation_names
                            }
                        )
                stretch = run if stop - start == end else run[start:stop]
                landed = self.space.apply_run(relation, stretch)
                if landed:
                    for record in referencing:
                        name = record.name
                        if name in self._extents:
                            work = pending.get(name)
                            if work is None:
                                work = pending[name] = _PendingMaintenance()
                            work.extend(landed)
                    # Listeners run only once the run is queued: one that
                    # raises stops the stream, and the final flush still
                    # covers every update that landed.
                    self.space.notify_updates(landed)
                if len(landed) < len(stretch):
                    # The update the run stopped at fails one by one as
                    # well, raising the per-update protocol's error.
                    insert, row = stretch[len(landed)]
                    if insert:
                        self.space.insert(relation, row)
                    else:
                        self.space.delete(relation, row)
                start = stop

        was_deferred = self._defer_maintenance
        self._defer_maintenance = True
        # The whole stream commits as one atomic extent version: a
        # concurrent snapshot reader sees every flush or none.
        self._extents._begin_batch()
        run_relation = ""
        run: list[tuple[bool, tuple]] = []
        try:
            try:
                for relation, kind, row in updates:
                    if relation != run_relation:
                        if run:
                            landing, run = run, []
                            land(run_relation, landing)
                        run_relation = relation
                    if isinstance(kind, str):
                        kind = UpdateKind(kind)
                    run.append((kind is UpdateKind.INSERT, tuple(row)))
            finally:
                # The last run lands here, and so do the updates read
                # before a malformed entry, as they would one at a time.
                if run:
                    land(run_relation, run)
        finally:
            # Pending batches cover updates that already landed on the
            # sources, so they are flushed even when the stream fails
            # mid-way (an invalid delete, say) — otherwise every extent
            # with pending work would be left permanently stale, which
            # the sequential per-update protocol could never produce.
            # Every view gets its flush even when one of them fails;
            # the first flush error surfaces after the rest completed.
            try:
                flush_error: BaseException | None = None
                for view_name in list(pending):
                    try:
                        flush(view_name)
                    except BaseException as error:  # noqa: BLE001 - first error re-raised below
                        if flush_error is None:
                            flush_error = error
                if flush_error is not None:
                    raise flush_error
            finally:
                self._defer_maintenance = was_deferred
                # Publish the stream's staged extents before the report
                # reads the post-call version number.
                self._extents._commit_batch()
                charged = self.maintainer.counters.diff(before)
                plans, plans_total = self._maintenance_plan_captures(
                    flushes
                )
                self.last_report = SystemReport.for_updates(
                    flushes,
                    charged,
                    kernels=self.maintainer.kernel_counters.diff(
                        kernels_before
                    ),
                    plans=plans,
                    plans_total=plans_total,
                    serving=self._serving_section(serving_marks),
                )
        return charged

    #: Above this many pending foreign updates the boundary analysis
    #: flushes instead of scanning — a deterministic cost cap (flushing
    #: is always outcome-preserving; only batching opportunity is lost).
    _JOIN_ANALYSIS_LIMIT = 64

    def _pending_joins_update(
        self,
        view: ViewDefinition,
        work: "_PendingMaintenance",
        relation: str,
        row: tuple,
    ) -> bool:
        """Whether ``row`` landing on ``relation`` can reach any pending
        delta — the join-graph boundary test of :meth:`apply_updates`.

        A pending update at the same relation never joins it (an
        update's own relation is not part of its propagation plan).  For
        a pending update at another relation ``X``, the propagation
        *does* join ``relation`` — but the row is still unreachable
        when some WHERE clause over ``{X, relation}`` (a join edge of
        the view's join graph, or a local selection on ``relation``)
        provably fails for the (pending seed row, incoming row) pair:
        the seed's ``X`` columns survive into every delta row unchanged,
        so a failed edge excludes the candidate in the actual
        propagation too.  Undecidable edges (three-relation chains,
        stale schemas) conservatively force the flush.
        """
        if not work.foreign(relation):
            return False  # single-relation run at the incoming relation
        foreign = [u for u in work.updates if u.relation != relation]
        if len(foreign) > self._JOIN_ANALYSIS_LIMIT:
            return True
        condition = view.condition()
        schema = self.space.relation(relation).schema
        incoming = {
            f"{relation}.{attr}": value
            for attr, value in zip(schema.attribute_names, row)
        }
        for clause in condition.clauses:
            relations = clause.relations()
            if relations == {relation}:
                # A failed local selection keeps the row out of every
                # propagation of this view, whatever is pending.
                if clause_decidable(clause, incoming) and not clause.evaluate(
                    incoming
                ):
                    return False
        for update in foreign:
            seed_schema = self.space.relation(update.relation).schema
            binding = dict(incoming)
            binding.update(
                (f"{update.relation}.{attr}", value)
                for attr, value in zip(
                    seed_schema.attribute_names, update.row
                )
            )
            # Any clause fully decidable over the (seed, incoming) pair
            # can exclude the candidate: a join edge between the two
            # relations, the incoming row's local selections, or the
            # seed's own local selections (a pruned seed has an empty
            # delta and reaches nothing).
            for clause in condition.clauses:
                relations = clause.relations()
                if relations and relations <= {relation, update.relation}:
                    if clause_decidable(
                        clause, binding
                    ) and not clause.evaluate(binding):
                        break  # this pending delta cannot reach the row
            else:
                return True  # no edge excludes it: the row is reachable
        return False

    # ------------------------------------------------------------------
    # Capability changes -> synchronization (index-dispatched)
    # ------------------------------------------------------------------
    def _handle_capability_change(self, change: SchemaChange) -> None:
        if not self.auto_synchronize:
            return
        for record in self.vkb.views_referencing(change.relation):
            if not self.synchronizer.is_affected(record.current, change):
                continue
            self._sync_log.append(self.synchronize_view(record, change))

    def synchronize_view(
        self,
        record: ViewRecord,
        change: SchemaChange,
        workload: WorkloadSpec | None = None,
        policy: SearchPolicy | str | None = None,
    ) -> SynchronizationResult:
        """Generate, rank, and commit the best legal rewriting."""
        with self._extents.batch():
            result = self._synchronize_record(record, change, workload, policy)
            if result.survived and record.name in self._extents:
                before = self.kernel_counters.snapshot()
                self._extents[record.name] = evaluate_view(
                    record.current,
                    self.space.relation,
                    self.space.mkb.statistics,
                    config=self.config.engine,
                    kernel_counters=self.kernel_counters,
                )
                if result.counters is not None:
                    scanned = self.kernel_counters.diff(before)
                    result.counters.rows_scanned += scanned.rows_scanned
                    result.counters.rows_selected += scanned.rows_selected
        return result

    def _synchronize_record(
        self,
        record: ViewRecord,
        change: SchemaChange,
        workload: WorkloadSpec | None = None,
        policy: SearchPolicy | str | None = None,
    ) -> SynchronizationResult:
        """Pipeline search + VKB commit, without touching the extent."""
        outcome = self.pipeline.search(
            record.current, change, workload=workload, policy=policy
        )
        if outcome.chosen is None:
            with self._commit_lock:
                self.vkb.mark_undefined(record.name)
                self._extents.pop(record.name, None)
                self.maintainer.forget(record.name)
            result = SynchronizationResult(
                record.name, change, [], None, outcome.counters, outcome.policy
            )
        else:
            with self._commit_lock:
                self.vkb.apply_rewriting(outcome.chosen.rewriting)
            result = SynchronizationResult(
                record.name,
                change,
                outcome.evaluations,
                outcome.chosen,
                outcome.counters,
                outcome.policy,
            )
        if self.events.wants(ViewSynchronized):
            self.events.emit(
                ViewSynchronized(result.view_name, result.change, result)
            )
        return result

    # ------------------------------------------------------------------
    # Batched capability changes
    # ------------------------------------------------------------------
    def apply_changes(
        self,
        changes: Iterable[SchemaChange],
        scheduler: SynchronizationScheduler | None = None,
    ) -> list[SynchronizationResult]:
        """Apply a composed batch of capability changes, dispatch indexed.

        Batches are split at relation-identity chains — links where a
        change can only be replayed against a *live* intermediate state:

        * a change addressing a name an earlier ``RenameRelation`` in the
          batch introduced (rename-the-rename, delete-the-renamed), and
        * a ``RenameRelation``/``DeleteRelation`` whose subject an earlier
          change in the batch already touched (views synchronized for the
          earlier change would land mid-chain on a relation the batch end
          state no longer offers).

        Each such link starts a fresh sub-batch, restoring sequential
        semantics exactly there; chain-free batches — the normal case —
        pay nothing but one linear scan.

        Each sub-batch is staged into an immutable
        :class:`~repro.sync.scheduler.BatchWorkPlan` and handed to the
        ``scheduler`` (argument, else :attr:`scheduler`) for cost-aware,
        possibly parallel/budgeted dispatch; per-sub-batch
        :class:`~repro.sync.scheduler.ScheduleReport`\\ s land in
        :attr:`last_schedule`.  Whatever the executor, results and the
        synchronization log arrive in plan (view definition) order, and
        committed winners/extents are identical to the serial reference.
        """
        from time import perf_counter

        active = scheduler if scheduler is not None else self.scheduler
        batch = list(changes)
        results: list[SynchronizationResult] = []
        reports: list[ScheduleReport] = []
        # One deadline anchor (and one modeled-cost meter) for the whole
        # call: a chain-split batch runs several scheduler executions,
        # and either budget covers their sum, not each sub-batch afresh.
        deadline_anchor = perf_counter()
        unit_meter = (
            UnitBudgetMeter() if active.budget_units is not None else None
        )
        serving_marks = self._serving_marks()
        # The whole call is one MVCC commit point: every sub-batch's
        # extent swaps stage into one overlay, published as a single
        # atomic version when the bracket exits (even on error — the
        # journal already recorded the commits that landed), so a
        # concurrent snapshot reader never sees a half-applied storm.
        with self._extents.batch():
            for sub_batch in self._split_identity_chains(batch):
                plan = self._stage_batch(sub_batch)
                # Committed results are journaled as they land so that an
                # executor exception mid-batch cannot leave VKB commits the
                # synchronization log never saw; on success the journal is
                # discarded in favour of the report's plan-ordered results.
                # Reports of completed sub-batches are preserved either way
                # — their DeferredSynchronization records must stay
                # resumable even when a later sub-batch fails.
                self._batch_journal = []
                try:
                    report = active.execute(
                        plan, self, deadline_anchor=deadline_anchor,
                        unit_meter=unit_meter,
                    )
                except BaseException:
                    self._sync_log.extend(self._batch_journal)
                    self.last_schedule = tuple(reports)
                    raise
                finally:
                    self._batch_journal = None
                self._sync_log.extend(report.results)
                results.extend(report.results)
                reports.append(report)
                self._emit_schedule_events(report, active)
        self.last_schedule = tuple(reports)
        plans, plans_total = self._capture_evaluation_plans(results)
        self.last_report = SystemReport.for_changes(
            results, reports, plans=plans, plans_total=plans_total,
            serving=self._serving_section(serving_marks),
        )
        return results

    def _emit_schedule_events(
        self, report: ScheduleReport, scheduler: SynchronizationScheduler
    ) -> None:
        """Publish one completed sub-batch's scheduling outcomes."""
        if self.events.wants(BatchScheduled):
            self.events.emit(BatchScheduled(report))
        if report.degraded_views and self.events.wants(DegradedToFirstLegal):
            for view_name in report.degraded_views:
                self.events.emit(
                    DegradedToFirstLegal(
                        view_name,
                        budget=scheduler.budget,
                        budget_units=scheduler.budget_units,
                    )
                )
        if report.deferred and self.events.wants(SynchronizationDeferred):
            for record in report.deferred:
                self.events.emit(SynchronizationDeferred(record))

    @staticmethod
    def _split_identity_chains(
        batch: list[SchemaChange],
    ) -> list[list[SchemaChange]]:
        """Split at relation-identity chain links (see apply_changes)."""
        sub_batches: list[list[SchemaChange]] = []
        start = 0
        introduced: set[str] = set()
        touched: set[str] = set()
        for index, change in enumerate(batch):
            chains = change.relation in introduced or (
                isinstance(change, (RenameRelation, DeleteRelation))
                and change.relation in touched
            )
            if chains:
                sub_batches.append(batch[start:index])
                start = index
                introduced, touched = set(), set()
            touched.add(change.relation)
            if isinstance(change, RenameRelation):
                introduced.add(change.new_name)
        sub_batches.append(batch[start:])
        return sub_batches

    def _stage_batch(self, batch: list[SchemaChange]) -> BatchWorkPlan:
        """Apply one chain-free batch to the space; emit the work plan.

        The whole batch is applied to the information space first (the
        per-change listeners still run, minus auto-synchronization);
        affected views are collected through the VKB's inverted index as
        each change lands.  Each affected view becomes one immutable
        :class:`~repro.sync.scheduler.ViewWorkItem` carrying its ordered
        worklist, its salvage-cost lower bound
        (:meth:`~repro.qc.model.QCModel.salvage_lower_bound`, priced the
        moment the view enters the plan, while the touched relation's
        statistics are still live, and once per coalesce class), and its
        coalescing identity
        (:func:`~repro.esql.ast.coalesce_fingerprint`, which only a
        coalescing scheduler reads).  Views
        never referencing a changed relation are never examined at all,
        which is what makes thousand-view spaces cheap to evolve.

        Synchronization then happens against the *post-batch* knowledge:
        when changes in one batch interact (a donor deleted later in the
        same batch, say), the pipeline only ever substitutes relations
        that survive the whole batch.  Composition can therefore reach
        the sequential end state in *fewer rewritings* — e.g. a
        replacement lands directly on a donor column renamed later in
        the batch — so a view's ``generations`` count may be lower than
        under one-change-at-a-time application even though the
        definitions and extents agree.
        """
        #: view name -> (order, worklist, cost_bound, definition_key).
        staged: dict[str, list] = {}
        #: (definition_key, position) -> the salvage bound: twins first
        #: touched by one change price identically.
        bounds: dict[tuple, float] = {}
        was_auto = self.auto_synchronize
        self.auto_synchronize = False
        try:
            for position, change in enumerate(batch):
                for record in self.vkb.views_referencing(change.relation):
                    if not self.synchronizer.is_affected(
                        record.current, change
                    ):
                        continue
                    entry = staged.get(record.name)
                    if entry is None:
                        # First touch: price the salvage bound against
                        # the statistics as they stand right now (the
                        # changed relation still exists), once per
                        # class.
                        key = coalesce_fingerprint(record.current)
                        bound = bounds.get((key, position))
                        if bound is None:
                            try:
                                bound = self.qc_model.salvage_lower_bound(
                                    record.current, change.relation
                                )
                            except EvaluationError:
                                # Unpriceable views (no statistics-backed
                                # bound) schedule last, behind every
                                # priced one, rather than blocking the
                                # batch.
                                bound = math.inf
                            bounds[key, position] = bound
                        entry = staged[record.name] = [
                            len(staged), [], bound, key
                        ]
                    entry[1].append((position, change))
                self.space.apply_change(change)
        finally:
            self.auto_synchronize = was_auto
        return build_work_plan(
            [
                (name, order, tuple(worklist), bound, key)
                for name, (order, worklist, bound, key) in staged.items()
            ],
            batch,
        )

    # ------------------------------------------------------------------
    # SchedulerRuntime protocol (consumed by SynchronizationScheduler)
    # ------------------------------------------------------------------
    def replay_item(
        self,
        item: ViewWorkItem,
        plan: BatchWorkPlan,
        policy: SearchPolicy | str | None = None,
    ) -> list[SynchronizationResult]:
        """Replay one view's worklist against its evolving definition.

        Changes that no longer touch the evolved definition are skipped.
        A committed rewriting changes what the view references —
        relations it pulled in, and attribute names an earlier rename
        introduced (which the pre-batch affectedness test could not
        see) — so every later change on a relation the view now
        references is re-queued; the replay's own ``is_affected`` check
        skips the irrelevant ones against the evolved definition.
        """
        record = self.vkb.record(item.view_name)
        worklist = list(item.worklist)
        queued = {position for position, _ in worklist}
        results: list[SynchronizationResult] = []
        cursor = 0
        while cursor < len(worklist) and record.alive:
            position, change = worklist[cursor]
            cursor += 1
            if not self.synchronizer.is_affected(record.current, change):
                continue
            result = self._synchronize_record(record, change, policy=policy)
            if self._batch_journal is not None:
                self._batch_journal.append(result)
            results.append(result)
            if not record.alive:
                break
            merged = False
            for relation in record.current.relation_names:
                for later in plan.changes_on(relation):
                    if later[0] > position and later[0] not in queued:
                        queued.add(later[0])
                        worklist.append(later)
                        merged = True
            if merged:
                worklist[cursor:] = sorted(worklist[cursor:])
        return results

    def adopt_results(
        self, results: Sequence[SynchronizationResult]
    ) -> None:
        """Commit replay results produced outside the live VKB.

        Used by the workers executor (results searched in a worker
        process) and by coalesced followers (results rebound from a
        structurally identical leader): replays exactly the commits
        :meth:`_synchronize_record` would have made.
        """
        with self._commit_lock:
            for result in results:
                if result.chosen is None:
                    self.vkb.mark_undefined(result.view_name)
                    self._extents.pop(result.view_name, None)
                    self.maintainer.forget(result.view_name)
                else:
                    self.vkb.apply_rewriting(result.chosen.rewriting)
                if self._batch_journal is not None:
                    self._batch_journal.append(result)
        if self.events.wants(ViewSynchronized):
            for result in results:
                self.events.emit(
                    ViewSynchronized(result.view_name, result.change, result)
                )

    def finalize_view(self, view_name: str, like: str | None = None) -> None:
        """Rematerialize one replayed view's extent, once per batch.

        ``like`` names a view of the same coalesce class that was
        finalized earlier in this execution: the two definitions differ
        only in name, so when ``like`` is alive and materialized its
        fresh extent is copied under this view's name (shared row
        tuples, renamed schema) instead of evaluated a second time.
        """
        record = self.vkb.record(view_name)
        if not record.alive or view_name not in self._extents:
            return
        if like is not None and self.vkb.record(like).alive:
            fresh = self._extents.get(like)
            if fresh is not None:
                self._extents[view_name] = fresh.copy(view_name)
                return
        self._extents[view_name] = evaluate_view(
            record.current,
            self.space.relation,
            self.space.mkb.statistics,
            config=self.config.engine,
            kernel_counters=self.kernel_counters,
        )

    def resume_deferred(
        self,
        deferred: Sequence[DeferredSynchronization] | None = None,
    ) -> list[SynchronizationResult]:
        """Replay synchronizations a budgeted scheduler parked.

        With no argument, resumes every deferral recorded by the most
        recent :meth:`apply_changes` call — and consumes those records,
        so calling again is a no-op rather than a re-replay.  Deferral
        is pure postponement: the batch already landed on the space, so
        the replay runs against the same post-batch knowledge it would
        have seen at schedule time.

        Records coalesce as the scheduler's dispatch does: within one
        plan, the first record of a coalesce class runs the search, and
        the others adopt its results rebound to their names
        (:func:`~repro.sync.scheduler.rebind_results`) and copy its fresh
        extent (:meth:`finalize_view` with ``like``).
        """
        if deferred is None:
            deferred = tuple(
                record
                for report in self.last_schedule
                for record in report.deferred
            )
            self.last_schedule = tuple(
                dataclasses.replace(report, deferred=())
                for report in self.last_schedule
            )
        results: list[SynchronizationResult] = []
        #: (plan, coalesce key) -> the leader's name and results.
        leaders: dict[tuple, tuple[str, list[SynchronizationResult]]] = {}
        with self._extents.batch():
            for record in deferred:
                key = (id(record.plan), record.item.coalesce_key)
                leader = leaders.get(key) if self.scheduler.coalesce else None
                if leader is None:
                    like = None
                    replayed = self.replay_item(record.item, record.plan)
                    leaders[key] = (record.view_name, replayed)
                else:
                    like, leader_results = leader
                    replayed = list(
                        rebind_results(leader_results, record.view_name)
                    )
                    self.adopt_results(replayed)
                self._sync_log.extend(replayed)
                results.extend(replayed)
                self.finalize_view(record.view_name, like)
        return results

    # ------------------------------------------------------------------
    # Candidate inspection / external ranking
    # ------------------------------------------------------------------
    def candidate_rewritings(
        self,
        view_name: str,
        change: SchemaChange,
        include_dominated: bool = False,
    ) -> list[Rewriting]:
        """Legal rewritings without committing anything (for analysis)."""
        record = self.vkb.record(view_name)
        rewritings = self.synchronizer.synchronize(
            record.current, change, include_dominated
        )
        return [r for r in rewritings if check_legality(r).legal]

    def rank_rewritings(
        self,
        rewritings: Sequence[Rewriting],
        workload: WorkloadSpec | None = None,
        updated_relation: str | None = None,
    ) -> list[Evaluation]:
        """Rank externally produced candidates with the system's QC-Model."""
        return self.qc_model.evaluate(rewritings, workload, updated_relation)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def explain(
        self, view_name: str, analyze: bool = False
    ) -> "explain_plans.EvaluationPlan":
        """The evaluation plan ``view_name`` runs under this system's
        engine config: greedy join order with the cardinality estimates
        that drove it, per-step index-probe vs scan, and projection
        pushdown.

        ``analyze=True`` additionally executes the view with a step
        trace and reconciles estimated vs actual cardinalities (plus
        column-kernel rows scanned/selected on the columnar plane); the
        run is side-effect free — the cached extent is not touched.

        Returns an :class:`~repro.esql.explain.EvaluationPlan`; render
        with ``to_text()`` or serialize with ``to_dict()``.
        """
        record = self.vkb.record(view_name)
        if not record.alive:
            raise EvaluationError(
                f"view {view_name!r} is undefined; nothing to explain"
            )
        return explain_plans.explain_view(
            record.current,
            self.space.relation,
            self.space.mkb.statistics,
            config=self.config.engine,
            analyze=analyze,
        )

    def explain_maintenance(
        self, view_name: str, updated_relation: str | None = None
    ) -> "explain_plans.MaintenanceExplain":
        """Algorithm 1's itinerary for maintaining ``view_name`` after
        an update to ``updated_relation`` (defaults to the view's first
        FROM relation): source visit order and, per joined relation,
        whether the delta probes a hash index or scans.

        Returns a :class:`~repro.esql.explain.MaintenanceExplain`.
        """
        record = self.vkb.record(view_name)
        if not record.alive:
            raise EvaluationError(
                f"view {view_name!r} is undefined; nothing to explain"
            )
        view = record.current
        owners, schemas = self._owners_and_schemas(view)
        return explain_plans.explain_maintenance(
            view,
            owners,
            schemas,
            updated_relation,
            config=self.config.maintenance,
        )

    def _owners_and_schemas(
        self, view: ViewDefinition
    ) -> tuple[dict[str, str], dict[str, Schema]]:
        """Owner IS name and schema of each of ``view``'s relations, from
        the same :meth:`~repro.space.space.InformationSpace.placement`
        the maintainer checks its compiled programs against."""
        names = view.relation_names
        return placement_maps(names, self.space.placement(names))

    def _capture_evaluation_plans(
        self, results: "Sequence[SynchronizationResult]"
    ) -> tuple[list[EvaluationPlanCapture], int]:
        """What the EXPLAIN plans of a batch's surviving materialized
        views read; the report builds them on first read.

        Capped at :data:`~repro.report.PLAN_CAPTURE_LIMIT` plans chosen
        by sorted view name (deterministic under any executor); the
        returned total still counts every candidate.  Final actual
        cardinalities come from the just-rematerialized extents; a view
        whose relations cannot all be looked up is skipped rather than
        failing the batch, and one whose plan cannot be built is left
        out of the report when it is read.
        """
        candidates = sorted(
            {
                result.view_name
                for result in results
                if result.survived and result.view_name in self._extents
            }
        )
        statistics = self.space.mkb.statistics
        captures: list[EvaluationPlanCapture] = []
        for name in candidates[:PLAN_CAPTURE_LIMIT]:
            record = self.vkb.record(name)
            if not record.alive:
                continue
            view = record.current
            relations = []
            try:
                for relation in view.relation_names:
                    live = self.space.relation(relation)
                    relations.append((
                        relation,
                        live.schema,
                        live.cardinality,
                        statistics.relations.get(relation),
                    ))
            except UnknownRelationError:
                continue
            captures.append(
                EvaluationPlanCapture(
                    view,
                    tuple(relations),
                    statistics.join_selectivity,
                    self.config.engine,
                    self._extents[name].cardinality,
                )
            )
        return captures, len(candidates)

    def _maintenance_plan_captures(
        self, flushes: "Sequence[MaintenanceFlush]"
    ) -> tuple[list[MaintenancePlanCapture], int]:
        """What the EXPLAIN itineraries of a stream's flushes need, one
        per (view, updated relation) pair up to the capture cap; the
        report builds them on first read.  Actual counters reconcile
        the whole flush (which may have covered several relations),
        noted against the per-relation itinerary.
        """
        total = sum(len(flush.relations) for flush in flushes)
        captures: list[MaintenancePlanCapture] = []
        for flush in flushes:
            if len(captures) >= PLAN_CAPTURE_LIMIT:
                break
            record = self.vkb.record(flush.view)
            if not record.alive:
                continue
            view = record.current
            try:
                placement = self.maintainer.placement_of(view)
            except UnknownRelationError:
                continue  # a relation left the space since the flush
            actual = {
                "messages": flush.counters.messages,
                "bytes_transferred": flush.counters.bytes_transferred,
                "io_operations": flush.counters.io_operations,
                "updates": flush.updates,
            }
            for relation in flush.relations[
                : PLAN_CAPTURE_LIMIT - len(captures)
            ]:
                captures.append(
                    MaintenancePlanCapture(
                        view,
                        placement,
                        relation,
                        actual,
                        self.config.maintenance,
                    )
                )
        return captures, total

    @property
    def synchronization_log(self) -> tuple[SynchronizationResult, ...]:
        """Every search outcome this system has committed, in order."""
        return tuple(self._sync_log)

    def is_alive(self, view_name: str) -> bool:
        """Whether the view currently has a committed rewriting."""
        return self.vkb.record(view_name).alive

    def generations(self, view_name: str) -> int:
        """How many capability changes the view has survived."""
        return self.vkb.record(view_name).generations
