"""Cost-aware, deadline-bounded scheduling of batch view synchronization.

PR 2's batched dispatch visits every affected view strictly in view
definition order, one after the other.  This module turns the per-view
replay into an explicit, immutable *work plan* and schedules it:

* **Cost ordering** — work items are ordered cheapest-to-salvage first
  using :meth:`~repro.qc.model.QCModel.cost_lower_bound` (the best-case
  co-hosted maintenance plan of Eq. 24), the standing bound the ROADMAP
  earmarked for exactly this consumer.  When a deadline looms, the views
  most likely to be salvaged cheaply are synchronized first.
* **Deadline degradation** — an optional wall-clock ``budget`` degrades
  gracefully: work dispatched after the budget is exhausted either falls
  back to the ``first_legal`` search policy (the cheap old-EVE baseline;
  ``degrade="first_legal"``) or is parked as an explicit
  :class:`DeferredSynchronization` record (``degrade="defer"``) that
  :meth:`~repro.core.eve.EVESystem.resume_deferred` can replay later.
  ``budget_units`` is the machine-independent twin: a token bucket of
  *modeled* Eq. 24 cost, debited per dispatched view from its salvage
  bound — same degrade/defer semantics, fully deterministic (no wall
  clock), so budgets can be planned offline and asserted in tests.
* **Pluggable executors** — ``serial`` (the reference), ``threads``
  (:class:`~concurrent.futures.ThreadPoolExecutor`), ``processes``
  (fork-based, for true CPU parallelism where the platform offers it;
  falls back to ``serial`` elsewhere, with a one-time
  :class:`RuntimeWarning` and the demotion recorded on the report), and
  ``workers`` (the persistent sharded pool of
  :mod:`repro.sync.workers`: spawn-safe long-lived processes that keep
  their VKB shard and extents warm across batches, shipping only
  deltas).  Whatever the executor, committed winners, QC-Values, and
  extents are identical to the serial reference — enforced by
  ``tests/property/test_scheduler_parity.py``.
* **Chain grouping** — views whose worklists share a changed relation are
  linked into one :class:`ChainGroup` and never split across workers, so
  relation-identity interactions can never race (and coalescing below
  always finds its leader in the same group).
* **Search coalescing** (``coalesce``, on by default; off only in
  :meth:`~repro.config.SystemConfig.reference`) — the storm workloads
  define many structurally identical views over the same relation; their
  salvage searches are identical up to the view name.  A coalescing
  scheduler runs one search per equivalence class (canonical definition
  modulo name + worklist) and rebinds the committed results to each
  follower.  Rebinding is exact: assessments never read the view name,
  so followers receive float-identical QC-Values.  Rematerialization
  coalesces too: a follower whose leader was finalized alive and
  materialized copies the leader's fresh extent under its own name
  instead of evaluating its (renamed) definition again.

The scheduler talks to the system through the small
:class:`SchedulerRuntime` protocol (implemented by
:class:`~repro.core.eve.EVESystem`), keeping executor/ordering concerns
out of the control plane proper.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from time import perf_counter
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Protocol

from repro.config import ScheduleConfig
from repro.space.changes import SchemaChange
from repro.sync.pipeline import SearchPolicy, StageCounters

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.core.eve import SynchronizationResult
    from repro.esql.ast import ViewDefinition


#: One (batch position, change) entry of a per-view worklist.
WorklistEntry = tuple[int, SchemaChange]


# ----------------------------------------------------------------------
# The immutable work plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ViewWorkItem:
    """One affected view's share of a staged batch, ready to replay."""

    view_name: str
    #: View definition sequence number — fixes plan (= sync log) order.
    order: int
    #: Ordered (batch position, change) pairs relevant to this view.
    worklist: tuple[WorklistEntry, ...]
    #: ``QCModel.cost_lower_bound`` of salvaging this view, priced when
    #: the view first entered the plan; ``inf`` when unpriceable.
    cost_bound: float
    #: Identifier of the chain group (see :class:`ChainGroup`).
    chain_key: str
    #: Canonical identity of the search this item needs (definition
    #: modulo view name + worklist positions); equal keys coalesce.
    coalesce_key: tuple

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(position for position, _ in self.worklist)


@dataclass(frozen=True)
class ChainGroup:
    """Work items linked by shared changed relations.

    Items in one group always execute on one worker, in plan order —
    the scheduling unit that preserves PR 2's sequential-parity
    semantics for relation-identity interactions.
    """

    key: str
    items: tuple[ViewWorkItem, ...]

    @property
    def cost_bound(self) -> float:
        return min(item.cost_bound for item in self.items)

    @property
    def order(self) -> int:
        return min(item.order for item in self.items)


@dataclass(frozen=True)
class BatchWorkPlan:
    """Everything the scheduler needs to replay one chain-free batch."""

    items: tuple[ViewWorkItem, ...]
    changes: tuple[SchemaChange, ...]
    #: relation name -> (batch position, change) pairs addressing it;
    #: replays consult this to merge changes a rewriting pulled in.
    by_relation: Mapping[str, tuple[WorklistEntry, ...]]

    def changes_on(self, relation: str) -> tuple[WorklistEntry, ...]:
        return self.by_relation.get(relation, ())

    def groups(self) -> tuple[ChainGroup, ...]:
        """Chain groups in plan order (items keep plan order within)."""
        grouped: dict[str, list[ViewWorkItem]] = {}
        for item in self.items:
            grouped.setdefault(item.chain_key, []).append(item)
        return tuple(
            ChainGroup(key, tuple(members))
            for key, members in grouped.items()
        )


def build_work_plan(
    staged: Sequence[tuple[str, int, tuple[WorklistEntry, ...], float, tuple]],
    changes: Sequence[SchemaChange],
) -> BatchWorkPlan:
    """Assemble the immutable plan from staged per-view worklists.

    ``staged`` rows are ``(view_name, order, worklist, cost_bound,
    definition_key)``.  Chain keys are connected components over the
    changed relations each worklist touches (union-find), so views that
    share any changed relation land in the same :class:`ChainGroup`.
    """
    by_relation: dict[str, list[WorklistEntry]] = {}
    for position, change in enumerate(changes):
        by_relation.setdefault(change.relation, []).append((position, change))

    parent: dict[str, str] = {}

    def find(relation: str) -> str:
        root = relation
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[relation] != root:  # path compression
            parent[relation], relation = root, parent[relation]
        return root

    for _, _, worklist, _, _ in staged:
        relations = [change.relation for _, change in worklist]
        for other in relations[1:]:
            parent[find(other)] = find(relations[0])

    items = []
    for view_name, order, worklist, cost_bound, definition_key in staged:
        chain_key = find(worklist[0][1].relation) if worklist else view_name
        coalesce_key = (
            definition_key,
            tuple(position for position, _ in worklist),
        )
        items.append(
            ViewWorkItem(
                view_name, order, worklist, cost_bound, chain_key,
                coalesce_key,
            )
        )
    items.sort(key=lambda item: item.order)
    return BatchWorkPlan(
        tuple(items),
        tuple(changes),
        {name: tuple(entries) for name, entries in by_relation.items()},
    )


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeferredSynchronization:
    """A view the scheduler parked past the budget, replayable later."""

    item: ViewWorkItem
    plan: BatchWorkPlan
    reason: str

    @property
    def view_name(self) -> str:
        return self.item.view_name

    @property
    def cost_bound(self) -> float:
        return self.item.cost_bound


@dataclass
class ItemOutcome:
    """What replaying one work item produced, wherever it ran."""

    item: ViewWorkItem
    results: "tuple[SynchronizationResult, ...]"
    seconds: float
    #: True when the executing process already committed to the live
    #: VKB — serial/threads outcomes, including coalesced followers
    #: (``_run_group`` adopts those on the spot).  False only for
    #: process-executor outcomes, which the parent rebuilds from the
    #: child's rows and must adopt itself.
    committed: bool
    degraded: bool = False
    coalesced: bool = False


@dataclass
class UnitBudgetMeter:
    """Modeled-cost units debited so far against one ``budget_units``.

    A mutable accumulator shared across every scheduler execution of one
    logical run (``apply_changes`` passes one meter to all of a batch's
    chain-split sub-plans, so the bucket covers their sum — the
    modeled-cost analogue of the wall-clock ``deadline_anchor``).
    """

    spent: float = 0.0


@dataclass
class ScheduleReport:
    """The full accounting of one scheduled batch execution."""

    results: "tuple[SynchronizationResult, ...]"
    deferred: tuple[DeferredSynchronization, ...]
    degraded_views: tuple[str, ...]
    per_view_seconds: dict[str, float]
    wall_seconds: float
    executor: str
    workers: int
    coalesced: int
    budget: float | None
    #: Modeled-cost token bucket in force (None when unbudgeted) and
    #: the Eq. 24 units debited by this execution's dispatches.
    budget_units: float | None = None
    units_spent: float = 0.0
    #: The executor that was *requested* when the one reported in
    #: ``executor`` is a silent-no-more demotion (currently only
    #: ``"processes"`` on fork-less platforms); None when the requested
    #: executor actually ran.
    executor_fallback: str | None = None
    #: Per-shard accounting of the ``workers`` executor — one
    #: :class:`~repro.sync.workers.ShardDispatch` per shard the batch
    #: touched (views, chain groups, bytes shipped/received, bootstrap
    #: snapshot bytes, worker wall clock); empty for other executors.
    shards: tuple = ()

    @property
    def counters(self) -> StageCounters:
        """Batch-merged pipeline counters (+ deferral accounting)."""
        merged = StageCounters()
        for result in self.results:
            if result.counters is not None:
                merged = merged.merged(result.counters)
        merged.deferred += len(self.deferred)
        return merged


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
class SchedulerRuntime(Protocol):
    """What the scheduler needs from the system it drives."""

    def replay_item(
        self,
        item: ViewWorkItem,
        plan: BatchWorkPlan,
        policy: SearchPolicy | str | None = None,
    ) -> "list[SynchronizationResult]":
        """Replay one view's worklist, committing to the live VKB."""
        ...

    def adopt_results(
        self, results: "Sequence[SynchronizationResult]"
    ) -> None:
        """Commit results produced elsewhere (fork / coalesced rebind)."""
        ...

    def finalize_view(self, view_name: str, like: str | None = None) -> None:
        """Rematerialize the view's extent after its worklist replay.

        ``like`` names a view of the same coalesce class finalized
        earlier in this execution; its fresh extent, renamed, may stand
        in for an evaluation (see :meth:`repro.core.eve.EVESystem.finalize_view`).
        """
        ...


#: Fork-side state for the process executor: (runtime, plan, groups,
#: policy overrides).  Set in the parent immediately before the pool
#: forks its workers; index-addressed by :func:`_replay_group_in_fork`.
#: The lock serializes concurrent process-executor runs in one parent —
#: the state must stay stable from the moment it is written until the
#: pool has forked and drained, so overlapping schedules take turns.
_FORK_STATE: dict = {}
_FORK_LOCK = threading.Lock()


def _fork_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


#: Whether the processes→serial demotion has been announced yet.  One
#: warning per process: the demotion is a platform property, not a
#: per-batch surprise, and storm workloads schedule thousands of
#: batches.  (The report still records it on every affected batch.)
_FALLBACK_WARNED = False


def _warn_fork_fallback() -> None:
    global _FALLBACK_WARNED
    if _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED = True
    warnings.warn(
        "executor='processes' requires the fork start method, which this "
        "platform does not offer; falling back to executor='serial'. "
        "Use executor='workers' for spawn-safe process parallelism.",
        RuntimeWarning,
        stacklevel=3,
    )


def _replay_group_in_fork(group_index: int):
    """Worker entry point: replay one chain group in the forked child.

    The child inherited a copy-on-write snapshot of the whole system, so
    the serial replay code runs unchanged against the child's private
    VKB; only (picklable) result rows travel back to the parent, which
    rebuilds the outcomes and adopts them into the live VKB in plan
    order.  The rows are the dedupe format of
    :func:`repro.sync.workers._dedupe_rows`: a coalesced follower ships
    one back-reference to its leader's row instead of re-pickling the
    leader's full result set once per follower — on a storm of
    structurally identical views that is the difference between a
    payload linear in *searches run* and one linear in *views*.
    """
    from repro.sync.workers import _dedupe_rows

    scheduler = _FORK_STATE["scheduler"]
    runtime = _FORK_STATE["runtime"]
    plan = _FORK_STATE["plan"]
    group, policy, degraded = _FORK_STATE["groups"][group_index]
    outcomes = scheduler._run_group(plan, runtime, group, policy, degraded)
    return _dedupe_rows(outcomes)


class SynchronizationScheduler:
    """Orders, budgets, and dispatches a :class:`BatchWorkPlan`.

    Configured declaratively with a
    :class:`~repro.config.ScheduleConfig` (the validated, serializable
    profile slice).  Field semantics:

    ``order``
        ``"cost"`` (default) dispatches chain groups cheapest-to-salvage
        first (ties broken by plan order); ``"plan"`` keeps definition
        order.  Results and the synchronization log are always reported
        in plan order, so ordering only moves *scheduling* priority —
        which views make it under a deadline, and latency under a
        parallel executor.
    ``executor``
        ``"serial"`` | ``"threads"`` | ``"processes"`` (fork; falls back
        to serial where fork is unavailable).
    ``budget`` / ``budget_units`` / ``degrade``
        Wall-clock seconds (``budget``) or a token bucket of modeled
        Eq. 24 cost units (``budget_units``, debited per dispatched
        view from its salvage bound; machine-independent and
        deterministic) after which remaining groups degrade to the
        ``first_legal`` policy (``degrade="first_legal"``) or are parked
        as :class:`DeferredSynchronization` records (``"defer"``).
        Either budget at 0.0 degrades/defers everything
        deterministically; when both are set, whichever exhausts first
        wins.
    ``coalesce``
        Run one search and one rematerialization per (definition modulo
        name, worklist) class and rebind results and extents to
        followers — identical outcomes, large wins on storm workloads
        full of structurally identical views.  On by default;
        ``coalesce=False`` is the one-search-per-view reference.
    """

    def __init__(self, config: ScheduleConfig | None = None) -> None:
        self.config = config if config is not None else ScheduleConfig()
        #: Lazily created :class:`~repro.sync.workers.ShardedWorkerPool`
        #: (``executor="workers"`` only); survives across executions.
        self._worker_pool = None
        self.executor = self.config.executor
        self.max_workers = self.config.max_workers
        self.budget = self.config.budget
        self.budget_units = self.config.budget_units
        self.degrade = self.config.degrade
        self.order = self.config.order
        self.coalesce = self.config.coalesce

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: BatchWorkPlan,
        runtime: SchedulerRuntime,
        deadline_anchor: float | None = None,
        unit_meter: UnitBudgetMeter | None = None,
    ) -> ScheduleReport:
        """Dispatch the plan; report results/deferrals in plan order.

        ``deadline_anchor`` (a ``perf_counter`` instant) anchors the
        budget clock; callers replaying several plans under one deadline
        (``apply_changes`` over a chain-split batch) pass the same
        anchor to every execution so the budget covers their sum.
        ``unit_meter`` plays the same role for ``budget_units``: one
        shared meter makes the token bucket span every sub-plan of a
        logical run (a fresh meter is created here when omitted).
        """
        wall_started = perf_counter()
        started = (
            wall_started if deadline_anchor is None else deadline_anchor
        )
        if unit_meter is None and self.budget_units is not None:
            unit_meter = UnitBudgetMeter()
        units_before = unit_meter.spent if unit_meter is not None else 0.0
        groups = list(plan.groups())
        if self.order == "cost":
            groups.sort(key=lambda group: (group.cost_bound, group.order))

        executor = self.executor
        executor_fallback = None
        if executor == "processes" and not _fork_available():
            executor = "serial"
            executor_fallback = "processes"
            _warn_fork_fallback()
        if len(groups) <= 1 and executor != "workers":
            # A single chain group gains nothing from thread/fork
            # fan-out.  The workers executor is exempt: every batch
            # must flow through the pool or the shard mirrors would
            # miss the commits and re-bootstrap on the next dispatch.
            executor = "serial"
        workers = self.max_workers or min(8, (os.cpu_count() or 1) + 3)

        outcomes: list[ItemOutcome] = []
        deferred: list[DeferredSynchronization] = []
        shard_dispatches: tuple = ()
        if executor == "serial":
            self._execute_serial(
                plan, runtime, groups, started, unit_meter, outcomes, deferred
            )
            workers = 1
        elif executor == "threads":
            self._execute_threads(
                plan, runtime, groups, started, unit_meter, workers,
                outcomes, deferred,
            )
        elif executor == "workers":
            shard_dispatches = self._execute_workers(
                plan, runtime, groups, started, unit_meter, outcomes,
                deferred,
            )
            workers = self.config.shards or 1
        else:
            self._execute_processes(
                plan, runtime, groups, started, unit_meter, workers,
                outcomes, deferred,
            )

        # Adoption + reporting happen in plan order regardless of the
        # executor's completion order, so the synchronization log (and
        # the VKB commit order for adopted outcomes) is deterministic.
        outcomes.sort(key=lambda outcome: outcome.item.order)
        deferred.sort(key=lambda record: record.item.order)
        deferred_names = {record.view_name for record in deferred}
        results: list = []
        for outcome in outcomes:
            if not outcome.committed:
                runtime.adopt_results(outcome.results)
            results.extend(outcome.results)
        # A coalesced follower's definition is its leader's renamed, so
        # its extent is the leader's fresh one renamed: the first view
        # finalized per coalesce class is the one the others copy.
        finalized: dict[tuple, str] = {}
        for item in plan.items:
            if item.view_name in deferred_names:
                continue
            like = finalized.get(item.coalesce_key) if self.coalesce else None
            if like is None:
                finalized[item.coalesce_key] = item.view_name
            runtime.finalize_view(item.view_name, like)
        return ScheduleReport(
            results=tuple(results),
            deferred=tuple(deferred),
            degraded_views=tuple(
                outcome.item.view_name
                for outcome in outcomes
                if outcome.degraded
            ),
            per_view_seconds={
                outcome.item.view_name: outcome.seconds
                for outcome in outcomes
            },
            wall_seconds=perf_counter() - wall_started,
            executor=executor,
            workers=workers,
            coalesced=sum(1 for outcome in outcomes if outcome.coalesced),
            budget=self.budget,
            budget_units=self.budget_units,
            # Per-execution debit: a shared meter accumulates across a
            # chain-split batch's sub-plans, but each report accounts
            # only its own dispatches.
            units_spent=(
                unit_meter.spent - units_before
                if unit_meter is not None
                else 0.0
            ),
            executor_fallback=executor_fallback,
            shards=shard_dispatches,
        )

    # ------------------------------------------------------------------
    # Budget bookkeeping
    # ------------------------------------------------------------------
    def _over_budget(
        self, started: float, meter: UnitBudgetMeter | None
    ) -> bool:
        if (
            self.budget_units is not None
            and meter is not None
            and meter.spent >= self.budget_units
        ):
            return True
        return (
            self.budget is not None
            and perf_counter() - started >= self.budget
        )

    def _debit(
        self, meter: UnitBudgetMeter | None, group: ChainGroup
    ) -> None:
        """Debit a dispatched group's items from the token bucket.

        Each view is charged its salvage bound (the cost-ordering
        priority); unpriceable views (``inf`` bound) debit nothing —
        they schedule last under cost order anyway, and an infinite
        debit would silently zero the bucket for everyone after them.
        """
        if meter is None:
            return
        for item in group.items:
            if item.cost_bound != float("inf"):
                meter.spent += item.cost_bound

    def _park(
        self,
        plan: BatchWorkPlan,
        group: ChainGroup,
        deferred: list[DeferredSynchronization],
        meter: UnitBudgetMeter | None = None,
    ) -> None:
        if (
            self.budget_units is not None
            and meter is not None
            and meter.spent >= self.budget_units
        ):
            reason = (
                f"budget of {self.budget_units} cost units exhausted "
                f"before dispatch"
            )
        else:
            reason = f"budget of {self.budget}s exhausted before dispatch"
        for item in group.items:
            deferred.append(DeferredSynchronization(item, plan, reason))

    # ------------------------------------------------------------------
    # Executors
    # ------------------------------------------------------------------
    def _execute_serial(
        self, plan, runtime, groups, started, meter, outcomes, deferred
    ) -> None:
        for group in groups:
            if self._over_budget(started, meter):
                if self.degrade == "defer":
                    self._park(plan, group, deferred, meter)
                    continue
                outcomes.extend(
                    self._run_group(
                        plan, runtime, group, "first_legal", True
                    )
                )
            else:
                self._debit(meter, group)
                outcomes.extend(
                    self._run_group(plan, runtime, group, None, False)
                )

    def _execute_threads(
        self, plan, runtime, groups, started, meter, workers, outcomes,
        deferred,
    ) -> None:
        # Imported here, like the process executor's pool: the default
        # serial executor never loads concurrent.futures (~0.7 MB RSS).
        from concurrent.futures import (
            FIRST_COMPLETED,
            ThreadPoolExecutor,
            wait,
        )

        pending = list(groups)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            running = set()

            # dispatch() only ever runs on the scheduling thread, so the
            # unit meter is read and debited without synchronization.
            def dispatch() -> None:
                while pending and len(running) < workers:
                    if self._over_budget(started, meter):
                        if self.degrade == "defer":
                            while pending:
                                self._park(
                                    plan, pending.pop(0), deferred, meter
                                )
                            return
                        group = pending.pop(0)
                        running.add(
                            pool.submit(
                                self._run_group, plan, runtime, group,
                                "first_legal", True,
                            )
                        )
                    else:
                        group = pending.pop(0)
                        self._debit(meter, group)
                        running.add(
                            pool.submit(
                                self._run_group, plan, runtime, group,
                                None, False,
                            )
                        )

            dispatch()
            while running:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    outcomes.extend(future.result())
                dispatch()

    def _execute_processes(
        self, plan, runtime, groups, started, meter, workers, outcomes,
        deferred,
    ) -> None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Decide degradation/deferral up front: the fork snapshot is
        # taken once, so budget checks cannot usefully run mid-flight in
        # the children.  A zero/over-run budget degrades everything not
        # already dispatched, exactly like the other executors observe
        # at their dispatch points.
        dispatchable: list[tuple[ChainGroup, str | None, bool]] = []
        for group in groups:
            if self._over_budget(started, meter):
                if self.degrade == "defer":
                    self._park(plan, group, deferred, meter)
                    continue
                dispatchable.append((group, "first_legal", True))
            else:
                self._debit(meter, group)
                dispatchable.append((group, None, False))
        if not dispatchable:
            return
        with _FORK_LOCK:
            _FORK_STATE.update(
                scheduler=self, runtime=runtime, plan=plan,
                groups=dispatchable,
            )
            try:
                context = multiprocessing.get_context("fork")
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(dispatchable)),
                    mp_context=context,
                ) as pool:
                    from repro.sync.workers import _outcomes_from_rows

                    by_order = {item.order: item for item in plan.items}
                    for rows in pool.map(
                        _replay_group_in_fork, range(len(dispatchable))
                    ):
                        _outcomes_from_rows(rows, by_order, outcomes)
            finally:
                _FORK_STATE.clear()

    def _execute_workers(
        self, plan, runtime, groups, started, meter, outcomes, deferred
    ) -> tuple:
        """Dispatch through the persistent sharded worker pool.

        Budget decisions happen up front, exactly like the fork
        executor's: the batch ships as one message per shard, so there
        is no mid-flight dispatch point to re-check the clock at.
        Returns the per-shard :class:`~repro.sync.workers.ShardDispatch`
        accounting rows for the report.
        """
        dispatchable: list[tuple[ChainGroup, str | None, bool]] = []
        for group in groups:
            if self._over_budget(started, meter):
                if self.degrade == "defer":
                    self._park(plan, group, deferred, meter)
                    continue
                dispatchable.append((group, "first_legal", True))
            else:
                self._debit(meter, group)
                dispatchable.append((group, None, False))
        if not dispatchable:
            return ()
        committed, dispatches = self._ensure_pool().run_batch(
            plan, runtime, dispatchable
        )
        outcomes.extend(committed)
        return tuple(dispatches)

    def _ensure_pool(self):
        if self._worker_pool is None:
            from repro.sync.workers import ShardedWorkerPool

            self._worker_pool = ShardedWorkerPool(self.config)
        return self._worker_pool

    def close(self) -> None:
        """Stop the persistent worker pool, if one was ever started.

        Safe to call on any scheduler (no-op without a pool) and safe
        to keep scheduling afterwards — the next ``workers`` dispatch
        re-bootstraps a fresh fleet.
        """
        if self._worker_pool is not None:
            self._worker_pool.close()

    # ------------------------------------------------------------------
    # Group replay (shared by every executor; runs in the child for
    # the process executor)
    # ------------------------------------------------------------------
    def _run_group(
        self,
        plan: BatchWorkPlan,
        runtime: SchedulerRuntime,
        group: ChainGroup,
        policy: str | None,
        degraded: bool,
    ) -> list[ItemOutcome]:
        outcomes: list[ItemOutcome] = []
        leaders: dict[tuple, ItemOutcome] = {}
        for item in group.items:
            leader = leaders.get(item.coalesce_key) if self.coalesce else None
            began = perf_counter()
            if leader is not None:
                results = rebind_results(leader.results, item.view_name)
                runtime.adopt_results(results)
                outcomes.append(
                    ItemOutcome(
                        item, results, perf_counter() - began,
                        committed=True, degraded=degraded, coalesced=True,
                    )
                )
                continue
            results = tuple(runtime.replay_item(item, plan, policy))
            if degraded:
                for result in results:
                    if result.counters is not None:
                        result.counters.degraded += 1
            outcome = ItemOutcome(
                item, results, perf_counter() - began,
                committed=True, degraded=degraded,
            )
            outcomes.append(outcome)
            if self.coalesce:
                leaders[item.coalesce_key] = outcome
        return outcomes


# ----------------------------------------------------------------------
# Coalescing support
# ----------------------------------------------------------------------
def rebind_results(
    results: "Sequence[SynchronizationResult]", view_name: str
):
    """Re-target a leader view's results onto a structurally identical
    follower view.

    Only the view *name* differs between leader and follower (that is
    what the coalesce key certifies), and neither candidate generation
    nor quality/cost assessment reads the name — so renaming the
    rewritings inside every evaluation reproduces, float for float, what
    a direct search for the follower would have committed.

    Follower counters are *not* copied from the leader: no search ran
    for the follower, and batch-merged accounting
    (:attr:`ScheduleReport.counters`) must report work actually
    performed.  Followers carry fresh counters with only the
    scheduler-level flags preserved.
    """
    from repro.qc.model import Evaluation

    rebound = []
    #: A search's candidates share the definition they rewrite, so the
    #: follower's share one renamed copy of it (keyed by identity).
    originals: dict[int, ViewDefinition] = {}
    for result in results:
        evaluations = tuple(
            Evaluation(
                _rename_rewriting(evaluation.rewriting, view_name, originals),
                evaluation.quality,
                evaluation.cost,
                evaluation.normalized_cost,
                evaluation.qc,
                evaluation.rank,
            )
            for evaluation in result.evaluations
        )
        chosen = None
        if result.chosen is not None:
            for source, target in zip(result.evaluations, evaluations):
                if source is result.chosen:
                    chosen = target
                    break
            if chosen is None:  # chosen not aliased into the list
                chosen = Evaluation(
                    _rename_rewriting(
                        result.chosen.rewriting, view_name, originals
                    ),
                    result.chosen.quality,
                    result.chosen.cost,
                    result.chosen.normalized_cost,
                    result.chosen.qc,
                    result.chosen.rank,
                )
        counters = (
            StageCounters(degraded=result.counters.degraded)
            if result.counters is not None
            else None
        )
        rebound.append(
            type(result)(
                view_name,
                result.change,
                list(evaluations),
                chosen,
                counters,
                result.policy,
            )
        )
    return tuple(rebound)


def _rename_rewriting(
    rewriting, view_name: str, originals: dict[int, ViewDefinition]
):
    from repro.sync.rewriting import Rewriting

    original = originals.get(id(rewriting.original))
    if original is None:
        original = originals[id(rewriting.original)] = (
            rewriting.original.renamed(view_name)
        )
    return Rewriting(
        original,
        rewriting.view.renamed(view_name),
        rewriting.moves,
        rewriting.extent_relationship,
    )
