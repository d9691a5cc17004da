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
* **Two executors** — ``serial`` (the default and the reference) and
  ``workers`` (the one parallel path: the persistent sharded pool of
  :mod:`repro.sync.workers`, spawn-safe long-lived processes that keep
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

from dataclasses import dataclass
from functools import partial
from time import perf_counter
from collections.abc import Iterator, Mapping, Sequence
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
        """Commit results produced elsewhere (worker / coalesced rebind)."""
        ...

    def finalize_view(self, view_name: str, like: str | None = None) -> None:
        """Rematerialize the view's extent after its worklist replay.

        ``like`` names a view of the same coalesce class finalized
        earlier in this execution; its fresh extent, renamed, may stand
        in for an evaluation (see :meth:`repro.core.eve.EVESystem.finalize_view`).
        """
        ...


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
        which views make it under a deadline, and latency under the
        ``workers`` executor.
    ``executor``
        ``"serial"`` (the reference) | ``"workers"`` (the persistent
        sharded pool over ``shards`` VKB shards).
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

        outcomes: list[ItemOutcome] = []
        deferred: list[DeferredSynchronization] = []
        admitted = self._admit(plan, groups, started, unit_meter, deferred)
        shard_dispatches: tuple = ()
        workers = 1
        if self.executor == "workers":
            # Budget decisions happen up front: the batch ships as one
            # message per shard, so there is no mid-flight dispatch
            # point to re-check the clock at.  Every batch flows through
            # the pool, even a single chain group: the shard mirrors
            # must see every commit or they re-bootstrap on the next
            # dispatch.
            dispatchable = list(admitted)
            if dispatchable:
                committed, dispatches = self._ensure_pool().run_batch(
                    plan, runtime, dispatchable
                )
                outcomes.extend(committed)
                shard_dispatches = tuple(dispatches)
            workers = self.config.shards or 1
        else:
            for group, policy, degraded in admitted:
                outcomes.extend(
                    self._run_group(plan, runtime, group, policy, degraded)
                )

        # Every outcome is committed by now (serial replays commit on
        # the spot; the pool adopts its replies in plan order).  Results
        # are reported in plan order whatever the dispatch order, so the
        # synchronization log is deterministic.
        outcomes.sort(key=lambda outcome: outcome.item.order)
        deferred.sort(key=lambda record: record.item.order)
        deferred_names = {record.view_name for record in deferred}
        results: list = []
        for outcome in outcomes:
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
            executor=self.executor,
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
    def _admit(
        self, plan, groups, started, meter, deferred
    ) -> Iterator[tuple[ChainGroup, str | None, bool]]:
        """Yield ``(group, policy, degraded)`` for each group to dispatch,
        in dispatch order; park past-budget groups under ``defer``.

        Lazy: the serial executor runs each group before the next
        budget check, so the clock is read at every dispatch point.
        """
        for group in groups:
            if self._over_budget(started, meter):
                if self.degrade == "defer":
                    self._park(plan, group, deferred, meter)
                    continue
                yield group, "first_legal", True
            else:
                self._debit(meter, group)
                yield group, None, False

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
    # Group replay (shared by both executors; runs in the worker
    # process for the workers executor)
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
                        degraded=degraded, coalesced=True,
                    )
                )
                continue
            results = tuple(runtime.replay_item(item, plan, policy))
            if degraded:
                for result in results:
                    if result.counters is not None:
                        result.counters.degraded += 1
            outcome = ItemOutcome(
                item, results, perf_counter() - began, degraded=degraded,
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

    Only the chosen evaluation is renamed here, because
    :meth:`~repro.sync.scheduler.SchedulerRuntime.adopt_results` commits
    it.  The follower's full evaluation list is rendered from the
    leader's (captured as a tuple now) on its first read and cached on
    the result; its element at the leader's chosen position *is* the
    follower's ``chosen``.  A follower is a plain
    :class:`~repro.core.eve.SynchronizationResult`: equality, ``repr``,
    ranking and pickling read the list like any other result's.

    Follower counters are *not* copied from the leader: no search ran
    for the follower, and batch-merged accounting
    (:attr:`ScheduleReport.counters`) must report work actually
    performed.  Followers carry fresh counters with only the
    scheduler-level flags preserved.
    """
    rebound = []
    for result in results:
        evaluations = tuple(result.evaluations)
        chosen = result.chosen
        position = leader_original = None
        if chosen is not None:
            position = next(
                (i for i, e in enumerate(evaluations) if e is chosen), None
            )
            leader_original = chosen.rewriting.original
            chosen = _rename_evaluation(chosen, view_name, {})
        counters = (
            StageCounters(degraded=result.counters.degraded)
            if result.counters is not None
            else None
        )
        render = partial(
            _render_follower, evaluations, view_name, position,
            leader_original,
        )
        rebound.append(
            type(result).on_read(
                view_name, result.change, render, chosen, counters,
                result.policy,
            )
        )
    return tuple(rebound)


def _render_follower(leader, view_name, position, original, chosen):
    """A follower's evaluation list: the ``leader``'s evaluations
    renamed, with ``chosen`` (the follower's eagerly renamed chosen
    evaluation, None when nothing was chosen) at ``position``, where the
    leader's chosen stands.  ``original`` is the leader's chosen
    original."""
    # A search's candidates share the definition they rewrite, so the
    # follower's share one renamed copy of it (keyed by identity): the
    # one its chosen evaluation already holds.
    originals: dict[int, ViewDefinition] = {}
    if chosen is not None:
        originals[id(original)] = chosen.rewriting.original
    return [
        chosen
        if index == position
        else _rename_evaluation(evaluation, view_name, originals)
        for index, evaluation in enumerate(leader)
    ]


def _rename_evaluation(
    evaluation, view_name: str, originals: dict[int, ViewDefinition]
):
    from repro.qc.model import Evaluation
    from repro.sync.rewriting import Rewriting

    rewriting = evaluation.rewriting
    original = originals.get(id(rewriting.original))
    if original is None:
        original = originals[id(rewriting.original)] = (
            rewriting.original.renamed(view_name)
        )
    return Evaluation(
        Rewriting(
            original,
            rewriting.view.renamed(view_name),
            rewriting.moves,
            rewriting.extent_relationship,
        ),
        evaluation.quality,
        evaluation.cost,
        evaluation.normalized_cost,
        evaluation.qc,
        evaluation.rank,
    )
