"""Persistent-worker execution over a sharded VKB.

The ``workers`` executor is the scheduler's one parallel path (``serial``
is the reference).  Rather than snapshotting the runtime for every
``apply_changes`` batch, it keeps long-lived workers that hold state and
receive work over queues:

* The VKB is partitioned into **shards** along the relation→views
  inverted index: a relation's shard is ``crc32(name) % shards``, and a
  view's *home shard* is the shard of the first relation its current
  definition references — deterministic, so parent and workers always
  agree without negotiation.
* One long-lived, spawn-safe worker process per shard holds a full
  mirror of the system (information space, MKB, assessment caches)
  plus *its shard's* view records and materialized extents, all built
  exactly once per pool epoch from one bootstrap snapshot.
* Per batch, only deltas cross the wire: the capability changes and
  data updates the parent observed since the worker's last sync point,
  the committed rewritings of home views that were executed on another
  shard, and the routed :class:`~repro.sync.scheduler.ChainGroup` work
  items.  No per-batch snapshot pickling — the
  ``snapshot_bytes`` accounting in :class:`ShardDispatch` is zero on
  every warm dispatch, and the benchmarks gate on exactly that.
* Chain groups that span shards route to the shard owning the item
  with the **heaviest salvage bound** (ties to the earliest plan
  order); the other shards receive the group's foreign view records as
  *loaners* for the duration of the batch, and the commits flow back
  to the home shards through the delta log.  Observable outcomes stay
  plan-order and byte-identical to ``serial``.

Drift safety: the pool watches the parent VKB's mutation counter, the
parent's relation-name set, the parent MKB's constraint fingerprint
(:meth:`~repro.misd.mkb.MetaKnowledgeBase.constraint_fingerprint` — a
monotone add-counter capability changes never bump), and
``CacheInvalidated("relation-registered")`` events; any out-of-band
mutation (``define_view``, ``drop_view``, ``register_relation``,
``add_join_constraint``/``add_pc_constraint``, ``resume_deferred``, a
serial scheduler run against the same system, ...) triggers a full
re-bootstrap on the next dispatch, announced as a
:class:`~repro.events.ShardRebalanced` event (constraint additions use
``reason="mkb-drift"``).

Failure semantics: workers reply per batch; nothing is adopted into
the parent VKB until every dispatched shard has replied successfully.
A worker exception (or a dead worker process) therefore aborts the
batch with a :class:`~repro.errors.SynchronizationError` naming the
failing view, tears the pool down (one
:class:`~repro.events.WorkerRecycled` per worker), and leaves the
parent consistent; the next dispatch re-bootstraps.
"""

from __future__ import annotations

import os
import pickle
import weakref
import zlib
from dataclasses import dataclass

from repro.errors import SynchronizationError
from repro.events import CacheInvalidated, ShardRebalanced, WorkerRecycled
from repro.space.changes import AddRelation, DeleteRelation, RenameRelation

__all__ = ["ShardDispatch", "ShardedWorkerPool"]


#: Environment variable for deterministic failure injection in tests:
#: set to a view name to make the worker replaying that view raise, or
#: to ``"kill!<view>"`` to make the worker die without replying.  Read
#: in the *parent* at dispatch time and shipped inside the batch
#: message, so tests can clear it without respawning workers.
FAULT_ENV = "REPRO_WORKERS_INJECT_FAULT"

#: Seconds between liveness checks while waiting on a worker reply.
_POLL_SECONDS = 0.25


@dataclass(frozen=True)
class ShardDispatch:
    """Per-shard accounting for one dispatched batch."""

    shard: int
    #: Views replayed on this shard this batch (loaners included).
    views: int
    #: Chain groups routed to this shard this batch.
    groups: int
    #: Size of the batch message (deltas + routed work), in bytes.
    bytes_shipped: int
    #: Size of the worker's reply (result rows), in bytes.
    bytes_received: int
    #: Size of the bootstrap snapshot — non-zero only on the dispatch
    #: that (re)built the pool; warm dispatches ship no snapshot.
    snapshot_bytes: int
    #: Wall-clock seconds the worker spent replaying its groups.
    worker_seconds: float

    def as_dict(self) -> dict:
        return {
            "shard": self.shard,
            "views": self.views,
            "groups": self.groups,
            "bytes_shipped": self.bytes_shipped,
            "bytes_received": self.bytes_received,
            "snapshot_bytes": self.snapshot_bytes,
            "worker_seconds": round(self.worker_seconds, 6),
        }


def relation_shard(relation: str, shards: int) -> int:
    """Deterministic relation → shard map.

    crc32, not the builtin ``hash`` — the builtin is salted per process
    and the parent and its spawned workers must agree on the partition.
    """
    return zlib.crc32(relation.encode("utf-8")) % shards


def view_home_shard(view, shards: int) -> int:
    """A view's home shard: the shard of its first referenced relation."""
    names = view.relation_names
    if not names:
        return 0
    return relation_shard(names[0], shards)


def _dedupe_rows(outcomes) -> list:
    """Serialize group outcomes without re-pickling coalesced results.

    Leaders travel as ``("full", order, results, seconds, degraded)``
    rows; coalesced followers as ``("coalesced", order, leader_order,
    seconds, degraded)`` — the receiver rebinds the leader's results to
    the follower's name, reproducing the executing side's rebind float
    for float.  A payload therefore grows with searches run, not with
    views coalesced.
    """
    leader_by_key: dict = {}
    rows = []
    for outcome in outcomes:
        key = outcome.item.coalesce_key
        if outcome.coalesced and key in leader_by_key:
            rows.append(
                (
                    "coalesced",
                    outcome.item.order,
                    leader_by_key[key],
                    outcome.seconds,
                    outcome.degraded,
                )
            )
        else:
            leader_by_key.setdefault(key, outcome.item.order)
            rows.append(
                (
                    "full",
                    outcome.item.order,
                    outcome.results,
                    outcome.seconds,
                    outcome.degraded,
                )
            )
    return rows


def _outcomes_from_rows(rows, by_order, outcomes) -> None:
    """Rebuild :class:`ItemOutcome`\\ s from :func:`_dedupe_rows` rows.

    Appends to ``outcomes`` uncommitted — the caller (the parent
    process) adopts them into the live VKB in plan order.
    Rebinding a follower here is exact: the leader's results are the
    very objects a worker-side rebind would have started from, and
    :func:`~repro.sync.scheduler.rebind_results` never reads anything
    name-dependent.
    """
    from repro.sync.scheduler import ItemOutcome, rebind_results

    leaders: dict[int, tuple] = {}
    for row in rows:
        if row[0] == "full":
            _, order, results, seconds, degraded = row
            leaders[order] = results
            outcomes.append(
                ItemOutcome(
                    by_order[order], results, seconds, degraded=degraded,
                )
            )
        else:
            _, order, leader_order, seconds, degraded = row
            results = rebind_results(
                leaders[leader_order], by_order[order].view_name
            )
            outcomes.append(
                ItemOutcome(
                    by_order[order], results, seconds,
                    degraded=degraded, coalesced=True,
                )
            )


# ----------------------------------------------------------------------
# Worker side (spawn target — everything here must import clean)
# ----------------------------------------------------------------------
class _WorkerFailure(Exception):
    """Internal: a batch replay failed; carries the view to blame."""

    def __init__(self, view: str | None, detail: str) -> None:
        super().__init__(detail)
        self.view = view
        self.detail = detail


class _TracingRuntime:
    """Delegates the SchedulerRuntime protocol to the worker's system,
    remembering the view currently being replayed so a crash can be
    attributed exactly."""

    def __init__(self, eve) -> None:
        self.eve = eve
        self.current_view: str | None = None

    def replay_item(self, item, plan, policy=None):
        self.current_view = item.view_name
        return self.eve.replay_item(item, plan, policy)

    def adopt_results(self, results):
        self.eve.adopt_results(results)

    def finalize_view(self, view_name, like=None):
        self.eve.finalize_view(view_name, like)


class _WorkerState:
    """Everything one worker process holds across batches."""

    def __init__(self, eve, scheduler) -> None:
        self.eve = eve
        self.scheduler = scheduler


def _worker_bootstrap(message) -> _WorkerState:
    """Rebuild a full runtime mirror from the bootstrap snapshot."""
    from repro.config import ScheduleConfig
    from repro.core.eve import EVESystem
    from repro.sync.scheduler import SynchronizationScheduler
    from repro.sync.vkb import ViewRecord

    _, space, params, config, coalesce, records, extents = message
    # The shipped space arrives without subscribers
    # (InformationSpace.__getstate__); the rebuilt system registers its
    # own, so shipped data updates maintain the mirrored extents exactly
    # like the parent maintains its own.  auto_synchronize=False gates
    # only capability-triggered synchronization — that work arrives as
    # routed chain groups, never as a listener side effect.
    eve = EVESystem(
        params=params,
        space=space,
        auto_synchronize=False,
        config=config.with_schedule(
            executor="serial", shards=None, budget=None, budget_units=None,
        ),
    )
    for original, current, alive, order in records:
        eve.vkb.adopt_record(
            ViewRecord(original=original, current=current, alive=alive),
            order,
        )
    eve._extents.update(extents)
    return _WorkerState(
        eve, SynchronizationScheduler(ScheduleConfig(coalesce=coalesce))
    )


def _worker_apply_deltas(state: _WorkerState, deltas) -> None:
    """Drain the shipped delta backlog, strictly in parent log order.

    Order matters across kinds: a data update's maintenance consults
    the VKB (``views_referencing``), so a commit that rewrites a view
    must land before updates the parent observed after it.
    """
    eve = state.eve
    for kind, payload in deltas:
        if kind == "change":
            eve.space.apply_change(payload)
        elif kind == "update":
            if payload.is_insert:
                eve.space.insert(payload.relation, payload.row)
            else:
                eve.space.delete(payload.relation, payload.row)
        else:  # "commit": a home view synchronized on another shard
            eve.adopt_results(payload)
            for result in payload:
                if result.chosen is not None:
                    # The mirrored extent no longer matches the evolved
                    # definition; drop it rather than pay a
                    # rematerialization the parent already performs.
                    eve._extents.pop(result.view_name, None)


def _worker_run_batch(state: _WorkerState, message) -> tuple[list, float]:
    """Replay one batch message; return dedupe-format rows + seconds."""
    import traceback
    from time import perf_counter

    from repro.sync.vkb import ViewRecord

    _, deltas, plan, groups, loaners, fault = message
    eve = state.eve
    _worker_apply_deltas(state, deltas)
    for original, current, alive, order in loaners:
        eve.vkb.adopt_record(
            ViewRecord(original=original, current=current, alive=alive),
            order,
        )
    loaner_names = [original.name for original, _, _, _ in loaners]
    runtime = _TracingRuntime(eve)
    rows: list = []
    began = perf_counter()
    try:
        for group, policy, degraded in groups:
            if fault is not None:
                wanted = fault.removeprefix("kill!")
                if any(item.view_name == wanted for item in group.items):
                    if fault.startswith("kill!"):
                        os._exit(17)
                    runtime.current_view = wanted
                    raise RuntimeError(
                        f"injected worker fault for view {wanted!r}"
                    )
            outcomes = state.scheduler._run_group(
                plan, runtime, group, policy, degraded
            )
            rows.extend(_dedupe_rows(outcomes))
            for outcome in outcomes:
                if outcome.results:
                    # Same staleness rule as stray commits above.
                    eve._extents.pop(outcome.item.view_name, None)
    except BaseException as error:  # noqa: BLE001 - re-raised with blame
        raise _WorkerFailure(
            runtime.current_view,
            f"{type(error).__name__}: {error}\n{traceback.format_exc()}",
        ) from error
    finally:
        # Loaners never persist: the home shard owns the record and
        # receives the commit through its delta backlog next dispatch.
        for name in loaner_names:
            if name in eve.vkb:
                eve.vkb.drop(name)
    return rows, perf_counter() - began


def _worker_main(shard: int, inbox, outbox) -> None:
    """Long-lived worker loop: bootstrap once, then batches until stop."""
    import traceback

    state: _WorkerState | None = None
    while True:
        message = pickle.loads(inbox.get())
        kind = message[0]
        if kind == "stop":
            return
        try:
            if kind == "bootstrap":
                state = _worker_bootstrap(message)
                outbox.put(pickle.dumps(("ready", shard, os.getpid())))
            elif kind == "batch":
                rows, seconds = _worker_run_batch(state, message)
                outbox.put(pickle.dumps(("done", shard, rows, seconds)))
        except _WorkerFailure as failure:
            outbox.put(
                pickle.dumps(("error", shard, failure.view, failure.detail))
            )
        except BaseException as error:  # noqa: BLE001 - reported upstream
            outbox.put(
                pickle.dumps(
                    (
                        "error",
                        shard,
                        None,
                        f"{type(error).__name__}: {error}\n"
                        f"{traceback.format_exc()}",
                    )
                )
            )


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _WorkerHandle:
    """One shard's process + queue pair, as seen from the parent."""

    def __init__(self, shard: int, context) -> None:
        self.shard = shard
        self.inbox = context.Queue()
        self.outbox = context.Queue()
        self.process = context.Process(
            target=_worker_main,
            args=(shard, self.inbox, self.outbox),
            daemon=True,
            name=f"repro-shard-{shard}",
        )
        self.process.start()

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def send(self, message: tuple) -> int:
        """Ship one message; return its size in bytes (the messages are
        pickled here, not by the queue, so shipping is accountable)."""
        payload = pickle.dumps(message)
        self.inbox.put(payload)
        return len(payload)

    def receive(self) -> tuple[tuple, int]:
        """Block for a reply, polling liveness; return (message, bytes)."""
        import queue as queue_module

        while True:
            try:
                payload = self.outbox.get(timeout=_POLL_SECONDS)
                return pickle.loads(payload), len(payload)
            except queue_module.Empty:
                if not self.process.is_alive():
                    raise SynchronizationError(
                        f"worker process for shard {self.shard} "
                        f"(pid {self.pid}) died without replying"
                    ) from None

    def stop(self) -> None:
        try:
            if self.process.is_alive():
                self.send(("stop",))
                self.process.join(timeout=2.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=2.0)
        finally:
            try:
                self.process.close()
            except ValueError:
                pass
            self.inbox.close()
            self.outbox.close()


class ShardedWorkerPool:
    """The parent-side face of the persistent worker fleet.

    Owned by one :class:`~repro.sync.scheduler.SynchronizationScheduler`
    and bound to the first runtime it dispatches for.  Survives across
    ``apply_changes`` batches; closed via
    :meth:`~repro.core.eve.EVESystem.close` (the workers are daemon
    processes, so a forgotten pool never hangs interpreter exit).
    """

    def __init__(self, config) -> None:
        #: The owning scheduler's :class:`~repro.config.ScheduleConfig`.
        self.config = config
        self.shards = config.shards or 1
        self._workers: list[_WorkerHandle] = []
        self._runtime = None
        self._space = None
        #: view name -> home shard, frozen per bootstrap epoch.
        self._home: dict[str, int] = {}
        #: Chronological delta log: ``(kind, payload, target)`` where
        #: ``target`` is None for broadcast entries (capability changes,
        #: data updates) and a shard index for stray commits (a home
        #: view's results executed on another shard).
        self._log: list[tuple] = []
        #: Per-shard read positions into ``_log``.
        self._cursors: list[int] = []
        self._expected_vkb_version: int | None = None
        self._expected_constraint_fingerprint: int | None = None
        self._predicted_relations: set[str] = set()
        self._dirty_reason: str | None = None
        self._pending_snapshot_bytes: dict[int, int] = {}

    # -- parent-side observation ---------------------------------------
    def _on_change(self, change) -> None:
        self._log.append(("change", change, None))
        if isinstance(change, AddRelation):
            self._predicted_relations.add(change.new_relation.schema.name)
        elif isinstance(change, DeleteRelation):
            self._predicted_relations.discard(change.relation)
        elif isinstance(change, RenameRelation):
            self._predicted_relations.discard(change.relation)
            self._predicted_relations.add(change.new_name)

    def _on_update(self, update) -> None:
        self._log.append(("update", update, None))

    def _on_cache_invalidated(self, event) -> None:
        # register_relation mutates the MKB without a capability change;
        # its CacheInvalidated emission is the only observable trace (and
        # the relation-name compare below catches the unobserved case).
        if event.reason == "relation-registered":
            self._dirty_reason = "drift"

    # -- lifecycle ------------------------------------------------------
    def _emit(self, runtime, event) -> None:
        events = getattr(runtime, "events", None)
        if events is not None and events.wants(type(event)):
            events.emit(event)

    def _needs_bootstrap(self, runtime) -> str | None:
        """Why the pool must (re)build before dispatching, or None."""
        if self._runtime is None or self._runtime() is not runtime:
            return "bootstrap"
        if not self._workers:
            return "recycle"
        if self._dirty_reason is not None:
            return self._dirty_reason
        if runtime.vkb.version != self._expected_vkb_version:
            return "drift"
        if (
            set(runtime.space.mkb.relation_names)
            != self._predicted_relations
        ):
            return "drift"
        if (
            runtime.space.mkb.constraint_fingerprint()
            != self._expected_constraint_fingerprint
        ):
            # An out-of-band add_join_constraint/add_pc_constraint: the
            # worker mirrors have never seen the constraint and would
            # search against stale knowledge.
            return "mkb-drift"
        return None

    def _teardown(self, runtime, failed_shard: int | None = None) -> None:
        for handle in self._workers:
            reason = "crash" if handle.shard == failed_shard else "shutdown"
            self._emit(
                runtime, WorkerRecycled(handle.shard, handle.pid, reason)
            )
            try:
                handle.stop()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
        self._workers = []

    def close(self) -> None:
        """Stop every worker; a later dispatch re-bootstraps."""
        runtime = self._runtime() if self._runtime is not None else None
        self._teardown(runtime if runtime is not None else _NullRuntime())

    def _bootstrap(self, runtime, reason: str) -> None:
        import multiprocessing

        if self._workers:
            self._teardown(runtime)
        if self._space is not runtime.space:
            # First binding to this runtime's space: observe it.  The
            # listeners stay registered for the space's lifetime — they
            # only append to the pool's log, which re-bootstraps clear.
            runtime.space.on_capability_change(self._on_change)
            runtime.space.on_data_update(self._on_update)
            self._space = runtime.space
            subscribe = getattr(runtime, "subscribe", None)
            if subscribe is not None:
                subscribe(CacheInvalidated, self._on_cache_invalidated)
        self._runtime = weakref.ref(runtime)

        self._home = {}
        per_shard_records: list[list] = [[] for _ in range(self.shards)]
        per_shard_extents: list[dict] = [{} for _ in range(self.shards)]
        alive = 0
        for record in runtime.vkb:
            shard = view_home_shard(record.current, self.shards)
            self._home[record.name] = shard
            per_shard_records[shard].append(
                (
                    record.original,
                    record.current,
                    record.alive,
                    runtime.vkb.order_of(record.name),
                )
            )
            if record.alive:
                alive += 1
            extent = runtime._extents.get(record.name)
            if extent is not None:
                per_shard_extents[shard][record.name] = extent

        context = multiprocessing.get_context("spawn")
        self._workers = [
            _WorkerHandle(shard, context) for shard in range(self.shards)
        ]
        self._pending_snapshot_bytes = {}
        try:
            for handle in self._workers:
                self._pending_snapshot_bytes[handle.shard] = handle.send(
                    (
                        "bootstrap",
                        runtime.space,
                        runtime.params,
                        runtime.config,
                        self.config.coalesce,
                        per_shard_records[handle.shard],
                        per_shard_extents[handle.shard],
                    )
                )
            for handle in self._workers:
                reply, _ = handle.receive()
                if reply[0] != "ready":
                    raise SynchronizationError(
                        f"shard {handle.shard} failed to bootstrap:\n"
                        f"{reply[-1]}"
                    )
        except BaseException:
            self._teardown(runtime)
            raise
        # The snapshot covers everything up to this instant: restart the
        # delta clock here.
        self._log = []
        self._cursors = [0] * self.shards
        self._expected_vkb_version = runtime.vkb.version
        self._expected_constraint_fingerprint = (
            runtime.space.mkb.constraint_fingerprint()
        )
        self._predicted_relations = set(runtime.space.mkb.relation_names)
        self._dirty_reason = None
        self._emit(runtime, ShardRebalanced(self.shards, alive, reason))

    # -- dispatch -------------------------------------------------------
    def _route(self, group) -> int:
        """The shard homing the group's heaviest-salvage-bound item."""
        heaviest = max(
            group.items, key=lambda item: (item.cost_bound, -item.order)
        )
        return self._home[heaviest.view_name]

    def _drain(self, shard: int) -> list[tuple]:
        """This shard's unseen delta backlog, in chronological order."""
        entries = [
            (kind, payload)
            for kind, payload, target in self._log[self._cursors[shard]:]
            if target is None or target == shard
        ]
        self._cursors[shard] = len(self._log)
        return entries

    def _trim_log(self) -> None:
        seen = min(self._cursors) if self._cursors else 0
        if seen:
            del self._log[:seen]
            self._cursors = [cursor - seen for cursor in self._cursors]

    def run_batch(
        self, plan, runtime, dispatchable
    ) -> tuple[list, list[ShardDispatch]]:
        """Dispatch one batch's chain groups; commit in plan order.

        ``dispatchable`` carries the scheduler's up-front budget
        decisions: ``(group, policy, degraded)`` triples.  Returns the
        plan-order :class:`~repro.sync.scheduler.ItemOutcome` list
        (already adopted into the parent VKB) and the per-shard
        accounting rows.
        """
        reason = self._needs_bootstrap(runtime)
        if reason is not None:
            self._bootstrap(runtime, reason)
        snapshot_bytes = self._pending_snapshot_bytes
        self._pending_snapshot_bytes = {}

        routed: dict[int, list] = {}
        loaners: dict[int, dict[str, tuple]] = {}
        for group, policy, degraded in dispatchable:
            shard = self._route(group)
            routed.setdefault(shard, []).append((group, policy, degraded))
            for item in group.items:
                if self._home[item.view_name] != shard:
                    record = runtime.vkb.record(item.view_name)
                    loaners.setdefault(shard, {})[item.view_name] = (
                        record.original,
                        record.current,
                        record.alive,
                        runtime.vkb.order_of(item.view_name),
                    )

        # Work items ship inside their groups; the plan travels once,
        # stripped to what replays consult (changes + the by-relation
        # worklist index).
        slim_plan = type(plan)((), plan.changes, plan.by_relation)
        fault = os.environ.get(FAULT_ENV) or None
        shipped: dict[int, int] = {}
        for shard, groups in routed.items():
            shipped[shard] = self._workers[shard].send(
                (
                    "batch",
                    self._drain(shard),
                    slim_plan,
                    groups,
                    list(loaners.get(shard, {}).values()),
                    fault,
                )
            )

        # Collect every reply before adopting anything: a failed shard
        # must leave the parent VKB untouched by the whole batch.
        rows_by_shard: dict[int, tuple[list, float, int]] = {}
        for shard in routed:
            handle = self._workers[shard]
            try:
                reply, received = handle.receive()
            except SynchronizationError as death:
                self._teardown(runtime, failed_shard=shard)
                in_flight = [
                    item.view_name
                    for group, _, _ in routed[shard]
                    for item in group.items
                ]
                raise SynchronizationError(
                    f"{death} while synchronizing "
                    f"{', '.join(in_flight[:5])}"
                    f"{', ...' if len(in_flight) > 5 else ''}"
                ) from death
            if reply[0] == "error":
                _, _, view, detail = reply
                self._teardown(runtime, failed_shard=shard)
                named = f"view {view!r}" if view else "an unknown view"
                raise SynchronizationError(
                    f"worker for shard {shard} failed while "
                    f"synchronizing {named}:\n{detail}"
                )
            _, _, rows, seconds = reply
            rows_by_shard[shard] = (rows, seconds, received)

        by_order = {item.order: item for item in plan.items}
        outcomes: list = []
        executed_on: dict[int, int] = {}
        for shard, (rows, _, _) in rows_by_shard.items():
            before = len(outcomes)
            _outcomes_from_rows(rows, by_order, outcomes)
            for outcome in outcomes[before:]:
                executed_on[outcome.item.order] = shard
        outcomes.sort(key=lambda outcome: outcome.item.order)
        for outcome in outcomes:
            runtime.adopt_results(outcome.results)
            # A home shard that did not execute its view receives the
            # commit through its delta backlog, in log order.
            home = self._home[outcome.item.view_name]
            if outcome.results and home != executed_on[outcome.item.order]:
                self._log.append(("commit", outcome.results, home))
        self._expected_vkb_version = runtime.vkb.version
        self._trim_log()

        dispatches = [
            ShardDispatch(
                shard=shard,
                views=sum(len(group.items) for group, _, _ in groups),
                groups=len(groups),
                bytes_shipped=shipped[shard],
                bytes_received=rows_by_shard[shard][2],
                snapshot_bytes=snapshot_bytes.get(shard, 0),
                worker_seconds=rows_by_shard[shard][1],
            )
            for shard, groups in routed.items()
        ]
        # Shards that only paid a bootstrap this batch still surface
        # the snapshot cost.
        dispatches.extend(
            ShardDispatch(
                shard=shard, views=0, groups=0, bytes_shipped=0,
                bytes_received=0, snapshot_bytes=cost, worker_seconds=0.0,
            )
            for shard, cost in snapshot_bytes.items()
            if shard not in routed
        )
        dispatches.sort(key=lambda dispatch: dispatch.shard)
        return outcomes, dispatches

    @property
    def worker_pids(self) -> dict[int, int | None]:
        """shard -> pid of the live fleet (diagnostics and tests)."""
        return {handle.shard: handle.pid for handle in self._workers}


class _NullRuntime:
    """Event sink for closing a pool whose runtime is already gone."""

    events = None
