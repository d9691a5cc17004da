"""The three closed-loop workloads of the repository benchmark.

One operator drives the default ``EVESystem(config=SystemConfig())``
from a single thread: it submits the next batch only after the
previous one committed, and reads back what the batch wrote.  A
workload is a fixed *episode* of such requests over a freshly set-up
system; a run repeats episodes (each with its own set-ups) until the
measuring time is spent.  Every request's output is logged outside the
timed region and checked afterwards against a replay on a reference
configuration (:meth:`Workload.expected`).  Why each workload exists is
stated once, in ``BENCHMARK.json``.

Inputs come only from the seed: the scenario builders of
``repro.workloadgen.scenarios`` fix the shapes, and the seed fixes the
change order, row payloads, update keys and read targets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro import EVESystem, SystemConfig
from repro.config import MaintenanceConfig
from repro.esql.evaluator import evaluate_view
from repro.esql.printer import format_view_compact
from repro.space.changes import DeleteRelation
from repro.space.updates import UpdateKind
from repro.workloadgen import scenarios

_MASK = (1 << 64) - 1


def digest(rows) -> tuple[int, int]:
    """Order-insensitive multiset fingerprint of a row collection."""
    return (len(rows), sum(map(hash, rows)) & _MASK)


@dataclass
class System:
    """A set-up system plus the per-build inputs the episode replays."""

    eve: EVESystem
    changes: list = field(default_factory=list)
    view: str = ""


@dataclass
class Log:
    """What one pass of episodes did, and what each request returned.

    ``write_checks`` rows are ``(position in episode, payload)`` and
    ``read_checks`` rows ``(state step, views, digests)``, one digest per
    view read; a payload or digests of ``None`` mark a request that
    raised.
    """

    write_s: list[float] = field(default_factory=list)
    #: Views synchronized or updates applied by the logged writes.
    units: int = 0
    read_s: list[float] = field(default_factory=list)
    write_checks: list[tuple[int, Any]] = field(default_factory=list)
    read_checks: list[tuple[int, tuple[str, ...], Any]] = field(
        default_factory=list
    )
    #: Per-episode invariants that failed (charged as failed requests).
    broken: int = 0

    def write(self, seconds: float, units: int, position: int, payload) -> None:
        """Log one write; ``payload`` is None (no units) when it raised."""
        self.write_s.append(seconds)
        if payload is not None:
            self.units += units
        self.write_checks.append((position, payload))

    def read(self, seconds: float | None, step: int, views, rows) -> None:
        """Log one read of ``views``; ``seconds`` is None when it raised."""
        if seconds is None:
            self.read_checks.append((step, views, None))
            return
        self.read_s.append(seconds)
        self.read_checks.append((step, views, tuple(map(digest, rows))))

    @property
    def attempted(self) -> int:
        return len(self.write_checks) + len(self.read_checks)


@dataclass
class Expected:
    """Reference outputs: one payload per write position, one digest
    per view of each ``(state step, views)`` read."""

    writes: list[Any]
    reads: dict[tuple[int, tuple[str, ...]], tuple]


def count_failed(log: Log, expected: Expected) -> int:
    """Requests that raised or disagree with the reference replay."""
    failed = log.broken
    for position, payload in log.write_checks:
        if payload is None or payload != expected.writes[position]:
            failed += 1
    for step, views, found in log.read_checks:
        if found is None or found != expected.reads.get((step, views)):
            failed += 1
    return failed


def _sync_payload(results) -> tuple:
    """Winners and QC-Values of one change batch, by view name."""
    return tuple(
        sorted(
            (
                result.view_name,
                format_view_compact(result.chosen.rewriting.view)
                if result.chosen is not None
                else None,
                result.chosen.qc if result.chosen is not None else None,
            )
            for result in results
        )
    )


def _cf_payload(counters) -> tuple[int, int, int]:
    return (
        counters.messages,
        counters.bytes_transferred,
        counters.io_operations,
    )


def _timed_write(tracer, request, *args):
    """Run one write request; returns ``(seconds, outcome)``, with an
    outcome of None if it raised."""
    span = tracer.open("bench.write") if tracer is not None else -1
    started = perf_counter()
    try:
        outcome = request(*args)
    except Exception:  # noqa: BLE001 - a raising request counts as failed
        outcome = None
    seconds = perf_counter() - started
    if span >= 0:
        tracer.close(span)
    return seconds, outcome


def _read(log: Log, step: int, eve: EVESystem, views, tracer, held=None):
    """Run one read request of the views named in the tuple ``views`` and
    log it (a raising read counts as failed).

    With serving armed the read pins a snapshot (or uses ``held``),
    copies each view's rows and releases the pin; unarmed it copies the
    rows of the live extents.
    """
    try:
        if tracer is None:
            seconds, rows = _untraced_read(eve, views, held)
        else:
            seconds, rows = _traced_read(eve, views, tracer, held)
    except Exception:  # noqa: BLE001 - a raising request counts as failed
        log.read(None, step, views, None)
        return
    log.read(seconds, step, views, rows)


def _untraced_read(eve: EVESystem, views, held):
    # Kept apart from _traced_read so that reads of a microsecond carry
    # no tracing branches inside their timed region.
    if held is not None:
        started = perf_counter()
        rows = [list(held.extent(view).rows) for view in views]
        return perf_counter() - started, rows
    if not eve._extents.serving:
        started = perf_counter()
        rows = [list(eve.extent(view).rows) for view in views]
        return perf_counter() - started, rows
    started = perf_counter()
    snapshot = eve.snapshot()
    rows = [list(snapshot.extent(view).rows) for view in views]
    snapshot.release()
    return perf_counter() - started, rows


def _traced_read(eve: EVESystem, views, tracer, held):
    """:func:`_untraced_read` with ``bench.read`` around the request and
    ``serving.read.pin`` / ``serving.read.scan`` around its parts."""
    request = tracer.open("bench.read")
    started = perf_counter()
    if held is None and eve._extents.serving:
        snapshot = _pin(eve, tracer)
        span = tracer.open("serving.read.scan")
        rows = [list(snapshot.extent(view).rows) for view in views]
        tracer.close(span)
        _release(snapshot, tracer)
    else:
        span = tracer.open("serving.read.scan")
        source = held if held is not None else eve
        rows = [list(source.extent(view).rows) for view in views]
        tracer.close(span)
    seconds = perf_counter() - started
    tracer.close(request)
    return seconds, rows


def _pin(eve: EVESystem, tracer):
    if tracer is None:
        return eve.snapshot()
    span = tracer.open("serving.read.pin")
    snapshot = eve.snapshot()
    tracer.close(span)
    return snapshot


def _release(snapshot, tracer) -> None:
    if tracer is None:
        snapshot.release()
        return
    span = tracer.open("serving.read.pin")
    snapshot.release()
    tracer.close(span)


class Workload:
    """One closed-loop workload: inputs, set-up, episode, reference."""

    name = ""
    #: Episode sizes; ``SMOKE`` shrinks them for the self-tests.
    SIZES: dict[str, int] = {}
    SMOKE: dict[str, int] = {}
    #: Percentile sample floors a pass must reach before it stops:
    #: ``(writes, reads)``; a p90 needs 100 samples for ten beyond it.
    min_samples = (100, 100)

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.sizes = dict(self.SMOKE if smoke else self.SIZES)
        if smoke:
            self.min_samples = (1, 1)
        self.generate(random.Random(seed))

    def generate(self, rng: random.Random) -> None:
        raise NotImplementedError

    def setup(self) -> System:
        raise NotImplementedError

    def episode(self, system: System, log: Log, tracer=None) -> None:
        raise NotImplementedError

    def expected(self, read_keys: set[tuple[int, tuple[str, ...]]]) -> Expected:
        raise NotImplementedError


# ----------------------------------------------------------------------
# salvage_storm
# ----------------------------------------------------------------------
class SalvageStorm(Workload):
    name = "salvage_storm"
    SIZES = {"views": 1000, "view_relations": 100, "donors": 6}
    SMOKE = {"views": 40, "view_relations": 10, "donors": 2}

    def _scenario(self):
        return scenarios.build_scheduler_stress_scenario(
            views=self.sizes["views"],
            view_relations=self.sizes["view_relations"],
            donors_per_relation=self.sizes["donors"],
        )

    def generate(self, rng: random.Random) -> None:
        self.order = list(range(self.sizes["view_relations"]))
        rng.shuffle(self.order)

    def setup(self, config: SystemConfig | None = None) -> System:
        scenario = self._scenario()
        eve = EVESystem(space=scenario.space, config=config or SystemConfig())
        for view in scenario.views:
            eve.define_view(view)
        return System(eve, [scenario.changes[i] for i in self.order])

    def episode(self, system: System, log: Log, tracer=None) -> None:
        eve = system.eve
        for position, change in enumerate(system.changes):
            seconds, results = _timed_write(tracer, eve.apply_changes, [change])
            if results is None:
                log.write(seconds, 0, position, None)
                continue
            log.write(seconds, len(results), position, _sync_payload(results))
            # Read back, in one request, every view the batch salvaged.
            views = tuple(result.view_name for result in results)
            _read(log, position + 1, eve, views, tracer)

    def expected(self, read_keys) -> Expected:
        """Replay on ``SystemConfig.reference()`` (exhaustive search,
        naive engine, dict delta plane)."""
        system = self.setup(SystemConfig.reference())
        eve = system.eve
        wanted = _by_step(read_keys)
        writes, reads = [], {}
        for position, change in enumerate(system.changes):
            writes.append(_sync_payload(eve.apply_changes([change])))
            _expect_reads(reads, eve, position + 1, wanted)
        return Expected(writes, reads)


def _by_step(read_keys) -> dict[int, list[tuple[str, ...]]]:
    grouped: dict[int, list[tuple[str, ...]]] = {}
    for step, views in read_keys:
        grouped.setdefault(step, []).append(views)
    return grouped


def _expect_reads(reads: dict, eve: EVESystem, step: int, wanted) -> None:
    """Record the reference digests of every read made at ``step``."""
    for views in wanted.get(step, ()):
        reads[(step, views)] = tuple(
            digest(eve.extent(view).rows) for view in views
        )


# ----------------------------------------------------------------------
# update_storm
# ----------------------------------------------------------------------
class UpdateStorm(Workload):
    name = "update_storm"
    SIZES = {"updates": 20_000, "batch": 100, "key_rows": 4000,
             "live_rows": 10_000, "delete_every": 2, "prune_every": 11}
    SMOKE = {"updates": 600, "batch": 50, "key_rows": 200,
             "live_rows": 300, "delete_every": 2, "prune_every": 11}

    def generate(self, rng: random.Random) -> None:
        """The maintenance-storm stream shape with seeded keys and
        payloads, as a steady churn: ``R`` starts with ``live_rows``
        rows, every ``delete_every``-th event deletes a random live row
        (so every delete is valid) and the others insert, so ``R`` and
        the view keep their size and every batch and read does the same
        work.  About one insert in ``prune_every`` carries a negative
        ``B`` the view's selection prunes."""
        sizes = self.sizes

        def row() -> tuple[int, int]:
            if rng.randrange(sizes["prune_every"]) == 0:
                payload = -1 - rng.randrange(1_000)
            else:
                payload = rng.randrange(1_000_000)
            return (rng.randrange(sizes["key_rows"]), payload)

        live = [row() for _ in range(sizes["live_rows"])]
        self.preload = list(live)
        stream: list[tuple[str, UpdateKind, tuple]] = []
        for step in range(sizes["updates"]):
            if step % sizes["delete_every"] == sizes["delete_every"] - 1:
                slot = rng.randrange(len(live))
                live[slot], live[-1] = live[-1], live[slot]
                stream.append(("R", UpdateKind.DELETE, live.pop()))
                continue
            fresh = row()
            stream.append(("R", UpdateKind.INSERT, fresh))
            live.append(fresh)
        width = sizes["batch"]
        self.batches = [
            stream[start : start + width]
            for start in range(0, len(stream), width)
        ]

    def setup(self, config: SystemConfig | None = None) -> System:
        scenario = scenarios.build_maintenance_storm_scenario(
            updates=1, rows=self.sizes["key_rows"]
        )
        scenario.space.relation("R").insert_many(self.preload)
        eve = EVESystem(space=scenario.space, config=config or SystemConfig())
        eve.define_view(scenario.view)
        return System(eve, view=scenario.view.name)

    def episode(self, system: System, log: Log, tracer=None) -> None:
        eve, view = system.eve, system.view
        for position, batch in enumerate(self.batches):
            seconds, charged = _timed_write(tracer, eve.apply_updates, batch)
            payload = None if charged is None else _cf_payload(charged)
            log.write(seconds, len(batch), position, payload)
            # Read back the view the batch maintained.
            _read(log, position + 1, eve, (view,), tracer)
        # The maintained extent must equal a from-scratch evaluation.
        recomputed = evaluate_view(eve.vkb.current(view), eve.space.relations())
        if eve.extent(view) != recomputed:
            log.broken += 1

    def expected(self, read_keys) -> Expected:
        """Replay on the dict delta plane, the maintenance reference."""
        eve = self.setup(
            SystemConfig(maintenance=MaintenanceConfig(representation="dict"))
        ).eve
        wanted = _by_step(read_keys)
        writes, reads = [], {}
        for position, batch in enumerate(self.batches):
            writes.append(_cf_payload(eve.apply_updates(batch)))
            _expect_reads(reads, eve, position + 1, wanted)
        return Expected(writes, reads)


# ----------------------------------------------------------------------
# serve_while_evolving
# ----------------------------------------------------------------------
class ServeWhileEvolving(Workload):
    name = "serve_while_evolving"
    SIZES = {"views": 1000, "view_relations": 200, "spare_relations": 100,
             "changes": 120, "hot_renames": 12, "replacement_deletes": 4,
             "rows": 200, "rounds": 40, "updates_per_round": 50,
             "reads_per_round": 100}
    SMOKE = {"views": 60, "view_relations": 12, "spare_relations": 6,
             "changes": 12, "hot_renames": 4, "replacement_deletes": 2,
             "rows": 20, "rounds": 4, "updates_per_round": 6,
             "reads_per_round": 10}

    def _scenario(self):
        sizes = self.sizes
        return scenarios.build_evolution_storm_scenario(
            views=sizes["views"],
            view_relations=sizes["view_relations"],
            spare_relations=sizes["spare_relations"],
            changes=sizes["changes"],
            hot_renames=sizes["hot_renames"],
            replacement_deletes=sizes["replacement_deletes"],
            seed=self.scenario_seed,
        )

    def generate(self, rng: random.Random) -> None:
        sizes = self.sizes
        self.scenario_seed = rng.randrange(1 << 30)
        scenario = self._scenario()
        # The rows every relation starts with, drawn once here so that
        # set-up times only their insertion.
        self.rows = {}
        for name in sorted(scenario.space.relations()):
            width = len(scenario.space.relation(name).schema.attributes)
            self.rows[name] = [
                tuple(rng.randrange(10_000) for _ in range(width))
                for _ in range(sizes["rows"])
            ]
        rounds = sizes["rounds"]
        changes = scenario.changes
        per_round, extra = divmod(len(changes), rounds)
        self.change_slices, cursor = [], 0
        for index in range(rounds):
            width = per_round + (1 if index < extra else 0)
            self.change_slices.append((cursor, cursor + width))
            cursor += width
        # Inserts go to view relations still alive after the round's
        # changes; rows are positional, so attribute renames do not
        # matter.
        deleted: set[str] = set()
        self.update_batches = []
        for start, stop in self.change_slices:
            deleted.update(
                change.relation
                for change in changes[start:stop]
                if isinstance(change, DeleteRelation)
            )
            live = [n for n in scenario.view_relations if n not in deleted]
            self.update_batches.append(
                [
                    (
                        live[rng.randrange(len(live))],
                        UpdateKind.INSERT,
                        tuple(rng.randrange(10_000) for _ in range(3)),
                    )
                    for _ in range(sizes["updates_per_round"])
                ]
            )
        # Half the reads use the round's held pin, half a fresh pin.
        views = [view.name for view in scenario.views]
        self.reads = []
        for _ in range(rounds):
            held = [True, False] * (sizes["reads_per_round"] // 2)
            rng.shuffle(held)
            self.reads.append(
                [(pin, views[rng.randrange(len(views))]) for pin in held]
            )

    def setup(
        self, config: SystemConfig | None = None, serve: bool = True
    ) -> System:
        scenario = self._scenario()
        for name, rows in self.rows.items():
            scenario.space.relation(name).insert_many(rows)
        eve = EVESystem(space=scenario.space, config=config or SystemConfig())
        for view in scenario.views:
            eve.define_view(view)
        if serve:
            eve.snapshot().release()  # arm MVCC serving mode
        return System(eve, scenario.changes)

    def _writes(self, system: System, index: int) -> tuple:
        """The round's change batch, then its insert batch."""
        start, stop = self.change_slices[index]
        results = system.eve.apply_changes(system.changes[start:stop])
        charged = system.eve.apply_updates(self.update_batches[index])
        return results, charged

    @staticmethod
    def _payload(outcome) -> tuple:
        results, charged = outcome
        return _sync_payload(results), _cf_payload(charged)

    def episode(self, system: System, log: Log, tracer=None) -> None:
        eve = system.eve
        for index in range(self.sizes["rounds"]):
            held = _pin(eve, tracer)
            seconds, outcome = _timed_write(tracer, self._writes, system, index)
            payload = None if outcome is None else self._payload(outcome)
            log.write(seconds, len(self.update_batches[index]), index, payload)
            for use_held, view in self.reads[index]:
                # Held-pin reads see the state before this round's
                # writes; fresh pins see the state after them.
                if use_held:
                    _read(log, index, eve, (view,), tracer, held)
                else:
                    _read(log, index + 1, eve, (view,), tracer)
            _release(held, tracer)
        if eve._extents.active_pins:
            log.broken += 1  # a pin leaked

    def expected(self, read_keys) -> Expected:
        """Serial replay of the same rounds with serving unarmed."""
        system = self.setup(serve=False)
        wanted = _by_step(read_keys)
        writes, reads = [], {}
        for index in range(self.sizes["rounds"] + 1):
            _expect_reads(reads, system.eve, index, wanted)
            if index < self.sizes["rounds"]:
                writes.append(self._payload(self._writes(system, index)))
        return Expected(writes, reads)


WORKLOADS = {
    workload.name: workload
    for workload in (SalvageStorm, UpdateStorm, ServeWhileEvolving)
}
