"""Serializable run reports: one machine-readable record per system call.

Every :meth:`~repro.core.eve.EVESystem.apply_changes` and
:meth:`~repro.core.eve.EVESystem.apply_updates` call aggregates the
payloads its events carried — per-view
:class:`~repro.sync.pipeline.StageCounters`, per-batch
:class:`~repro.sync.scheduler.ScheduleReport`\\ s, per-flush
:class:`~repro.maintenance.counters.MaintenanceCounters` — into one
:class:`SystemReport`, exposed as ``EVESystem.last_report`` and
consumed by the benchmark drivers in place of their hand-rolled dicts.

``SystemReport.to_dict()`` renders schema version
:data:`REPORT_SCHEMA_VERSION` (validated by
``benchmarks/validate_bench.py``)::

    {
      "schema_version": 4,
      "operation": "apply_changes" | "apply_updates",
      "synchronization": {
        "views": [
          {"view": str, "change": str, "survived": bool,
           "qc": float | null, "policy": str | null,
           "counters": {<StageCounters fields>, "rows_scanned": 0,
                        "rows_selected": 0} | null},
          ...
        ],
        "counters": {<merged StageCounters fields>, "rows_scanned": 0,
                     "rows_selected": 0},
        "survived": int, "undefined": int
      },
      "schedule": {
        "batches": [
          {"executor": "serial", "workers": 1, "views": int,
           "coalesced": int, "wall_seconds": float,
           "budget": float | null, "budget_units": float | null,
           "units_spent": float,
           "executor_fallback": null,
           "degraded": [view, ...], "deferred": [view, ...],
           "shards": []},
          ...
        ],
        "degraded": [view, ...], "deferred": [view, ...],
        "shards": []
      },
      "maintenance": {
        "flushes": [
          {"view": str, "relations": [str, ...], "updates": int,
           "messages": int, "bytes_transferred": int,
           "io_operations": int},
          ...
        ],
        "counters": {"messages": int, "bytes_transferred": int,
                     "io_operations": int},
        "kernels": {"rows_scanned": 0, "rows_selected": 0},
        "updates": int
      },
      "plans": {
        "views": [
          {"kind": "evaluation" | "maintenance", "view": str,
           "steps": [{"relation": str,
                      "access": "index_probe" | "scan", ...}, ...],
           ...},  # repro.esql.explain to_dict() renderings
          ...
        ],
        "total": int   # plans produced before the capture cap
      },
      "serving": {
        "enabled": bool,     # MVCC serving mode armed (snapshot taken)
        "version": int,      # extent version after the call
        "published": int,    # versions this call published
        "staged": int,       # staged extent writes this call
        "copied": int,       # copy-on-write extent copies this call
        "pins": int          # live snapshot pins at report time
      }
    }

All five sections are always present (empty/disabled for the parts of
the API that did not run) so consumers can index unconditionally.  Keys
are emitted sorted by :meth:`SystemReport.to_json`, making reports
diff-stable across runs.

Plans are built on read.  A call keeps, per captured plan, only what
that plan reads: an ``apply_updates`` call a
:class:`MaintenancePlanCapture` per (view, updated relation) pair —
immutable references to the definition object, its placement (owner IS
and ``Schema`` of each relation), the flush's counters and the frozen
maintenance config — and an ``apply_changes`` call an
:class:`EvaluationPlanCapture` per salvaged view — the definition, each
FROM relation's schema, live cardinality and statistics entry, the join
selectivity, the frozen engine config and the extent's final
cardinality.  Those are all :func:`~repro.esql.explain.explain_maintenance`
and :func:`~repro.esql.explain.build_plan` read, so the plan dicts built
on the first read of :attr:`SystemReport.plans` (or of
``to_dict()``/``to_json()``) equal the ones the call could have built,
however the space and its statistics moved since.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from collections.abc import Mapping, Sequence
from functools import cached_property
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.config import EngineConfig, MaintenanceConfig
from repro.esql import explain
from repro.esql.ast import ViewDefinition
from repro.maintenance.counters import MaintenanceCounters
from repro.misd.statistics import RelationStatistics, SpaceStatistics
from repro.relational.schema import Schema
from repro.space.space import Placement, placement_maps
from repro.sync.pipeline import StageCounters

if TYPE_CHECKING:  # imported lazily to avoid package cycles
    from repro.core.eve import SynchronizationResult
    from repro.sync.scheduler import ScheduleReport

__all__ = [
    "EvaluationPlanCapture",
    "MaintenanceFlush",
    "MaintenancePlanCapture",
    "PLAN_CAPTURE_LIMIT",
    "REPORT_SCHEMA_VERSION",
    "SynchronizationRecord",
    "SystemReport",
]

#: Bump when the to_dict layout changes shape (validators pin this).
#: v2: per-batch ``executor_fallback`` and per-batch + call-aggregated
#: dispatch accounting lists (always empty since the one dispatch path
#: became serial).
#: v3: the ``plans`` section — EXPLAIN renderings of the call's view
#: evaluations (``apply_changes``) or maintenance itineraries
#: (``apply_updates``), capped at :data:`PLAN_CAPTURE_LIMIT` entries.
#: v4: the ``serving`` section — MVCC extent-version and snapshot-pin
#: accounting of the online serving plane (always present; ``enabled``
#: is False for systems that never took a snapshot).
REPORT_SCHEMA_VERSION = 4

#: Most plan dicts a report embeds (chosen by sorted view name for
#: determinism); ``plans.total`` still counts every candidate, so a
#: 100k-view storm report stays small without hiding the truncation.
PLAN_CAPTURE_LIMIT = 16


#: v4 constants: the column-kernel scan counts of the deleted columnar
#: plane, written as zeros until the next schema bump.
_KERNELS = {"rows_scanned": 0, "rows_selected": 0}


def _counters_dict(counters: StageCounters) -> dict[str, Any]:
    payload = dataclasses.asdict(counters)
    payload["seconds"] = round(payload["seconds"], 6)
    payload.update(_KERNELS)
    return payload


# ----------------------------------------------------------------------
# Leaf records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SynchronizationRecord:
    """One view's search outcome, flattened for serialization."""

    view: str
    change: str
    survived: bool
    qc: float | None
    policy: str | None
    counters: StageCounters | None

    @classmethod
    def of(cls, result: "SynchronizationResult") -> "SynchronizationRecord":
        """Flatten a live :class:`SynchronizationResult` for the report."""
        return cls(
            view=result.view_name,
            change=repr(result.change),
            survived=result.survived,
            qc=result.chosen.qc if result.chosen is not None else None,
            policy=str(result.policy) if result.policy is not None else None,
            counters=result.counters,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable record (counters inlined, None when absent)."""
        return {
            "view": self.view,
            "change": self.change,
            "survived": self.survived,
            "qc": self.qc,
            "policy": self.policy,
            "counters": (
                _counters_dict(self.counters)
                if self.counters is not None
                else None
            ),
        }


@dataclass(frozen=True)
class MaintenanceFlush:
    """One maintenance flush: a run of updates absorbed by one extent."""

    view: str
    relations: tuple[str, ...]
    updates: int
    counters: MaintenanceCounters

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable flush row with modeled cost factors inlined."""
        return {
            "view": self.view,
            "relations": list(self.relations),
            "updates": self.updates,
            "messages": self.counters.messages,
            "bytes_transferred": self.counters.bytes_transferred,
            "io_operations": self.counters.io_operations,
        }


@dataclass(frozen=True)
class MaintenancePlanCapture:
    """Everything one maintenance itinerary reads, captured by reference.

    All of it is immutable, so :meth:`to_dict` renders, whenever it is
    called, the plan the capturing call would have rendered.
    """

    view: ViewDefinition
    placement: Placement
    updated_relation: str
    #: The flush's counters (the whole flush, which may have covered
    #: several relations) and its update count.
    actual: Mapping[str, int]
    config: MaintenanceConfig

    def to_dict(self) -> dict[str, Any]:
        """The :func:`~repro.esql.explain.explain_maintenance` rendering."""
        owners, schemas = placement_maps(
            self.view.relation_names, self.placement
        )
        return explain.explain_maintenance(
            self.view,
            owners,
            schemas,
            self.updated_relation,
            config=self.config,
            actual=self.actual,
        ).to_dict()


class _CapturedRelation(NamedTuple):
    """What an evaluation plan reads of a FROM relation."""

    schema: Schema
    cardinality: int


@dataclass(frozen=True)
class EvaluationPlanCapture:
    """Everything one evaluation plan reads, captured at call time.

    The definition, the schemas and the config are immutable and held by
    reference; cardinalities and statistics entries are copied out of
    the live space, so :meth:`to_dict` renders, whenever it is called,
    the plan the capturing call would have rendered.
    """

    view: ViewDefinition
    #: Per FROM relation: its name, schema, live cardinality and
    #: ``SpaceStatistics`` entry (None when it has none).
    relations: tuple[
        tuple[str, Schema, int, RelationStatistics | None], ...
    ]
    join_selectivity: float
    config: EngineConfig
    #: The rematerialized extent's cardinality.
    actual_rows: int

    def to_dict(self) -> dict[str, Any]:
        """The :func:`~repro.esql.explain.build_plan` rendering."""
        relations = {
            name: _CapturedRelation(schema, cardinality)
            for name, schema, cardinality, _ in self.relations
        }
        statistics = SpaceStatistics(
            self.join_selectivity,
            relations={
                name: entry
                for name, _, _, entry in self.relations
                if entry is not None
            },
        )
        plan = explain.build_plan(self.view, relations, statistics, self.config)
        plan.actual_rows = self.actual_rows
        return plan.to_dict()


#: One entry of a report's plans, built on first read.
PlanSource = EvaluationPlanCapture | MaintenancePlanCapture


# ----------------------------------------------------------------------
# The aggregated report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SystemReport:
    """Everything one ``apply_changes`` / ``apply_updates`` call did."""

    operation: str
    synchronizations: tuple[SynchronizationRecord, ...] = ()
    schedules: "tuple[ScheduleReport, ...]" = ()
    flushes: tuple[MaintenanceFlush, ...] = ()
    #: Counters accumulated across the whole call (``apply_updates``).
    maintenance_counters: MaintenanceCounters | None = None
    #: The call's EXPLAIN plans, at most :data:`PLAN_CAPTURE_LIMIT`:
    #: evaluation captures kept by ``apply_changes``, maintenance
    #: captures kept by ``apply_updates``.  Read them through
    #: :attr:`plans`.
    plan_sources: tuple[PlanSource, ...] = ()
    #: How many plans the call produced before capping.
    plans_total: int = 0
    #: Serving-plane accounting for the call (extent versions published,
    #: staged writes, copy-on-write copies, live snapshot pins); None
    #: renders as the disabled-serving section.
    serving: dict[str, Any] | None = None

    # -- builders -------------------------------------------------------
    @classmethod
    def for_changes(
        cls,
        results: "Sequence[SynchronizationResult]",
        schedules: "Sequence[ScheduleReport]",
        plans: Sequence[EvaluationPlanCapture] = (),
        plans_total: int | None = None,
        serving: dict[str, Any] | None = None,
    ) -> "SystemReport":
        """Build the report for one ``apply_changes`` call."""
        return cls(
            operation="apply_changes",
            synchronizations=tuple(
                SynchronizationRecord.of(result) for result in results
            ),
            schedules=tuple(schedules),
            plan_sources=tuple(plans),
            plans_total=(
                len(plans) if plans_total is None else plans_total
            ),
            serving=serving,
        )

    @classmethod
    def for_updates(
        cls,
        flushes: Sequence[MaintenanceFlush],
        counters: MaintenanceCounters,
        plans: Sequence[MaintenancePlanCapture] = (),
        plans_total: int | None = None,
        serving: dict[str, Any] | None = None,
    ) -> "SystemReport":
        """Build the report for one ``apply_updates`` call."""
        return cls(
            operation="apply_updates",
            flushes=tuple(flushes),
            maintenance_counters=counters,
            plan_sources=tuple(plans),
            plans_total=(
                len(plans) if plans_total is None else plans_total
            ),
            serving=serving,
        )

    # -- aggregates -----------------------------------------------------
    @cached_property
    def plans(self) -> tuple[dict[str, Any], ...]:
        """EXPLAIN plan dicts for the call (see :mod:`repro.esql.explain`):
        evaluation plans for ``apply_changes``, maintenance itineraries
        for ``apply_updates``.  Built on first read and kept; a capture
        whose plan cannot be built is left out."""
        plans = []
        for source in self.plan_sources:
            try:
                plans.append(source.to_dict())
            except Exception:  # noqa: BLE001 - best-effort EXPLAIN; plan dropped
                continue
        return tuple(plans)

    @property
    def counters(self) -> StageCounters:
        """Call-merged pipeline counters (deferral accounting included)."""
        merged = StageCounters()
        for schedule in self.schedules:
            merged = merged.merged(schedule.counters)
        if not self.schedules:
            for record in self.synchronizations:
                if record.counters is not None:
                    merged = merged.merged(record.counters)
        return merged

    @property
    def degraded_views(self) -> tuple[str, ...]:
        """Views demoted to first-legal by a scheduler budget."""
        return tuple(
            name
            for schedule in self.schedules
            for name in schedule.degraded_views
        )

    @property
    def deferred_views(self) -> tuple[str, ...]:
        """Views parked past a deadline (resumable later)."""
        return tuple(
            record.view_name
            for schedule in self.schedules
            for record in schedule.deferred
        )

    @property
    def updates(self) -> int:
        """Total data updates absorbed across every flush."""
        return sum(flush.updates for flush in self.flushes)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The versioned, JSON-serializable report payload (schema v4)."""
        maintenance = self.maintenance_counters
        if maintenance is None:
            maintenance = MaintenanceCounters()
            for flush in self.flushes:
                maintenance = maintenance.merged(flush.counters)
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "operation": self.operation,
            "synchronization": {
                "views": [
                    record.to_dict() for record in self.synchronizations
                ],
                "counters": _counters_dict(self.counters),
                "survived": sum(
                    1 for record in self.synchronizations if record.survived
                ),
                "undefined": sum(
                    1
                    for record in self.synchronizations
                    if not record.survived
                ),
            },
            "schedule": {
                "batches": [
                    {
                        # Constants: one in-process dispatch path; the
                        # v4 layout keeps the executor/workers/shards
                        # keys (and ``executor_fallback``) until the
                        # next schema bump.
                        "executor": "serial",
                        "workers": 1,
                        "views": len(schedule.results)
                        + len(schedule.deferred),
                        "coalesced": schedule.coalesced,
                        "wall_seconds": round(schedule.wall_seconds, 6),
                        "budget": schedule.budget,
                        "budget_units": schedule.budget_units,
                        "units_spent": round(schedule.units_spent, 6),
                        "executor_fallback": None,
                        "degraded": list(schedule.degraded_views),
                        "deferred": [
                            record.view_name
                            for record in schedule.deferred
                        ],
                        "shards": [],
                    }
                    for schedule in self.schedules
                ],
                "degraded": list(self.degraded_views),
                "deferred": list(self.deferred_views),
                "shards": [],
            },
            "maintenance": {
                "flushes": [flush.to_dict() for flush in self.flushes],
                "counters": {
                    "messages": maintenance.messages,
                    "bytes_transferred": maintenance.bytes_transferred,
                    "io_operations": maintenance.io_operations,
                },
                "kernels": dict(_KERNELS),
                "updates": self.updates,
            },
            "plans": {
                "views": [dict(plan) for plan in self.plans],
                "total": self.plans_total,
            },
            "serving": (
                dict(self.serving)
                if self.serving is not None
                else {
                    "enabled": False,
                    "version": 0,
                    "published": 0,
                    "staged": 0,
                    "copied": 0,
                    "pins": 0,
                }
            ),
        }

    def to_json(self, indent: int | None = None) -> str:
        """The stable wire form: sorted keys, schema-versioned."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
