"""EXPLAIN: structured plans for view evaluation and maintenance runs.

The evaluator (:mod:`repro.esql.evaluator`) and the delta plane
(:mod:`repro.maintenance.simulator`) make their decisions — greedy join
order, index probe vs scan, projection pushdown — deep
inside their hot loops, invisibly.  This module re-derives those
decisions as inspectable data:

* :func:`build_plan` walks a view exactly the way the evaluator will
  (same join order, same probe split, same clause scheduling) and
  returns an :class:`EvaluationPlan` whose :class:`PlanStep`\\ s carry
  the cardinality estimates that drove every choice.
* :func:`explain_view` additionally executes the view with a step trace
  (``analyze=True``) and reconciles estimated vs actual cardinalities.
* :func:`explain_maintenance` renders Algorithm 1's itinerary for one
  update — source visit order and per-relation index-probe vs scan —
  as a :class:`MaintenanceExplain`.

Plans are pure descriptions: building one never materializes an extent
or mutates any relation.  ``to_dict()`` is the stable wire form embedded
in the :class:`~repro.report.SystemReport` ``plans`` section (added in
schema v3); ``to_text()`` is the stable human rendering the golden tests
pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

from repro.esql.ast import ViewDefinition
from repro.esql.validate import ViewValidator
from repro.misd.statistics import (
    DEFAULT_JOIN_SELECTIVITY,
    DEFAULT_SELECTIVITY,
    SpaceStatistics,
)
from repro.relational.expressions import PrimitiveClause
from repro.relational.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.config import EngineConfig

__all__ = [
    "EvaluationPlan",
    "MaintenanceExplain",
    "MaintenanceStep",
    "PlanStep",
    "build_plan",
    "clause_selectivity",
    "explain_maintenance",
    "explain_view",
]

#: Access-path vocabulary; validators pin these strings.
ACCESS_INDEX_PROBE = "index_probe"
ACCESS_SCAN = "scan"


def _fmt(value: float | int | None) -> str:
    """Stable number rendering: integers bare, floats to one decimal."""
    if value is None:
        return "?"
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.1f}"


def clause_selectivity(
    clause: PrimitiveClause, statistics: SpaceStatistics | None
) -> float:
    """The fraction of candidates this clause is estimated to keep.

    Equijoins take the space-wide join selectivity (Table 1's ``js``),
    single-relation conditions the relation's sigma when statistics
    cover it, and everything else the paper's default sigma.  The
    result is deterministic for a given clause + statistics pair.
    """
    if clause.is_equijoin and len(clause.relations()) > 1:
        if statistics is not None:
            return statistics.join_selectivity
        return DEFAULT_JOIN_SELECTIVITY
    relations = clause.relations()
    if len(relations) == 1 and statistics is not None:
        name = next(iter(relations))
        if name in statistics.relations:
            return statistics.selectivity(name)
    return DEFAULT_SELECTIVITY


# ----------------------------------------------------------------------
# Evaluation plans
# ----------------------------------------------------------------------
@dataclass
class PlanStep:
    """One FROM step of an evaluation plan.

    ``access`` is ``"index_probe"`` when the step probes a hash index on
    the equijoin key(s) in ``probe``, ``"scan"`` otherwise (local
    conditions prune the scan once; ``cross`` filters run per candidate
    pair).  ``estimated_rows`` is the running binding-count estimate
    *after* this step; ``actual_rows`` is filled by ``analyze`` runs.
    """

    position: int
    relation: str
    access: str
    probe: tuple[str, ...] = ()
    local: tuple[str, ...] = ()
    cross: tuple[str, ...] = ()
    columns: tuple[str, ...] = ()
    relation_rows: float = 0.0
    estimated_rows: float = 0.0
    estimated_cost: float = 0.0
    actual_rows: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """Stable serialized step."""
        return {
            "position": self.position,
            "relation": self.relation,
            "access": self.access,
            "probe": list(self.probe),
            "local": list(self.local),
            "cross": list(self.cross),
            "columns": list(self.columns),
            "relation_rows": self.relation_rows,
            "estimated_rows": self.estimated_rows,
            "estimated_cost": self.estimated_cost,
            "actual_rows": self.actual_rows,
        }

    def to_text(self) -> str:
        """One plan line: access method, clauses, estimates, actuals."""
        if self.access == ACCESS_INDEX_PROBE:
            what = f"index probe on {', '.join(self.probe)}"
        elif self.local:
            what = f"filtered scan [{', '.join(self.local)}]"
        else:
            what = "scan"
        parts = [f"{self.position}. {self.relation}: {what}"]
        if self.access == ACCESS_INDEX_PROBE and self.local:
            parts.append(f"local=[{', '.join(self.local)}]")
        if self.cross:
            parts.append(f"cross=[{', '.join(self.cross)}]")
        parts.append(f"rows~{_fmt(self.estimated_rows)}")
        if self.actual_rows is not None:
            parts.append(f"actual={self.actual_rows}")
        return ", ".join(parts)


@dataclass
class EvaluationPlan:
    """The full plan for one view evaluation, in join order."""

    view: str
    engine: str
    join_order: tuple[str, ...]
    steps: tuple[PlanStep, ...]
    output_columns: tuple[str, ...]
    estimated_rows: float
    estimated_cost: float
    actual_rows: int | None = None

    @property
    def representation(self) -> str:
        """The plane the engine runs: ``"dict"`` bindings on the naive
        engine, positional ``"tuple"`` rows on the indexed one."""
        return "dict" if self.engine == "naive" else "tuple"

    @property
    def use_index(self) -> bool:
        """Whether equijoin steps probe the relations' hash indexes
        (the indexed engine always does; the naive engine never)."""
        return self.engine != "naive"

    def to_dict(self) -> dict[str, Any]:
        """Stable serialized plan (``kind`` discriminates the plan type)."""
        return {
            "kind": "evaluation",
            "view": self.view,
            "engine": self.engine,
            "representation": self.representation,
            "use_index": self.use_index,
            "join_order": list(self.join_order),
            "steps": [step.to_dict() for step in self.steps],
            "output": list(self.output_columns),
            "estimated_rows": self.estimated_rows,
            "estimated_cost": self.estimated_cost,
            "actual_rows": self.actual_rows,
            # v4 constant: the column-kernel totals went with the
            # columnar plane; the key stays until the next schema bump.
            "kernels": None,
        }

    def to_text(self) -> str:
        """Multi-line human rendering (header, steps, select, totals)."""
        index = "on" if self.use_index else "off"
        lines = [
            f"EXPLAIN Ext({self.view}) [engine={self.engine} "
            f"representation={self.representation} index={index}]",
            f"  join order: {' -> '.join(self.join_order)}",
        ]
        for step in self.steps:
            lines.append(f"  {step.to_text()}")
        lines.append(f"  select: {', '.join(self.output_columns)}")
        lines.append(
            f"  estimated: rows~{_fmt(self.estimated_rows)}, "
            f"cost~{_fmt(self.estimated_cost)} row-ops"
        )
        if self.actual_rows is not None:
            lines.append(f"  actual: {self.actual_rows} rows")
        return "\n".join(lines)


def build_plan(
    view: ViewDefinition,
    relations,
    statistics: SpaceStatistics | None = None,
    config: "EngineConfig | None" = None,
) -> EvaluationPlan:
    """Derive the plan :func:`~repro.esql.evaluator.evaluate_view` will run.

    ``relations`` is a name -> relation mapping or a lookup callable,
    as :func:`~repro.esql.evaluator.evaluate_view` takes it.  The walk
    mirrors the evaluator exactly: greedy join order (literal FROM order
    for the naive engine), per-step probe split, projection pushdown,
    and clause scheduling at the first step where every referenced
    relation is bound.
    """
    from repro.config import EngineConfig
    from repro.esql.evaluator import (
        _join_order,
        _lookup_from,
        _referenced_columns,
        _split_probes,
    )

    if config is None:
        config = EngineConfig()
    lookup = _lookup_from(relations)
    schemas = {name: lookup(name).schema for name in view.relation_names}
    resolved = ViewValidator(schemas).resolve_view(view)

    naive = config.engine == "naive"
    if naive:
        order = list(resolved.relation_names)
    else:
        order = _join_order(resolved, lookup, statistics)

    if naive:
        needed = None  # the dict plane binds every attribute
    else:
        needed = _referenced_columns(resolved)

    def relation_rows(name: str) -> float:
        if statistics is not None and name in statistics.relations:
            return float(statistics.cardinality(name))
        return float(lookup(name).cardinality)

    js = (
        statistics.join_selectivity
        if statistics is not None
        else DEFAULT_JOIN_SELECTIVITY
    )

    slots: dict[str, int] = {}
    placed: set[str] = set()
    remaining = [item.clause for item in resolved.where]
    steps: list[PlanStep] = []
    rows_in = 1.0
    total_cost = 0.0

    for position, relation_name in enumerate(order, start=1):
        schema = schemas[relation_name]
        kept = [
            attr
            for attr in schema.attribute_names
            if needed is None or f"{relation_name}.{attr}" in needed
        ]
        base = len(slots)
        for offset, attr in enumerate(kept):
            slots[f"{relation_name}.{attr}"] = base + offset
        placed.add(relation_name)

        decidable = [c for c in remaining if c.relations() <= placed]
        remaining = [c for c in remaining if c.relations() - placed]
        # The naive engine's hash fast path recognizes the same equijoin
        # pattern; on the indexed plane the probe split is the
        # evaluator's own.
        probe_pairs, residual = _split_probes(
            decidable, relation_name, slots, base
        )

        local = [c for c in residual if c.relations() <= {relation_name}]
        cross = [c for c in residual if c.relations() - {relation_name}]

        # -- cardinality estimate (Table 1 semantics) ------------------
        card = relation_rows(relation_name)
        sigma_local = 1.0
        for clause in local:
            sigma_local *= clause_selectivity(clause, statistics)
        joins = len(probe_pairs) + sum(1 for c in cross if c.is_equijoin)
        other_cross = sum(1 for c in cross if not c.is_equijoin)
        rows_out = (
            rows_in
            * card
            * sigma_local
            * (js**joins)
            * (DEFAULT_SELECTIVITY**other_cross)
        )

        # -- cost estimate (abstract row operations) -------------------
        n_residual = len(local) + len(cross)
        if probe_pairs:
            access = ACCESS_INDEX_PROBE
            emitted = rows_in * card * (js ** len(probe_pairs))
            cost = rows_in + emitted * (1 + n_residual)
        else:
            access = ACCESS_SCAN
            cost = card + rows_in * card * sigma_local * (1 + len(cross))

        steps.append(
            PlanStep(
                position=position,
                relation=relation_name,
                access=access,
                probe=tuple(
                    f"{new.qualified} = {bound.qualified}"
                    for new, bound in probe_pairs
                ),
                local=tuple(str(c) for c in local),
                cross=tuple(str(c) for c in cross),
                columns=tuple(kept),
                relation_rows=card,
                estimated_rows=rows_out,
                estimated_cost=cost,
            )
        )
        rows_in = rows_out
        total_cost += cost

    return EvaluationPlan(
        view=resolved.name,
        engine=config.engine,
        join_order=tuple(order),
        steps=tuple(steps),
        output_columns=tuple(
            item.output_name for item in resolved.select
        ),
        estimated_rows=rows_in,
        estimated_cost=total_cost,
    )


def explain_view(
    view: ViewDefinition,
    relations,
    statistics: SpaceStatistics | None = None,
    config: "EngineConfig | None" = None,
    analyze: bool = False,
) -> EvaluationPlan:
    """Build the plan for ``view``; with ``analyze=True`` also run it.

    The analyze pass executes :func:`~repro.esql.evaluator.evaluate_view`
    with a step trace and reconciles the per-step binding counts into
    ``actual_rows`` (steps the evaluator short-circuited past after an
    empty intermediate result report ``0``).  The evaluation is
    side-effect free: no extent cache is touched.
    """
    from repro.config import EngineConfig

    if config is None:
        config = EngineConfig()
    plan = build_plan(view, relations, statistics, config)
    if not analyze:
        return plan

    from repro.esql.evaluator import evaluate_view

    trace: list[tuple[str, int]] = []
    extent = evaluate_view(
        view, relations, statistics, config=config, trace=trace
    )
    traced = dict(trace)
    exhausted = False
    for step in plan.steps:
        if step.relation in traced:
            step.actual_rows = traced[step.relation]
            exhausted = step.actual_rows == 0
        elif exhausted:
            # The evaluator broke out after an empty intermediate result;
            # every later step saw zero candidates.
            step.actual_rows = 0
    plan.actual_rows = extent.cardinality
    return plan


# ----------------------------------------------------------------------
# Maintenance plans (Algorithm 1 itineraries)
# ----------------------------------------------------------------------
@dataclass
class MaintenanceStep:
    """One relation visit of the Sec. 6.1 delta sweep."""

    position: int
    source: str
    relation: str
    access: str
    probe: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """Stable serialized itinerary step."""
        return {
            "position": self.position,
            "source": self.source,
            "relation": self.relation,
            "access": self.access,
            "probe": self.probe,
        }

    def to_text(self) -> str:
        """One itinerary line: relation, owning source, access method."""
        what = (
            f"index probe on {self.probe}"
            if self.access == ACCESS_INDEX_PROBE
            else "scan"
        )
        return (
            f"{self.position}. {self.relation} @ {self.source}: {what}"
        )


@dataclass
class MaintenanceExplain:
    """Algorithm 1's itinerary for one update, as inspectable data.

    ``steps`` list the relations joined with the delta in visit order
    (sources in itinerary order, relations in listed order within each
    source) and whether each join runs as an index probe on an equijoin
    key the delta already binds, or as a scan.  ``estimated`` carries the
    modeled CF message count for the itinerary; ``actual`` (when
    reconciled from :class:`~repro.maintenance.counters.MaintenanceCounters`)
    the counters one flush actually charged.
    """

    view: str
    updated_relation: str
    representation: str
    use_index: bool
    sources: tuple[str, ...]
    steps: tuple[MaintenanceStep, ...]
    estimated: dict[str, int]
    actual: dict[str, int] | None = None

    def to_dict(self) -> dict[str, Any]:
        """Stable serialized itinerary (``kind`` discriminates)."""
        return {
            "kind": "maintenance",
            "view": self.view,
            "relation": self.updated_relation,
            "representation": self.representation,
            "use_index": self.use_index,
            "sources": list(self.sources),
            "steps": [step.to_dict() for step in self.steps],
            "estimated": dict(self.estimated),
            "actual": dict(self.actual) if self.actual is not None else None,
        }

    def to_text(self) -> str:
        """Multi-line human rendering (header, steps, estimate, actuals)."""
        index = "on" if self.use_index else "off"
        lines = [
            f"EXPLAIN maintain {self.view} on update({self.updated_relation}) "
            f"[representation={self.representation} index={index}]",
            f"  sources: {' -> '.join(self.sources)}",
        ]
        for step in self.steps:
            lines.append(f"  {step.to_text()}")
        lines.append(
            f"  estimated: {self.estimated.get('messages', 0)} messages"
        )
        if self.actual is not None:
            lines.append(
                "  actual: "
                f"{self.actual.get('messages', 0)} messages, "
                f"{self.actual.get('bytes_transferred', 0)} bytes, "
                f"{self.actual.get('io_operations', 0)} IO ops"
            )
        return "\n".join(lines)


def explain_maintenance(
    view: ViewDefinition,
    owners: Mapping[str, str],
    schemas: Mapping[str, Schema],
    updated_relation: str | None = None,
    config=None,
    actual: Mapping[str, int] | None = None,
) -> MaintenanceExplain:
    """Render the maintenance itinerary ``view`` runs for one update.

    ``owners`` maps each referenced relation to its source name (the
    itinerary is rotated so the updating source leads, exactly as
    :func:`~repro.qc.cost.plan_for_view` builds it).  A relation joins
    by index probe when some equijoin links one of its attributes to a
    column every delta row already binds — the same
    :func:`~repro.space.source.probe_pair` test the delta plane applies.
    """
    from repro.config import MaintenanceConfig
    from repro.qc.cost import cf_messages, plan_for_view
    from repro.space.source import probe_pair

    if config is None:
        config = MaintenanceConfig()
    resolved = ViewValidator(dict(schemas)).resolve_view(view)
    plan = plan_for_view(resolved, dict(owners), updated_relation)
    clauses = [item.clause for item in resolved.where]

    bound: set[str] = {
        f"{plan.updated_relation}.{attr}"
        for attr in schemas[plan.updated_relation].attribute_names
    }
    steps: list[MaintenanceStep] = []
    position = 0
    for group in plan.groups:
        for name in group.relations:
            if name == plan.updated_relation:
                continue
            position += 1
            schema = schemas[name]
            pair = None
            if config.use_index:
                for clause in clauses:
                    pair = probe_pair(clause, name, schema, frozenset(bound))
                    if pair is not None:
                        break
            steps.append(
                MaintenanceStep(
                    position=position,
                    source=group.source,
                    relation=name,
                    access=(
                        ACCESS_INDEX_PROBE if pair is not None else ACCESS_SCAN
                    ),
                    probe=(
                        f"{name}.{pair[0]} = {pair[1]}"
                        if pair is not None
                        else None
                    ),
                )
            )
            bound.update(
                f"{name}.{attr}" for attr in schema.attribute_names
            )

    return MaintenanceExplain(
        view=resolved.name,
        updated_relation=plan.updated_relation,
        representation=config.representation,
        use_index=config.use_index,
        sources=tuple(group.source for group in plan.groups),
        steps=tuple(steps),
        estimated={"messages": cf_messages(plan)},
        actual=dict(actual) if actual is not None else None,
    )
