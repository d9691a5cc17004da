"""The positional-tuple delta plane of Algorithm 1.

Delta relations in flight used to be shipped between sources as per-row
``dict[str, Any]`` bindings, with every WHERE conjunct re-interpreted per
candidate.  This module owns the compiled alternative: a
:class:`DeltaBatch` is an ordered schema of bound qualified columns plus
a list of positional tuples, mirroring how a real delta accumulates
columns from every relation it has joined with so far.

The per-relation join step is planned *once per (condition, bound-column
layout, relation)* and memoized:

* equijoin conjuncts linking the local relation to an already-bound
  column become index probe keys, with the probe positions resolved into
  tuple slots up front (no per-call key-set intersection);
* every other conjunct that is decidable over the extended layout
  compiles into one positional predicate via
  :mod:`repro.relational.compile` — clause resolution is identical to
  the interpreted ``clause.evaluate(dict)`` path, so both planes accept
  and reject exactly the same candidates;
* conjuncts still missing columns stay latent and fire at the first
  later step whose layout binds them, reproducing the
  "decidable-so-far" semantics of the binding plane.

Batches optionally carry per-row provenance ``tags`` (the index of the
originating update in a batched stream).  Join steps propagate tags row
for row, which is what lets :meth:`ViewMaintainer.maintain_batch` stream
a whole update batch through one compiled pipeline while keeping the
modeled CF_M/CF_T/CF_IO counters byte-identical to the per-update
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any

from repro.relational.columnar import probe_positions
from repro.relational.compile import (
    ColumnFilter,
    RowPredicate,
    compile_clauses,
    compile_clauses_kernel,
    layout_slots,
    resolve_slot,
)
from repro.relational.expressions import Condition, PrimitiveClause
from repro.relational.relation import Relation
from repro.relational.schema import Schema

# The clause classifiers are shared with the binding plane: both planes
# must plan joins from one implementation so their candidate acceptance
# can never drift apart.  (Importing space.source here is cycle-safe —
# its only maintenance import is deferred into the batch entry point.)
from repro.space.source import partition_local_clauses, probe_pair

Row = tuple[Any, ...]


# ----------------------------------------------------------------------
# The batch itself
# ----------------------------------------------------------------------
@dataclass
class DeltaBatch:
    """An in-flight delta relation: bound columns + positional tuples.

    ``columns`` is the accumulated, ordered schema of fully qualified
    column names (``"R.A"``); every row is a tuple aligned with it.
    ``tags`` (optional) carries one provenance index per row — the
    position of the originating update in a batched stream — so batched
    accounting can recover per-update cardinalities at every stage.
    """

    columns: tuple[str, ...]
    rows: list[Row]
    tags: list[int] | None = None

    @classmethod
    def seed(
        cls,
        relation: str,
        schema: Schema,
        rows: Sequence[Row],
        tags: list[int] | None = None,
    ) -> "DeltaBatch":
        """The initial delta: the updated relation's columns and rows."""
        return cls(seed_columns(relation, schema), list(rows), tags)

    @property
    def cardinality(self) -> int:
        return len(self.rows)

    def counts_by_tag(self, updates: int) -> list[int]:
        """Per-update row counts (requires provenance tags)."""
        counts = [0] * updates
        if self.tags is not None:
            for tag in self.tags:
                counts[tag] += 1
        elif self.rows:
            raise ValueError("batch carries no provenance tags")
        return counts


def seed_columns(relation: str, schema: Schema) -> tuple[str, ...]:
    return tuple(f"{relation}.{attr}" for attr in schema.attribute_names)


@dataclass
class ColumnBatch:
    """A delta batch stored column-wise: one list per bound column.

    The columnar counterpart of :class:`DeltaBatch`: same ordered layout
    of fully qualified column names, but the payload is ``cols`` —
    parallel equal-length value lists — instead of row tuples.  ``tags``
    carries per-row provenance exactly like the row form.  The row-wise
    surface (:meth:`rows`) materializes on demand.
    """

    columns: tuple[str, ...]
    cols: list[list]
    tags: list[int] | None = None

    @classmethod
    def seed(
        cls,
        relation: str,
        schema: Schema,
        rows: Sequence[Row],
        tags: list[int] | None = None,
    ) -> "ColumnBatch":
        """The initial delta, transposed into columns."""
        columns = seed_columns(relation, schema)
        if rows:
            cols = list(map(list, zip(*rows)))
        else:
            cols = [[] for _ in columns]
        return cls(columns, cols, tags)

    @property
    def cardinality(self) -> int:
        return len(self.cols[0]) if self.cols else 0

    @property
    def rows(self) -> list[Row]:
        """The row-tuple rendition (materialized on demand)."""
        return list(zip(*self.cols)) if self.cardinality else []

    def counts_by_tag(self, updates: int) -> list[int]:
        """Per-update row counts (requires provenance tags)."""
        counts = [0] * updates
        if self.tags is not None:
            for tag in self.tags:
                counts[tag] += 1
        elif self.cardinality:
            raise ValueError("batch carries no provenance tags")
        return counts


# ----------------------------------------------------------------------
# Compiled plans (memoized per layout)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SeedPlan:
    """Seed layout + the compiled local-selection filter."""

    columns: tuple[str, ...]
    #: Conjunction of the condition's clauses decidable at the seed
    #: layout (local selections on the updated relation itself).
    predicate: RowPredicate


@dataclass(frozen=True)
class ColumnStepPlan:
    """One join step compiled into column kernels (the columnar plane).

    Field roles mirror :class:`StepPlan` clause for clause; the compiled
    artifacts are :class:`~repro.relational.compile.ColumnFilter`
    conjunctions over the extended column layout (or the local relation's
    own layout, for ``local_filter``) and schema positions for the
    vectorized probe.
    """

    relation: str
    new_columns: tuple[str, ...]
    #: Schema positions of the local probe attributes (feeds the column
    #: store's position index); empty on the cross-join path.
    probe_positions: tuple[int, ...]
    #: Column indexes (into the *incoming* batch) feeding the probe key.
    probe_slots: tuple[int, ...]
    residual: ColumnFilter
    local_filter: ColumnFilter | None
    cross: ColumnFilter
    full: ColumnFilter


@dataclass(frozen=True)
class StepPlan:
    """One local-relation join step, compiled against a fixed layout."""

    relation: str
    new_columns: tuple[str, ...]
    #: Local attributes to index on; empty when no equijoin links the
    #: relation to a bound column (the cross-join path applies then).
    probe_attrs: tuple[str, ...]
    #: Tuple slots (into the *incoming* rows) feeding the probe key.
    probe_slots: tuple[int, ...]
    #: Probe path: decidable residual clauses over the extended layout.
    residual: RowPredicate
    #: Cross path: clauses local to this relation, over the local row
    #: alone — prunes the relation once before the cross join.
    local_filter: RowPredicate | None
    #: Cross path: decidable non-local clauses over the extended layout.
    cross: RowPredicate
    #: Nested-loop path: every decidable clause (probes included) over
    #: the extended layout — the ``use_index=False`` reference.
    full: RowPredicate


def _decidable(
    clauses: Sequence[PrimitiveClause], slots: dict[str, int]
) -> list[PrimitiveClause]:
    """Clauses whose operands all resolve in ``slots``.

    Mirrors ``_clause_decidable`` of the binding plane: qualified-name
    resolution with the (never-matching, for qualified layouts)
    bare-name fallback of :func:`repro.relational.compile.resolve_slot`.
    """
    return [
        clause
        for clause in clauses
        if all(
            resolve_slot(ref, slots) is not None
            for ref in clause.attribute_refs
        )
    ]


#: (clauses, incoming columns, relation, attribute names) -> StepPlan.
#: FIFO-capped: layouts recur per (view, updated relation) pair, so a
#: handful of entries serve an entire storm; the cap only guards
#: pathological clause diversity.
_STEP_PLANS: dict[tuple, StepPlan] = {}
_COLUMN_STEP_PLANS: dict[tuple, ColumnStepPlan] = {}
_SEED_PLANS: dict[tuple, SeedPlan] = {}
_MAX_CACHED_PLANS = 512


def _cached(cache: dict, key: tuple, build) -> Any:
    try:
        plan = cache.get(key)
    except TypeError:  # unhashable constant in a clause — build uncached
        return build()
    if plan is None:
        plan = build()
        if len(cache) >= _MAX_CACHED_PLANS:
            cache.pop(next(iter(cache)))
        cache[key] = plan
    return plan


def seed_plan(
    condition: Condition, relation: str, schema: Schema
) -> SeedPlan:
    """Memoized seed layout + compiled decidable-clause filter."""
    clauses = tuple(condition.clauses)
    key = (clauses, relation, schema.attribute_names)

    def build() -> SeedPlan:
        columns = seed_columns(relation, schema)
        slots = layout_slots(columns)
        return SeedPlan(columns, compile_clauses(_decidable(clauses, slots), slots))

    return _cached(_SEED_PLANS, key, build)


def step_plan(
    condition: Condition,
    columns: tuple[str, ...],
    name: str,
    schema: Schema,
) -> StepPlan:
    """Memoized join-step plan for one local relation.

    The probe-key plan (which conjuncts probe, and through which tuple
    slots) is computed here once per layout instead of re-intersecting
    bound-key sets per call, and the residual predicates compile once
    per (condition, bound-columns) layout.
    """
    clauses = tuple(condition.clauses)
    key = (clauses, columns, name, schema.attribute_names)

    def build() -> StepPlan:
        bound = frozenset(columns)
        probe_attrs: list[str] = []
        probe_columns: list[str] = []
        residual_clauses: list[PrimitiveClause] = []
        for clause in clauses:
            pair = probe_pair(clause, name, schema, bound)
            if pair is not None:
                probe_attrs.append(pair[0])
                probe_columns.append(pair[1])
            else:
                residual_clauses.append(clause)

        incoming = layout_slots(columns)
        local_columns = seed_columns(name, schema)
        new_columns = columns + local_columns
        new_slots = layout_slots(new_columns)

        local_only, others = partition_local_clauses(
            residual_clauses, name, schema
        )
        local_slots = layout_slots(local_columns)
        local_filter = (
            compile_clauses(local_only, local_slots) if local_only else None
        )
        return StepPlan(
            relation=name,
            new_columns=new_columns,
            probe_attrs=tuple(probe_attrs),
            probe_slots=tuple(incoming[column] for column in probe_columns),
            residual=compile_clauses(
                _decidable(residual_clauses, new_slots), new_slots
            ),
            local_filter=local_filter,
            cross=compile_clauses(_decidable(others, new_slots), new_slots),
            full=compile_clauses(_decidable(clauses, new_slots), new_slots),
        )

    return _cached(_STEP_PLANS, key, build)


# ----------------------------------------------------------------------
# Executing one single-site query on the tuple plane
# ----------------------------------------------------------------------
def extend_batch(
    provider,
    batch: DeltaBatch,
    local_relations: Sequence[str],
    condition: Condition,
    use_index: bool = True,
) -> DeltaBatch:
    """Join ``batch`` with each local relation in turn (one IS's step).

    ``provider`` is anything with ``relation(name) -> Relation``
    (an :class:`~repro.space.source.InformationSource`).  Candidate
    acceptance and row ordering are identical to the binding plane:
    probes iterate incoming rows in order and index buckets in relation
    order; cross joins iterate incoming x local in order.
    """
    columns, rows, tags = batch.columns, batch.rows, batch.tags
    for name in local_relations:
        local: Relation = provider.relation(name)
        plan = step_plan(condition, columns, name, local.schema)
        out_rows: list[Row] = []
        out_tags: list[int] | None = [] if tags is not None else None
        if use_index and plan.probe_attrs and rows:
            index = local.index_on(plan.probe_attrs)
            slots = plan.probe_slots
            predicate = plan.residual
            for position, row in enumerate(rows):
                key = tuple(row[slot] for slot in slots)
                for local_row in index.probe(key):
                    candidate = row + local_row
                    if predicate(candidate):
                        out_rows.append(candidate)
                        if out_tags is not None:
                            out_tags.append(tags[position])
        elif use_index and rows:
            # No equijoin link: prune the relation once with its local
            # clauses, then cross with the incoming rows.
            local_rows = list(local)
            if plan.local_filter is not None:
                local_rows = [
                    row for row in local_rows if plan.local_filter(row)
                ]
            predicate = plan.cross
            for position, row in enumerate(rows):
                for local_row in local_rows:
                    candidate = row + local_row
                    if predicate(candidate):
                        out_rows.append(candidate)
                        if out_tags is not None:
                            out_tags.append(tags[position])
        else:
            # Nested-loop reference path (also the trivial empty case).
            predicate = plan.full
            for position, row in enumerate(rows):
                for local_row in local:
                    candidate = row + local_row
                    if predicate(candidate):
                        out_rows.append(candidate)
                        if out_tags is not None:
                            out_tags.append(tags[position])
        columns, rows, tags = plan.new_columns, out_rows, out_tags
    return DeltaBatch(columns, rows, tags)


# ----------------------------------------------------------------------
# Executing one single-site query on the columnar plane
# ----------------------------------------------------------------------
def column_step_plan(
    condition: Condition,
    columns: tuple[str, ...],
    name: str,
    schema: Schema,
) -> ColumnStepPlan:
    """Memoized columnar join-step plan for one local relation.

    Clause classification is byte for byte the one :func:`step_plan`
    uses (shared ``probe_pair`` / ``partition_local_clauses`` /
    ``_decidable``), so the columnar plane can never accept a candidate
    either row plane rejects; only the compiled artifact differs.
    """
    clauses = tuple(condition.clauses)
    key = (clauses, columns, name, schema.attribute_names)

    def build() -> ColumnStepPlan:
        bound = frozenset(columns)
        probe_attrs: list[str] = []
        probe_columns: list[str] = []
        residual_clauses: list[PrimitiveClause] = []
        for clause in clauses:
            pair = probe_pair(clause, name, schema, bound)
            if pair is not None:
                probe_attrs.append(pair[0])
                probe_columns.append(pair[1])
            else:
                residual_clauses.append(clause)

        incoming = layout_slots(columns)
        local_columns = seed_columns(name, schema)
        new_columns = columns + local_columns
        new_slots = layout_slots(new_columns)

        local_only, others = partition_local_clauses(
            residual_clauses, name, schema
        )
        # Local-column layout == schema positions, so the local filter
        # runs directly over the relation's column store.
        local_slots = layout_slots(local_columns)
        local_filter = (
            compile_clauses_kernel(local_only, local_slots)
            if local_only
            else None
        )
        return ColumnStepPlan(
            relation=name,
            new_columns=new_columns,
            probe_positions=tuple(
                schema.position(attr) for attr in probe_attrs
            ),
            probe_slots=tuple(incoming[column] for column in probe_columns),
            residual=compile_clauses_kernel(
                _decidable(residual_clauses, new_slots), new_slots
            ),
            local_filter=local_filter,
            cross=compile_clauses_kernel(
                _decidable(others, new_slots), new_slots
            ),
            full=compile_clauses_kernel(
                _decidable(clauses, new_slots), new_slots
            ),
        )

    return _cached(_COLUMN_STEP_PLANS, key, build)


def extend_batch_columnar(
    provider,
    batch: ColumnBatch,
    local_relations: Sequence[str],
    condition: Condition,
    use_index: bool = True,
    counters=None,
) -> ColumnBatch:
    """Join a :class:`ColumnBatch` with each local relation in turn.

    The columnar rendition of :func:`extend_batch`: each step computes
    ``(left, right)`` position vectors (vectorized probe, pre-filtered
    cross product, or full nested loop), narrows them through the
    residual kernel conjunction, and gathers every bound column plus the
    local relation's columns through them.  Candidate acceptance and
    order match both row planes; ``counters`` (a
    :class:`~repro.relational.columnar.KernelCounters`) records rows
    scanned vs selected per kernel.
    """
    columns, cols, tags = batch.columns, batch.cols, batch.tags
    for name in local_relations:
        local: Relation = provider.relation(name)
        schema = local.schema
        plan = column_step_plan(condition, columns, name, schema)
        store = local.column_store()
        incoming = len(cols[0]) if cols else 0
        base = len(columns)

        if use_index and plan.probe_positions and incoming:
            index = store.position_index(plan.probe_positions)
            key_columns = [cols[slot] for slot in plan.probe_slots]
            li, ri = probe_positions(
                key_columns,
                index,
                counters,
                store.index_is_unique(plan.probe_positions),
            )
            residual = plan.residual
        elif use_index and incoming:
            selection = range(store.length)
            if plan.local_filter is not None:
                selection = plan.local_filter(
                    store.columns, selection, counters
                )
            li = [i for i in range(incoming) for _ in selection]
            ri = list(selection) * incoming
            residual = plan.cross
        else:
            # Nested-loop reference path (also the trivial empty case).
            li = [i for i in range(incoming) for _ in range(store.length)]
            ri = list(range(store.length)) * incoming
            residual = plan.full

        if residual.kernels and li:
            layout: list = [None] * len(plan.new_columns)
            for slot in residual.slots:
                if slot >= base:
                    column = store.columns[slot - base]
                    layout[slot] = list(map(column.__getitem__, ri))
                else:
                    column = cols[slot]
                    layout[slot] = list(map(column.__getitem__, li))
            selection = residual(layout, range(len(li)), counters)
            if len(selection) != len(li):
                li = [li[s] for s in selection]
                ri = [ri[s] for s in selection]

        new_cols = [list(map(column.__getitem__, li)) for column in cols]
        for position in range(schema.arity):
            column = store.columns[position]
            new_cols.append(list(map(column.__getitem__, ri)))
        if tags is not None:
            tags = list(map(tags.__getitem__, li))
        columns, cols = plan.new_columns, new_cols
    return ColumnBatch(columns, cols, tags)
