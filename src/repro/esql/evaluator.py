"""Materialize a view: execute its query over concrete relations.

The evaluator computes ``Ext(V)`` — the extent the view would return on the
current information space.  It is the ground truth the quality model's
*exact* path compares against (vs. the statistics-only estimation path the
paper uses, Sec. 5.4.3).

Three execution planes share the entry point:

* ``engine="indexed"`` (default) — bindings are positional tuples, WHERE
  conjuncts are compiled once into tuple closures
  (:mod:`repro.relational.compile`), equijoin conjuncts probe the
  relations' own hash indexes (:mod:`repro.relational.index`), and the
  join order is chosen greedily by cardinality (``SpaceStatistics`` when
  supplied, actual extents otherwise) rather than taken literally from the
  FROM list.  Only view-referenced columns (SELECT list + WHERE operands)
  are projected through the join, so wide relations never materialize
  unreferenced attributes into intermediate bindings.
* ``representation="columnar"`` (on the indexed engine) — the same join
  order and probe split, executed column at a time: relations expose
  per-attribute column stores, WHERE conjuncts run as selection-vector
  kernels, and equijoins are vectorized hash probes over key columns
  producing position vectors.  Candidate order, NULL semantics, and
  lazy failure match the tuple plane row for row.
* ``engine="naive"`` — the original left-to-right nested-loop engine over
  dict bindings with qualified-name keys; kept as the reference the
  equivalence property tests and the engine benchmarks compare against.

All planes apply each WHERE conjunct as soon as every relation it
references has been bound, so selections prune before later joins
multiply.  Bag semantics throughout; callers wanting set semantics call
``.distinct()`` on the result.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any

from repro.errors import EvaluationError
from repro.esql.ast import ViewDefinition
from repro.esql.validate import ViewValidator
from repro.misd.statistics import DEFAULT_SELECTIVITY, SpaceStatistics
from repro.relational.columnar import probe_positions
from repro.relational.compile import (
    compile_clauses,
    compile_clauses_kernel,
    schema_slots,
)
from repro.relational.expressions import AttributeRef, Comparator, PrimitiveClause
from repro.relational.relation import Relation
from repro.relational.schema import Schema

RelationLookup = Callable[[str], Relation]


def _lookup_from(source: Mapping[str, Relation] | RelationLookup) -> RelationLookup:
    if callable(source):
        return source

    def lookup(name: str) -> Relation:
        try:
            return source[name]
        except KeyError:
            raise EvaluationError(f"relation {name!r} not available") from None

    return lookup


def evaluate_view(
    view: ViewDefinition,
    relations: Mapping[str, Relation] | RelationLookup,
    statistics: SpaceStatistics | None = None,
    config: "EngineConfig | None" = None,
    kernel_counters=None,
    trace: list | None = None,
) -> Relation:
    """Compute the extent of ``view`` against the given relations.

    ``view`` must reference attributes unambiguously; it is resolved against
    the actual schemas first, so unqualified references are fine as long as
    they are unique.  ``statistics`` (optional) feeds the greedy join-order
    choice of the indexed engine; relations it does not cover fall back to
    their actual cardinality.

    The engine is selected by ``config`` (an
    :class:`~repro.config.EngineConfig` slice): ``engine="indexed"``
    with ``use_index=True`` probes hash indexes, ``use_index=False``
    keeps the compiled plane but joins by nested loops,
    ``representation="columnar"`` runs the column-kernel plane, and
    ``engine="naive"`` runs the dict-binding reference.

    ``kernel_counters`` (a
    :class:`~repro.relational.columnar.KernelCounters`) accumulates rows
    scanned vs rows selected per column kernel; only the columnar plane
    records into it.

    ``trace`` (a list, optional) receives one ``(relation_name,
    candidate_count)`` pair per executed FROM step, in join order —
    the hook :func:`repro.esql.explain.explain_view` uses to reconcile
    estimated vs actual cardinalities.  Steps skipped after an empty
    intermediate result are not recorded.
    """
    from repro.config import EngineConfig

    if config is None:
        config = EngineConfig()
    if config.engine == "naive":
        return _evaluate_view_naive(view, relations, trace)
    lookup = _lookup_from(relations)
    schemas = {name: lookup(name).schema for name in view.relation_names}
    resolved = ViewValidator(schemas).resolve_view(view)
    if config.representation == "columnar":
        return _evaluate_view_columnar(
            resolved,
            lookup,
            schemas,
            statistics,
            config.use_index,
            kernel_counters,
            trace,
        )

    order = _join_order(resolved, lookup, statistics)
    needed = _referenced_columns(resolved)

    slots: dict[str, int] = {}
    placed: set[str] = set()
    remaining: list[PrimitiveClause] = [item.clause for item in resolved.where]
    bindings: list[tuple[Any, ...]] = [()]

    for relation_name in order:
        relation = lookup(relation_name)
        schema = relation.schema
        # Projection pushdown: only view-referenced attributes enter the
        # binding tuples; unreferenced columns of wide relations are never
        # copied through the join.
        kept = [
            attr
            for attr in schema.attribute_names
            if f"{relation_name}.{attr}" in needed
        ]
        project = (
            None
            if len(kept) == schema.arity
            else _row_projector([schema.position(attr) for attr in kept])
        )
        base = len(slots)
        for offset, attr in enumerate(kept):
            slots[f"{relation_name}.{attr}"] = base + offset
        placed.add(relation_name)

        decidable = [c for c in remaining if c.relations() <= placed]
        remaining = [c for c in remaining if c.relations() - placed]
        if config.use_index:
            probe_pairs, residual = _split_probes(
                decidable, relation_name, slots, base
            )
        else:
            # Index probes disabled: every decidable clause stays a
            # compiled filter and the join runs as nested loops below.
            probe_pairs, residual = [], decidable

        extended: list[tuple[Any, ...]] = []
        if probe_pairs and bindings:
            # Index keys are full-row schema positions: indexes are shared
            # with every other caller and probe() yields full rows.
            new_positions = tuple(
                schema.position(new.attribute) for new, _ in probe_pairs
            )
            bound_slots = tuple(slots[bound.qualified] for _, bound in probe_pairs)
            index = relation.index_on_positions(new_positions)
            check = compile_clauses(residual, slots)
            for binding in bindings:
                key = tuple(binding[s] for s in bound_slots)
                for row in index.probe(key):
                    candidate = binding + (
                        row if project is None else project(row)
                    )
                    if check(candidate):
                        extended.append(candidate)
        else:
            # Clauses over this relation alone prune its rows once, not
            # once per binding; cross-relation residuals run per candidate.
            local = [c for c in residual if c.relations() <= {relation_name}]
            cross = [c for c in residual if c.relations() - {relation_name}]
            local_slots = {
                f"{relation_name}.{attr}": position
                for position, attr in enumerate(schema.attribute_names)
            }
            local_check = compile_clauses(local, local_slots)
            rows = [row for row in relation if local_check(row)]
            if project is not None:
                rows = list(map(project, rows))
            if bindings == [()] and not cross:
                # The first FROM relation: its rows are the bindings.
                extended = rows
            else:
                check = compile_clauses(cross, slots)
                for binding in bindings:
                    for row in rows:
                        candidate = binding + row
                        if check(candidate):
                            extended.append(candidate)
        bindings = extended
        if trace is not None:
            trace.append((relation_name, len(bindings)))
        if not bindings:
            break

    output_schema = _output_schema(resolved, schemas)
    if not bindings:
        return Relation(output_schema)
    output = _row_projector([slots[str(item.ref)] for item in resolved.select])
    rows = list(map(output, bindings))
    # Every value came out of a validated relation; adopt without a
    # second validation pass.
    return Relation.from_validated(output_schema, rows)


def _row_projector(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """``row -> tuple(row[p] for p in positions)``, compiled once.

    ``operator.itemgetter`` returns a bare value for one position, so
    the 1-column case wraps it into a 1-tuple.
    """
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    if not positions:
        return lambda row: ()
    return operator.itemgetter(*positions)


def _join_order(
    view: ViewDefinition,
    lookup: RelationLookup,
    statistics: SpaceStatistics | None,
) -> list[str]:
    """Greedy selectivity-weighted cardinality order: the relation with
    the smallest *estimated surviving size* first, then always the
    cheapest relation that an equijoin connects to the bound set (hash
    probes beat cartesian growth); unconnected relations only when
    nothing else is left.  The estimate folds local-condition
    selectivity into the cardinality — each single-relation WHERE
    conjunct scales the relation by its sigma (``SpaceStatistics`` when
    supplied, the paper's default sigma otherwise), so a large-but-
    heavily-filtered relation can lead the join.  Ties keep FROM order,
    so single-relation views and equal-estimate inputs behave exactly
    as written."""
    names = list(view.relation_names)
    if len(names) <= 1:
        return names

    def cardinality(name: str) -> int:
        if statistics is not None and name in statistics.relations:
            return statistics.cardinality(name)
        return lookup(name).cardinality

    local_clauses: dict[str, int] = {}
    for item in view.where:
        relations = item.clause.relations()
        if len(relations) == 1 and not item.clause.is_equijoin:
            name = next(iter(relations))
            local_clauses[name] = local_clauses.get(name, 0) + 1

    def selectivity(name: str) -> float:
        if statistics is not None and name in statistics.relations:
            return statistics.selectivity(name)
        return DEFAULT_SELECTIVITY

    def estimated_size(name: str) -> float:
        size = float(cardinality(name))
        clauses = local_clauses.get(name, 0)
        if clauses:
            size *= selectivity(name) ** clauses
        return size

    equijoins = [
        item.clause
        for item in view.where
        if item.clause.is_equijoin
    ]

    def connected(name: str, placed: set[str]) -> bool:
        for clause in equijoins:
            involved = clause.relations()
            if name in involved and involved - {name} <= placed and len(involved) > 1:
                return True
        return False

    order = [min(names, key=lambda n: (estimated_size(n), names.index(n)))]
    placed = set(order)
    pending = [n for n in names if n not in placed]
    while pending:
        linked = [n for n in pending if connected(n, placed)]
        pool = linked if linked else pending
        choice = min(pool, key=lambda n: (estimated_size(n), names.index(n)))
        order.append(choice)
        placed.add(choice)
        pending.remove(choice)
    return order


def _split_probes(
    clauses: list[PrimitiveClause],
    relation_name: str,
    slots: Mapping[str, int],
    base: int,
) -> tuple[list[tuple[AttributeRef, AttributeRef]], list[PrimitiveClause]]:
    """Split clauses into index-probe pairs and residual filters.

    A clause probes when it is an equijoin between one attribute of the
    relation just added (slot >= ``base``) and one attribute bound earlier.
    Returns ``([(new_ref, bound_ref), ...], residual_clauses)``.
    """
    pairs: list[tuple[AttributeRef, AttributeRef]] = []
    residual: list[PrimitiveClause] = []
    for clause in clauses:
        if (
            clause.comparator is Comparator.EQ
            and isinstance(clause.left, AttributeRef)
            and isinstance(clause.right, AttributeRef)
        ):
            left_slot = slots.get(clause.left.qualified)
            right_slot = slots.get(clause.right.qualified)
            if left_slot is not None and right_slot is not None:
                left_new = left_slot >= base
                right_new = right_slot >= base
                if left_new and not right_new:
                    pairs.append((clause.left, clause.right))
                    continue
                if right_new and not left_new:
                    pairs.append((clause.right, clause.left))
                    continue
        residual.append(clause)
    return pairs, residual


def _referenced_columns(resolved: ViewDefinition) -> frozenset[str]:
    """Qualified columns the view actually reads: SELECT list + WHERE
    operands.  Everything else is dead weight in intermediate bindings."""
    needed = {str(item.ref) for item in resolved.select}
    for item in resolved.where:
        for operand in (item.clause.left, item.clause.right):
            if isinstance(operand, AttributeRef):
                needed.add(operand.qualified)
    return frozenset(needed)


# ----------------------------------------------------------------------
# The columnar plane: selection vectors + vectorized hash probes
# ----------------------------------------------------------------------
def _evaluate_view_columnar(
    resolved: ViewDefinition,
    lookup: RelationLookup,
    schemas: Mapping[str, Schema],
    statistics: SpaceStatistics | None,
    use_index: bool,
    counters,
    trace: list | None = None,
) -> Relation:
    """Column-at-a-time execution of the indexed plan.

    The join order, probe split, and clause scheduling are identical to
    the tuple plane; only the mechanics differ.  Intermediate state is a
    list of equal-length columns (one per referenced attribute placed so
    far) instead of a list of binding tuples.  Each FROM step computes
    ``(left, right)`` position vectors — incoming candidate x matching
    relation row — by vectorized probe or cross product, narrows them
    through residual kernels, and gathers the surviving columns.
    Candidate order matches the tuple plane exactly: incoming-major,
    relation insertion order within.
    """
    order = _join_order(resolved, lookup, statistics)
    needed = _referenced_columns(resolved)

    slots: dict[str, int] = {}
    placed: set[str] = set()
    remaining: list[PrimitiveClause] = [item.clause for item in resolved.where]
    cols: list[list] = []
    count = 1  # one virtual empty candidate, like ``bindings = [()]``

    for relation_name in order:
        relation = lookup(relation_name)
        schema = relation.schema
        store = relation.column_store()
        kept = [
            attr
            for attr in schema.attribute_names
            if f"{relation_name}.{attr}" in needed
        ]
        kept_positions = [schema.position(attr) for attr in kept]
        base = len(slots)
        for offset, attr in enumerate(kept):
            slots[f"{relation_name}.{attr}"] = base + offset
        placed.add(relation_name)

        decidable = [c for c in remaining if c.relations() <= placed]
        remaining = [c for c in remaining if c.relations() - placed]
        if use_index:
            probe_pairs, residual = _split_probes(
                decidable, relation_name, slots, base
            )
        else:
            probe_pairs, residual = [], decidable

        if probe_pairs:
            positions = tuple(
                schema.position(new.attribute) for new, _ in probe_pairs
            )
            index = store.position_index(positions)
            key_columns = [
                cols[slots[bound.qualified]] for _, bound in probe_pairs
            ]
            unique = store.index_is_unique(positions)
            li, ri = probe_positions(key_columns, index, counters, unique)
            identity = unique and len(li) == count
        else:
            # Local clauses prune the relation once; the surviving rows
            # cross every incoming candidate (candidate-major order).
            local = [c for c in residual if c.relations() <= {relation_name}]
            residual = [c for c in residual if c.relations() - {relation_name}]
            local_filter = compile_clauses_kernel(local, schema_slots(schema))
            selection = local_filter(
                store.columns, range(store.length), counters
            )
            if count == 1:
                li = [0] * len(selection)
                ri = list(selection)
            else:
                li = [i for i in range(count) for _ in selection]
                ri = list(selection) * count
            identity = False

        if residual and li:
            residual_filter = compile_clauses_kernel(residual, slots)
            # Materialize only the columns the residual conjunction reads;
            # the rest stay position vectors until the final gather.
            layout: list = [None] * (base + len(kept))
            for slot in residual_filter.slots:
                if slot >= base:
                    column = store.columns[kept_positions[slot - base]]
                    layout[slot] = list(map(column.__getitem__, ri))
                else:
                    column = cols[slot]
                    layout[slot] = list(map(column.__getitem__, li))
            selection = residual_filter(layout, range(len(li)), counters)
            if len(selection) != len(li):
                li = [li[s] for s in selection]
                ri = [ri[s] for s in selection]

        if not li:
            count = 0
            if trace is not None:
                trace.append((relation_name, 0))
            break
        if not cols:
            new_cols = []
        elif len(li) == count and (identity or li == list(range(count))):
            # 1:1 match in incoming order (unique-key probes): the bound
            # columns survive unchanged — skip the re-gather entirely.
            new_cols = cols
        else:
            new_cols = [list(map(column.__getitem__, li)) for column in cols]
        for position in kept_positions:
            column = store.columns[position]
            new_cols.append(list(map(column.__getitem__, ri)))
        cols = new_cols
        count = len(li)
        if trace is not None:
            trace.append((relation_name, count))

    output_schema = _output_schema(resolved, schemas)
    if not count:
        return Relation(output_schema)
    out_cols = [cols[slots[str(item.ref)]] for item in resolved.select]
    rows = list(zip(*out_cols))
    return Relation.from_validated(output_schema, rows)


# ----------------------------------------------------------------------
# The original dict-binding nested-loop engine (reference implementation)
# ----------------------------------------------------------------------
def _evaluate_view_naive(
    view: ViewDefinition,
    relations: Mapping[str, Relation] | RelationLookup,
    trace: list | None = None,
) -> Relation:
    """The pre-index engine, byte for byte: left-to-right nested loops over
    dict bindings with a per-call hash fast path for equijoin clauses."""
    lookup = _lookup_from(relations)
    schemas = {name: lookup(name).schema for name in view.relation_names}
    resolved = ViewValidator(schemas).resolve_view(view)

    # Schedule each clause at the first FROM position where it is decidable.
    order = list(resolved.relation_names)
    bound_at: dict[int, list[PrimitiveClause]] = {i: [] for i in range(len(order))}
    for item in resolved.where:
        needed = item.clause.relations()
        position = max(
            (order.index(name) for name in needed if name in order), default=0
        )
        bound_at[position].append(item.clause)

    bindings: list[dict[str, Any]] = [{}]
    for position, relation_name in enumerate(order):
        relation = lookup(relation_name)
        clauses = bound_at[position]
        keys = [
            f"{relation_name}.{name}"
            for name in relation.schema.attribute_names
        ]
        # Hash fast path: equijoin clauses linking a new attribute to an
        # already-bound one index the relation once instead of scanning it
        # per binding.  Remaining clauses still filter row by row.
        probe_pairs, residual = _split_equijoins(
            clauses, relation_name, set(keys)
        )
        extended: list[dict[str, Any]] = []
        if probe_pairs and bindings:
            index: dict[tuple[Any, ...], list[tuple[Any, ...]]] = {}
            new_positions = [
                relation.schema.position(new.attribute)
                for new, _ in probe_pairs
            ]
            for row in relation:
                hash_key = tuple(row[p] for p in new_positions)
                index.setdefault(hash_key, []).append(row)
            for binding in bindings:
                probe = tuple(
                    binding[bound.qualified] for _, bound in probe_pairs
                )
                if None in probe:
                    continue
                for row in index.get(probe, ()):
                    candidate = dict(binding)
                    candidate.update(zip(keys, row))
                    if all(_eval_qualified(c, candidate) for c in residual):
                        extended.append(candidate)
        else:
            for binding in bindings:
                for row in relation:
                    candidate = dict(binding)
                    candidate.update(zip(keys, row))
                    if all(_eval_qualified(c, candidate) for c in clauses):
                        extended.append(candidate)
        bindings = extended
        if trace is not None:
            trace.append((relation_name, len(bindings)))
        if not bindings:
            break

    output_schema = _output_schema(resolved, schemas)
    keys = [str(item.ref) for item in resolved.select]
    rows = [tuple(binding[key] for key in keys) for binding in bindings]
    return Relation(output_schema, rows)


def _eval_qualified(clause: PrimitiveClause, binding: Mapping[str, Any]) -> bool:
    """Evaluate a fully qualified clause against a qualified-name binding."""
    return clause.evaluate(binding)


def _split_equijoins(
    clauses: list[PrimitiveClause],
    relation_name: str,
    new_keys: set[str],
) -> tuple[list, list[PrimitiveClause]]:
    """Split clauses into hash-joinable pairs and residual filters.

    A clause is hash-joinable at this position when it is an equijoin
    between one attribute of the relation being added and one attribute
    bound by an earlier relation.  Returns ``([(new_ref, bound_ref)...],
    residual_clauses)``.
    """
    pairs = []
    residual: list[PrimitiveClause] = []
    for clause in clauses:
        if (
            clause.comparator is Comparator.EQ
            and isinstance(clause.left, AttributeRef)
            and isinstance(clause.right, AttributeRef)
        ):
            left_new = clause.left.qualified in new_keys
            right_new = clause.right.qualified in new_keys
            if left_new and not right_new:
                pairs.append((clause.left, clause.right))
                continue
            if right_new and not left_new:
                pairs.append((clause.right, clause.left))
                continue
        residual.append(clause)
    return pairs, residual


def _output_schema(
    resolved: ViewDefinition, schemas: Mapping[str, Schema]
) -> Schema:
    attributes = []
    for item in resolved.select:
        assert item.ref.relation is not None
        source = schemas[item.ref.relation].attribute(item.ref.attribute)
        attributes.append(source.renamed(item.output_name))
    return Schema(resolved.name, attributes)


def evaluate_views(
    views: Iterable[ViewDefinition],
    relations: Mapping[str, Relation] | RelationLookup,
    statistics: SpaceStatistics | None = None,
    config: "EngineConfig | None" = None,
    kernel_counters=None,
) -> dict[str, Relation]:
    """Materialize several views; returns name -> extent."""
    return {
        view.name: evaluate_view(
            view, relations, statistics, config, kernel_counters
        )
        for view in views
    }
