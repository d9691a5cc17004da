"""Information sources: autonomous, semi-cooperative relation providers.

Each IS owns a catalog of relations, accepts data updates, undergoes
capability changes, and answers *single-site queries* — the wrapper
primitive the view maintainer (Algorithm 1, Sec. 6.1) relies on: "join this
incoming delta relation with your local relations referenced by the view,
apply the local selection conditions, send the result back".

Two in-flight representations of the delta relation exist:

* the **tuple plane** (:meth:`InformationSource.answer_single_site_batch`,
  the default) — a :class:`~repro.maintenance.delta.DeltaBatch` of
  positional tuples under an ordered schema of bound qualified columns,
  with probe keys and residual WHERE conjuncts compiled once per
  (condition, layout) and evaluated with no per-row dict construction;
* the **binding plane** (:meth:`InformationSource.answer_single_site_query`)
  — per-row ``dict`` mappings from fully qualified attribute names
  (``"R.A"``) to values, with clauses interpreted per candidate.  It is
  retained as the equivalence reference
  (``ViewMaintainer(representation="dict")``): both planes accept the
  same candidates in the same order, enforced by
  ``tests/property/test_delta_parity.py``.

Either way the delta accumulates columns from every relation it has
joined with so far, without inventing synthetic schemas for intermediate
results; message/byte/IO accounting lives in the maintenance simulator
and is byte-identical across representations.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.errors import MaintenanceError, WorkspaceError
from repro.relational.catalog import Catalog
from repro.relational.expressions import Comparator, Condition, PrimitiveClause
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.updates import DataUpdate, UpdateKind

Binding = dict[str, Any]


class InformationSource:
    """One autonomous IS: named catalog + wrapper query interface."""

    def __init__(self, name: str) -> None:
        if not name:
            raise WorkspaceError("information source needs a non-empty name")
        self.name = name
        self.catalog = Catalog(owner=f"IS {name!r}")

    # ------------------------------------------------------------------
    # Relation hosting
    # ------------------------------------------------------------------
    def host(self, relation: Relation) -> Relation:
        """Begin offering ``relation``."""
        return self.catalog.add(relation)

    def host_empty(self, schema: Schema) -> Relation:
        return self.catalog.add_empty(schema)

    def relation(self, name: str) -> Relation:
        return self.catalog.get(name)

    def offers(self, name: str) -> bool:
        return name in self.catalog

    @property
    def relation_names(self) -> tuple[str, ...]:
        return self.catalog.relation_names

    def __repr__(self) -> str:
        return f"<IS {self.name} offering {list(self.relation_names)}>"

    # ------------------------------------------------------------------
    # Data updates (generate notifications for the space to fan out)
    # ------------------------------------------------------------------
    def insert(self, relation: str, row: Sequence[Any]) -> DataUpdate:
        validated = self.relation(relation).insert(row)
        return DataUpdate(self.name, relation, UpdateKind.INSERT, validated)

    def delete(self, relation: str, row: Sequence[Any]) -> DataUpdate:
        target = self.relation(relation)
        if not target.delete(row):
            raise MaintenanceError(
                f"delete of non-existent row {tuple(row)!r} "
                f"from {self.name}.{relation}"
            )
        return DataUpdate(self.name, relation, UpdateKind.DELETE, tuple(row))

    def apply_run(
        self, relation: str, ops: Sequence[tuple[bool, Sequence[Any]]]
    ) -> list[DataUpdate]:
        """Apply a run of ``(insert, row)`` ops to one relation in one
        pass (:meth:`~repro.relational.relation.Relation.apply_run`;
        ``insert`` is False for a delete).

        Returns the :class:`DataUpdate` of each applied op, in order, as
        :meth:`insert` and :meth:`delete` build them.  A short result
        means the next op fails: :meth:`insert` or :meth:`delete` of it
        raises its error, and nothing of it has landed.
        """
        stored = self.relation(relation).apply_run(ops)
        name = self.name
        return [
            DataUpdate(name, relation, UpdateKind.INSERT, validated)
            if insert
            else DataUpdate(name, relation, UpdateKind.DELETE, tuple(row))
            for (insert, row), validated in zip(ops, stored)
        ]

    # ------------------------------------------------------------------
    # Wrapper query interface (single-site queries of Algorithm 1)
    # ------------------------------------------------------------------
    def answer_single_site_query(
        self,
        incoming: list[Binding],
        local_relations: Sequence[str],
        condition: Condition,
        use_index: bool = True,
    ) -> list[Binding]:
        """Extend the incoming delta bindings with this IS's relations.

        For each local relation in turn, every binding is joined with the
        local rows; WHERE conjuncts fire as soon as all their attributes
        are bound (joins across ISs included, because earlier sources'
        columns are already in the binding).  This is the per-IS step of
        Algorithm 1; message/byte accounting happens in the maintenance
        simulator, not here — the modeled min(scan, probe) I/O price is
        unchanged by how the join is actually executed.

        With ``use_index`` (the default) equijoin conjuncts linking a local
        relation to already-bound delta columns probe the relation's hash
        index per delta tuple instead of cross-joining every binding with
        every local row; ``use_index=False`` forces the original
        nested-loop execution (the reference path of the equivalence
        tests and engine benchmarks).  Both produce the same bindings.
        """
        current = incoming
        for name in local_relations:
            if not self.offers(name):  # pragma: no cover - defensive
                raise MaintenanceError(f"IS {self.name!r} does not offer {name!r}")
            local = self.relation(name)
            attribute_keys = [
                f"{name}.{attr}" for attr in local.schema.attribute_names
            ]
            if use_index and current:
                current = _extend_indexed(
                    current, local, name, attribute_keys, condition
                )
            else:
                extended: list[Binding] = []
                for binding in current:
                    for row in local:
                        candidate = dict(binding)
                        candidate.update(zip(attribute_keys, row))
                        if _satisfied_so_far(condition, candidate):
                            extended.append(candidate)
                current = extended
        return current

    def answer_single_site_batch(
        self,
        batch,
        local_relations: Sequence[str],
        condition: Condition,
        use_index: bool = True,
    ):
        """Tuple-plane single-site query: extend a ``DeltaBatch``.

        The compiled counterpart of :meth:`answer_single_site_query`:
        ``batch`` is a :class:`~repro.maintenance.delta.DeltaBatch`
        whose rows share one bound-column layout, so probe keys and the
        decidable-so-far residual clauses are planned once per
        (condition, layout, relation) — memoized across calls — instead
        of being re-derived per incoming row.  Provenance tags ride
        along row for row.  Accepted candidates and their order are
        identical to the binding plane's, for both ``use_index`` modes.
        """
        # Imported lazily: repro.maintenance imports this module back
        # (the simulator consumes the wrapper interface), so a top-level
        # import would cycle during package initialization.
        from repro.maintenance.delta import extend_batch

        for name in local_relations:
            if not self.offers(name):  # pragma: no cover - defensive
                raise MaintenanceError(
                    f"IS {self.name!r} does not offer {name!r}"
                )
        return extend_batch(
            self, batch, local_relations, condition, use_index=use_index
        )


def _extend_indexed(
    bindings: list[Binding],
    local: Relation,
    name: str,
    attribute_keys: list[str],
    condition: Condition,
) -> list[Binding]:
    """One local-relation step of the single-site query, via index probes.

    Equijoins between a local attribute and a delta column present in
    *every* incoming binding become probes (a column missing from some
    binding is undecidable there and must not filter, so it stays
    residual).  Residual clauses keep the decidable-so-far semantics of
    the nested-loop path, evaluated per candidate.
    """
    bound_keys = set(bindings[0])
    for binding in bindings[1:]:
        bound_keys &= set(binding)

    probe_attrs: list[str] = []
    probe_keys: list[str] = []
    residual: list[PrimitiveClause] = []
    for clause in condition.clauses:
        pair = probe_pair(clause, name, local.schema, bound_keys)
        if pair is not None:
            probe_attrs.append(pair[0])
            probe_keys.append(pair[1])
        else:
            residual.append(clause)
    residual_condition = Condition(residual)

    extended: list[Binding] = []
    if probe_attrs:
        index = local.index_on(probe_attrs)
        for binding in bindings:
            key = tuple(binding[k] for k in probe_keys)
            for row in index.probe(key):
                candidate = dict(binding)
                candidate.update(zip(attribute_keys, row))
                if _satisfied_so_far(residual_condition, candidate):
                    extended.append(candidate)
        return extended

    # No equijoin link: prune rows once with the clauses local to this
    # relation, then cross with the bindings (the naive path re-evaluated
    # those clauses per binding x row).  Partitioned in one pass — the
    # former ``c not in local_only`` list probe re-scanned the local
    # list per clause, O(n^2) in the conjunction size.
    local_only, cross = partition_local_clauses(residual, name, local.schema)
    cross_condition = Condition(cross)
    rows = list(local)
    if local_only:
        local_condition = Condition(local_only)
        rows = [
            row
            for row in rows
            if _satisfied_so_far(
                local_condition, dict(zip(attribute_keys, row))
            )
        ]
    for binding in bindings:
        for row in rows:
            candidate = dict(binding)
            candidate.update(zip(attribute_keys, row))
            if _satisfied_so_far(cross_condition, candidate):
                extended.append(candidate)
    return extended


# ----------------------------------------------------------------------
# Clause classifiers — shared by BOTH delta planes
# ----------------------------------------------------------------------
# The binding plane below and the compiled tuple plane
# (:mod:`repro.maintenance.delta`) must accept exactly the same
# candidates, so the clause classification they plan joins with is one
# implementation, not two kept in lockstep by hand.


def probe_pair(
    clause: PrimitiveClause,
    relation_name: str,
    schema: Schema,
    bound_keys: frozenset[str] | set[str],
) -> tuple[str, str] | None:
    """``(local_attribute, bound_key)`` when the clause can index-probe.

    The clause must be an equijoin linking an attribute of the local
    relation to a column every incoming delta row already binds (and
    not a self-join within the local relation, which only the extended
    layout can decide).
    """
    if clause.comparator is not Comparator.EQ or not clause.is_join_clause:
        return None
    left, right = clause.left, clause.right
    for new, bound in ((left, right), (right, left)):
        if (
            new.relation == relation_name
            and new.attribute in schema
            and bound.qualified in bound_keys
            and not (
                bound.relation == relation_name
                and bound.attribute in schema
            )
        ):
            return new.attribute, bound.qualified
    return None


def partition_local_clauses(
    clauses: Sequence[PrimitiveClause],
    relation_name: str,
    schema: Schema,
) -> tuple[list[PrimitiveClause], list[PrimitiveClause]]:
    """Split clauses into (local to the relation, everything else).

    A clause is local when every attribute reference is qualified to
    the relation and names one of its attributes — decidable against a
    local row alone, so the no-probe path can prune the relation once
    before cross-joining.  One pass, order preserved within each part.
    """
    local_only: list[PrimitiveClause] = []
    others: list[PrimitiveClause] = []
    for clause in clauses:
        refs = clause.attribute_refs
        if refs and all(
            ref.relation == relation_name and ref.attribute in schema
            for ref in refs
        ):
            local_only.append(clause)
        else:
            others.append(clause)
    return local_only, others


def _satisfied_so_far(condition: Condition, binding: Binding) -> bool:
    """Evaluate every clause whose attributes are all bound; skip the rest."""
    for clause in condition.clauses:
        if clause_decidable(clause, binding):
            if not clause.evaluate(binding):
                return False
    return True


def clause_decidable(clause: PrimitiveClause, binding: Binding) -> bool:
    """Whether every attribute the clause references is bound.

    Part of the shared clause-classification surface: the maintenance
    simulator's seed filter and the system's join-graph flush analysis
    (``EVESystem.apply_updates``) both rely on it, so the decidability
    rule every delta plane uses stays one implementation.
    """
    return all(ref.qualified in binding for ref in clause.attribute_refs)


#: Backwards-compatible alias of :func:`clause_decidable`.
_clause_decidable = clause_decidable
