"""Relational algebra operators over :class:`~repro.relational.relation.Relation`.

Every operator returns a fresh relation; inputs are never mutated.  The
operators cover exactly what EVE view queries and the quality model need:

* ``select`` — sigma with a :class:`Condition` or any row predicate,
* ``project`` — pi with optional duplicate elimination and renaming,
* ``join`` / ``cartesian_product`` — theta-joins via conjunctive conditions,
* ``union`` / ``difference`` / ``intersection`` — set ops used by the
  common-subset-of-attributes comparisons of Sec. 5.3 (Fig. 7).

Conditions are compiled once into positional-tuple closures
(:mod:`repro.relational.compile`) and equijoins probe the relations' own
hash indexes (:mod:`repro.relational.index`); the original interpreted
nested-loop paths remain reachable via ``compiled=False`` /
``use_index=False`` so the equivalence property tests and the engine
benchmarks can compare both.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.errors import SchemaError
from repro.relational.compile import compile_condition, schema_slots
from repro.relational.expressions import (
    AttributeRef,
    Comparator,
    Condition,
    PrimitiveClause,
)
from repro.relational.relation import Relation, Row
from repro.relational.schema import Schema

RowPredicate = Callable[[Mapping[str, Any]], bool]


def _as_predicate(condition: Condition | RowPredicate) -> RowPredicate:
    if isinstance(condition, Condition):
        return condition.evaluate
    return condition


def select(
    relation: Relation,
    condition: Condition | RowPredicate,
    new_name: str | None = None,
    compiled: bool = True,
) -> Relation:
    """sigma_condition(relation): rows satisfying the condition."""
    schema = (
        relation.schema.rename_relation(new_name) if new_name else relation.schema
    )
    result = Relation(schema)
    if compiled and isinstance(condition, Condition):
        predicate = compile_condition(condition, schema_slots(relation.schema))
        for row in relation:
            if predicate(row):
                result.insert(row)
        return result
    predicate = _as_predicate(condition)
    for row in relation:
        if predicate(relation.named_row(row)):
            result.insert(row)
    return result


def project(
    relation: Relation,
    attributes: Sequence[str],
    new_name: str | None = None,
    distinct: bool = False,
) -> Relation:
    """pi_attributes(relation), optionally duplicate-eliminating.

    The quality model always projects with ``distinct=True`` ("duplicates
    removed first", Sec. 5.4.2); view materialization keeps bag semantics.
    """
    positions = [relation.schema.position(name) for name in attributes]
    schema = relation.schema.project(attributes, new_name)
    result = Relation(schema)
    seen: set[Row] = set()
    for row in relation:
        projected = tuple(row[i] for i in positions)
        if distinct:
            if projected in seen:
                continue
            seen.add(projected)
        result.insert(projected)
    return result


def rename(
    relation: Relation, mapping: Mapping[str, str], new_name: str | None = None
) -> Relation:
    """Relation with attributes renamed per ``mapping`` (old -> new)."""
    schema = relation.schema
    for old, new in mapping.items():
        schema = schema.rename_attribute(old, new)
    if new_name:
        schema = schema.rename_relation(new_name)
    return Relation.from_validated(schema, relation.rows)


def cartesian_product(
    left: Relation, right: Relation, new_name: str | None = None
) -> Relation:
    """left x right with clash-qualified attribute names."""
    name = new_name or f"{left.name}_x_{right.name}"
    schema = left.schema.concat(right.schema, name)
    result = Relation(schema)
    for lrow in left:
        for rrow in right:
            result.insert((*lrow, *rrow))
    return result


def _equijoin_pairs(
    left: Relation, right: Relation, condition: Condition
) -> list[tuple[int, int]] | None:
    """Positions of equijoin attribute pairs, or None if not all-equijoin."""
    pairs: list[tuple[int, int]] = []
    for clause in condition.clauses:
        if not clause.is_equijoin:
            return None
        assert isinstance(clause.left, AttributeRef)
        assert isinstance(clause.right, AttributeRef)
        refs = [clause.left, clause.right]
        left_ref = next(
            (r for r in refs if _ref_in(r, left.schema, right.schema)), None
        )
        right_ref = next(
            (r for r in refs if r is not left_ref and _ref_in(r, right.schema, left.schema)),
            None,
        )
        if left_ref is None or right_ref is None:
            return None
        pairs.append(
            (
                left.schema.position(left_ref.attribute),
                right.schema.position(right_ref.attribute),
            )
        )
    return pairs


def _ref_in(ref: AttributeRef, schema: Schema, other: Schema) -> bool:
    """Whether ``ref`` unambiguously resolves inside ``schema``."""
    if ref.relation is not None:
        return ref.relation == schema.name and ref.attribute in schema
    return ref.attribute in schema and ref.attribute not in other


def _product_slots(left: Relation, right: Relation) -> dict[str, int]:
    """Slot layout of a concatenated ``(*lrow, *rrow)`` tuple.

    Mirrors the named-row view the interpreted fallback builds: bare names
    resolve left-first (left wins clashes), qualified names resolve to
    their own relation.
    """
    slots: dict[str, int] = {}
    offset = left.schema.arity
    for position, attr in enumerate(right.schema.attribute_names):
        slots[attr] = offset + position
        slots[f"{right.name}.{attr}"] = offset + position
    for position, attr in enumerate(left.schema.attribute_names):
        slots[attr] = position  # left wins bare-name clashes
        slots[f"{left.name}.{attr}"] = position
    return slots


def join(
    left: Relation,
    right: Relation,
    condition: Condition,
    new_name: str | None = None,
    use_index: bool = True,
) -> Relation:
    """Theta-join of two relations under a conjunctive condition.

    Pure-equijoin conditions whose sides resolve unambiguously probe the
    right relation's hash index; everything else runs nested loops with a
    condition compiled over the product tuple.  ``use_index=False`` forces
    the original interpreted nested-loop evaluation (the reference the
    equivalence tests compare against).
    """
    name = new_name or f"{left.name}_join_{right.name}"
    schema = left.schema.concat(right.schema, name)
    result = Relation(schema)

    pairs = _equijoin_pairs(left, right, condition) if condition else None
    if pairs and use_index:
        index = right.index_on_positions(tuple(rpos for _, rpos in pairs))
        left_positions = tuple(lpos for lpos, _ in pairs)
        for lrow in left:
            key = tuple(lrow[p] for p in left_positions)
            for rrow in index.probe(key):
                result.insert((*lrow, *rrow))
        return result
    if pairs:
        index_map: dict[tuple[Any, ...], list[Row]] = {}
        for rrow in right:
            key = tuple(rrow[rpos] for _, rpos in pairs)
            index_map.setdefault(key, []).append(rrow)
        for lrow in left:
            key = tuple(lrow[lpos] for lpos, _ in pairs)
            if None in key:
                continue
            for rrow in index_map.get(key, ()):
                result.insert((*lrow, *rrow))
        return result

    if use_index:
        predicate = compile_condition(condition, _product_slots(left, right))
        for lrow in left:
            for rrow in right:
                combined = (*lrow, *rrow)
                if predicate(combined):
                    result.insert(combined)
        return result

    for lrow in left:
        lnamed = left.named_row(lrow)
        qualified_l = {f"{left.name}.{k}": v for k, v in lnamed.items()}
        for rrow in right:
            rnamed = right.named_row(rrow)
            row_view: dict[str, Any] = {}
            row_view.update(rnamed)
            row_view.update(lnamed)  # left wins bare-name clashes
            row_view.update({f"{right.name}.{k}": v for k, v in rnamed.items()})
            row_view.update(qualified_l)
            if condition.evaluate(row_view):
                result.insert((*lrow, *rrow))
    return result


def natural_equijoin(
    left: Relation, right: Relation, on: Sequence[tuple[str, str]],
    new_name: str | None = None,
) -> Relation:
    """Convenience equijoin on explicit (left_attr, right_attr) pairs."""
    clauses = [
        PrimitiveClause(
            AttributeRef(l, left.name), Comparator.EQ, AttributeRef(r, right.name)
        )
        for l, r in on
    ]
    return join(left, right, Condition(clauses), new_name)


def _check_compatible(left: Relation, right: Relation, op: str) -> None:
    if left.schema.arity != right.schema.arity:
        raise SchemaError(
            f"{op}: arity mismatch {left.schema.arity} vs {right.schema.arity}"
        )


def union(left: Relation, right: Relation, distinct: bool = True) -> Relation:
    """Set (default) or bag union; schema taken from the left operand."""
    _check_compatible(left, right, "union")
    result = Relation(left.schema)
    if distinct:
        seen: set[Row] = set()
        for row in list(left) + list(right):
            if row not in seen:
                seen.add(row)
                result.insert(row)
    else:
        for row in list(left) + list(right):
            result.insert(row)
    return result


def difference(left: Relation, right: Relation) -> Relation:
    """Set difference left \\ right (duplicates in left collapse)."""
    _check_compatible(left, right, "difference")
    right_rows = right.row_set()
    result = Relation(left.schema)
    seen: set[Row] = set()
    for row in left:
        if row not in right_rows and row not in seen:
            seen.add(row)
            result.insert(row)
    return result


def intersection(left: Relation, right: Relation) -> Relation:
    """Set intersection of the two extents; schema from the left operand."""
    _check_compatible(left, right, "intersection")
    right_rows = right.row_set()
    result = Relation(left.schema)
    seen: set[Row] = set()
    for row in left:
        if row in right_rows and row not in seen:
            seen.add(row)
            result.insert(row)
    return result


# ----------------------------------------------------------------------
# Common-subset-of-attributes operators (Sec. 5.3, Fig. 7)
# ----------------------------------------------------------------------
def common_projection(view: Relation, other: Relation) -> Relation:
    """``V^(V_i)`` of Definition 1: pi over the shared attributes, distinct.

    Raises :class:`SchemaError` when the views share no attributes, because
    every Fig. 7 operator is undefined in that case.
    """
    common = view.schema.common_attributes(other.schema)
    if not common:
        raise SchemaError(
            f"views {view.name!r} and {other.name!r} share no attributes"
        )
    return project(view, common, distinct=True)


def cs_equal(view: Relation, other: Relation) -> bool:
    """``V =~ V_i``: equality on the common subset of attributes."""
    return (
        common_projection(view, other).row_set()
        == common_projection(other, view).row_set()
    )


def cs_subset(view: Relation, other: Relation) -> bool:
    """``view ⊆~ other`` on the common subset of attributes."""
    return common_projection(view, other).row_set() <= common_projection(
        other, view
    ).row_set()


def cs_intersection(view: Relation, other: Relation) -> Relation:
    """``V ∩~ V_i`` (Fig. 7): shared projected tuples."""
    return intersection(
        common_projection(view, other), common_projection(other, view)
    )


def cs_difference(view: Relation, other: Relation) -> Relation:
    """``V \\~ V_i`` (Fig. 7): projected tuples of V missing from V_i."""
    return difference(
        common_projection(view, other), common_projection(other, view)
    )
