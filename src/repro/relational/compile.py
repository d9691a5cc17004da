"""Compile predicate ASTs into positional-tuple closures.

The interpreted path (:meth:`PrimitiveClause.evaluate`) resolves every
operand through a dict of attribute names on every row.  The hot loops of
the execution engine instead compile each clause *once* against a slot
layout — a mapping from attribute keys to tuple positions — and evaluate
rows as plain tuples with no per-row dict construction or string lookups.

Resolution mirrors :func:`repro.relational.expressions._resolve` exactly:
a qualified reference ``R.A`` matches the key ``"R.A"`` first and falls
back to the bare attribute name ``"A"``; compiled and interpreted paths
therefore agree clause for clause (the equivalence property tests pin
this).  ``None`` (NULL) operands never satisfy a clause, matching
:meth:`Comparator.apply`.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.errors import EvaluationError
from repro.relational.expressions import (
    AttributeRef,
    Comparator,
    Condition,
    Constant,
    PrimitiveClause,
)
from repro.relational.schema import Schema

Row = tuple[Any, ...]
RowPredicate = Callable[[Row], bool]

_OPERATORS: dict[Comparator, Callable[[Any, Any], bool]] = {
    Comparator.LT: operator.lt,
    Comparator.LE: operator.le,
    Comparator.EQ: operator.eq,
    Comparator.GE: operator.ge,
    Comparator.GT: operator.gt,
    Comparator.NE: operator.ne,
}


def resolve_slot(ref: AttributeRef, slots: Mapping[str, int]) -> int | None:
    """Tuple position of ``ref`` under the qualified-then-bare rule."""
    position = slots.get(ref.qualified)
    if position is not None:
        return position
    return slots.get(ref.attribute)


def schema_slots(schema: Schema, qualified: bool = True) -> dict[str, int]:
    """Slot layout of one relation's rows: bare and ``R.A`` keys."""
    slots: dict[str, int] = {}
    for position, name in enumerate(schema.attribute_names):
        slots[name] = position
        if qualified:
            slots[f"{schema.name}.{name}"] = position
    return slots


def layout_slots(columns: Sequence[str]) -> dict[str, int]:
    """Slot layout of an explicit column list (e.g. a delta batch).

    Unlike :func:`schema_slots` the keys are exactly the given column
    names — for delta batches these are fully qualified ``R.A`` strings,
    so resolution through :func:`resolve_slot` behaves exactly like the
    interpreted path over a binding dict keyed by qualified names (the
    bare-name fallback never matches a qualified key, in either plane).
    """
    return {column: position for position, column in enumerate(columns)}


def _unresolved(ref: AttributeRef) -> RowPredicate:
    """Predicate that fails like the interpreter: lazily, on first use."""

    def raise_on_use(row: Row) -> bool:
        raise EvaluationError(f"attribute {ref.qualified!r} not present in row")

    return raise_on_use


def compile_clause(
    clause: PrimitiveClause, slots: Mapping[str, int]
) -> RowPredicate:
    """One clause as a positional-tuple predicate.

    An operand that resolves to no slot yields a predicate that raises
    :class:`EvaluationError` when invoked — the same failure, at the same
    time, as the interpreted path (which only fails when a row is actually
    evaluated, e.g. never on an empty relation).
    """
    op = _OPERATORS[clause.comparator]
    left, right = clause.left, clause.right

    if isinstance(left, AttributeRef) and isinstance(right, AttributeRef):
        li = resolve_slot(left, slots)
        ri = resolve_slot(right, slots)
        if li is None:
            return _unresolved(left)
        if ri is None:
            return _unresolved(right)

        def attr_attr(row: Row, li=li, ri=ri, op=op) -> bool:
            a = row[li]
            b = row[ri]
            return a is not None and b is not None and op(a, b)

        return attr_attr

    if isinstance(left, AttributeRef):
        assert isinstance(right, Constant)
        li = resolve_slot(left, slots)
        if li is None:
            return _unresolved(left)
        value = right.value
        if value is None:
            return lambda row: False

        def attr_const(row: Row, li=li, value=value, op=op) -> bool:
            a = row[li]
            return a is not None and op(a, value)

        return attr_const

    assert isinstance(left, Constant) and isinstance(right, AttributeRef)
    ri = resolve_slot(right, slots)
    if ri is None:
        return _unresolved(right)
    value = left.value
    if value is None:
        return lambda row: False

    def const_attr(row: Row, ri=ri, value=value, op=op) -> bool:
        b = row[ri]
        return b is not None and op(value, b)

    return const_attr


def compile_clauses(
    clauses: Sequence[PrimitiveClause], slots: Mapping[str, int]
) -> RowPredicate:
    """Conjunction of compiled clauses (empty conjunction is True)."""
    compiled = [compile_clause(clause, slots) for clause in clauses]
    if not compiled:
        return lambda row: True
    if len(compiled) == 1:
        return compiled[0]

    def conjunction(row: Row, compiled=tuple(compiled)) -> bool:
        for predicate in compiled:
            if not predicate(row):
                return False
        return True

    return conjunction


def compile_condition(
    condition: Condition, slots: Mapping[str, int]
) -> RowPredicate:
    """A whole :class:`Condition` as one positional predicate."""
    return compile_clauses(condition.clauses, slots)

