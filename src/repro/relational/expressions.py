"""Predicate expressions over relation rows.

The paper's WHERE clauses are conjunctions of *primitive clauses* (Sec. 3.1):

    (<attribute-name> theta <attribute-name>)  or
    (<attribute-name> theta <value>)           with theta in {<, <=, =, >=, >}

We model each primitive clause as a small immutable AST node that can

* evaluate itself against a named row (dict of attribute -> value),
* report which attributes it references (so the synchronizer knows when a
  clause is affected by a schema change),
* rewrite its attribute references (when a replacement relation is
  substituted), and
* estimate its selectivity given per-attribute statistics.

Conjunctions are modelled explicitly; disjunction is intentionally absent
because the paper's language does not include it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Iterable, Mapping
from typing import Any

from repro.errors import EvaluationError


class Comparator(enum.Enum):
    """The comparison operator theta of a primitive clause."""

    LT = "<"
    LE = "<="
    EQ = "="
    GE = ">="
    GT = ">"
    NE = "<>"

    def __str__(self) -> str:
        return self.value

    def apply(self, left: Any, right: Any) -> bool:
        """Evaluate ``left theta right``; None never satisfies a clause."""
        if left is None or right is None:
            return False
        if self is Comparator.LT:
            return left < right
        if self is Comparator.LE:
            return left <= right
        if self is Comparator.EQ:
            return left == right
        if self is Comparator.GE:
            return left >= right
        if self is Comparator.GT:
            return left > right
        return left != right

    def flipped(self) -> "Comparator":
        """The comparator with its operands swapped (A < B  <=>  B > A)."""
        flips = {
            Comparator.LT: Comparator.GT,
            Comparator.LE: Comparator.GE,
            Comparator.GT: Comparator.LT,
            Comparator.GE: Comparator.LE,
            Comparator.EQ: Comparator.EQ,
            Comparator.NE: Comparator.NE,
        }
        return flips[self]

    @classmethod
    def from_symbol(cls, symbol: str) -> "Comparator":
        for member in cls:
            if member.value == symbol:
                return member
        raise EvaluationError(f"unknown comparator {symbol!r}")


@dataclass(frozen=True, slots=True)
class AttributeRef:
    """A (possibly relation-qualified) attribute reference ``R.A`` or ``A``."""

    attribute: str
    relation: str | None = None

    def __str__(self) -> str:
        if self.relation:
            return f"{self.relation}.{self.attribute}"
        return self.attribute

    @property
    def qualified(self) -> str:
        return str(self)

    def matches(self, attribute: str, relation: str | None = None) -> bool:
        """Whether this reference denotes the given attribute.

        An unqualified reference matches any relation; a qualified one only
        matches its own relation (or a lookup that does not care).
        """
        if self.attribute != attribute:
            return False
        if relation is None or self.relation is None:
            return True
        return self.relation == relation

    def requalified(self, new_relation: str | None) -> "AttributeRef":
        """Same attribute name bound to a different relation."""
        return AttributeRef(self.attribute, new_relation)

    def renamed(self, new_attribute: str) -> "AttributeRef":
        """Reference with a different attribute name, same relation."""
        return AttributeRef(new_attribute, self.relation)


@dataclass(frozen=True, slots=True)
class Constant:
    """A literal operand of a primitive clause."""

    value: Any

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


Operand = AttributeRef | Constant


def _resolve(operand: Operand, row: Mapping[str, Any]) -> Any:
    """Look an operand up in a named row.

    Qualified references fall back to the bare attribute name because join
    results flatten qualifications; ambiguity is the caller's burden (the
    validator rejects genuinely ambiguous views up front).
    """
    if isinstance(operand, Constant):
        return operand.value
    key = operand.qualified
    if key in row:
        return row[key]
    if operand.attribute in row:
        return row[operand.attribute]
    raise EvaluationError(f"attribute {key!r} not present in row")


@dataclass(frozen=True, slots=True)
class PrimitiveClause:
    """One comparison ``left theta right`` (Sec. 3.1).

    At least one operand is an :class:`AttributeRef`.  A clause whose two
    operands are both attributes is a *join clause* when they come from
    different relations.
    """

    left: Operand
    comparator: Comparator
    right: Operand

    def __post_init__(self) -> None:
        if isinstance(self.left, Constant) and isinstance(self.right, Constant):
            raise EvaluationError(
                "a primitive clause needs at least one attribute operand"
            )

    def __str__(self) -> str:
        return f"{self.left} {self.comparator} {self.right}"

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @property
    def attribute_refs(self) -> tuple[AttributeRef, ...]:
        refs = []
        if isinstance(self.left, AttributeRef):
            refs.append(self.left)
        if isinstance(self.right, AttributeRef):
            refs.append(self.right)
        return tuple(refs)

    @property
    def is_join_clause(self) -> bool:
        """True when both operands are attribute references."""
        return isinstance(self.left, AttributeRef) and isinstance(
            self.right, AttributeRef
        )

    @property
    def is_selection_clause(self) -> bool:
        """True when exactly one operand is a constant (a local condition)."""
        return not self.is_join_clause

    @property
    def is_equijoin(self) -> bool:
        return self.is_join_clause and self.comparator is Comparator.EQ

    def relations(self) -> frozenset[str]:
        """Relation names referenced by this clause (qualified refs only)."""
        return frozenset(
            ref.relation for ref in self.attribute_refs if ref.relation
        )

    def references(self, attribute: str, relation: str | None = None) -> bool:
        """Whether the clause mentions the given attribute."""
        return any(ref.matches(attribute, relation) for ref in self.attribute_refs)

    def references_relation(self, relation: str) -> bool:
        return relation in self.relations()

    # ------------------------------------------------------------------
    # Evaluation and rewriting
    # ------------------------------------------------------------------
    def evaluate(self, row: Mapping[str, Any]) -> bool:
        """Truth value of the clause against a named row."""
        return self.comparator.apply(
            _resolve(self.left, row), _resolve(self.right, row)
        )

    def _rewrite_operand(
        self, operand: Operand, old_relation: str, new_relation: str,
        attribute_map: Mapping[str, str] | None,
    ) -> Operand:
        if not isinstance(operand, AttributeRef):
            return operand
        if operand.relation != old_relation:
            return operand
        attribute = operand.attribute
        if attribute_map and attribute in attribute_map:
            attribute = attribute_map[attribute]
        return AttributeRef(attribute, new_relation)

    def with_relation_replaced(
        self,
        old_relation: str,
        new_relation: str,
        attribute_map: Mapping[str, str] | None = None,
    ) -> "PrimitiveClause":
        """Clause with references to ``old_relation`` redirected.

        ``attribute_map`` optionally translates attribute names when the
        replacement relation spells them differently (PC-constraint
        correspondence).
        """
        return PrimitiveClause(
            self._rewrite_operand(
                self.left, old_relation, new_relation, attribute_map
            ),
            self.comparator,
            self._rewrite_operand(
                self.right, old_relation, new_relation, attribute_map
            ),
        )

    def normalized(self) -> "PrimitiveClause":
        """Canonical operand order: attribute refs sorted, constant last."""
        left, right = self.left, self.right
        comparator = self.comparator
        swap = False
        if isinstance(left, Constant):
            swap = True
        elif isinstance(right, AttributeRef) and str(right) < str(left):
            swap = True
        if swap:
            left, right = right, left
            comparator = comparator.flipped()
        return PrimitiveClause(left, comparator, right)


class Condition:
    """A conjunction ``C_1 AND ... AND C_k`` of primitive clauses.

    The empty conjunction is the tautologically true condition used by PC
    constraints whose selection side is unrestricted (Sec. 5.4.3).
    """

    __slots__ = ("_clauses",)

    def __init__(self, clauses: Iterable[PrimitiveClause] = ()) -> None:
        self._clauses: tuple[PrimitiveClause, ...] = tuple(clauses)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def true(cls) -> "Condition":
        """The tautologically true condition (empty conjunction)."""
        return cls(())

    @classmethod
    def of(cls, *clauses: PrimitiveClause) -> "Condition":
        return cls(clauses)

    def and_also(self, other: "Condition | PrimitiveClause") -> "Condition":
        """Conjunction of this condition with another."""
        if isinstance(other, PrimitiveClause):
            return Condition((*self._clauses, other))
        return Condition((*self._clauses, *other._clauses))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def clauses(self) -> tuple[PrimitiveClause, ...]:
        return self._clauses

    @property
    def is_true(self) -> bool:
        """Whether this is the tautology (no clauses)."""
        return not self._clauses

    def __len__(self) -> int:
        return len(self._clauses)

    def __iter__(self):
        return iter(self._clauses)

    def __bool__(self) -> bool:
        # Truthiness means "has clauses", i.e. *not* the tautology.
        return bool(self._clauses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Condition):
            return NotImplemented
        normalize = lambda cond: sorted(  # noqa: E731 - tiny local helper
            str(clause.normalized()) for clause in cond._clauses
        )
        return normalize(self) == normalize(other)

    def __hash__(self) -> int:
        return hash(frozenset(str(c.normalized()) for c in self._clauses))

    def __str__(self) -> str:
        if not self._clauses:
            return "TRUE"
        return " AND ".join(f"({clause})" for clause in self._clauses)

    def relations(self) -> frozenset[str]:
        """All relation names referenced anywhere in the conjunction."""
        names: set[str] = set()
        for clause in self._clauses:
            names |= clause.relations()
        return frozenset(names)

    def attribute_refs(self) -> tuple[AttributeRef, ...]:
        refs: list[AttributeRef] = []
        for clause in self._clauses:
            refs.extend(clause.attribute_refs)
        return tuple(refs)

    def join_clauses(self) -> tuple[PrimitiveClause, ...]:
        return tuple(c for c in self._clauses if c.is_join_clause)

    def selection_clauses(self) -> tuple[PrimitiveClause, ...]:
        return tuple(c for c in self._clauses if c.is_selection_clause)

    # ------------------------------------------------------------------
    # Evaluation and rewriting
    # ------------------------------------------------------------------
    def evaluate(self, row: Mapping[str, Any]) -> bool:
        """Conjunction truth value; the empty conjunction is True."""
        return all(clause.evaluate(row) for clause in self._clauses)

    def with_relation_replaced(
        self,
        old_relation: str,
        new_relation: str,
        attribute_map: Mapping[str, str] | None = None,
    ) -> "Condition":
        """All clauses rewritten to reference the replacement relation."""
        return Condition(
            clause.with_relation_replaced(old_relation, new_relation, attribute_map)
            for clause in self._clauses
        )

    def without_clauses_referencing(
        self, attribute: str | None = None, relation: str | None = None
    ) -> "Condition":
        """Drop clauses that mention the given attribute and/or relation.

        Used by the synchronizer when a dispensable condition must be
        discarded because its inputs disappeared.
        """
        kept: list[PrimitiveClause] = []
        for clause in self._clauses:
            mentions = False
            if attribute is not None and clause.references(attribute, relation):
                mentions = True
            if (
                attribute is None
                and relation is not None
                and clause.references_relation(relation)
            ):
                mentions = True
            if not mentions:
                kept.append(clause)
        return Condition(kept)
