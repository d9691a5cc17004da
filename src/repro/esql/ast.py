"""Abstract syntax of E-SQL view definitions (Sec. 3.1, Fig. 2).

A view definition is::

    CREATE VIEW V (B_1, ..., B_m) (VE = ...) AS
    SELECT R.A (AD = ..., AR = ...), ...
    FROM   R (RD = ..., RR = ...), ...
    WHERE  C_1 (CD = ..., CR = ...) AND ...

The AST is immutable; the synchronizer derives rewritings through the
``with_*``/``dropping_*``/``replacing_*`` methods, which return new
definitions and keep the evolution flags of surviving components intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping

from repro.errors import SchemaError
from repro.esql.params import AttributeCategory, EvolutionFlags, ViewExtent
from repro.relational.expressions import (
    AttributeRef,
    Condition,
    PrimitiveClause,
)


@dataclass(frozen=True, slots=True)
class SelectItem:
    """One SELECT-clause entry ``R.A (AD = ..., AR = ...)`` with local alias."""

    ref: AttributeRef
    flags: EvolutionFlags = field(default_factory=EvolutionFlags)
    alias: str | None = None

    @property
    def output_name(self) -> str:
        """The attribute name this item contributes to the view interface."""
        return self.alias if self.alias is not None else self.ref.attribute

    @property
    def category(self) -> AttributeCategory:
        return self.flags.category

    def references(self, attribute: str, relation: str | None = None) -> bool:
        return self.ref.matches(attribute, relation)

    def with_replaced_source(
        self,
        new_relation: str,
        new_attribute: str | None = None,
    ) -> "SelectItem":
        """Item re-bound to a replacement relation/attribute.

        The output alias is pinned to the *original* output name so the view
        interface stays stable across replacements (the user keeps seeing
        the column they asked for, per Sec. 5.1's notion of preserving the
        view interface from other sources).
        """
        attribute = new_attribute or self.ref.attribute
        return SelectItem(
            AttributeRef(attribute, new_relation),
            self.flags,
            alias=self.output_name,
        )

    def __str__(self) -> str:
        rendered = str(self.ref)
        if self.alias is not None and self.alias != self.ref.attribute:
            rendered += f" AS {self.alias}"
        return rendered + self.flags.format("AD", "AR")


@dataclass(frozen=True, slots=True)
class FromItem:
    """One FROM-clause entry ``R (RD = ..., RR = ...)``."""

    relation: str
    flags: EvolutionFlags = field(default_factory=EvolutionFlags)
    source: str | None = None  # owning information source, when known

    def __str__(self) -> str:
        return self.relation + self.flags.format("RD", "RR")

    def renamed(self, new_relation: str, source: str | None = None) -> "FromItem":
        return FromItem(new_relation, self.flags, source or self.source)


@dataclass(frozen=True, slots=True)
class WhereItem:
    """One WHERE-clause conjunct ``C_i (CD = ..., CR = ...)``."""

    clause: PrimitiveClause
    flags: EvolutionFlags = field(default_factory=EvolutionFlags)

    def __str__(self) -> str:
        return f"({self.clause})" + self.flags.format("CD", "CR")

    def references(self, attribute: str, relation: str | None = None) -> bool:
        return self.clause.references(attribute, relation)

    def references_relation(self, relation: str) -> bool:
        return self.clause.references_relation(relation)

    def with_relation_replaced(
        self,
        old_relation: str,
        new_relation: str,
        attribute_map: Mapping[str, str] | None = None,
    ) -> "WhereItem":
        return WhereItem(
            self.clause.with_relation_replaced(
                old_relation, new_relation, attribute_map
            ),
            self.flags,
        )


class ViewDefinition:
    """A complete E-SQL view definition.

    Immutable.  Derivation methods return fresh definitions; they are the
    only sanctioned way the synchronizer edits a view.
    """

    __slots__ = (
        "name", "select", "from_", "where", "extent_parameter",
        "relation_names", "_coalesce_key",
    )

    def __init__(
        self,
        name: str,
        select: Iterable[SelectItem],
        from_: Iterable[FromItem],
        where: Iterable[WhereItem] = (),
        extent_parameter: ViewExtent = ViewExtent.ANY,
    ) -> None:
        self.name = name
        self.select: tuple[SelectItem, ...] = tuple(select)
        self.from_: tuple[FromItem, ...] = tuple(from_)
        self.where: tuple[WhereItem, ...] = tuple(where)
        self.extent_parameter = extent_parameter
        #: FROM relation names in FROM order (fixed at birth, like
        #: ``from_``; read on every maintained update).
        self.relation_names: tuple[str, ...] = tuple(
            [item.relation for item in self.from_]
        )
        #: :func:`coalesce_fingerprint`'s memo (rendered on first use).
        self._coalesce_key: str | None = None
        if not self.select:
            raise SchemaError(f"view {name!r} must select at least one attribute")
        if not self.from_:
            raise SchemaError(f"view {name!r} must reference at least one relation")
        seen_outputs: set[str] = set()
        for item in self.select:
            if item.output_name in seen_outputs:
                raise SchemaError(
                    f"duplicate output attribute {item.output_name!r} "
                    f"in view {name!r}"
                )
            seen_outputs.add(item.output_name)
        seen_relations: set[str] = set()
        for item in self.from_:
            if item.relation in seen_relations:
                raise SchemaError(
                    f"duplicate FROM relation {item.relation!r} in view {name!r}"
                )
            seen_relations.add(item.relation)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def interface(self) -> tuple[str, ...]:
        """Output attribute names ``Attr(V)`` in SELECT order."""
        return tuple(item.output_name for item in self.select)

    def condition(self) -> Condition:
        """The WHERE conjunction as a single :class:`Condition`."""
        return Condition(item.clause for item in self.where)

    def select_item(self, output_name: str) -> SelectItem:
        for item in self.select:
            if item.output_name == output_name:
                return item
        raise SchemaError(
            f"view {self.name!r} has no output attribute {output_name!r}"
        )

    def from_item(self, relation: str) -> FromItem:
        for item in self.from_:
            if item.relation == relation:
                return item
        raise SchemaError(f"view {self.name!r} does not reference {relation!r}")

    def references_relation(self, relation: str) -> bool:
        return relation in self.relation_names

    def select_items_from(self, relation: str) -> tuple[SelectItem, ...]:
        """SELECT items whose source attribute lives in ``relation``."""
        return tuple(
            item for item in self.select if item.ref.relation == relation
        )

    def where_items_on(self, relation: str) -> tuple[WhereItem, ...]:
        """WHERE conjuncts mentioning ``relation``."""
        return tuple(
            item for item in self.where if item.references_relation(relation)
        )

    def categories(self) -> dict[AttributeCategory, tuple[SelectItem, ...]]:
        """SELECT items bucketed into the Fig. 6 categories."""
        buckets: dict[AttributeCategory, list[SelectItem]] = {
            category: [] for category in AttributeCategory
        }
        for item in self.select:
            buckets[item.category].append(item)
        return {category: tuple(items) for category, items in buckets.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ViewDefinition):
            return NotImplemented
        return (
            self.name == other.name
            and self.select == other.select
            and self.from_ == other.from_
            and self.where == other.where
            and self.extent_parameter == other.extent_parameter
        )

    def __hash__(self) -> int:
        return hash(
            (self.name, self.select, self.from_, self.where, self.extent_parameter)
        )

    def __repr__(self) -> str:
        return f"<ViewDefinition {self.name} {self.interface}>"

    # ------------------------------------------------------------------
    # Rewriting derivations (used by the synchronizer)
    # ------------------------------------------------------------------
    def renamed(self, new_name: str) -> "ViewDefinition":
        # A rename cannot make a valid definition invalid, so the copy
        # skips __init__'s emptiness and duplicate checks (coalesced
        # rebinding renames a follower's chosen rewriting).  The name is
        # not part of the coalesce fingerprint, so its memo carries over.
        clone = object.__new__(ViewDefinition)
        for slot in ViewDefinition.__slots__:
            setattr(clone, slot, getattr(self, slot))
        clone.name = new_name
        return clone

    def dropping_select_item(self, output_name: str) -> "ViewDefinition":
        """Definition without one SELECT item (must keep >= 1)."""
        survivors = [
            item for item in self.select if item.output_name != output_name
        ]
        if len(survivors) == len(self.select):
            raise SchemaError(
                f"view {self.name!r} has no output attribute {output_name!r}"
            )
        return ViewDefinition(
            self.name, survivors, self.from_, self.where, self.extent_parameter
        )

    def dropping_where_item(self, index: int) -> "ViewDefinition":
        """Definition without the index-th WHERE conjunct."""
        if not 0 <= index < len(self.where):
            raise SchemaError(
                f"view {self.name!r} has no WHERE conjunct #{index}"
            )
        survivors = [
            item for position, item in enumerate(self.where) if position != index
        ]
        return ViewDefinition(
            self.name, self.select, self.from_, survivors, self.extent_parameter
        )

    def dropping_relation(self, relation: str) -> "ViewDefinition":
        """Definition with a FROM relation and everything touching it removed.

        SELECT items sourced from the relation and WHERE conjuncts
        mentioning it disappear together — this is the SVS "drop" move.
        """
        select = [
            item for item in self.select if item.ref.relation != relation
        ]
        from_ = [item for item in self.from_ if item.relation != relation]
        where = [
            item for item in self.where if not item.references_relation(relation)
        ]
        if not from_:
            raise SchemaError(
                f"dropping {relation!r} would leave view {self.name!r} "
                "with no FROM relation"
            )
        if not select:
            raise SchemaError(
                f"dropping {relation!r} would leave view {self.name!r} "
                "with an empty interface"
            )
        return ViewDefinition(
            self.name, select, from_, where, self.extent_parameter
        )

    def replacing_relation(
        self,
        old_relation: str,
        new_relation: str,
        attribute_map: Mapping[str, str] | None = None,
        new_source: str | None = None,
    ) -> "ViewDefinition":
        """Definition with ``old_relation`` substituted by ``new_relation``.

        ``attribute_map`` translates attribute names (old -> new) when the
        replacement spells them differently; SELECT aliases keep the
        original interface names (CVS-style replacement, Sec. 3.3).
        """
        if new_relation in self.relation_names and new_relation != old_relation:
            raise SchemaError(
                f"cannot substitute {new_relation!r} into view {self.name!r}: "
                "relation already referenced"
            )
        select = []
        for item in self.select:
            if item.ref.relation == old_relation:
                mapped = (
                    attribute_map.get(item.ref.attribute, item.ref.attribute)
                    if attribute_map
                    else item.ref.attribute
                )
                select.append(item.with_replaced_source(new_relation, mapped))
            else:
                select.append(item)
        from_ = [
            item.renamed(new_relation, new_source)
            if item.relation == old_relation
            else item
            for item in self.from_
        ]
        where = [
            item.with_relation_replaced(old_relation, new_relation, attribute_map)
            for item in self.where
        ]
        return ViewDefinition(
            self.name, select, from_, where, self.extent_parameter
        )

    def replacing_attribute(
        self,
        old: AttributeRef,
        new: AttributeRef,
    ) -> "ViewDefinition":
        """Definition with one attribute reference substituted everywhere.

        Used when a single attribute is deleted but its relation survives:
        the replacement attribute (usually from another relation reachable
        via a join constraint) takes its place in SELECT and WHERE.
        """
        select = []
        for item in self.select:
            if item.ref == old:
                select.append(
                    SelectItem(new, item.flags, alias=item.output_name)
                )
            else:
                select.append(item)
        where = []
        for item in self.where:
            clause = item.clause
            if old in clause.attribute_refs:
                left = new if clause.left == old else clause.left
                right = new if clause.right == old else clause.right
                clause = PrimitiveClause(left, clause.comparator, right)
            where.append(WhereItem(clause, item.flags))
        return ViewDefinition(
            self.name, select, self.from_, where, self.extent_parameter
        )

    def adding_from_item(self, item: FromItem) -> "ViewDefinition":
        """Definition with an extra FROM relation (for join-path repairs)."""
        return ViewDefinition(
            self.name,
            self.select,
            (*self.from_, item),
            self.where,
            self.extent_parameter,
        )

    def adding_where_items(self, items: Iterable[WhereItem]) -> "ViewDefinition":
        return ViewDefinition(
            self.name,
            self.select,
            self.from_,
            (*self.where, *items),
            self.extent_parameter,
        )

    def with_extent_parameter(self, extent: ViewExtent) -> "ViewDefinition":
        return ViewDefinition(
            self.name, self.select, self.from_, self.where, extent
        )


def coalesce_fingerprint(view: ViewDefinition) -> str:
    """Order-preserving rendition of a view definition, name excluded.

    Two views may coalesce only when a committed leader definition can
    be renamed into the follower's *exact* definition — so unlike the
    assessment cache's :func:`~repro.qc.assessment_cache
    .fingerprint_view` (which sorts and normalizes WHERE conjuncts,
    because assessments are order-insensitive), this fingerprint keeps
    every clause in declared order.  WHERE-order variants therefore
    never coalesce: ``ViewDefinition`` equality is order-sensitive, and
    a follower must end up byte-identical to what its own search would
    have committed.  The view maintainer keys its shared compiled
    programs on the same string: equal fingerprints resolve, plan and
    project identically; :meth:`~repro.core.eve.EVESystem.define_view`
    keys twin row sharing on it too, and hands each class of twins one
    copy of the string.

    Rendered once per definition and memoized on it (definitions are
    immutable); :meth:`ViewDefinition.renamed` carries the memo over,
    every other derivation starts without one.
    """
    key = view._coalesce_key
    if key is None:
        select = ",".join(str(item) for item in view.select)
        from_ = ",".join(str(item) for item in view.from_)
        where = ",".join(str(item) for item in view.where)
        key = view._coalesce_key = (
            f"{view.extent_parameter}|{select}|{from_}|{where}"
        )
    return key
