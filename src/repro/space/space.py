"""The information space: all sources plus the MKB, with change fan-out.

This is the "INFORMATION SPACE" half of Fig. 1.  The space

* registers sources and their relations (filling the MKB),
* routes relation lookups ("which IS offers R?"),
* applies capability changes atomically to the owning source *and* the MKB,
  then notifies capability-change subscribers (the View Synchronizer),
* fans data-update notifications out to data-update subscribers (the View
  Maintainer).

Subscribers are plain callables, keeping the wiring explicit and testable.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence

from repro.errors import UnknownRelationError, WorkspaceError
from repro.misd.mkb import MetaKnowledgeBase
from repro.misd.statistics import RelationStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.changes import (
    AddAttribute,
    AddRelation,
    DeleteAttribute,
    DeleteRelation,
    RenameAttribute,
    RenameRelation,
    SchemaChange,
)
from repro.space.source import InformationSource
from repro.space.updates import DataUpdate

ChangeListener = Callable[[SchemaChange], None]
UpdateListener = Callable[[DataUpdate], None]

#: Owner IS name and schema of each of a view's relations, in FROM order
#: (:meth:`InformationSpace.placement`).
Placement = tuple[tuple[str, Schema], ...]


def placement_maps(
    relations: Sequence[str], placement: Placement
) -> tuple[dict[str, str], dict[str, Schema]]:
    """``relations``' placement as relation -> owner IS name and
    relation -> schema maps (the form plans and resolution take)."""
    owners = {name: owner for name, (owner, _) in zip(relations, placement)}
    schemas = {name: schema for name, (_, schema) in zip(relations, placement)}
    return owners, schemas


class InformationSpace:
    """All participating ISs and the shared meta knowledge base."""

    def __init__(self, mkb: MetaKnowledgeBase | None = None) -> None:
        self.mkb = mkb if mkb is not None else MetaKnowledgeBase()
        self._sources: dict[str, InformationSource] = {}
        self._change_listeners: list[ChangeListener] = []
        self._update_listeners: list[UpdateListener] = []

    def __getstate__(self) -> dict:
        """Pickle without subscribers.

        Listeners are bound methods of whatever system observes the
        space (often lock-holding, unpicklable objects); a shipped copy
        is observed by *its* host, which re-registers its own listeners.
        """
        state = self.__dict__.copy()
        state["_change_listeners"] = []
        state["_update_listeners"] = []
        return state

    # ------------------------------------------------------------------
    # Source / relation registration
    # ------------------------------------------------------------------
    def add_source(self, name: str) -> InformationSource:
        """Create and register a fresh IS."""
        if name in self._sources:
            raise WorkspaceError(f"information source {name!r} already exists")
        source = InformationSource(name)
        self._sources[name] = source
        return source

    def source(self, name: str) -> InformationSource:
        try:
            return self._sources[name]
        except KeyError:
            raise WorkspaceError(f"unknown information source {name!r}") from None

    @property
    def source_names(self) -> tuple[str, ...]:
        return tuple(self._sources)

    def __iter__(self) -> Iterator[InformationSource]:
        return iter(self._sources.values())

    def register_relation(
        self,
        source_name: str,
        relation: Relation,
        statistics: RelationStatistics | None = None,
    ) -> Relation:
        """Host ``relation`` at the IS and register it in the MKB."""
        source = self.source(source_name)
        hosted = source.host(relation)
        self.mkb.register_relation(relation.schema, source_name, statistics)
        return hosted

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def owner_of(self, relation: str) -> InformationSource:
        """The IS currently offering ``relation``."""
        for source in self._sources.values():
            if source.offers(relation):
                return source
        raise UnknownRelationError(relation, "information space")

    def placement(self, relations: Iterable[str]) -> Placement:
        """``(owner IS name, schema)`` of each of ``relations``, in order.

        Everything Algorithm 1's itinerary and a view's resolution
        depend on: schemas are immutable and every capability change
        installs a new one, so equal placements mean an unchanged plan.
        """
        placed = []
        for name in relations:
            source = self.owner_of(name)
            placed.append((source.name, source.relation(name).schema))
        return tuple(placed)

    def relation(self, name: str) -> Relation:
        return self.owner_of(name).relation(name)

    def has_relation(self, name: str) -> bool:
        return any(source.offers(name) for source in self._sources.values())

    def relations(self) -> dict[str, Relation]:
        """Snapshot of every offered relation (name -> instance)."""
        snapshot: dict[str, Relation] = {}
        for source in self._sources.values():
            for name in source.relation_names:
                snapshot[name] = source.relation(name)
        return snapshot

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def on_capability_change(self, listener: ChangeListener) -> None:
        self._change_listeners.append(listener)

    def on_data_update(self, listener: UpdateListener) -> None:
        """Call ``listener`` with every data update that lands, once each,
        in stream order.  :meth:`insert` and :meth:`delete` notify as
        their update lands; :meth:`apply_run` lands a whole run without
        notifying, and its caller passes the landed updates to
        :meth:`notify_updates`."""
        self._update_listeners.append(listener)

    # ------------------------------------------------------------------
    # Data updates
    # ------------------------------------------------------------------
    def insert(self, relation: str, row: Iterable) -> DataUpdate:
        """Insert at whichever IS offers ``relation``; fan out the update."""
        source = self.owner_of(relation)
        update = source.insert(relation, tuple(row))
        self._notify_update(update)
        return update

    def delete(self, relation: str, row: Iterable) -> DataUpdate:
        source = self.owner_of(relation)
        update = source.delete(relation, tuple(row))
        self._notify_update(update)
        return update

    def apply_run(
        self, relation: str, ops: Sequence[tuple[bool, Sequence]]
    ) -> list[DataUpdate]:
        """Apply a run of ``(insert, row)`` ops to ``relation`` in one
        pass at the IS offering it (``insert`` is False for a delete).

        Returns the landed updates, in order, *not yet notified*: the
        caller queues them for maintenance first and then hands them to
        :meth:`notify_updates`, so a listener that raises cannot leave a
        landed update unqueued.  A short result means the next op fails:
        :meth:`insert` or :meth:`delete` of it raises its error, and
        nothing of it has landed.
        """
        return self.owner_of(relation).apply_run(relation, ops)

    def notify_updates(self, updates: Sequence[DataUpdate]) -> None:
        """Fan landed updates out to the ``on_data_update`` listeners,
        in order; a listener's error propagates at once."""
        for update in updates:
            self._notify_update(update)

    def _notify_update(self, update: DataUpdate) -> None:
        for listener in self._update_listeners:
            listener(update)

    # ------------------------------------------------------------------
    # Capability changes
    # ------------------------------------------------------------------
    def apply_change(self, change: SchemaChange) -> None:
        """Apply a capability change to source + MKB, then notify.

        The MKB is evolved first only for deletes (constraints must go
        before the schema disappears is irrelevant — order here is chosen
        so that listeners always observe the *post-change* space).
        """
        source = self.source(change.source)
        if isinstance(change, AddRelation):
            source.host(change.new_relation)
            self.mkb.register_relation(
                change.new_relation.schema, change.source
            )
        elif isinstance(change, DeleteRelation):
            if not source.offers(change.relation):
                raise UnknownRelationError(change.relation, f"IS {change.source!r}")
            source.catalog.remove(change.relation)
            self.mkb.on_relation_deleted(change.relation)
        elif isinstance(change, RenameRelation):
            source.catalog.rename_relation(change.relation, change.new_name)
            self.mkb.on_relation_renamed(change.relation, change.new_name)
        elif isinstance(change, DeleteAttribute):
            source.catalog.drop_attribute(change.relation, change.attribute)
            self.mkb.on_attribute_deleted(change.relation, change.attribute)
        elif isinstance(change, AddAttribute):
            evolved = source.catalog.add_attribute(
                change.relation, change.new_attribute, change.default
            )
            self.mkb.on_attribute_added(change.relation, evolved.schema)
        elif isinstance(change, RenameAttribute):
            source.catalog.rename_attribute(
                change.relation, change.attribute, change.new_name
            )
            self.mkb.on_attribute_renamed(
                change.relation, change.attribute, change.new_name
            )
        else:  # pragma: no cover - closed hierarchy
            raise WorkspaceError(f"unsupported change {change!r}")
        for listener in self._change_listeners:
            listener(change)

    # ------------------------------------------------------------------
    # Convenience change constructors (resolve the owning source)
    # ------------------------------------------------------------------
    def delete_relation(self, relation: str) -> DeleteRelation:
        change = DeleteRelation(self.owner_of(relation).name, relation)
        self.apply_change(change)
        return change

    def delete_attribute(self, relation: str, attribute: str) -> DeleteAttribute:
        change = DeleteAttribute(
            self.owner_of(relation).name, relation, attribute
        )
        self.apply_change(change)
        return change

    def rename_attribute(
        self, relation: str, attribute: str, new_name: str
    ) -> RenameAttribute:
        change = RenameAttribute(
            self.owner_of(relation).name, relation, attribute, new_name
        )
        self.apply_change(change)
        return change

    def rename_relation(self, relation: str, new_name: str) -> RenameRelation:
        change = RenameRelation(
            self.owner_of(relation).name, relation, new_name
        )
        self.apply_change(change)
        return change

    def __repr__(self) -> str:
        return (
            f"<InformationSpace {len(self._sources)} sources, "
            f"{len(self.mkb.relation_names)} relations>"
        )
