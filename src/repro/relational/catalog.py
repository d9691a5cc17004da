"""A named catalog of relations.

Both individual information sources and the warehouse's view store keep
their relations in a :class:`Catalog`; it provides the uniform
name -> relation mapping plus the schema-evolution entry points that
capability changes go through.

Every write to a catalog's relation map goes through one of its six
mutators (:meth:`Catalog.add`, :meth:`~Catalog.remove`,
:meth:`~Catalog.rename_relation`, :meth:`~Catalog.drop_attribute`,
:meth:`~Catalog.add_attribute`, :meth:`~Catalog.rename_attribute`), and
each one bumps the process-wide :attr:`Catalog.epoch` after writing and
stamps every relation name it touched with the new epoch
(:meth:`Catalog.stamp`; a rename touches both names, and a move between
catalogs is a remove and an add of the name).  A reader that saw the
same epoch twice therefore knows no catalog moved in between, and one
whose names all carry stamps no later than an epoch it saw knows none
of *those* relations moved since: the view maintainer re-checks a
compiled program's placement only when one of the view's own names
moved.  repro-lint's RL006 keeps other modules from writing
``_relations`` behind the counter's back, and catalog writers from
moving the epoch without naming what they touched.  Like the relation
maps themselves, the counter expects one writer at a time: capability
changes and out-of-band edits never run concurrently with each other or
with maintenance.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import ClassVar

from repro.errors import UnknownRelationError, WorkspaceError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema


class Catalog:
    """Mutable mapping of relation name -> :class:`Relation`.

    The ``owner`` label only feeds error messages ("relation R in IS1").
    """

    __slots__ = ("owner", "_relations")

    #: Monotone count of relation-map writes across every catalog in
    #: the process (bumped after the write, so a placement computed
    #: after reading an epoch reflects every write that epoch counts).
    epoch: ClassVar[int] = 0
    #: Relation name -> the epoch of the last write, in any catalog,
    #: that added, removed, renamed or re-schemaed a relation of that
    #: name.  One entry per name ever written in the process.
    _stamps: ClassVar[dict[str, int]] = {}

    def __init__(self, owner: str = "catalog") -> None:
        self.owner = owner
        self._relations: dict[str, Relation] = {}

    # ------------------------------------------------------------------
    # Mapping interface
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def get(self, name: str) -> Relation:
        """The relation called ``name`` or :class:`UnknownRelationError`."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name, self.owner) from None

    def schema(self, name: str) -> Schema:
        return self.get(name).schema

    @staticmethod
    def stamp(name: str) -> int:
        """The epoch of the last catalog write that touched ``name``
        (0 if none has)."""
        return Catalog._stamps.get(name, 0)

    @staticmethod
    def _moved(*names: str) -> None:
        Catalog.epoch += 1
        for name in names:
            Catalog._stamps[name] = Catalog.epoch

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add(self, relation: Relation) -> Relation:
        """Register ``relation`` under its own name; names must be fresh."""
        if relation.name in self._relations:
            raise WorkspaceError(
                f"relation {relation.name!r} already exists in {self.owner}"
            )
        self._relations[relation.name] = relation
        self._moved(relation.name)
        return relation

    def add_empty(self, schema: Schema) -> Relation:
        """Create and register an empty relation with the given schema."""
        return self.add(Relation(schema))

    def remove(self, name: str) -> Relation:
        """Deregister and return the named relation."""
        if name not in self._relations:
            raise UnknownRelationError(name, self.owner)
        relation = self._relations.pop(name)
        self._moved(name)
        return relation

    # ------------------------------------------------------------------
    # Schema evolution (capability changes land here)
    # ------------------------------------------------------------------
    def rename_relation(self, old: str, new: str) -> Relation:
        """change-relation-name: re-register under ``new``."""
        if new in self._relations and new != old:
            raise WorkspaceError(
                f"cannot rename {old!r} to {new!r}: name taken in {self.owner}"
            )
        relation = self.remove(old).with_renamed_relation(new)
        self._relations[new] = relation
        self._moved(old, new)
        return relation

    def drop_attribute(self, relation_name: str, attribute: str) -> Relation:
        """delete-attribute: replace the stored relation in place."""
        evolved = self.get(relation_name).with_schema_dropped_attribute(attribute)
        self._relations[relation_name] = evolved
        self._moved(relation_name)
        return evolved

    def add_attribute(
        self, relation_name: str, attribute: Attribute, default=None
    ) -> Relation:
        """add-attribute with a fill value for existing rows."""
        evolved = self.get(relation_name).with_added_attribute(attribute, default)
        self._relations[relation_name] = evolved
        self._moved(relation_name)
        return evolved

    def rename_attribute(self, relation_name: str, old: str, new: str) -> Relation:
        """change-attribute-name on the stored relation."""
        evolved = self.get(relation_name).with_renamed_attribute(old, new)
        self._relations[relation_name] = evolved
        self._moved(relation_name)
        return evolved
