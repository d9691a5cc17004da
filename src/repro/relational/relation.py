"""Relation instances: a schema plus a bag of typed tuples.

The engine is deliberately simple and fully in memory — the paper's
experiments run on relations of a few thousand tuples.  Tuples are plain
Python tuples validated against the schema once, on insertion, and
shared by every relation derived from them (see :class:`Relation`).
Relations are *bags* (duplicates allowed) because SQL views are; the
quality model (Sec. 5.4.2) explicitly removes duplicates before comparing
extents, which callers do via :meth:`Relation.distinct`.
"""

from __future__ import annotations

import operator
from array import array
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

from repro.errors import SchemaError
from repro.relational.columnar import ColumnStore
from repro.relational.index import HashIndex
from repro.relational.schema import Attribute, Schema

Row = tuple[Any, ...]

#: The fingerprint of a NULL key.  A key value may share it (65535
#: does), so every locator hit is confirmed by ``==``.
_NULL_FINGERPRINT = 0xFFFF


def _fingerprint(value: Any) -> int:
    """The 16-bit locator fingerprint of one key value.

    The XOR of the value's four low 16-bit words (two's complement, so
    negative keys and ints beyond int64 fold too, and an ``IntEnum``
    folds like its int): keys that differ only above bit 16 still
    spread.  NULL gets :data:`_NULL_FINGERPRINT`.
    """
    if value is None:
        return _NULL_FINGERPRINT
    value ^= value >> 32
    return (value ^ value >> 16) & 0xFFFF


def _marks(rows: Iterable[Row], position: int) -> str:
    """The locator characters of ``rows``, one fingerprint each."""
    return "".join([chr(_fingerprint(row[position])) for row in rows])


class Relation:
    """A named relation instance: schema + bag of rows.

    Mutating operations (:meth:`insert`, :meth:`delete` and a run of
    both, :meth:`apply_run`) are used by the data-update machinery of
    the maintenance simulator; algebra operations in
    :mod:`repro.relational.algebra` always return new relations.

    Validate-once contract: rows are type-checked when they are inserted
    (external data) and never again.  :meth:`from_validated` and the
    derivations (:meth:`copy`, :meth:`distinct`, the ``with_*`` schema
    evolutions) trust rows that came out of a validated relation and
    adopt them — the new relation gets its own row *list*, indexes and
    column store, but shares the immutable row tuples.

    Derived structures, each built on first use and never shared:

    * hash indexes (:meth:`index_on`): kept live by :meth:`insert`,
      :meth:`delete` and :meth:`apply_run`, dropped by the bulk
      mutations;
    * the column store (:meth:`column_store`): appended to by
      :meth:`insert` and :meth:`apply_run`, dropped by anything that
      removes rows;
    * the delete locator: when the schema has an INT attribute
      (``schema.key_position``), the first :meth:`delete` encodes that
      attribute of every row as a ``str`` with one character per row,
      in row order: the 16-bit :func:`_fingerprint` of the value (at
      most 2 bytes per row).  A delete finds its row with C-speed
      single-character ``str.find`` calls, each hit confirmed by
      ``==``, instead of ``list.remove``'s Python comparison per row.
      A string cannot grow in place, so :meth:`insert` appends the
      new row's fingerprint to a pending ``_tail`` array (which exists
      only while a locator does) and :meth:`delete` joins the tail in
      before it searches, then cuts the row's character out; inserts
      stay O(1) however many arrive between two deletes.  A run of
      updates (:meth:`apply_run`) joins the tail once, at its first
      delete, leaves deleted rows in place until it ends, and then cuts
      their characters out in one pass, so a run pays one locator
      rebuild however many deletes it carries; it ends with the locator
      and tail the same ops one by one would have left.  The bulk
      mutations drop locator and tail.

    Pickles carry the schema and the rows only; a copy rebuilds each
    derived structure on first use.
    """

    __slots__ = (
        "schema", "_rows", "_indexes", "_column_store", "_locator", "_tail"
    )

    def __init__(self, schema: Schema, rows: Iterable[Sequence[Any]] = ()) -> None:
        self.schema = schema
        self._rows: list[Row] = []
        self._indexes: dict[tuple[int, ...], HashIndex] = {}
        self._column_store: ColumnStore | None = None
        self._locator: str | None = None
        self._tail: array[int] | None = None
        for row in rows:
            self.insert(row)

    def __getstate__(self) -> dict[str, Any]:
        """Pickle the schema and rows only: indexes, column store,
        locator and tail are derived, and a copy builds its own on first
        use."""
        return {"schema": self.schema, "_rows": self._rows}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.schema = state["schema"]
        self._rows = state["_rows"]
        self._indexes = {}
        self._column_store = None
        self._locator = None
        self._tail = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_named_rows(
        cls, schema: Schema, rows: Iterable[dict[str, Any]]
    ) -> "Relation":
        """Build from dict rows; missing attributes become ``None``."""
        ordered = [
            tuple(row.get(name) for name in schema.attribute_names) for row in rows
        ]
        return cls(schema, ordered)

    @classmethod
    def from_validated(
        cls, schema: Schema, rows: Iterable[Row]
    ) -> "Relation":
        """Adopt rows already validated against ``schema``.

        Execution planes and derivations building extents from rows that
        each came out of a validated relation with the same attribute
        types skip the second per-value validation pass; callers own the
        invariant that every row is a well-typed tuple of the right arity.
        The row list is copied, the row tuples are shared.
        """
        relation = cls(schema)
        relation._rows = list(rows)
        return relation

    def empty_like(self) -> "Relation":
        """Fresh empty relation with the same schema."""
        return Relation(self.schema)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def rows(self) -> list[Row]:
        """The underlying row list (treat as read-only)."""
        return self._rows

    @property
    def cardinality(self) -> int:
        return len(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __repr__(self) -> str:
        return f"Relation({self.schema!r}, {len(self._rows)} rows)"

    def __eq__(self, other: object) -> bool:
        """Bag equality: same schema and same multiset of rows."""
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema.attribute_names != other.schema.attribute_names:
            return False
        if len(self._rows) != len(other._rows):
            return False
        # Equal lengths: the bags match iff subtracting one side's counts
        # from the other's leaves every count at zero.  One Counter
        # instead of one per side halves the transient memory.
        counts = Counter(self._rows)
        counts.subtract(other._rows)
        return not any(counts.values())

    def __hash__(self) -> int:  # pragma: no cover - relations are mutable
        raise TypeError("Relation is unhashable; use row_set() for set semantics")

    def value(self, row: Row, attribute: str) -> Any:
        """Value of ``attribute`` within ``row``."""
        return row[self.schema.position(attribute)]

    def named_row(self, row: Row) -> dict[str, Any]:
        """Row as an attribute-name -> value mapping."""
        return dict(zip(self.schema.attribute_names, row))

    def row_set(self) -> frozenset[Row]:
        """Set of distinct rows — the basis for extent comparisons."""
        return frozenset(self._rows)

    def byte_size(self) -> int:
        """Total payload size in bytes (cardinality x tuple width)."""
        return self.cardinality * self.schema.tuple_byte_size()

    # ------------------------------------------------------------------
    # Hash indexes (lazy build, incrementally maintained)
    # ------------------------------------------------------------------
    def index_on(self, attributes: Sequence[str]) -> HashIndex:
        """Hash index on the named attributes, building it on first use."""
        positions = tuple(self.schema.position(name) for name in attributes)
        return self.index_on_positions(positions)

    #: Most relations are probed on one or two key subsets; cap the cached
    #: indexes so pathological probe diversity cannot make every
    #: insert/delete pay for (or every extent be mirrored by) an unbounded
    #: index set.  Eviction is FIFO over insertion order.
    MAX_CACHED_INDEXES = 8

    def index_on_positions(self, positions: Sequence[int]) -> HashIndex:
        """Hash index keyed on tuple positions; cached across probes."""
        key = tuple(positions)
        index = self._indexes.get(key)
        if index is None:
            if len(self._indexes) >= self.MAX_CACHED_INDEXES:
                self._indexes.pop(next(iter(self._indexes)))
            index = HashIndex(key, self._rows)
            self._indexes[key] = index
        return index

    def drop_indexes(self) -> None:
        """Forget all built indexes (bulk mutations call this)."""
        self._indexes.clear()

    # ------------------------------------------------------------------
    # Column store (the columnar plane's view of this relation)
    # ------------------------------------------------------------------
    def column_store(self) -> ColumnStore:
        """Per-attribute columns of this relation, built on first use.

        Kept live across :meth:`insert` (append-only) and dropped by any
        mutation that can remove or reorder rows — a middle-of-list
        removal would shift every cached row position.
        """
        store = self._column_store
        if store is None:
            store = self._column_store = ColumnStore(self.schema, self._rows)
        return store

    @property
    def index_count(self) -> int:
        return len(self._indexes)

    # ------------------------------------------------------------------
    # Mutation (used by data updates)
    # ------------------------------------------------------------------
    def _validate(self, row: Sequence[Any]) -> Row:
        """``row`` as a well-typed tuple, or :class:`TypeMismatchError`.

        A row whose values all have their column's exact class passes on
        one comparison of its type vector with ``schema.row_types``; a
        tuple is then returned as is.  Anything else (NULLs, subclasses,
        values to coerce, wrong arity) goes value by value through
        :meth:`AttributeType.validate`, and a new tuple is built only if
        a value was coerced (an int in a FLOAT column) or ``row`` is not
        a tuple.
        """
        schema = self.schema
        if tuple(map(type, row)) == schema.row_types:
            return row if type(row) is tuple else tuple(row)
        if len(row) != schema.arity:
            raise SchemaError(
                f"row arity {len(row)} != schema arity {schema.arity} "
                f"for relation {self.name!r}"
            )
        validated = tuple(
            attr.type.validate(value) for attr, value in zip(schema, row)
        )
        if type(row) is tuple and all(map(operator.is_, validated, row)):
            return row
        return validated

    def insert(self, row: Sequence[Any]) -> Row:
        """Validate and append ``row``; returns the stored tuple.

        A well-typed tuple is stored as the caller's own object.
        """
        validated = self._validate(row)
        self._rows.append(validated)
        for index in self._indexes.values():
            index.add(validated)
        if self._column_store is not None:
            self._column_store.append(validated)
        tail = self._tail
        if tail is not None:
            tail.append(_fingerprint(validated[self.schema.key_position]))
        return validated

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Insert every row; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def delete(self, row: Sequence[Any]) -> bool:
        """Remove one occurrence of ``row``; True if something was removed.

        The first occurrence goes, exactly as with ``list.remove``; a
        schema with an INT attribute finds it through the locator.
        """
        validated = self._validate(row)
        position = self.schema.key_position
        if position is None:
            try:
                self._rows.remove(validated)
            except ValueError:
                return False
        else:
            locator = self._joined_locator(position, len(self._rows))
            slot = self._locate(locator, validated, position)
            if slot < 0:
                self._locator = locator
                return False
            del self._rows[slot]
            self._locator = locator[:slot] + locator[slot + 1 :]
        for index in self._indexes.values():
            index.discard(validated)
        self._column_store = None
        return True

    def apply_run(self, ops: Iterable[tuple[bool, Sequence[Any]]]) -> list[Row]:
        """Apply a run of inserts (``True``) and deletes (``False``) in
        one pass; returns the validated row of each applied op.

        Ends exactly as the same ops applied one by one with
        :meth:`insert` and :meth:`delete`: the same rows in order, the
        same locator and tail, index ``add``/``discard`` calls in the
        same order, and the column store appended to or, once a row is
        deleted, dropped.  A delete takes the first live occurrence, so
        a base row goes before one inserted earlier in the run.  Deleted
        rows stay in place until the run ends and are then removed back
        to front.  The locator is joined once, at the run's first
        delete; it is extended only when a delete looks for a row
        inserted since, and cut once at the end.  A run without deletes
        touches the locator only by appending to the tail.

        The run stops before the first op that fails one by one — a
        delete that finds no row, or a row that fails validation — so a
        short result leaves the relation as that prefix one by one
        would (with the failing delete's tail join), and replaying the
        op with :meth:`insert` or :meth:`delete` reports its failure.
        """
        rows = self._rows
        base = len(rows)
        stored: list[Row] = []
        deletes: _RunDeletes | None = None
        try:
            for insert, row in ops:
                try:
                    validated = self._validate(row)
                except SchemaError:
                    break
                if insert:
                    rows.append(validated)
                    for index in self._indexes.values():
                        index.add(validated)
                else:
                    if deletes is None:
                        deletes = _RunDeletes(self, base)
                    if not deletes.remove(validated):
                        break
                stored.append(validated)
        finally:
            if deletes is not None:
                deletes.settle()
            elif self._tail is not None:
                position = self.schema.key_position
                self._tail.extend(
                    [_fingerprint(row[position]) for row in rows[base:]]
                )
            if deletes is not None and deletes.dead:
                self._column_store = None
            elif self._column_store is not None:
                for row in rows[base:]:
                    self._column_store.append(row)
        return stored

    def _joined_locator(self, position: int, end: int) -> str:
        """The locator over ``rows[:end]`` with the pending tail joined
        in, leaving the tail empty: built on first use (``end`` matters
        only then), one join otherwise."""
        locator, tail = self._locator, self._tail
        if locator is None:
            rows = self._rows
            locator = _marks(rows if end == len(rows) else rows[:end], position)
            self._tail = array("H")
        elif tail:
            locator += "".join(map(chr, tail))
            del tail[:]
        return locator

    def _locate(
        self, locator: str, row: Row, position: int, start: int = 0
    ) -> int:
        """Slot of the first row ``==`` ``row`` from ``start`` on, or -1:
        the ``locator`` hits of its key's fingerprint, confirmed in row
        order."""
        rows = self._rows
        find = locator.find
        mark = chr(_fingerprint(row[position]))
        slot = find(mark, start)
        while slot >= 0 and rows[slot] != row:
            slot = find(mark, slot + 1)
        return slot

    def delete_where(self, predicate: Callable[[Row], bool]) -> list[Row]:
        """Remove all rows satisfying ``predicate``; returns removed rows."""
        kept: list[Row] = []
        removed: list[Row] = []
        for row in self._rows:
            (removed if predicate(row) else kept).append(row)
        self._rows = kept
        self._drop_derived()
        return removed

    def clear(self) -> None:
        self._rows.clear()
        self._drop_derived()

    def replace_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        """Atomically swap in a new extent (used when refreshing views)."""
        staged = [self._validate(row) for row in rows]
        self._rows = staged
        self._drop_derived()

    def _drop_derived(self) -> None:
        """Forget indexes, column store, locator and tail (bulk
        mutations)."""
        self.drop_indexes()
        self._column_store = None
        self._locator = None
        self._tail = None

    # ------------------------------------------------------------------
    # Schema evolution (used by capability changes)
    # ------------------------------------------------------------------
    def with_schema_dropped_attribute(self, attribute: str) -> "Relation":
        """New relation with ``attribute`` removed from schema and rows."""
        position = self.schema.position(attribute)
        new_schema = self.schema.drop_attribute(attribute)
        rows = [row[:position] + row[position + 1 :] for row in self._rows]
        return Relation.from_validated(new_schema, rows)

    def with_added_attribute(
        self, attribute: Attribute, default: Any = None
    ) -> "Relation":
        """New relation with ``attribute`` appended, filled with ``default``.

        ``default`` is validated once against the new attribute's type;
        the existing values are adopted.
        """
        new_schema = self.schema.add_attribute(attribute)
        default = attribute.type.validate(default)
        rows = [(*row, default) for row in self._rows]
        return Relation.from_validated(new_schema, rows)

    def with_renamed_attribute(self, old: str, new: str) -> "Relation":
        """New relation with one attribute renamed; rows unchanged."""
        return Relation.from_validated(
            self.schema.rename_attribute(old, new), self._rows
        )

    def with_renamed_relation(self, new_name: str) -> "Relation":
        """New relation under a different name; rows unchanged."""
        return Relation.from_validated(
            self.schema.rename_relation(new_name), self._rows
        )

    # ------------------------------------------------------------------
    # Set-style derivations
    # ------------------------------------------------------------------
    def distinct(self) -> "Relation":
        """Duplicate-free copy, preserving first-occurrence order."""
        seen: set[Row] = set()
        rows: list[Row] = []
        for row in self._rows:
            if row not in seen:
                seen.add(row)
                rows.append(row)
        return Relation.from_validated(self.schema, rows)

    def copy(self, new_name: str | None = None) -> "Relation":
        """Independent copy, optionally renamed.

        Independent as a bag: inserts and deletes on either side, and the
        indexes and column store each side builds, never reach the other.
        The immutable row tuples themselves are shared.
        """
        schema = (
            self.schema.rename_relation(new_name) if new_name else self.schema
        )
        return Relation.from_validated(schema, self._rows)


class _RunDeletes:
    """The deletes of one :meth:`Relation.apply_run`.

    A found row is only marked dead, so row slots stay put for the rest
    of the run; :meth:`settle` removes the dead rows back to front and
    leaves the locator and tail as the last delete one by one would
    have: dead rows cut out and the rows inserted before that delete
    joined in, the rows inserted after it in the tail.
    """

    __slots__ = (
        "relation", "rows", "position", "dead", "locator", "covered",
        "boundary",
    )

    def __init__(self, relation: "Relation", base: int) -> None:
        """``base`` is ``len(rows)`` when the run began."""
        self.relation = relation
        self.rows = relation._rows
        self.position = position = relation.schema.key_position
        self.dead: set[int] = set()
        #: The locator over ``rows[:covered]`` (keyed schemas only).
        self.locator = (
            "" if position is None else relation._joined_locator(position, base)
        )
        self.covered = base
        #: ``len(rows)`` at the last delete.
        self.boundary = base

    def remove(self, row: Row) -> bool:
        """Mark the first live row ``==`` ``row`` dead and discard it
        from the indexes; False if there is none."""
        rows = self.rows
        dead = self.dead
        self.boundary = len(rows)
        position = self.position
        if position is None:
            try:
                slot = rows.index(row)
                while slot in dead:
                    slot = rows.index(row, slot + 1)
            except ValueError:
                return False
        else:
            locate = self.relation._locate
            slot = locate(self.locator, row, position)
            while slot in dead:
                slot = locate(self.locator, row, position, slot + 1)
            if slot < 0 and self.covered < self.boundary:
                # Not among the covered rows: cover the ones inserted
                # since (none of them is dead yet) and look there.
                self.locator += _marks(rows[self.covered :], position)
                slot = locate(self.locator, row, position, self.covered)
                self.covered = self.boundary
            if slot < 0:
                return False
        dead.add(slot)
        for index in self.relation._indexes.values():
            index.discard(row)
        return True

    def settle(self) -> None:
        """End the run: the locator and tail, then the dead rows."""
        relation = self.relation
        rows = self.rows
        position = self.position
        if position is not None:
            locator = self.locator
            pieces = []
            start = 0
            for slot in sorted(self.dead):
                pieces.append(locator[start:slot])
                start = slot + 1
            pieces.append(locator[start:])
            pieces.append(_marks(rows[self.covered : self.boundary], position))
            relation._locator = "".join(pieces)
            relation._tail = array(
                "H",
                [_fingerprint(row[position]) for row in rows[self.boundary :]],
            )
        for slot in sorted(self.dead, reverse=True):
            del rows[slot]
