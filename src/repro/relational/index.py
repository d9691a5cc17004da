"""Hash indexes over relation rows.

A :class:`HashIndex` maps the values of a fixed subset of attribute
positions to the rows carrying them, giving O(1) equality probes instead of
full scans.  Indexes are owned by :class:`~repro.relational.relation.Relation`
(see :meth:`Relation.index_on`): they are built lazily on first probe and
maintained incrementally through ``insert``/``delete``, so the hot loops of
the execution engine — equijoin evaluation and per-delta-tuple maintenance
probes — reuse one index across calls rather than rebuilding a dict per
query.  Bulk mutations (``delete_where``, ``replace_rows``, ``clear``) drop
them, as they drop the relation's delete locator.

Probe semantics follow SQL: a ``None`` (NULL) component never equals
anything, so probes containing ``None`` return no rows even though rows
with ``None`` in an indexed position are stored (they must survive
re-indexing and deletion bookkeeping).

Layout: a single-attribute index keys its buckets on the bare value, a
composite one on the tuple of values.  A bucket holding one row is that
row's 1-tuple; the second row turns it into a list, which stays a list
until its last row is discarded and the key goes.  Probes take and
return the same shapes whatever the layout: a key tuple in, a read-only
row sequence out.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Sequence
from typing import Any

Row = tuple[Any, ...]

#: Shared empty probe result; callers must treat probe results as read-only.
_NO_ROWS: tuple[Row, ...] = ()

#: One row as a 1-tuple, several as a list (see the module docstring).
Bucket = tuple[Row] | list[Row]


class HashIndex:
    """Equality index on a non-empty tuple of attribute positions.

    Buckets preserve insertion order, so probing yields matching rows in
    relation order — the bag a probe returns is identical (up to the
    ordering across *different* keys) to what a filtered scan would
    produce.
    """

    __slots__ = ("positions", "_scalar", "_key_of", "_buckets")

    def __init__(
        self, positions: Sequence[int], rows: Iterable[Row] = ()
    ) -> None:
        self.positions: tuple[int, ...] = tuple(positions)
        self._scalar = len(self.positions) == 1
        self._key_of: Callable[[Row], Any] = operator.itemgetter(*self.positions)
        self._buckets: dict[Any, Bucket] = {}
        for row in rows:
            self.add(row)

    def key_of(self, row: Row) -> Any:
        """The bucket key of ``row``: a bare value for a single-attribute
        index, a tuple of values otherwise."""
        return self._key_of(row)

    def add(self, row: Row) -> None:
        """Register one row (duplicates stack up in the bucket)."""
        buckets = self._buckets
        key = self._key_of(row)
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = (row,)
        elif type(bucket) is tuple:
            buckets[key] = [bucket[0], row]
        else:
            bucket.append(row)

    def discard(self, row: Row) -> bool:
        """Remove one occurrence of ``row``; True if it was indexed."""
        key = self._key_of(row)
        bucket = self._buckets.get(key)
        if bucket is None:
            return False
        if type(bucket) is tuple:
            if bucket[0] != row:
                return False
            del self._buckets[key]
            return True
        try:
            bucket.remove(row)
        except ValueError:
            return False
        if not bucket:
            del self._buckets[key]
        return True

    def probe(self, key: Sequence[Any]) -> Sequence[Row]:
        """Rows whose indexed values equal ``key`` (NULL never matches)."""
        if self._scalar:
            value = key[0]
            if value is None:
                return _NO_ROWS
            return self._buckets.get(value, _NO_ROWS)
        key = tuple(key)
        for value in key:
            if value is None:
                return _NO_ROWS
        return self._buckets.get(key, _NO_ROWS)

    @property
    def distinct_keys(self) -> int:
        return len(self._buckets)

    def __len__(self) -> int:
        """Total indexed rows (sum of bucket sizes)."""
        return sum(len(bucket) for bucket in self._buckets.values())

    def __repr__(self) -> str:
        return (
            f"HashIndex(positions={self.positions}, "
            f"{self.distinct_keys} keys, {len(self)} rows)"
        )
