"""Data-content updates: tuple inserts and deletes at information sources.

Sec. 6.1 assumes updates "are sufficiently spaced from each other", i.e.
non-concurrent: each update is fully propagated to the warehouse before the
next one happens.  An update notification carries the delta tuple so the
view maintainer (Algorithm 1) can start its per-source sweep.
"""

from __future__ import annotations

import enum
from typing import Any, NamedTuple


class UpdateKind(enum.Enum):
    INSERT = "insert"
    DELETE = "delete"

    def __str__(self) -> str:
        return self.value


class DataUpdate(NamedTuple):
    """One tuple inserted into or deleted from ``source.relation``.

    An immutable record; a named tuple because a stream builds one per
    update, and it builds several times faster than a frozen dataclass.
    """

    source: str
    relation: str
    kind: UpdateKind
    row: tuple[Any, ...]

    def describe(self) -> str:
        return f"{self.kind} {self.row} @ {self.source}.{self.relation}"

    @property
    def is_insert(self) -> bool:
        return self.kind is UpdateKind.INSERT

    @property
    def is_delete(self) -> bool:
        return self.kind is UpdateKind.DELETE
