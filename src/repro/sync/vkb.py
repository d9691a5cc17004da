"""The View Knowledge Base (VKB) — Fig. 1's view-space store.

Stores every view defined over the information space together with its
E-SQL evolution preferences (they live inside the
:class:`~repro.esql.ast.ViewDefinition` itself), the current synchronized
definition, and an audit trail of the rewritings applied over the view's
lifetime (Experiment 1 measures view "survival" across exactly this trail).

The VKB also maintains a **relation → views inverted index** over the
alive views' *current* definitions, kept current across rewritings.
Change and update dispatch over thousands of views is an index lookup
(:meth:`ViewKnowledgeBase.views_referencing`), not a scan; results come
back in view-definition order so dispatch order — and with it the
synchronization log — is identical to the historical full scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator

from repro.errors import WorkspaceError
from repro.esql.ast import ViewDefinition
from repro.sync.rewriting import Rewriting


@dataclass
class ViewRecord:
    """Everything the VKB knows about one view."""

    original: ViewDefinition
    current: ViewDefinition
    history: list[Rewriting] = field(default_factory=list)
    alive: bool = True

    @property
    def name(self) -> str:
        return self.original.name

    @property
    def generations(self) -> int:
        """How many synchronizations this view has survived."""
        return len(self.history)


class ViewKnowledgeBase:
    """Registry of views by name, with synchronization bookkeeping."""

    def __init__(self) -> None:
        self._records: dict[str, ViewRecord] = {}
        #: relation name -> names of alive views currently referencing it.
        self._referencing: dict[str, set[str]] = {}
        #: view name -> definition sequence number (dispatch ordering).
        self._order: dict[str, int] = {}
        self._next_order = 0
        #: Bumped by every definition-changing operation (define, drop,
        #: rewriting commit, mark-undefined).
        self._version = 0
        #: relation name -> ``views_referencing`` result, valid while
        #: ``_version`` equals ``_memo_version``.
        self._referencing_memo: dict[str, tuple[ViewRecord, ...]] = {}
        self._memo_version = 0

    # ------------------------------------------------------------------
    # Inverted index maintenance
    # ------------------------------------------------------------------
    def _index_add(self, record: ViewRecord) -> None:
        for relation in record.current.relation_names:
            self._referencing.setdefault(relation, set()).add(record.name)

    def _index_discard(self, record: ViewRecord) -> None:
        for relation in record.current.relation_names:
            names = self._referencing.get(relation)
            if names is None:
                continue
            names.discard(record.name)
            if not names:
                del self._referencing[relation]

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def define(self, view: ViewDefinition) -> ViewRecord:
        if view.name in self._records:
            raise WorkspaceError(f"view {view.name!r} is already defined")
        record = ViewRecord(original=view, current=view)
        self._records[view.name] = record
        self._order[view.name] = self._next_order
        self._next_order += 1
        self._index_add(record)
        self._version += 1
        return record

    def drop(self, name: str) -> ViewRecord:
        if name not in self._records:
            raise WorkspaceError(f"view {name!r} is not defined")
        record = self._records.pop(name)
        if record.alive:
            self._index_discard(record)
        del self._order[name]
        self._version += 1
        return record

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._records

    def __iter__(self) -> Iterator[ViewRecord]:
        return iter(self._records.values())

    def __len__(self) -> int:
        return len(self._records)

    @property
    def view_names(self) -> tuple[str, ...]:
        return tuple(self._records)

    def record(self, name: str) -> ViewRecord:
        try:
            return self._records[name]
        except KeyError:
            raise WorkspaceError(f"view {name!r} is not defined") from None

    def current(self, name: str) -> ViewDefinition:
        return self.record(name).current

    def order_of(self, name: str) -> int:
        """The view's definition sequence number (dispatch order)."""
        self.record(name)  # raise WorkspaceError for unknown views
        return self._order[name]

    def alive_views(self) -> tuple[ViewRecord, ...]:
        return tuple(r for r in self._records.values() if r.alive)

    def views_referencing(self, relation: str) -> tuple[ViewRecord, ...]:
        """Alive views whose current definition references ``relation``.

        Backed by the inverted index — O(affected · log affected), not
        O(all views) — and ordered by view definition sequence, exactly
        like a scan over the registry.  Each result is memoized until
        :attr:`version` moves, so repeated dispatch to one relation (a
        stream of data updates) sorts once.
        """
        if self._memo_version != self._version:
            self._referencing_memo = {}
            self._memo_version = self._version
        records = self._referencing_memo.get(relation)
        if records is None:
            names = self._referencing.get(relation, ())
            records = self._referencing_memo[relation] = tuple(
                self._records[name]
                for name in sorted(names, key=self._order.__getitem__)
            )
        return records

    # ------------------------------------------------------------------
    # Synchronization bookkeeping
    # ------------------------------------------------------------------
    def apply_rewriting(self, rewriting: Rewriting) -> ViewRecord:
        """Commit a chosen rewriting as the view's new current definition."""
        record = self.record(rewriting.view.name)
        if not record.alive:
            raise WorkspaceError(
                f"view {record.name!r} is no longer alive and cannot evolve"
            )
        self._index_discard(record)
        record.current = rewriting.view
        record.history.append(rewriting)
        self._index_add(record)
        self._version += 1
        return record

    def mark_undefined(self, name: str) -> ViewRecord:
        """Record that no legal rewriting exists — the view is deceased."""
        record = self.record(name)
        if record.alive:
            self._index_discard(record)
        record.alive = False
        self._version += 1
        return record
