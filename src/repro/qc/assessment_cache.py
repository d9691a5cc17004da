"""Memoized rewriting assessments keyed by canonical fingerprints.

The synchronizer's candidate space is combinatorial, and the same
sub-rewriting keeps resurfacing: dominated variants share their base, the
heuristic sweeps re-rank the same candidate set under many workloads, and
every capability change re-evaluates views that earlier changes already
scored.  Quality estimation and cost pricing are pure functions of

* the rewriting's *canonical form* — the printer-normalized original and
  rewritten definitions (flags included, WHERE conjuncts sorted under
  :meth:`PrimitiveClause.normalized`), the extent relationship, and the
  relation replacements the moves record, plus
* the knowledge they are priced against — MKB constraints/owners and
  space statistics.

So an :class:`AssessmentCache` memoizes both halves under a compound key:
the canonical fingerprint, the statistics fingerprint (which moves on any
registration or global-parameter change), and the cache's own ``version``,
which the owner bumps on schema change (:meth:`invalidate`).  Two
syntactically different but canonically identical rewritings share one
entry; any schema or statistics movement makes every old key unreachable.

Wired through :class:`repro.qc.model.QCModel` (quality + cost memo),
optionally: sweep harnesses that re-rank one candidate set build a
cached model.  :class:`repro.core.eve.EVESystem` owns one and
invalidates it on capability changes and relation registration, but
neither its rewriting search nor its ``rank_rewritings`` consults it,
because each search assesses candidates no earlier search produced.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from typing import Any, TypeVar

from repro.esql.ast import ViewDefinition
from repro.sync.rewriting import ReplaceRelationMove, Rewriting

T = TypeVar("T")


def fingerprint_view(view: ViewDefinition) -> str:
    """Canonical one-line form of a view definition.

    SELECT and FROM keep their order (both are semantically ordered: the
    interface is positional, the FROM order feeds maintenance plans); the
    WHERE conjunction is a set, so its conjuncts are normalized and sorted
    — clause-order variants produced by different move sequences collapse
    onto one fingerprint.
    """
    select = ",".join(str(item) for item in view.select)
    from_ = ",".join(str(item) for item in view.from_)
    where = ",".join(
        sorted(
            str(item.clause.normalized()) + item.flags.format("CD", "CR")
            for item in view.where
        )
    )
    return (
        f"{view.name}|{view.extent_parameter}|{select}|{from_}|{where}"
    )


def fingerprint_rewriting(rewriting: Rewriting) -> tuple[str, str, str, str]:
    """Canonical identity of a rewriting for assessment purposes.

    Covers everything the quality estimator reads: the original (its
    flags drive ``DD_attr``), the rewritten definition, the extent
    relationship, and which relations were substituted for which (the
    Fig. 9 overlap cases).  Move *order* is irrelevant to the estimate, so
    replacements are sorted.
    """
    replacements = ",".join(
        sorted(
            f"{move.old_relation}>{move.new_relation}"
            for move in rewriting.moves
            if isinstance(move, ReplaceRelationMove)
        )
    )
    return (
        fingerprint_view(rewriting.original),
        fingerprint_view(rewriting.view),
        rewriting.extent_relationship.value,
        replacements,
    )


class AssessmentCache:
    """Bounded memo for quality/cost assessments."""

    def __init__(self, max_entries: int = 8192) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        #: Bumped by :meth:`invalidate`; part of every key, so stale
        #: entries become unreachable even mid-eviction.
        self.version = 0
        self.hits = 0
        self.misses = 0
        self._entries: dict[Hashable, Any] = {}
        # Fingerprinting renders printer forms, which costs more than the
        # memo lookup it feeds; rewritings are immutable, so remember the
        # fingerprint per object (strong refs keep the ids valid).
        self._fingerprints: dict[int, tuple[Rewriting, tuple]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Forget everything; called on any schema/knowledge change."""
        self.version += 1
        self._entries.clear()
        self._fingerprints.clear()

    def clear_statistics(self) -> None:
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Generic memoization
    # ------------------------------------------------------------------
    def memo(self, key: Hashable, compute: Callable[[], T]) -> T:
        """Return the cached value under ``key`` or compute-and-store it."""
        full_key = (self.version, key)
        try:
            value = self._entries[full_key]
        except KeyError:
            self.misses += 1
            value = compute()
            if len(self._entries) >= self.max_entries:
                # FIFO eviction: drop the oldest insertions (dicts keep
                # insertion order); crude but O(1) amortized and safe.
                # pop() tolerates a concurrent evictor under the GIL
                # (a serving frontend's writer thread may share this
                # cache); worst case both threads over-evict, never
                # KeyError.
                for stale in list(self._entries)[: self.max_entries // 8 or 1]:
                    self._entries.pop(stale, None)
            self._entries[full_key] = value
            return value
        self.hits += 1
        return value

    def _fingerprint(self, rewriting: Rewriting) -> tuple:
        cached = self._fingerprints.get(id(rewriting))
        if cached is not None and cached[0] is rewriting:
            return cached[1]
        fingerprint = fingerprint_rewriting(rewriting)
        if len(self._fingerprints) >= self.max_entries:
            self._fingerprints.clear()
        self._fingerprints[id(rewriting)] = (rewriting, fingerprint)
        return fingerprint

    # ------------------------------------------------------------------
    # Typed entry points
    # ------------------------------------------------------------------
    def quality(
        self,
        rewriting: Rewriting,
        statistics_fingerprint: Hashable,
        compute: Callable[[], T],
    ) -> T:
        key = (
            "quality",
            self._fingerprint(rewriting),
            statistics_fingerprint,
        )
        return self.memo(key, compute)

    def cost(
        self,
        rewriting: Rewriting,
        workload: Hashable,
        updated_relation: str | None,
        statistics_fingerprint: Hashable,
        compute: Callable[[], T],
    ) -> T:
        key = (
            "cost",
            self._fingerprint(rewriting),
            workload,
            updated_relation,
            statistics_fingerprint,
        )
        return self.memo(key, compute)

    def __repr__(self) -> str:
        return (
            f"<AssessmentCache v{self.version} {len(self._entries)} entries "
            f"hits={self.hits} misses={self.misses}>"
        )
