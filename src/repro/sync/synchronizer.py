"""The View Synchronizer: generate legal rewritings for an affected view.

Re-implements the rewriting generation the paper builds on (the SVS
algorithm of [LNR97b] and the relation-substitution core of the CVS
algorithm [NLR98]) to the extent the QC-Model experiments exercise it.
The move families live in :mod:`repro.sync.generators` as pluggable
:class:`~repro.sync.generators.CandidateGenerator` strategies:

* **Renames** (:class:`~repro.sync.generators.RenameGenerator`) —
  change-relation-name / change-attribute-name fold into the definition
  and always yield one equivalent rewriting.
* **Drop moves** (:class:`~repro.sync.generators.DropGenerator`) —
  dispensable attributes, conditions, or whole relations are removed
  from the view (SVS).
* **Attribute replacement moves**
  (:class:`~repro.sync.generators.AttributeReplacementGenerator`) — a
  single deleted attribute is redirected to an equivalent attribute of
  another relation, joining that relation in when needed.
* **Relation replacement moves**
  (:class:`~repro.sync.generators.RelationReplacementGenerator`) — a
  lost relation is substituted wholesale via a PC constraint (CVS).

Every emitted rewriting is legal by construction (the preconditions
mirror :mod:`repro.sync.legality`) and carries its move provenance plus
the inferred extent relationship.

Two consumption styles share the same generation machinery:

* :meth:`ViewSynchronizer.synchronize` — the eager reference path: the
  full legal candidate list, VE-filtered and deduplicated (what the
  first EVE prototype materialized before ranking).
* :meth:`ViewSynchronizer.generate_candidates` — the streaming path the
  :class:`~repro.sync.pipeline.RewritingSearchPipeline` consumes:
  candidates are yielded one by one so legality filtering,
  deduplication, and QC pruning discard them before the next is built.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.esql.ast import ViewDefinition
from repro.esql.validate import ViewValidator
from repro.misd.mkb import MetaKnowledgeBase
from repro.space.changes import (
    AddAttribute,
    AddRelation,
    DeleteAttribute,
    DeleteRelation,
    RenameAttribute,
    RenameRelation,
    SchemaChange,
)
from repro.sync.generators import (
    CandidateGenerator,
    DominatedSpectrumGenerator,
    GenerationContext,
    default_generators,
)
from repro.sync.rewriting import ExtentRelationship, Rewriting


class ViewSynchronizer:
    """Generates legal rewritings from MKB knowledge (Sec. 3.3).

    ``generators`` overrides (or, via
    :func:`~repro.sync.generators.default_generators` plus extras,
    extends) the move families consulted; they run in the given order,
    which fixes candidate ordering and therefore every downstream
    tie-break.
    """

    def __init__(
        self,
        mkb: MetaKnowledgeBase,
        generators: Iterable[CandidateGenerator] | None = None,
    ) -> None:
        self._mkb = mkb
        self.generators: tuple[CandidateGenerator, ...] = (
            tuple(generators) if generators is not None else default_generators()
        )
        self._context = GenerationContext(mkb)
        self._dominated = DominatedSpectrumGenerator()

    @property
    def mkb(self) -> MetaKnowledgeBase:
        """The meta knowledge base candidates are generated against."""
        return self._mkb

    # ------------------------------------------------------------------
    # Affectedness
    # ------------------------------------------------------------------
    def is_affected(self, view: ViewDefinition, change: SchemaChange) -> bool:
        """Whether ``change`` invalidates (or renames under) ``view``."""
        if not view.references_relation(change.relation):
            return False
        if isinstance(change, (AddRelation, AddAttribute)):
            return False
        if isinstance(change, (DeleteRelation, RenameRelation)):
            return True
        if isinstance(change, (DeleteAttribute, RenameAttribute)):
            return self._view_uses_attribute(
                view, change.relation, change.attribute
            )
        return False

    @staticmethod
    def _view_uses_attribute(
        view: ViewDefinition, relation: str, attribute: str
    ) -> bool:
        if any(
            item.ref.matches(attribute, relation) for item in view.select
        ):
            return True
        return any(
            item.references(attribute, relation) for item in view.where
        )

    # ------------------------------------------------------------------
    # Eager entry point (the reference path)
    # ------------------------------------------------------------------
    def synchronize(
        self,
        view: ViewDefinition,
        change: SchemaChange,
        include_dominated: bool = False,
    ) -> list[Rewriting]:
        """All legal rewritings of ``view`` under ``change``.

        Returns an empty list when the view cannot be salvaged (it must
        then be marked undefined).  ``include_dominated`` additionally
        enumerates the footnote-2 "spectrum": variants that drop further
        dispensable attributes and are strictly inferior in information
        preservation — useful for studying the full candidate space.
        """
        view = self.resolve(view)
        if not self.is_affected(view, change):
            return [Rewriting(view, view, (), ExtentRelationship.EQUAL)]
        legal = [
            rewriting
            for rewriting in self.generate_candidates(view, change)
            if rewriting.extent_relationship.satisfies(view.extent_parameter)
        ]
        if include_dominated:
            legal = list(self._dominated.expand(legal))
        return _deduplicate(legal)

    # ------------------------------------------------------------------
    # Streaming entry points (the pipeline path)
    # ------------------------------------------------------------------
    def generate_candidates(
        self, resolved_view: ViewDefinition, change: SchemaChange
    ) -> Iterator[Rewriting]:
        """Lazily yield every candidate the move families produce.

        ``resolved_view`` must already be resolved (:meth:`resolve`);
        candidates arrive in chain order, unfiltered — VE compliance,
        deduplication, and the independent legality audit are downstream
        stages of the pipeline.
        """
        for generator in self.generators:
            if generator.applies_to(change):
                yield from generator.generate(
                    resolved_view, change, self._context
                )

    def expand_dominated(
        self, stream: Iterable[Rewriting]
    ) -> Iterator[Rewriting]:
        """Expand a candidate stream with each base's dominated variants."""
        return self._dominated.expand(stream)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(self, view: ViewDefinition) -> ViewDefinition:
        """Fully qualify the view against (historical) MKB schemas."""
        schemas = {}
        for name in view.relation_names:
            schemas[name] = self._mkb.historical_schema(name)
        return ViewValidator(schemas).resolve_view(view)


def _deduplicate(rewritings: list[Rewriting]) -> list[Rewriting]:
    seen: set[ViewDefinition] = set()
    unique: list[Rewriting] = []
    for rewriting in rewritings:
        if rewriting.view in seen:
            continue
        seen.add(rewriting.view)
        unique.append(rewriting)
    return unique
