"""Rewritings: candidate replacement view definitions with provenance.

A :class:`Rewriting` bundles the new :class:`ViewDefinition` with the
*moves* that produced it (attribute drops, relation replacements, ...) and
the inferred :class:`ExtentRelationship` between the new and the original
extent.  The provenance is what makes legality checkable (each move is
justified by an evolution flag) and what lets the quality model pick the
right Fig. 9 overlap case without re-deriving how the rewriting came to be.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Iterable

from repro.esql.ast import ViewDefinition
from repro.esql.params import ViewExtent
from repro.misd.constraints import PCConstraint, PCRelationship
from repro.relational.expressions import AttributeRef, PrimitiveClause


class ExtentRelationship(enum.Enum):
    """How a rewriting's extent relates to the original (Fig. 8).

    Comparisons are on the common subset of attributes (Definition 2):

    * ``EQUAL``       — Fig. 8(a) "Equivalent"
    * ``SUPERSET``    — Fig. 8(b): the new extent contains the old
    * ``SUBSET``      — Fig. 8(c): the new extent is contained in the old
    * ``UNKNOWN``     — Fig. 8(d) "Approximate": both D1 and D2 may be
      non-empty, or no constraint pins the relationship down
    """

    EQUAL = "equal"
    SUPERSET = "superset"
    SUBSET = "subset"
    UNKNOWN = "approximate"

    def __str__(self) -> str:
        return self.value

    def compose(self, other: "ExtentRelationship") -> "ExtentRelationship":
        """Relationship after applying two moves in sequence.

        The lattice: EQUAL is the identity, equal directions reinforce,
        opposite directions (or any UNKNOWN) give UNKNOWN.
        """
        if self is ExtentRelationship.EQUAL:
            return other
        if other is ExtentRelationship.EQUAL:
            return self
        if self is other:
            return self
        return ExtentRelationship.UNKNOWN

    def satisfies(self, extent_parameter: ViewExtent) -> bool:
        """Whether this relationship complies with the view's VE setting."""
        if extent_parameter is ViewExtent.ANY:
            return True
        if extent_parameter is ViewExtent.EQUAL:
            return self is ExtentRelationship.EQUAL
        if extent_parameter is ViewExtent.SUPERSET:
            return self in (ExtentRelationship.EQUAL, ExtentRelationship.SUPERSET)
        return self in (ExtentRelationship.EQUAL, ExtentRelationship.SUBSET)

    @classmethod
    def from_pc(cls, relationship: PCRelationship) -> "ExtentRelationship":
        """Extent effect of substituting the right side of ``R REL T`` for R.

        Monotone SPJ views lift the relation-level relationship: replacing
        R with a superset relation yields a superset extent, and so on.
        ``R REL T`` is oriented (left = the dropped relation), so the view
        relationship is the *flip* of REL.
        """
        if relationship is PCRelationship.EQUIVALENT:
            return cls.EQUAL
        if relationship is PCRelationship.SUBSET:  # R ⊆ T, T replaces R
            return cls.SUPERSET
        return cls.SUBSET


# ----------------------------------------------------------------------
# Moves (provenance of a rewriting)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Move:
    """Base class of the atomic edits a synchronizer may apply."""

    def describe(self) -> str:  # pragma: no cover - overridden
        return type(self).__name__


@dataclass(frozen=True, slots=True)
class DropAttributeMove(Move):
    """A dispensable SELECT item was removed."""

    output_name: str
    source: AttributeRef

    def describe(self) -> str:
        return f"drop attribute {self.source} (output {self.output_name!r})"


@dataclass(frozen=True, slots=True)
class DropConditionMove(Move):
    """A dispensable WHERE conjunct was removed."""

    clause: PrimitiveClause

    def describe(self) -> str:
        return f"drop condition ({self.clause})"


@dataclass(frozen=True, slots=True)
class DropRelationMove(Move):
    """A dispensable FROM relation (plus everything on it) was removed."""

    relation: str

    def describe(self) -> str:
        return f"drop relation {self.relation}"


@dataclass(frozen=True, slots=True)
class ReplaceRelationMove(Move):
    """A FROM relation was substituted via a PC constraint (CVS move).

    ``via`` records the full constraint path when the substitution was
    found transitively (e.g. S replaced by T because both relate to a
    common ancestor R); for direct substitutions it holds the single
    constraint.
    """

    old_relation: str
    new_relation: str
    constraint: PCConstraint
    via: tuple[PCConstraint, ...] = ()

    @property
    def is_transitive(self) -> bool:
        return len(self.via) > 1

    def describe(self) -> str:
        route = " via ".join(str(pc) for pc in self.via) or str(self.constraint)
        return (
            f"replace relation {self.old_relation} -> {self.new_relation} "
            f"using {route}"
        )


@dataclass(frozen=True, slots=True)
class ReplaceAttributeMove(Move):
    """A single attribute reference was redirected to another relation."""

    old: AttributeRef
    new: AttributeRef
    constraint: PCConstraint

    def describe(self) -> str:
        return f"replace attribute {self.old} -> {self.new}"


@dataclass(frozen=True, slots=True)
class AddJoinMove(Move):
    """A relation joined in (via a join constraint) to carry a replacement."""

    relation: str
    clauses: tuple[PrimitiveClause, ...]

    def describe(self) -> str:
        rendered = " AND ".join(str(c) for c in self.clauses)
        return f"join in {self.relation} on {rendered}"


@dataclass(frozen=True, slots=True)
class RenameMove(Move):
    """A pure rename (relation or attribute) was folded in — equivalent."""

    description: str

    def describe(self) -> str:
        return self.description


# ----------------------------------------------------------------------
# The rewriting bundle
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Rewriting:
    """One candidate replacement for an affected view."""

    original: ViewDefinition
    view: ViewDefinition
    moves: tuple[Move, ...] = ()
    extent_relationship: ExtentRelationship = ExtentRelationship.EQUAL

    @property
    def is_identity(self) -> bool:
        return not self.moves

    @property
    def name(self) -> str:
        return self.view.name

    def preserved_outputs(self) -> tuple[str, ...]:
        """Original interface attributes still present in the rewriting."""
        new_interface = set(self.view.interface)
        return tuple(
            name for name in self.original.interface if name in new_interface
        )

    def dropped_outputs(self) -> tuple[str, ...]:
        new_interface = set(self.view.interface)
        return tuple(
            name for name in self.original.interface if name not in new_interface
        )

    def replacement_moves(self) -> tuple[ReplaceRelationMove, ...]:
        return tuple(
            move for move in self.moves if isinstance(move, ReplaceRelationMove)
        )

    def describe(self) -> str:
        if not self.moves:
            return f"{self.view.name}: unchanged"
        steps = "; ".join(move.describe() for move in self.moves)
        return f"{self.view.name}: {steps} [{self.extent_relationship}]"

    def renamed(self, new_name: str) -> "Rewriting":
        return Rewriting(
            self.original,
            self.view.renamed(new_name),
            self.moves,
            self.extent_relationship,
        )


def combine_extent(moves_relationships: Iterable[ExtentRelationship]) -> ExtentRelationship:
    """Fold a sequence of per-move extent effects into one relationship."""
    combined = ExtentRelationship.EQUAL
    for relationship in moves_relationships:
        combined = combined.compose(relationship)
    return combined
