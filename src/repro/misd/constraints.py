"""MISD semantic constraints (Sec. 3.2, Fig. 4).

Three constraint kinds describe the information space:

* **Type integrity** ``TC(R.A) = (R(A) -> A(Type))`` — attribute domains.
  (These live inside :class:`~repro.relational.schema.Schema`; the explicit
  class here exists so the MKB can store and check them uniformly.)
* **Join constraints** ``JC(R1,R2) = C1 AND ... AND Cl`` — meaningful ways
  to join two relations.
* **Partial/complete (PC) constraints**
  ``pi_A1(sigma_C1(R1))  REL  pi_A2(sigma_C2(R2))`` with
  ``REL in {subset, equivalent, superset}`` — semantic containment between
  relation fragments, the key ingredient for finding replacements and for
  estimating extent overlaps (Sec. 5.4.3, Figs. 9/10).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.errors import ConstraintError
from repro.relational.expressions import Condition
from repro.relational.schema import Schema
from repro.relational.types import AttributeType


@dataclass(frozen=True, slots=True)
class TypeIntegrityConstraint:
    """``TC(R.A)``: attribute ``A`` of relation ``R`` has domain ``type``."""

    relation: str
    attribute: str
    type: AttributeType

    def __str__(self) -> str:
        return f"TC({self.relation}.{self.attribute}) = {self.type.label}"

    def check_against(self, schema: Schema) -> None:
        """Raise unless ``schema`` agrees with this constraint."""
        declared = schema.attribute(self.attribute).type
        if declared is not self.type:
            raise ConstraintError(
                f"{self}: schema declares {declared.label}"
            )


@dataclass(frozen=True, slots=True)
class JoinConstraint:
    """``JC(R1,R2)``: the conjunction under which R1 x R2 is meaningful."""

    left_relation: str
    right_relation: str
    condition: Condition

    def __post_init__(self) -> None:
        if self.condition.is_true:
            raise ConstraintError(
                f"join constraint {self.left_relation}/{self.right_relation} "
                "needs at least one clause"
            )
        referenced = self.condition.relations()
        expected = {self.left_relation, self.right_relation}
        if referenced and not referenced <= expected:
            raise ConstraintError(
                f"join constraint {self.left_relation}/{self.right_relation} "
                f"references foreign relations {sorted(referenced - expected)}"
            )

    def __str__(self) -> str:
        return (
            f"JC({self.left_relation},{self.right_relation}) = {self.condition}"
        )

    def involves(self, relation: str) -> bool:
        return relation in (self.left_relation, self.right_relation)

    def other(self, relation: str) -> str:
        """The partner relation of ``relation`` in this constraint."""
        if relation == self.left_relation:
            return self.right_relation
        if relation == self.right_relation:
            return self.left_relation
        raise ConstraintError(f"{self} does not involve {relation!r}")


class PCRelationship(enum.Enum):
    """The set relation REL of a PC constraint (left REL right)."""

    SUBSET = "subset"        # left ⊆ right
    EQUIVALENT = "equal"     # left ≡ right
    SUPERSET = "superset"    # left ⊇ right

    def __str__(self) -> str:
        return {"subset": "⊆", "equal": "≡", "superset": "⊇"}[self.value]

    def flipped(self) -> "PCRelationship":
        if self is PCRelationship.SUBSET:
            return PCRelationship.SUPERSET
        if self is PCRelationship.SUPERSET:
            return PCRelationship.SUBSET
        return PCRelationship.EQUIVALENT


@dataclass(frozen=True, slots=True)
class RelationFragment:
    """One side of a PC constraint: ``pi_attributes(sigma_condition(relation))``.

    ``condition`` may be the tautology (:meth:`Condition.true`) — the
    "no selection" case of Fig. 9's no/yes row labels.
    """

    relation: str
    attributes: tuple[str, ...]
    condition: Condition = field(default_factory=Condition.true)

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ConstraintError(
                f"PC fragment over {self.relation!r} projects no attributes"
            )
        if len(set(self.attributes)) != len(self.attributes):
            raise ConstraintError(
                f"PC fragment over {self.relation!r} repeats attributes"
            )

    @property
    def has_selection(self) -> bool:
        return not self.condition.is_true

    def __str__(self) -> str:
        projection = ",".join(self.attributes)
        if self.has_selection:
            return f"pi_{projection}(sigma[{self.condition}]({self.relation}))"
        return f"pi_{projection}({self.relation})"

    def check_against(self, schema: Schema) -> None:
        for name in self.attributes:
            schema.attribute(name)  # raises UnknownAttributeError
        for ref in self.condition.attribute_refs():
            if ref.relation not in (None, self.relation):
                raise ConstraintError(
                    f"PC fragment over {self.relation!r} selects on foreign "
                    f"relation {ref.relation!r}"
                )
            schema.attribute(ref.attribute)


@dataclass(frozen=True, slots=True)
class PCConstraint:
    """``PC(R1,R2)``: left fragment REL right fragment (Eq. 5).

    The two projection lists correspond positionally: ``left.attributes[i]``
    is the same piece of information as ``right.attributes[i]`` (and must
    have equal domain types, Sec. 3.2).
    """

    left: RelationFragment
    right: RelationFragment
    relationship: PCRelationship

    def __post_init__(self) -> None:
        if len(self.left.attributes) != len(self.right.attributes):
            raise ConstraintError(
                f"PC constraint {self.left.relation}/{self.right.relation}: "
                "projection lists differ in length"
            )
        if self.left.relation == self.right.relation:
            raise ConstraintError(
                f"PC constraint relates {self.left.relation!r} to itself"
            )

    def __str__(self) -> str:
        return f"{self.left} {self.relationship} {self.right}"

    # ------------------------------------------------------------------
    # Orientation helpers
    # ------------------------------------------------------------------
    def involves(self, relation: str) -> bool:
        return relation in (self.left.relation, self.right.relation)

    def oriented(self, from_relation: str) -> "PCConstraint":
        """This constraint with ``from_relation`` on the left.

        Flipping swaps the fragments and inverts the relationship, so
        ``pc.oriented(R).relationship`` always reads "R REL other".
        """
        if from_relation == self.left.relation:
            return self
        if from_relation == self.right.relation:
            return PCConstraint(
                self.right, self.left, self.relationship.flipped()
            )
        raise ConstraintError(f"{self} does not involve {from_relation!r}")

    def attribute_map(self) -> dict[str, str]:
        """Positional correspondence left attribute -> right attribute."""
        return dict(zip(self.left.attributes, self.right.attributes))

    def reverse_attribute_map(self) -> dict[str, str]:
        return dict(zip(self.right.attributes, self.left.attributes))

    def maps_attributes(self, attributes: Mapping[str, None] | set[str]) -> bool:
        """Whether every attribute in ``attributes`` is covered on the left."""
        return set(attributes) <= set(self.left.attributes)

    def check_against(
        self, left_schema: Schema, right_schema: Schema
    ) -> None:
        """Structural + type compatibility check (Sec. 3.2's TC equality)."""
        self.left.check_against(left_schema)
        self.right.check_against(right_schema)
        for l_name, r_name in self.attribute_map().items():
            l_type = left_schema.attribute(l_name).type
            r_type = right_schema.attribute(r_name).type
            if l_type is not r_type:
                raise ConstraintError(
                    f"{self}: corresponding attributes {l_name!r}/{r_name!r} "
                    f"have different types ({l_type.label} vs {r_type.label})"
                )
