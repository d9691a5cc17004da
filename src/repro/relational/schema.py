"""Relation schemas: named, typed attribute lists.

A schema is the static description ``IS.R(A_1, ..., A_n)`` from MISD
(Sec. 3.2, Eq. 3).  Attribute order matters (tuples are positional), names
are unique within a schema, and every attribute carries a domain type plus
an optional byte size override used by the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence

from repro.errors import SchemaError, UnknownAttributeError
from repro.relational.types import AttributeType


@dataclass(frozen=True)
class Attribute:
    """A single named, typed attribute of a relation schema.

    ``size`` is the byte width ``s_{R.A}`` of Sec. 6.1; when ``None`` the
    type's default width is used.
    """

    name: str
    type: AttributeType = AttributeType.INT
    size: int | None = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid attribute name {self.name!r}")
        if self.size is not None and self.size <= 0:
            raise SchemaError(f"attribute {self.name!r} has non-positive size")

    @property
    def byte_size(self) -> int:
        """Width in bytes, falling back to the domain default."""
        return self.size if self.size is not None else self.type.default_size

    def renamed(self, new_name: str) -> "Attribute":
        """Copy of this attribute under a different name (same type/size)."""
        return Attribute(new_name, self.type, self.size)

    def __str__(self) -> str:
        return f"{self.name}:{self.type.label}"


class Schema:
    """An ordered collection of uniquely named attributes.

    Supports the projection/renaming operations the synchronizer and the
    quality model need: lookup by name, positional index, sub-schema
    extraction, and concatenation for joins.
    """

    __slots__ = (
        "name",
        "row_types",
        "key_position",
        "_attributes",
        "_positions",
        "_tuple_byte_size",
    )

    def __init__(self, name: str, attributes: Iterable[Attribute | str]) -> None:
        self.name = name
        normalized: list[Attribute] = []
        for attr in attributes:
            normalized.append(Attribute(attr) if isinstance(attr, str) else attr)
        self._attributes: tuple[Attribute, ...] = tuple(normalized)
        self._positions: dict[str, int] = {}
        for position, attr in enumerate(self._attributes):
            if attr.name in self._positions:
                raise SchemaError(
                    f"duplicate attribute {attr.name!r} in schema {name!r}"
                )
            self._positions[attr.name] = position
        # Schemas are immutable, so the tuple width is fixed at birth;
        # computing it here keeps the per-message maintenance loop O(1).
        self._tuple_byte_size = sum(attr.byte_size for attr in self._attributes)
        # The exact value class per position: a row whose ``type()``
        # vector equals this is well-typed without per-value validation
        # (read-only, like ``name``).
        self.row_types: tuple[type, ...] = tuple(
            [attr.type.python_type for attr in self._attributes]
        )
        # The first INT attribute's position, or ``None``: the column a
        # relation packs into its delete locator (read-only as well).
        self.key_position: int | None = next(
            (
                position
                for position, attr in enumerate(self._attributes)
                if attr.type is AttributeType.INT
            ),
            None,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(attr.name for attr in self._attributes)

    @property
    def arity(self) -> int:
        return len(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._positions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.name == other.name and self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash((self.name, self._attributes))

    def __repr__(self) -> str:
        attrs = ", ".join(str(attr) for attr in self._attributes)
        return f"{self.name}({attrs})"

    def attribute(self, name: str) -> Attribute:
        """The attribute called ``name`` or :class:`UnknownAttributeError`."""
        try:
            return self._attributes[self._positions[name]]
        except KeyError:
            raise UnknownAttributeError(name, self.name) from None

    def position(self, name: str) -> int:
        """Zero-based index of attribute ``name``."""
        try:
            return self._positions[name]
        except KeyError:
            raise UnknownAttributeError(name, self.name) from None

    def tuple_byte_size(self) -> int:
        """Total width of one tuple in bytes (``s_R`` of the cost model)."""
        return self._tuple_byte_size

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def project(self, names: Sequence[str], new_name: str | None = None) -> "Schema":
        """Sub-schema restricted (and re-ordered) to ``names``."""
        return Schema(
            new_name if new_name is not None else self.name,
            [self.attribute(name) for name in names],
        )

    def rename_relation(self, new_name: str) -> "Schema":
        """Same attributes under a new relation name.

        Every derived field reads only the attributes, so the copy
        shares them instead of re-running ``__init__`` (each coalesced
        follower's extent is a copy of its leader's under a new name).
        """
        clone = object.__new__(Schema)
        for slot in Schema.__slots__:
            setattr(clone, slot, getattr(self, slot))
        clone.name = new_name
        return clone

    def rename_attribute(self, old: str, new: str) -> "Schema":
        """Schema with attribute ``old`` renamed to ``new``."""
        if old not in self._positions:
            raise UnknownAttributeError(old, self.name)
        if new in self._positions and new != old:
            raise SchemaError(f"attribute {new!r} already exists in {self.name!r}")
        return Schema(
            self.name,
            [a.renamed(new) if a.name == old else a for a in self._attributes],
        )

    def drop_attribute(self, name: str) -> "Schema":
        """Schema without attribute ``name`` (must leave at least one)."""
        if name not in self._positions:
            raise UnknownAttributeError(name, self.name)
        remaining = [a for a in self._attributes if a.name != name]
        if not remaining:
            raise SchemaError(f"cannot drop last attribute of {self.name!r}")
        return Schema(self.name, remaining)

    def add_attribute(self, attribute: Attribute) -> "Schema":
        """Schema with ``attribute`` appended."""
        if attribute.name in self._positions:
            raise SchemaError(
                f"attribute {attribute.name!r} already exists in {self.name!r}"
            )
        return Schema(self.name, [*self._attributes, attribute])

    def concat(self, other: "Schema", new_name: str) -> "Schema":
        """Concatenation for cartesian products/joins.

        Name clashes are resolved by qualifying the clashing attribute of
        ``other`` with its relation name (``B`` -> ``other_B``), mirroring
        how SQL engines disambiguate.
        """
        merged: list[Attribute] = list(self._attributes)
        taken = set(self._positions)
        for attr in other._attributes:
            name = attr.name
            if name in taken:
                name = f"{other.name}_{attr.name}"
                if name in taken:
                    raise SchemaError(
                        f"cannot disambiguate attribute {attr.name!r} when "
                        f"joining {self.name!r} with {other.name!r}"
                    )
            taken.add(name)
            merged.append(attr.renamed(name))
        return Schema(new_name, merged)

    def common_attributes(self, other: "Schema") -> tuple[str, ...]:
        """Names present in both schemas, in this schema's order.

        This is ``Attr(V) ∩ Attr(V_i)`` of Definition 1 — the comparison
        basis for every extent-divergence computation.
        """
        return tuple(n for n in self.attribute_names if n in other)
