"""Attribute domain types for the relational substrate.

The paper's MISD describes attribute domains via *type integrity constraints*
``TC(R.A) = (R(A_i) -> A_i(Type_i))`` (Sec. 3.2, Fig. 4).  We model domains
with a small closed set of types sufficient for the paper's experiments:
integers, floats, strings, and booleans.  Each type knows how to validate
and coerce Python values, and carries a default *byte width* used by the
cost model when per-attribute sizes are not registered in the MKB
(``s_{R.A}`` in Sec. 6.1).
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import TypeMismatchError


class AttributeType(enum.Enum):
    """Domain of an attribute, with a default storage width in bytes.

    The widths follow typical fixed-width encodings of the era the paper
    targets (4-byte ints/floats, short fixed-width strings); the MKB can
    override them per attribute.
    """

    INT = ("int", 4, int)
    FLOAT = ("float", 8, float)
    STRING = ("string", 20, str)
    BOOL = ("bool", 1, bool)

    def __init__(self, label: str, default_size: int, python_type: type) -> None:
        self.label = label
        self.default_size = default_size
        #: The exact class whose values :meth:`validate` returns unchanged.
        self.python_type = python_type

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AttributeType.{self.name}"

    def validate(self, value: Any) -> Any:
        """Coerce ``value`` into this domain or raise :class:`TypeMismatchError`.

        Coercion is strict enough to catch modelling mistakes (a string in an
        INT column) but forgiving across the numeric tower so experiment
        generators may feed ints into FLOAT columns.
        """
        if value is None:
            return None
        if self is AttributeType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeMismatchError(f"expected int, got {value!r}")
            return value
        if self is AttributeType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeMismatchError(f"expected float, got {value!r}")
            return float(value)
        if self is AttributeType.STRING:
            if not isinstance(value, str):
                raise TypeMismatchError(f"expected str, got {value!r}")
            return value
        if self is AttributeType.BOOL:
            if not isinstance(value, bool):
                raise TypeMismatchError(f"expected bool, got {value!r}")
            return value
        raise TypeMismatchError(f"unsupported type {self!r}")  # pragma: no cover

    def is_comparable_with(self, other: "AttributeType") -> bool:
        """Whether values of the two domains may appear in one primitive clause."""
        numeric = {AttributeType.INT, AttributeType.FLOAT}
        if self in numeric and other in numeric:
            return True
        return self is other


def infer_type(value: Any) -> AttributeType:
    """Infer the narrowest :class:`AttributeType` that admits ``value``."""
    if isinstance(value, bool):
        return AttributeType.BOOL
    if isinstance(value, int):
        return AttributeType.INT
    if isinstance(value, float):
        return AttributeType.FLOAT
    if isinstance(value, str):
        return AttributeType.STRING
    raise TypeMismatchError(f"cannot infer attribute type for {value!r}")
