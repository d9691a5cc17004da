"""E-SQL evolution parameters (Sec. 3.1, Fig. 3 and Fig. 6).

Every view component carries a (dispensable, replaceable) pair:

* attributes:  ``AD`` / ``AR``
* conditions:  ``CD`` / ``CR``
* relations:   ``RD`` / ``RR``

and the view as a whole carries a view-extent parameter ``VE`` constraining
how the extent of a rewriting may relate to the original extent.

All parameters default to the strictest setting (``false`` /
:attr:`ViewExtent.ANY` is *not* the default — the paper's default for VE is
unspecified per-view; we follow the paper's examples and default to ANY,
which imposes no extent restriction, while the boolean parameters default
to false = indispensable / non-replaceable, matching Fig. 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ViewExtent(enum.Enum):
    """The VE parameter: admissible relationship of new extent to old.

    Values mirror Fig. 3:

    * ``ANY``      (``≈``)  no restriction on the new extent,
    * ``EQUAL``    (``≡``)  new extent must equal the old extent,
    * ``SUPERSET`` (``⊇``)  new extent must contain the old extent,
    * ``SUBSET``   (``⊆``)  new extent must be contained in the old extent.
    """

    ANY = "~"
    EQUAL = "="
    SUPERSET = ">="
    SUBSET = "<="

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_symbol(cls, symbol: str) -> "ViewExtent":
        """Parse the textual VE symbol, accepting common synonyms."""
        aliases = {
            "~": cls.ANY, "any": cls.ANY, "approx": cls.ANY, "": cls.ANY,
            "=": cls.EQUAL, "==": cls.EQUAL, "equal": cls.EQUAL,
            ">=": cls.SUPERSET, "superset": cls.SUPERSET, "sup": cls.SUPERSET,
            "<=": cls.SUBSET, "subset": cls.SUBSET, "sub": cls.SUBSET,
        }
        try:
            return aliases[symbol.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown view-extent symbol {symbol!r}") from None

    @property
    def allows_missing_tuples(self) -> bool:
        """Whether tuples of the original view may be absent (D1 > 0)."""
        return self in (ViewExtent.ANY, ViewExtent.SUBSET)

    @property
    def allows_surplus_tuples(self) -> bool:
        """Whether tuples not in the original view may appear (D2 > 0)."""
        return self in (ViewExtent.ANY, ViewExtent.SUPERSET)


class AttributeCategory(enum.Enum):
    """The four preserved-attribute categories of Fig. 6.

    Categories 1 and 2 receive weights ``w1``/``w2`` in the interface-quality
    computation; categories 3 and 4 (indispensable) must always survive and
    carry no weight.
    """

    C1 = (True, True)    # dispensable, replaceable     -> weight w1
    C2 = (True, False)   # dispensable, non-replaceable -> weight w2
    C3 = (False, True)   # indispensable, replaceable   -> must stay
    C4 = (False, False)  # indispensable, non-replaceable -> must stay

    def __init__(self, dispensable: bool, replaceable: bool) -> None:
        self.dispensable = dispensable
        self.replaceable = replaceable

    @classmethod
    def of(cls, dispensable: bool, replaceable: bool) -> "AttributeCategory":
        for member in cls:
            if (member.dispensable, member.replaceable) == (
                dispensable,
                replaceable,
            ):
                return member
        raise AssertionError("unreachable")  # pragma: no cover

    @property
    def must_be_preserved(self) -> bool:
        return not self.dispensable


@dataclass(frozen=True, slots=True)
class EvolutionFlags:
    """The (dispensable, replaceable) pair attached to a view component.

    The paper's defaults (Fig. 3, column 3) are false/false: indispensable
    and non-replaceable.
    """

    dispensable: bool = False
    replaceable: bool = False

    @property
    def category(self) -> AttributeCategory:
        return AttributeCategory.of(self.dispensable, self.replaceable)

    def format(self, dispensable_key: str, replaceable_key: str) -> str:
        """Render as e.g. ``(AD = true, AR = false)``; empty when default."""
        parts = []
        if self.dispensable:
            parts.append(f"{dispensable_key} = true")
        if self.replaceable:
            parts.append(f"{replaceable_key} = true")
        if not parts:
            return ""
        return f" ({', '.join(parts)})"


#: The strict default: indispensable, non-replaceable.
STRICT = EvolutionFlags(False, False)
#: Fully relaxed: dispensable and replaceable.
RELAXED = EvolutionFlags(True, True)
#: Dispensable but non-replaceable (category C2).
DISPENSABLE_ONLY = EvolutionFlags(True, False)
#: Replaceable but indispensable (category C3).
REPLACEABLE_ONLY = EvolutionFlags(False, True)
