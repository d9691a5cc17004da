"""E-SQL: SQL extended with view-evolution preferences (Sec. 3.1).

Public surface:

* :class:`ViewDefinition`, :class:`SelectItem`, :class:`FromItem`,
  :class:`WhereItem` — the AST
* :class:`EvolutionFlags`, :class:`ViewExtent`, :class:`AttributeCategory`
  — evolution parameters (Figs. 3, 6)
* :func:`parse_view` / :func:`format_view` — text <-> AST
* :class:`ViewValidator` — semantic checks + name resolution
* :func:`coalesce_fingerprint` — a definition's name-free identity
* :func:`evaluate_view` — materialize a view extent
"""

from repro.esql.ast import (
    FromItem,
    SelectItem,
    ViewDefinition,
    WhereItem,
    coalesce_fingerprint,
)
from repro.esql.evaluator import evaluate_view, evaluate_views
from repro.esql.params import (
    DISPENSABLE_ONLY,
    RELAXED,
    REPLACEABLE_ONLY,
    STRICT,
    AttributeCategory,
    EvolutionFlags,
    ViewExtent,
)
from repro.esql.parser import parse_condition_clause, parse_view
from repro.esql.printer import format_view, format_view_compact
from repro.esql.validate import ViewValidator

__all__ = [
    "AttributeCategory",
    "DISPENSABLE_ONLY",
    "EvolutionFlags",
    "FromItem",
    "RELAXED",
    "REPLACEABLE_ONLY",
    "STRICT",
    "SelectItem",
    "ViewDefinition",
    "ViewExtent",
    "ViewValidator",
    "WhereItem",
    "coalesce_fingerprint",
    "evaluate_view",
    "evaluate_views",
    "format_view",
    "format_view_compact",
    "parse_condition_clause",
    "parse_view",
]
