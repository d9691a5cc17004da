"""View-extent size and view-overlap estimation (Sec. 5.4.3, Example 4).

The size of a select-project-join view is estimated from statistics as

    |V|  ~=  js^(#join clauses) * prod |R_i| * prod sigma(selection clauses)

mirroring the paper's ``|V1| ~= js_{T,S} * |T| * |S|``.  The overlap of an
original view with a rewriting is estimated the same way, except that every
relation replaced by the rewriting contributes the *relation overlap*
``|R ∩~ T|`` (from :mod:`repro.qc.overlap`) instead of its cardinality —
exactly the paper's ``|V ∩~ V1| ~= js_{T,S} * |R ∩~ T| * |S|``.

For rewritings whose extent relationship is already pinned down (equal,
subset, or superset), the overlap shortcut of Sec. 5.4.2 applies: the
intersection is simply the smaller of the two extents, and "none of the
expensive set intersection operations is required".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.esql.ast import ViewDefinition
from repro.misd.statistics import SpaceStatistics
from repro.qc.overlap import overlap_between
from repro.sync.rewriting import (
    ExtentRelationship,
    ReplaceRelationMove,
    Rewriting,
)


def estimate_view_cardinality(
    view: ViewDefinition, statistics: SpaceStatistics
) -> float:
    """``|V|`` from relation cardinalities, join and local selectivities."""
    size = 1.0
    for name in view.relation_names:
        size *= statistics.cardinality(name)
    condition = view.condition()
    size *= statistics.join_selectivity ** len(condition.join_clauses())
    for clause in condition.selection_clauses():
        relations = clause.relations()
        owner = next(iter(relations)) if relations else view.relation_names[0]
        size *= statistics.selectivity(owner)
    return size


@dataclass(frozen=True, slots=True)
class ExtentNumbers:
    """The three cardinalities Eq. 15 needs (common-attribute projections).

    * ``original`` — ``|V^(Vi)|``: the original extent,
    * ``rewriting`` — ``|Vi^(V)|``: the new extent,
    * ``overlap`` — ``|V ∩~ Vi|``: shared tuples,

    all computed on the common subset of attributes with duplicates removed
    (for the estimation path we keep the raw estimates; de-duplication is a
    no-op under the paper's statistical assumptions).
    """

    original: float
    rewriting: float
    overlap: float
    exact: bool = True

    def __post_init__(self) -> None:
        if min(self.original, self.rewriting, self.overlap) < 0:
            raise ValueError("extent numbers must be non-negative")


def estimate_extent_numbers(
    rewriting: Rewriting,
    mkb,
    statistics: SpaceStatistics | None = None,
) -> ExtentNumbers:
    """Estimate the Eq. 15 inputs for one rewriting.

    The original view's size is computed over the *rewriting's* structure
    with the replaced relations' original cardinalities, so that shared
    join structure (and its selectivities) cancels in the D1/D2 ratios the
    way the paper's Example 4 computes them.
    """
    stats = statistics if statistics is not None else mkb.statistics
    new_size = estimate_view_cardinality(rewriting.view, stats)

    replacements = {
        move.new_relation: move.old_relation
        for move in rewriting.moves
        if isinstance(move, ReplaceRelationMove)
    }

    # Original size: same structural estimate, with every replacement
    # relation's cardinality swapped back to the original relation's.
    original_size = new_size
    overlap = new_size
    exact = True
    for new_name, old_name in replacements.items():
        new_card = float(stats.cardinality(new_name))
        old_card = float(stats.cardinality(old_name))
        if new_card > 0:
            original_size *= old_card / new_card
            estimate = overlap_between(old_name, new_name, mkb, stats)
            overlap *= estimate.size / new_card
            exact = exact and estimate.exact
        else:
            original_size = 0.0
            overlap = 0.0

    relationship = rewriting.extent_relationship
    if not replacements:
        # Pure drop/rename rewritings: the shortcut cases of Sec. 5.4.2.
        original_size = estimate_view_cardinality(rewriting.original, stats)
        if relationship is ExtentRelationship.EQUAL:
            overlap = min(original_size, new_size)
        elif relationship is ExtentRelationship.SUPERSET:
            overlap = original_size
        elif relationship is ExtentRelationship.SUBSET:
            overlap = new_size
        else:
            overlap = 0.0
            exact = False
    else:
        # A constrained relationship still caps the overlap at the smaller
        # extent, which the per-relation product may slightly exceed when
        # statistics are inconsistent.
        overlap = min(overlap, original_size, new_size)

    return ExtentNumbers(original_size, new_size, overlap, exact)
