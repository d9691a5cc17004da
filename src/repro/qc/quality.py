"""The quality half of the QC-Model: degrees of divergence (Sec. 5).

Three layers:

* **Interface divergence** ``DD_attr`` (Sec. 5.4.1): how much weighted
  dispensable-attribute mass the rewriting lost, normalized by the
  original's mass ``Q_V`` (Eq. 12).
* **Extent divergence** ``DD_ext`` (Sec. 5.4.2): the rho-weighted blend of
  D1 (fraction of original tuples lost, Eq. 13) and D2 (fraction of the new
  extent that is surplus, Eq. 14), per Eq. 15 — with the VE special cases
  of Eqs. 16/17.
* **Total divergence** ``DD`` (Sec. 5.4.4, Eq. 20).

Two computation paths feed the extent numbers:

* the *estimation* path (what the paper uses): statistics + PC-constraint
  overlap estimation, via :func:`repro.qc.view_size.estimate_extent_numbers`;
* the *exact* path: materialize both extents with the evaluator and count
  (:func:`exact_extent_numbers`) — available for validation because our
  substrate is executable, which the authors' was not at the time.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from repro.esql.ast import ViewDefinition
from repro.esql.evaluator import evaluate_view
from repro.esql.params import AttributeCategory
from repro.qc.params import TradeoffParameters
from repro.qc.view_size import ExtentNumbers, estimate_extent_numbers
from repro.relational.algebra import common_projection, cs_intersection
from repro.relational.relation import Relation
from repro.sync.rewriting import Rewriting


# ----------------------------------------------------------------------
# Interface divergence (Sec. 5.4.1)
# ----------------------------------------------------------------------
def interface_quality(view: ViewDefinition, params: TradeoffParameters) -> float:
    """``Q_V`` (Eq. 12): weighted count of category-1/2 attributes.

    Indispensable attributes (categories 3/4) must survive in any legal
    rewriting and carry no weight.
    """
    buckets = view.categories()
    return (
        len(buckets[AttributeCategory.C1]) * params.w1
        + len(buckets[AttributeCategory.C2]) * params.w2
    )


def dd_attr(
    original: ViewDefinition,
    rewriting_view: ViewDefinition,
    params: TradeoffParameters,
) -> float:
    """``DD_attr(Vi)``: normalized interface-quality loss.

    The rewriting's attributes are weighted by the *original* item's
    category — a replaced attribute keeps its output name, so categories
    are matched by output name.  ``Q_V = 0`` (all indispensable) yields 0.
    """
    q_original = interface_quality(original, params)
    if q_original == 0:
        return 0.0
    surviving = set(rewriting_view.interface)
    q_rewriting = 0.0
    for item in original.select:
        if item.output_name not in surviving:
            continue
        category = item.category
        if category is AttributeCategory.C1:
            q_rewriting += params.w1
        elif category is AttributeCategory.C2:
            q_rewriting += params.w2
    return (q_original - q_rewriting) / q_original


# ----------------------------------------------------------------------
# Extent divergence (Sec. 5.4.2)
# ----------------------------------------------------------------------
def dd_ext_d1(numbers: ExtentNumbers) -> float:
    """D1 (Eq. 13): fraction of the original extent not preserved."""
    if numbers.original <= 0:
        return 0.0
    return max(0.0, 1.0 - numbers.overlap / numbers.original)


def dd_ext_d2(numbers: ExtentNumbers) -> float:
    """D2 (Eq. 14): fraction of the new extent that is surplus."""
    if numbers.rewriting <= 0:
        return 0.0
    return max(0.0, 1.0 - numbers.overlap / numbers.rewriting)


def dd_ext(numbers: ExtentNumbers, params: TradeoffParameters) -> float:
    """``DD_ext(Vi)`` (Eq. 15): the rho-weighted D1/D2 blend."""
    return params.rho_d1 * dd_ext_d1(numbers) + params.rho_d2 * dd_ext_d2(
        numbers
    )


def dd_ext_superset(
    original_size: float, rewriting_size: float, params: TradeoffParameters
) -> float:
    """Eq. 16 — the VE = '⊇' shortcut.

    When every rewriting is a superset of the original, D2 is the only
    live term and the overlap equals the original extent, so no
    intersection estimation is needed: only the two sizes enter.
    (The paper phrases Eq. 16 with the D1 weight; footnotes 5/6 note the
    irrelevant weight can be folded — we keep Eq. 15's rho_d2 so the
    shortcut is *equal* to the general formula, which the tests enforce.)
    """
    return dd_ext(
        ExtentNumbers(original_size, rewriting_size, original_size), params
    )


def dd_ext_subset(
    original_size: float, rewriting_size: float, params: TradeoffParameters
) -> float:
    """Eq. 17 — the VE = '⊆' shortcut: only D1 is live, overlap = |Vi|."""
    return dd_ext(
        ExtentNumbers(original_size, rewriting_size, rewriting_size), params
    )


# ----------------------------------------------------------------------
# Exact extent numbers (materialized comparison)
# ----------------------------------------------------------------------
def exact_extent_numbers(
    rewriting: Rewriting,
    original_relations: Mapping[str, Relation],
    current_relations: Mapping[str, Relation],
) -> ExtentNumbers:
    """Count the Eq. 15 inputs from materialized extents.

    ``original_relations`` must contain the pre-change instances the
    original view ran over; ``current_relations`` the post-change ones the
    rewriting runs over.  All counts are on the common subset of attributes
    with duplicates removed (Definition 1).
    """
    old_extent = evaluate_view(rewriting.original, original_relations)
    new_extent = evaluate_view(rewriting.view, current_relations)
    if not set(old_extent.schema.attribute_names) & set(
        new_extent.schema.attribute_names
    ):
        # No shared interface at all: complete divergence.
        return ExtentNumbers(
            float(old_extent.distinct().cardinality),
            float(new_extent.distinct().cardinality),
            0.0,
        )
    original_common = common_projection(old_extent, new_extent)
    rewriting_common = common_projection(new_extent, old_extent)
    overlap = cs_intersection(old_extent, new_extent)
    return ExtentNumbers(
        float(original_common.cardinality),
        float(rewriting_common.cardinality),
        float(overlap.cardinality),
    )


# ----------------------------------------------------------------------
# Total divergence (Sec. 5.4.4)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class QualityAssessment:
    """Full quality breakdown for one rewriting."""

    dd_attr: float
    dd_ext_d1: float
    dd_ext_d2: float
    dd_ext: float
    dd: float
    extent_numbers: ExtentNumbers

    def __str__(self) -> str:
        return (
            f"DD_attr={self.dd_attr:.4f} D1={self.dd_ext_d1:.4f} "
            f"D2={self.dd_ext_d2:.4f} DD_ext={self.dd_ext:.4f} "
            f"DD={self.dd:.4f}"
        )


def assess_quality(
    rewriting: Rewriting,
    params: TradeoffParameters,
    numbers: ExtentNumbers,
) -> QualityAssessment:
    """``DD(Vi)`` (Eq. 20) with its full breakdown."""
    attr = dd_attr(rewriting.original, rewriting.view, params)
    d1 = dd_ext_d1(numbers)
    d2 = dd_ext_d2(numbers)
    ext = params.rho_d1 * d1 + params.rho_d2 * d2
    total = params.rho_attr * attr + params.rho_ext * ext
    return QualityAssessment(attr, d1, d2, ext, total, numbers)


def assess_quality_estimated(
    rewriting: Rewriting,
    params: TradeoffParameters,
    mkb,
    statistics=None,
) -> QualityAssessment:
    """Quality via the paper's estimation path (statistics + PCs)."""
    numbers = estimate_extent_numbers(rewriting, mkb, statistics)
    return assess_quality(rewriting, params, numbers)


def assess_quality_exact(
    rewriting: Rewriting,
    params: TradeoffParameters,
    original_relations: Mapping[str, Relation],
    current_relations: Mapping[str, Relation],
) -> QualityAssessment:
    """Quality via materialized extents (the validation path)."""
    numbers = exact_extent_numbers(
        rewriting, original_relations, current_relations
    )
    return assess_quality(rewriting, params, numbers)
