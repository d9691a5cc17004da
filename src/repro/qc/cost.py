"""The cost half of the QC-Model: incremental maintenance cost (Sec. 6).

For one data-content update at a base relation, Algorithm 1 sweeps the
sources in order, growing a delta relation.  Three cost factors fall out:

* ``CF_M`` — messages exchanged (Sec. 6.2),
* ``CF_T`` — bytes transferred (Eq. 21; Eq. 22 is the uniform special
  case),
* ``CF_IO`` — local I/O operations (Appendix A, Eqs. 32/33; the point
  estimate is the lower bound, which is what the paper's experiment
  numbers use).

The inputs are a :class:`MaintenancePlan` (which relations sit at which
source, in Algorithm 1's visiting order, and which relation was updated)
plus :class:`~repro.misd.statistics.SpaceStatistics`.

Two message-count conventions exist in the paper: the Sec. 6.2 formula
(query/response round trips only) and the experiment tables, which also
count the initial update notification.  Both are provided
(:func:`cf_messages` and :func:`cf_messages_counted`); the experiment
harnesses use the counted variant, which reproduces Tables 4/6 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.errors import EvaluationError
from repro.esql.ast import ViewDefinition
from repro.misd.statistics import SpaceStatistics
from repro.qc.params import TradeoffParameters


@dataclass(frozen=True, slots=True)
class SourceGroup:
    """One information source and the view relations it hosts, in order."""

    source: str
    relations: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.relations:
            raise EvaluationError(
                f"source group {self.source!r} hosts no view relations"
            )


@dataclass(frozen=True, slots=True)
class MaintenancePlan:
    """Algorithm 1's itinerary for one update.

    ``groups[0]`` is the updating source; ``updated_relation`` is
    ``R_{1,0}``.  Relations within a group are joined locally in listed
    order; groups are visited in listed order.
    """

    groups: tuple[SourceGroup, ...]
    updated_relation: str

    def __post_init__(self) -> None:
        if not self.groups:
            raise EvaluationError("maintenance plan needs at least one source")
        if self.updated_relation not in self.groups[0].relations:
            raise EvaluationError(
                f"updated relation {self.updated_relation!r} must live at "
                f"the first source {self.groups[0].source!r}"
            )
        seen: set[str] = set()
        for group in self.groups:
            for name in group.relations:
                if name in seen:
                    raise EvaluationError(
                        f"relation {name!r} appears twice in the plan"
                    )
                seen.add(name)

    @property
    def source_count(self) -> int:
        """``m``: number of sources involved in the view."""
        return len(self.groups)

    @property
    def relation_count(self) -> int:
        """``n``: total relations referenced (including the updated one)."""
        return sum(len(group.relations) for group in self.groups)

    @property
    def first_source_other_relations(self) -> tuple[str, ...]:
        """``n_1``'s relations: first-source relations besides the updated."""
        return tuple(
            name
            for name in self.groups[0].relations
            if name != self.updated_relation
        )

    def joined_relations(self) -> tuple[str, ...]:
        """All relations joined with the delta, in Algorithm 1 order."""
        ordered = list(self.first_source_other_relations)
        for group in self.groups[1:]:
            ordered.extend(group.relations)
        return tuple(ordered)

    def queried_sources(self) -> tuple[SourceGroup, ...]:
        """Sources that receive a single-site query.

        The updating source is skipped when it hosts nothing besides the
        updated relation (footnote 12).
        """
        groups = list(self.groups)
        if not self.first_source_other_relations:
            groups = groups[1:]
        return tuple(groups)


def plan_for_view(
    view: ViewDefinition,
    owners: dict[str, str],
    updated_relation: str | None = None,
) -> MaintenancePlan:
    """Build the itinerary for ``view`` from a relation -> source map.

    Sources are visited in first-appearance order of the view's FROM list,
    rotated so the updating source comes first.  ``updated_relation``
    defaults to the first relation of the view.
    """
    if updated_relation is None:
        updated_relation = view.relation_names[0]
    if updated_relation not in view.relation_names:
        raise EvaluationError(
            f"updated relation {updated_relation!r} is not referenced by "
            f"view {view.name!r}"
        )
    by_source: dict[str, list[str]] = {}
    for name in view.relation_names:
        try:
            source = owners[name]
        except KeyError:
            raise EvaluationError(
                f"no owning source known for relation {name!r}"
            ) from None
        by_source.setdefault(source, []).append(name)

    ordered_sources = list(by_source)
    updating_source = owners[updated_relation]
    ordered_sources.remove(updating_source)
    ordered_sources.insert(0, updating_source)

    # The updated relation leads its group (it is R_{1,0}).
    first_relations = by_source[updating_source]
    first_relations.remove(updated_relation)
    first_relations.insert(0, updated_relation)

    groups = tuple(
        SourceGroup(source, tuple(by_source[source]))
        for source in ordered_sources
    )
    return MaintenancePlan(groups, updated_relation)


# ----------------------------------------------------------------------
# CF_M — messages exchanged (Sec. 6.2)
# ----------------------------------------------------------------------
def cf_messages(plan: MaintenancePlan) -> int:
    """The Sec. 6.2 formula: query/response round trips, in [0, 2m]."""
    m = plan.source_count
    n1 = len(plan.first_source_other_relations)
    if m == 1 and n1 == 0:
        return 0
    if m == 1:
        return 2
    if n1 == 0:
        return 2 * (m - 1)
    return 2 * m


def cf_messages_counted(plan: MaintenancePlan) -> int:
    """The experiment-table convention: notification + round trips.

    Equals ``1 + 2 * #queried sources``; reproduces Tables 4 and 6.
    """
    return 1 + 2 * len(plan.queried_sources())


# ----------------------------------------------------------------------
# CF_T — bytes transferred (Eq. 21)
# ----------------------------------------------------------------------
def cf_bytes(plan: MaintenancePlan, statistics: SpaceStatistics) -> float:
    """Eq. 21, evaluated iteratively over the itinerary.

    The delta starts as the single updated tuple (cardinality 1, width
    ``s_{R_{1,0}}``).  Each queried source receives the delta (in-bytes),
    joins its local relations — multiplying the expected cardinality by
    ``js * |R| * sigma_R`` per relation (footnote 15's per-relation local
    selectivity) and widening each tuple by the relation's width — and
    ships the result back (out-bytes).  The initial update notification
    also counts (first term of Eq. 21).
    """
    js = statistics.join_selectivity
    delta_cardinality = 1.0
    delta_width = float(statistics.tuple_size(plan.updated_relation))
    total = delta_cardinality * delta_width  # update notification

    for index, group in enumerate(plan.groups):
        local = (
            plan.first_source_other_relations
            if index == 0
            else group.relations
        )
        if not local:
            continue  # no query to the updating source (footnote 12)
        total += delta_cardinality * delta_width  # delta shipped to IS_i
        for name in local:
            delta_cardinality *= (
                js
                * statistics.cardinality(name)
                * statistics.selectivity(name)
            )
            delta_width += statistics.tuple_size(name)
        total += delta_cardinality * delta_width  # result shipped back
    return total


def cf_bytes_uniform(
    m: int,
    relations_per_source: Sequence[int],
    statistics: SpaceStatistics,
) -> float:
    """Eq. 22 — the closed form under uniform statistics.

    ``relations_per_source[i]`` is ``n_i``: relations at source ``i+1``
    *excluding* the updated relation for the first source.

    Two reading notes against the paper's text:

    * Eq. 22 prints the cumulative selectivity as ``sigma^j`` (per source);
      the experiment numbers (Tables 4/6) require ``sigma^{n_R(j)}`` (per
      relation, footnote 15), which is what both this closed form and the
      iterative :func:`cf_bytes` use.
    * Eq. 21/22 always include the ``R_in,IS_1`` round trip; footnote 12
      (and the experiment numbers) skip the query to the updating source
      when it hosts nothing else.  This closed form follows Eq. 22
      literally, so it exceeds :func:`cf_bytes` by ``2s`` exactly when
      ``n_1 = 0``; the two agree whenever ``n_1 > 0``.
    """
    if len(relations_per_source) != m:
        raise EvaluationError("need one relation count per source")
    s = float(statistics.tuple_size(""))
    js = statistics.join_selectivity
    sigma = statistics.selectivity("")
    r = float(statistics.cardinality(""))

    def n_r(k: int) -> int:
        return sum(relations_per_source[:k])

    total = 2.0 * s
    for j in range(1, m):
        factor = (sigma**n_r(j)) * ((r * js) ** n_r(j)) * s * (1 + n_r(j))
        total += 2.0 * factor
    total += (
        (sigma ** n_r(m)) * ((r * js) ** n_r(m)) * s * (1 + n_r(m))
    )
    return total


# ----------------------------------------------------------------------
# CF_IO — local I/O operations (Appendix A)
# ----------------------------------------------------------------------
def full_scan_ios(relation: str, statistics: SpaceStatistics) -> int:
    """Eq. 32: blocks needed to read the whole relation."""
    return math.ceil(
        statistics.cardinality(relation) / statistics.blocking_factor
    )


def cf_io(
    plan: MaintenancePlan,
    statistics: SpaceStatistics,
    upper: bool = False,
) -> float:
    """Eq. 33 summed over the joined relations (Eq. 23).

    For the i-th relation joined, the optimizer either scans it fully
    (Eq. 32) or probes the index once per delta tuple, fetching
    ``ceil(js*|R_i| / bfr)`` blocks per probe.  The delta cardinality
    before the i-th join is ``js^(i-1) * prod_{j<i} |R_j|`` (no local
    selectivities — Eq. 33 bounds the I/O before selections apply).  The
    default is the lower bound of Eq. 33 (clustered index), which is the
    estimate the paper's experiment tables use; ``upper=True`` gives the
    non-clustered bound.
    """
    js = statistics.join_selectivity
    bfr = statistics.blocking_factor
    delta_cardinality = 1.0
    total = 0.0
    for name in plan.joined_relations():
        scan = full_scan_ios(name, statistics)
        if upper:
            probe = delta_cardinality * js * statistics.cardinality(name)
        else:
            probe = delta_cardinality * math.ceil(
                js * statistics.cardinality(name) / bfr
            )
        total += min(scan, probe)
        delta_cardinality *= js * statistics.cardinality(name)
    return total


# ----------------------------------------------------------------------
# Total cost (Eq. 24) and normalization (Eq. 25)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class CostAssessment:
    """The three factors plus the Eq. 24 total for one update (or one
    workload period, when multiplied out by a workload model)."""

    cf_m: float
    cf_t: float
    cf_io: float
    total: float

    def scaled(self, factor: float) -> "CostAssessment":
        return CostAssessment(
            self.cf_m * factor,
            self.cf_t * factor,
            self.cf_io * factor,
            self.total * factor,
        )

    def plus(self, other: "CostAssessment") -> "CostAssessment":
        return CostAssessment(
            self.cf_m + other.cf_m,
            self.cf_t + other.cf_t,
            self.cf_io + other.cf_io,
            self.total + other.total,
        )

    def __str__(self) -> str:
        return (
            f"CF_M={self.cf_m:.1f} CF_T={self.cf_t:.1f} "
            f"CF_IO={self.cf_io:.1f} total={self.total:.1f}"
        )


ZERO_COST = CostAssessment(0.0, 0.0, 0.0, 0.0)


def assess_cost(
    plan: MaintenancePlan,
    statistics: SpaceStatistics,
    params: TradeoffParameters,
    counted_messages: bool = True,
) -> CostAssessment:
    """All cost factors for a single update under ``plan`` (Eq. 24)."""
    messages = (
        cf_messages_counted(plan) if counted_messages else cf_messages(plan)
    )
    bytes_transferred = cf_bytes(plan, statistics)
    ios = cf_io(plan, statistics)
    total = (
        messages * params.cost_m
        + bytes_transferred * params.cost_t
        + ios * params.cost_io
    )
    return CostAssessment(float(messages), bytes_transferred, ios, total)


def normalize_costs(totals: Iterable[float]) -> list[float]:
    """Eq. 25: min-max normalize a candidate set's total costs to [0,1].

    A degenerate set (all equal, or a single candidate) normalizes to all
    zeros — the cheapest-possible reading, matching the paper's convention
    that the minimum-cost rewriting scores 0.
    """
    values = list(totals)
    if not values:
        return []
    low, high = min(values), max(values)
    if high == low:
        return [0.0 for _ in values]
    return [(value - low) / (high - low) for value in values]
