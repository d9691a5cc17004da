"""The QC-Model: ranking legal rewritings by efficiency (Secs. 4, 6.7).

Ties the quality side (Sec. 5) and the cost side (Sec. 6) together:

    QC(Vi) = 1 - (rho_quality * DD(Vi) + rho_cost * COST*(Vi))     (Eq. 26)

where ``DD`` is the total degree of divergence (Eq. 20) and ``COST*`` the
min-max-normalized workload cost (Eq. 25).  The model evaluates a whole
candidate set at once — normalization is relative to the set — and returns
evaluations sorted best-first, establishing the linear ranking the paper
proposes for otherwise incomparable rewritings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.errors import EvaluationError, UnknownRelationError
from repro.misd.mkb import MetaKnowledgeBase
from repro.misd.statistics import SpaceStatistics
from repro.qc.assessment_cache import AssessmentCache
from repro.qc.cost import (
    CostAssessment,
    MaintenancePlan,
    assess_cost,
    full_scan_ios,
    normalize_costs,
    plan_for_view,
)
from repro.qc.params import TradeoffParameters
from repro.qc.quality import (
    QualityAssessment,
    assess_quality,
    assess_quality_estimated,
    dd_attr,
    exact_extent_numbers,
)
from repro.qc.workload import WorkloadSpec, aggregate_cost
from repro.relational.relation import Relation
from repro.sync.rewriting import ExtentRelationship, Rewriting


@dataclass(frozen=True, slots=True)
class Evaluation:
    """One rewriting's complete QC-Model assessment."""

    rewriting: Rewriting
    quality: QualityAssessment
    cost: CostAssessment
    normalized_cost: float
    qc: float
    rank: int = 0

    @property
    def name(self) -> str:
        return self.rewriting.view.name

    def __str__(self) -> str:
        return (
            f"#{self.rank} {self.name}: QC={self.qc:.4f} "
            f"(DD={self.quality.dd:.4f}, COST*={self.normalized_cost:.4f}, "
            f"cost={self.cost.total:.1f})"
        )


def qc_score(
    dd: float, normalized_cost: float, params: TradeoffParameters
) -> float:
    """Eq. 26."""
    return 1.0 - (params.rho_quality * dd + params.rho_cost * normalized_cost)


class QCModel:
    """Evaluator/ranker for candidate rewriting sets.

    Quality uses the estimation path by default (statistics + PC-constraint
    overlaps, as in the paper); pass materialized extents to
    :meth:`evaluate_exact` for the validation path.  Costs are priced per
    update and aggregated by the given workload (a single update when no
    workload is supplied, as in Experiment 4).
    """

    def __init__(
        self,
        mkb: MetaKnowledgeBase,
        params: TradeoffParameters | None = None,
        statistics: SpaceStatistics | None = None,
        cache: AssessmentCache | None = None,
    ) -> None:
        self._mkb = mkb
        self.params = params if params is not None else TradeoffParameters()
        self._statistics = (
            statistics if statistics is not None else mkb.statistics
        )
        # Optional memo for quality/cost assessments.  The owner (usually
        # EVESystem) must invalidate it on schema/constraint changes;
        # statistics changes are covered by the statistics fingerprint.
        self.cache = cache

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _plan(
        self,
        rewriting: Rewriting,
        updated_relation: str | None,
    ) -> MaintenancePlan:
        owners = {}
        for name in rewriting.view.relation_names:
            try:
                owners[name] = self._mkb.owner(name)
            except UnknownRelationError:
                raise EvaluationError(
                    f"cannot price rewriting {rewriting.view.name!r}: "
                    f"no owner known for relation {name!r}"
                ) from None
        return plan_for_view(rewriting.view, owners, updated_relation)

    def cost_of(
        self,
        rewriting: Rewriting,
        workload: WorkloadSpec | None = None,
        updated_relation: str | None = None,
    ) -> CostAssessment:
        """Workload-aggregated (or single-update) cost of one rewriting."""
        if self.cache is not None:
            return self.cache.cost(
                rewriting,
                workload,
                updated_relation,
                self._knowledge_fingerprint(),
                lambda: self._cost_of(rewriting, workload, updated_relation),
            )
        return self._cost_of(rewriting, workload, updated_relation)

    def _knowledge_fingerprint(self):
        """Everything an assessment reads besides the rewriting itself:
        statistics, MKB constraints/owners, and the tradeoff weights."""
        return (
            self._statistics.fingerprint(),
            getattr(self._mkb, "version", 0),
            self.params,
        )

    def _cost_of(
        self,
        rewriting: Rewriting,
        workload: WorkloadSpec | None,
        updated_relation: str | None,
    ) -> CostAssessment:
        plan = self._plan(rewriting, updated_relation)
        single = lambda p: assess_cost(  # noqa: E731 - tiny local closure
            p, self._statistics, self.params
        )
        if workload is None:
            return single(plan)
        return aggregate_cost(
            workload, plan, self._statistics, single
        )

    def quality_of(self, rewriting: Rewriting) -> QualityAssessment:
        """Full (memoized) quality assessment of one rewriting.

        The public entry point the streaming pipeline uses to assess a
        single candidate: identical floats to what :meth:`evaluate`
        computes for the same rewriting, through the same cache.
        """
        return self._quality_of(rewriting)

    def _quality_of(self, rewriting: Rewriting) -> QualityAssessment:
        if self.cache is not None:
            return self.cache.quality(
                rewriting,
                self._knowledge_fingerprint(),
                lambda: assess_quality_estimated(
                    rewriting, self.params, self._mkb, self._statistics
                ),
            )
        return assess_quality_estimated(
            rewriting, self.params, self._mkb, self._statistics
        )

    # ------------------------------------------------------------------
    # Incremental ranking: cheap bounds for stop-early search
    # ------------------------------------------------------------------
    def quality_floor(self, rewriting: Rewriting) -> float:
        """A cheap lower bound on ``DD(Vi)`` (Eq. 20).

        Only the interface term is computed: ``DD >= rho_attr * DD_attr``
        because the extent divergence is non-negative.  ``DD_attr`` needs
        nothing but the two interfaces and the original's flags — no
        extent estimation, no constraint overlap — so a search can bound
        a candidate's best-case quality before paying for the full
        assessment.  The inequality holds under IEEE-754 rounding: the
        floor is the exact first summand of the value
        :func:`~repro.qc.quality.assess_quality` computes, and adding
        the non-negative extent term can only round to something >= it.
        """
        return self.params.rho_attr * dd_attr(
            rewriting.original, rewriting.view, self.params
        )

    def qc_upper_bound(
        self, rewriting: Rewriting, normalized_cost: float = 0.0
    ) -> float:
        """An upper bound on the QC-Value (Eq. 26) of ``rewriting``.

        Quality is bounded by attribute preservation
        (:meth:`quality_floor`); the cost term takes whatever lower
        bound on the *normalized* (Eq. 25, in ``[0, 1]``) cost the
        caller has — ``0.0`` (the min-cost candidate's score) when
        nothing is known yet, the exact normalized cost once the
        candidate set's totals are in.  Do **not** pass a raw Eq. 24
        total (e.g. :meth:`cost_lower_bound`) here; normalize it
        against the candidate set's min/max first.  With the exact
        normalized cost the bound is monotone under IEEE-754, so
        ``qc_upper_bound(r, norm) >= qc`` holds float-for-float — the
        guarantee the pruned search policy relies on to pick the
        identical winner as the exhaustive one.
        """
        return qc_score(self.quality_floor(rewriting), normalized_cost, self.params)

    def cost_lower_bound(
        self,
        rewriting: Rewriting,
        workload: WorkloadSpec | None = None,
        updated_relation: str | None = None,
    ) -> float:
        """A lower bound on the Eq. 24 total under the best-case plan.

        The bound prices the maintenance itinerary as if every relation
        of the rewriting were co-hosted with the updated one (one
        notification plus at most one query round trip — the fewest
        messages and transfers any ownership layout allows) and charges
        each joined relation the cheaper of a full scan and an index
        probe fed by the smallest delta any visiting order could
        produce.  It needs no ownership lookup, so it is priceable even
        before :func:`~repro.qc.cost.plan_for_view` could be built.

        It returns a raw Eq. 24 total, **not** the Eq. 25 normalized
        score :meth:`qc_upper_bound` consumes — the streaming pipeline
        prices every legal candidate exactly (normalization needs the
        set's totals anyway) and does not call this.  It is the standing
        bound for callers that must rank *before* a candidate set
        exists: the cross-view batch scheduler
        (:class:`~repro.sync.scheduler.SynchronizationScheduler`)
        consumes it through :meth:`salvage_lower_bound` to synchronize
        the cheapest-to-salvage views first when a deadline looms.
        """
        names = rewriting.view.relation_names
        if workload is None:
            updated = (
                updated_relation if updated_relation is not None else names[0]
            )
            if updated not in names:
                raise EvaluationError(
                    f"updated relation {updated!r} is not referenced by "
                    f"view {rewriting.view.name!r}"
                )
            return self._single_update_lower_bound(names, updated)
        plan = self._plan(rewriting, updated_relation)
        total = 0.0
        for relation, count in workload.update_counts(
            plan, self._statistics
        ).items():
            if count > 0:
                total += count * self._single_update_lower_bound(
                    names, relation
                )
        return total

    def salvage_lower_bound(
        self,
        view,
        updated_relation: str | None = None,
        workload: WorkloadSpec | None = None,
    ) -> float:
        """:meth:`cost_lower_bound` of keeping ``view`` as it stands.

        Wraps the view in its identity rewriting, so the value bounds
        the cost of every rewriting that preserves (or extends) the
        current relation set — rename and replacement moves.  It is
        *not* a bound over drop rewritings, which shrink the relation
        set and can maintain for less; as the batch scheduler's
        cheapest-to-salvage-first priority that asymmetry is
        intentional — the priority prices salvaging the view's current
        information content, not discarding it — and scheduling order
        never changes committed outcomes anyway (only which views make
        a deadline).
        """
        identity = Rewriting(view, view, (), ExtentRelationship.EQUAL)
        return self.cost_lower_bound(identity, workload, updated_relation)

    def _single_update_lower_bound(
        self, names: Sequence[str], updated: str
    ) -> float:
        stats = self._statistics
        params = self.params
        others = [name for name in names if name != updated]
        # CF_M: a single-relation view sends only the update notification;
        # anything else needs at least one query/response round trip.
        messages = 1.0 if not others else 3.0
        # CF_T: the single-site itinerary — notification, delta out, final
        # result back — is what every multi-site layout decomposes into
        # plus extra intermediate shipments.
        width = float(stats.tuple_size(updated))
        transferred = width
        if others:
            cardinality = 1.0
            for name in others:
                cardinality *= (
                    stats.join_selectivity
                    * stats.cardinality(name)
                    * stats.selectivity(name)
                )
                width += stats.tuple_size(name)
            transferred += float(stats.tuple_size(updated)) + cardinality * width
        # CF_IO: per joined relation, min(scan, probe) with the probe fed
        # by the smallest delta any visiting order could produce (every
        # shrinking join applied first, no growing join applied at all).
        js = stats.join_selectivity
        growth = {name: js * stats.cardinality(name) for name in others}
        ios = 0.0
        for name in others:
            delta = 1.0
            for other in others:
                if other != name:
                    delta *= min(1.0, growth[other])
            probe = delta * math.ceil(
                js * stats.cardinality(name) / stats.blocking_factor
            )
            ios += min(float(full_scan_ios(name, stats)), probe)
        return (
            messages * params.cost_m
            + transferred * params.cost_t
            + ios * params.cost_io
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        rewritings: Sequence[Rewriting],
        workload: WorkloadSpec | None = None,
        updated_relation: str | None = None,
    ) -> list[Evaluation]:
        """Rank a candidate set, estimation path (the paper's setting)."""
        qualities = [self._quality_of(rewriting) for rewriting in rewritings]
        return self._finish(rewritings, qualities, workload, updated_relation)

    def evaluate_exact(
        self,
        rewritings: Sequence[Rewriting],
        original_relations: Mapping[str, Relation],
        current_relations: Mapping[str, Relation],
        workload: WorkloadSpec | None = None,
        updated_relation: str | None = None,
    ) -> list[Evaluation]:
        """Rank with extents materialized and counted (validation path)."""
        qualities = []
        for rewriting in rewritings:
            numbers = exact_extent_numbers(
                rewriting, original_relations, current_relations
            )
            qualities.append(
                assess_quality(rewriting, self.params, numbers)
            )
        return self._finish(rewritings, qualities, workload, updated_relation)

    def _finish(
        self,
        rewritings: Sequence[Rewriting],
        qualities: list[QualityAssessment],
        workload: WorkloadSpec | None,
        updated_relation: str | None,
    ) -> list[Evaluation]:
        costs = [
            self.cost_of(rewriting, workload, updated_relation)
            for rewriting in rewritings
        ]
        normalized = normalize_costs(cost.total for cost in costs)
        evaluations = [
            Evaluation(
                rewriting,
                quality,
                cost,
                norm,
                qc_score(quality.dd, norm, self.params),
            )
            for rewriting, quality, cost, norm in zip(
                rewritings, qualities, costs, normalized
            )
        ]
        evaluations.sort(key=lambda e: e.qc, reverse=True)
        return [
            Evaluation(
                e.rewriting, e.quality, e.cost, e.normalized_cost, e.qc, rank
            )
            for rank, e in enumerate(evaluations, start=1)
        ]

    def best(
        self,
        rewritings: Sequence[Rewriting],
        workload: WorkloadSpec | None = None,
        updated_relation: str | None = None,
    ) -> Evaluation:
        """The top-ranked rewriting (what EVE would recommend)."""
        evaluations = self.evaluate(rewritings, workload, updated_relation)
        if not evaluations:
            raise EvaluationError("no rewritings to evaluate")
        return evaluations[0]
