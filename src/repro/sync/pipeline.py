"""The streaming rewriting-search pipeline (synchronize → rank, staged).

The eager control plane materialized the full candidate list, scored
every candidate with the complete QC-Model, and only then looked at the
ranking.  This module restructures that loop into staged streams:

    generate → VE filter → (dominated expansion) → dedup → legality
             → cost pricing → upper-bound-pruned quality assessment

Candidate *generation* is lazy (:mod:`repro.sync.generators`), so
illegal and duplicate candidates are discarded before the next one is
even built.  *Assessment* is incremental: every legal candidate's
maintenance cost is priced (cheap arithmetic, and Eq. 25's min-max
normalization needs the whole set's totals anyway), but the expensive
quality estimation only runs when the candidate's QC-Value *upper
bound* (:meth:`~repro.qc.model.QCModel.qc_upper_bound` — quality
bounded by attribute preservation, cost exact) still beats the best
fully-assessed QC-Value.  Because the bound is monotone under IEEE-754
and candidates are visited in generation order, the ``pruned`` policy
provably commits the *identical* winner (same floats) as ``exhaustive``
— the paper's ranking semantics at a fraction of the assessments.

Four :class:`SearchPolicy` flavours:

* ``exhaustive`` — assess everything; byte-identical to the eager path.
* ``pruned`` (default) — stop-early upper-bound search, same winner.
* ``top_k(k)`` — pruned against the k-th best; returns k evaluations,
  same winner.
* ``first_legal`` — commit the first legal rewriting discovered: the
  original EVE prototype's behaviour, kept as the quality baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.errors import SynchronizationError
from repro.esql.ast import ViewDefinition
from repro.space.changes import SchemaChange
from repro.sync.legality import check_legality
from repro.sync.rewriting import ExtentRelationship, Rewriting
from repro.sync.synchronizer import ViewSynchronizer

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.config import SearchConfig
    from repro.qc.cost import CostAssessment
    from repro.qc.model import Evaluation, QCModel
    from repro.qc.workload import WorkloadSpec


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchPolicy:
    """How much of the candidate stream the search is willing to assess."""

    kind: str
    k: int = 0

    _KINDS = ("exhaustive", "pruned", "top_k", "first_legal")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise SynchronizationError(
                f"unknown search policy {self.kind!r}; "
                f"expected one of {', '.join(self._KINDS)}"
            )
        if self.kind == "top_k" and self.k < 1:
            raise SynchronizationError("top_k policy needs k >= 1")

    # -- constructors ---------------------------------------------------
    @classmethod
    def exhaustive(cls) -> "SearchPolicy":
        return cls("exhaustive")

    @classmethod
    def pruned(cls) -> "SearchPolicy":
        return cls("pruned")

    @classmethod
    def top_k(cls, k: int) -> "SearchPolicy":
        return cls("top_k", k)

    @classmethod
    def first_legal(cls) -> "SearchPolicy":
        return cls("first_legal")

    @classmethod
    def of(cls, spec: "SearchPolicy | str") -> "SearchPolicy":
        """Coerce a policy or a name like ``"pruned"`` / ``"top_k(3)"``."""
        if isinstance(spec, cls):
            return spec
        name = spec.strip()
        if name.startswith("top_k(") and name.endswith(")"):
            try:
                k = int(name[len("top_k(") : -1])
            except ValueError:
                raise SynchronizationError(
                    f"malformed top_k policy {name!r}; expected top_k(<int>)"
                ) from None
            return cls.top_k(k)
        return cls(name)

    def __str__(self) -> str:
        return f"top_k({self.k})" if self.kind == "top_k" else self.kind


# ----------------------------------------------------------------------
# Per-stage accounting
# ----------------------------------------------------------------------
@dataclass
class StageCounters:
    """How many candidates each pipeline stage saw, kept, or skipped."""

    generated: int = 0      #: candidates the move families produced
    dominated: int = 0      #: dominated variants added to the stream
    ve_rejected: int = 0    #: dropped by the view-extent (VE) filter
    duplicates: int = 0     #: canonical duplicates discarded in-stream
    illegal: int = 0        #: rejected by the independent legality audit
    legal: int = 0          #: survivors entering the ranking stage
    costed: int = 0         #: maintenance-cost pricings performed
    assessed: int = 0       #: full quality assessments performed
    pruned: int = 0         #: assessments skipped via the QC upper bound
    seconds: float = 0.0    #: wall-clock spent in the search (per view)
    degraded: int = 0       #: searches demoted to ``first_legal`` by a
                            #: scheduler deadline (see sync.scheduler)
    deferred: int = 0       #: synchronizations parked past the budget

    def merged(self, other: "StageCounters") -> "StageCounters":
        return StageCounters(
            *(
                getattr(self, f.name) + getattr(other, f.name)
                for f in self.__dataclass_fields__.values()
            )
        )

    def __str__(self) -> str:
        text = (
            f"generated={self.generated} dominated={self.dominated} "
            f"ve_rejected={self.ve_rejected} duplicates={self.duplicates} "
            f"illegal={self.illegal} legal={self.legal} "
            f"costed={self.costed} assessed={self.assessed} "
            f"pruned={self.pruned} seconds={self.seconds:.4f}"
        )
        if self.degraded or self.deferred:
            text += f" degraded={self.degraded} deferred={self.deferred}"
        return text


@dataclass
class PipelineResult:
    """Outcome of one streamed rewriting search for one view."""

    view_name: str
    change: SchemaChange
    policy: SearchPolicy
    evaluations: "list[Evaluation]"
    chosen: "Evaluation | None"
    counters: StageCounters = field(default_factory=StageCounters)

    @property
    def survived(self) -> bool:
        return self.chosen is not None


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------
class RewritingSearchPipeline:
    """Staged, streaming synchronize-and-rank over pluggable generators.

    The pipeline's default policy comes from its
    :class:`~repro.config.SearchConfig` slice (``config=``).  Per-call
    ``policy`` overrides on :meth:`search` are first-class (the
    scheduler's degradation path relies on them).
    """

    def __init__(
        self,
        synchronizer: ViewSynchronizer,
        qc_model: "QCModel",
        config: "SearchConfig | None" = None,
    ) -> None:
        self.synchronizer = synchronizer
        self.qc_model = qc_model
        if config is not None:
            self.policy = config.search_policy()
        else:
            self.policy = SearchPolicy.pruned()

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def _stream(
        self,
        resolved: ViewDefinition,
        change: SchemaChange,
        counters: StageCounters,
        include_dominated: bool,
    ) -> Iterator[Rewriting]:
        """The filter half: generate → VE → (dominated) → dedup → legality."""
        if not self.synchronizer.is_affected(resolved, change):
            candidates: Iterator[Rewriting] = iter(
                [Rewriting(resolved, resolved, (), ExtentRelationship.EQUAL)]
            )
        else:
            candidates = self.synchronizer.generate_candidates(
                resolved, change
            )
        stream = self._ve_stage(candidates, resolved, counters)
        if include_dominated:
            stream = self._dominated_stage(stream, counters)
        stream = self._dedup_stage(stream, counters)
        return self._legality_stage(stream, counters)

    def _ve_stage(self, candidates, resolved, counters):
        extent_parameter = resolved.extent_parameter
        for rewriting in candidates:
            counters.generated += 1
            if rewriting.extent_relationship.satisfies(extent_parameter):
                yield rewriting
            else:
                counters.ve_rejected += 1

    def _dominated_stage(self, stream, counters):
        seen = 0
        for rewriting in self.synchronizer.expand_dominated(stream):
            seen += 1
            if seen > counters.generated - counters.ve_rejected:
                counters.dominated += 1
            yield rewriting

    def _dedup_stage(self, stream, counters):
        seen: set[ViewDefinition] = set()
        for rewriting in stream:
            if rewriting.view in seen:
                counters.duplicates += 1
                continue
            seen.add(rewriting.view)
            yield rewriting

    def _legality_stage(self, stream, counters):
        for rewriting in stream:
            if check_legality(rewriting).legal:
                counters.legal += 1
                yield rewriting
            else:
                counters.illegal += 1

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def search(
        self,
        view: ViewDefinition,
        change: SchemaChange,
        workload: "WorkloadSpec | None" = None,
        updated_relation: str | None = None,
        include_dominated: bool = False,
        policy: SearchPolicy | str | None = None,
    ) -> PipelineResult:
        """Stream, filter, and rank the rewritings of ``view`` under
        ``change``; returns the chosen winner plus per-stage counters.

        Under ``exhaustive``, ``pruned``, and ``top_k`` the chosen
        rewriting (and its QC-Value) is identical to the eager
        reference path; ``first_legal`` reproduces the original EVE
        prototype instead.  An empty result (``chosen is None``) means
        the view cannot be salvaged.
        """
        started = perf_counter()
        active = SearchPolicy.of(policy) if policy is not None else self.policy
        counters = StageCounters()
        resolved = self.synchronizer.resolve(view)
        stream = self._stream(resolved, change, counters, include_dominated)

        if active.kind == "first_legal":
            evaluations = self._rank_first_legal(
                stream, workload, updated_relation, counters
            )
        else:
            legal = list(stream)
            if active.kind == "exhaustive":
                counters.costed = counters.assessed = len(legal)
                evaluations = self.qc_model.evaluate(
                    legal, workload, updated_relation
                )
            else:
                evaluations = self._rank_pruned(
                    legal,
                    workload,
                    updated_relation,
                    counters,
                    keep=1 if active.kind == "pruned" else active.k,
                )
                if active.kind == "top_k":
                    evaluations = evaluations[: active.k]
        chosen = evaluations[0] if evaluations else None
        counters.seconds = perf_counter() - started
        return PipelineResult(
            resolved.name, change, active, evaluations, chosen, counters
        )

    # ------------------------------------------------------------------
    # Ranking policies
    # ------------------------------------------------------------------
    def _rank_first_legal(
        self, stream, workload, updated_relation, counters
    ) -> "list[Evaluation]":
        """The old-EVE baseline: take the first legal candidate, stop."""
        first = next(stream, None)
        if first is None:
            return []
        counters.costed = counters.assessed = 1
        return self.qc_model.evaluate([first], workload, updated_relation)

    def _rank_pruned(
        self,
        legal: list[Rewriting],
        workload: "WorkloadSpec | None",
        updated_relation: str | None,
        counters: StageCounters,
        keep: int,
    ) -> "list[Evaluation]":
        """Upper-bound-pruned assessment; same winner as exhaustive.

        Candidates are visited in generation order; a candidate is fully
        assessed only while its QC upper bound (exact normalized cost,
        quality floored at the interface term) can still beat the
        ``keep``-th best assessed QC-Value.  Ties break toward earlier
        candidates — exactly the stable sort of the eager ranking.
        """
        from repro.qc.cost import normalize_costs
        from repro.qc.model import Evaluation, qc_score

        if not legal:
            return []
        model = self.qc_model
        costs: "list[CostAssessment]" = [
            model.cost_of(rewriting, workload, updated_relation)
            for rewriting in legal
        ]
        counters.costed = len(legal)
        normalized = normalize_costs(cost.total for cost in costs)

        assessed: list[tuple] = []
        best_scores: list[float] = []  # descending, at most ``keep`` long
        for rewriting, cost, norm in zip(legal, costs, normalized):
            if len(best_scores) >= keep:
                bound = model.qc_upper_bound(rewriting, norm)
                if bound <= best_scores[keep - 1]:
                    counters.pruned += 1
                    continue
            quality = model.quality_of(rewriting)
            counters.assessed += 1
            qc = qc_score(quality.dd, norm, model.params)
            assessed.append((rewriting, quality, cost, norm, qc))
            best_scores.append(qc)
            best_scores.sort(reverse=True)
            del best_scores[keep:]

        ranked = sorted(assessed, key=lambda entry: entry[4], reverse=True)
        return [
            Evaluation(rewriting, quality, cost, norm, qc, rank)
            for rank, (rewriting, quality, cost, norm, qc) in enumerate(
                ranked, start=1
            )
        ]
