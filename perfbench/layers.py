"""Which ``repro`` entry points the traced run wraps, and the per-layer
metrics it derives from their spans and from the systems' own counters.

Span names follow ``<module>.<entry>``; metric names add the statistic
(``calls``, ``s`` = total span time, ``self_s`` = span time minus child
spans).  The traced run traces exactly one episode, set-up included,
so counts repeat exactly for a seed.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Tracer, layer_table


def _rows_out(tracer: Tracer, state, args, kwargs, result) -> None:
    tracer.count("esql.evaluator.evaluate_view.rows_out", len(result))


def _updates_in(tracer: Tracer, state, args, kwargs, result) -> None:
    updates = kwargs["updates"] if "updates" in kwargs else args[3]
    tracer.count("maintenance.updates", len(updates))


def _copies_before(args, kwargs) -> int:
    return args[0].copies


def _rows_copied(tracer: Tracer, copies_before, args, kwargs, result) -> None:
    if args[0].copies > copies_before:
        tracer.count("relational.versioning.rows_copied", len(result))


#: ``(span name, module, attribute path, hook)``.
TARGETS = [
    ("misd.mkb.sync_pc_constraints", "repro.misd.mkb",
     "MetaKnowledgeBase.sync_pc_constraints", None),
    ("qc.model.quality_of", "repro.qc.model", "QCModel.quality_of", None),
    ("qc.model.cost_of", "repro.qc.model", "QCModel.cost_of", None),
    ("qc.model.qc_upper_bound", "repro.qc.model", "QCModel.qc_upper_bound", None),
    ("sync.pipeline.search", "repro.sync.pipeline",
     "RewritingSearchPipeline.search", None),
    ("sync.scheduler.build_work_plan", "repro.sync.scheduler",
     "build_work_plan", None),
    ("sync.scheduler.execute", "repro.sync.scheduler",
     "SynchronizationScheduler.execute", None),
    ("sync.vkb.views_referencing", "repro.sync.vkb",
     "ViewKnowledgeBase.views_referencing", None),
    ("eve.define_view", "repro.core.eve", "EVESystem.define_view", None),
    ("eve.apply_changes", "repro.core.eve", "EVESystem.apply_changes", None),
    ("eve.apply_updates", "repro.core.eve", "EVESystem.apply_updates", None),
    ("esql.evaluator.evaluate_view", "repro.esql.evaluator", "evaluate_view",
     (None, _rows_out)),
    ("esql.explain.build_plan", "repro.esql.explain", "build_plan", None),
    ("esql.explain.explain_maintenance", "repro.esql.explain",
     "explain_maintenance", None),
    ("maintenance.simulator.maintain_batch", "repro.maintenance.simulator",
     "ViewMaintainer.maintain_batch", (None, _updates_in)),
    ("space.apply_update", "repro.space.space", "InformationSpace.insert", None),
    ("space.apply_update", "repro.space.space", "InformationSpace.delete", None),
    ("space.source.answer_single_site_batch", "repro.space.source",
     "InformationSource.answer_single_site_batch", None),
    ("relational.versioning.mutable", "repro.relational.versioning",
     "ExtentStore.mutable", (_copies_before, _rows_copied)),
    ("relational.versioning.snapshot", "repro.relational.versioning",
     "ExtentStore.snapshot", None),
] + [
    ("workloadgen.scenarios.build", "repro.workloadgen.scenarios", builder, None)
    for builder in (
        "build_scheduler_stress_scenario",
        "build_maintenance_storm_scenario",
        "build_evolution_storm_scenario",
    )
]

def system_counters(eve) -> dict[str, float]:
    """Counts the program keeps itself, read once an episode is over."""
    counters: dict[str, float] = defaultdict(float)
    cache = eve.assessment_cache
    counters["cache_hits"] = cache.hits
    counters["cache_lookups"] = cache.hits + cache.misses
    for result in eve.synchronization_log:
        if result.counters is not None:
            counters["generated"] += result.counters.generated
            counters["assessed"] += result.counters.assessed
    cf = eve.maintainer.counters
    counters["maintenance.cf.messages"] = cf.messages
    counters["maintenance.cf.bytes"] = cf.bytes_transferred
    counters["maintenance.cf.io"] = cf.io_operations
    store = eve._extents
    counters["relational.versioning.copies"] = store.copies
    counters["relational.versioning.publishes"] = store.publishes
    return counters


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    tracer: Tracer,
    counters: dict[str, float],
    traced_wall_s: float,
    untraced_wall_s: float,
    names: list[str],
) -> dict[str, float]:
    """The per-layer metrics ``names`` (as BENCHMARK.json lists them) of
    one traced episode.

    A name ``<span>.calls``, ``<span>.s`` or ``<span>.self_s`` reads the
    span table (0 when the episode never entered that span); the other
    names are computed below.  ``traced_wall_s`` is the traced set-up +
    episode time and ``untraced_wall_s`` the same for an untraced
    episode.
    """
    table = layer_table(tracer)
    spans = {target[0] for target in TARGETS}
    values: dict[str, float] = {}
    for metric in names:
        span, _, stat = metric.rpartition(".")
        if span in spans and stat in ("calls", "s", "self_s"):
            values[metric] = table.get(span, {}).get(stat, 0)
    for metric in (
        "maintenance.cf.messages",
        "maintenance.cf.bytes",
        "maintenance.cf.io",
        "relational.versioning.copies",
        "relational.versioning.publishes",
    ):
        values[metric] = counters[metric]
    for metric in (
        "esql.evaluator.evaluate_view.rows_out",
        "relational.versioning.rows_copied",
    ):
        values[metric] = tracer.counts[metric]
    values["qc.assessment_cache.hit_ratio"] = _ratio(
        counters["cache_hits"], counters["cache_lookups"]
    )
    values["sync.pipeline.assessed_per_generated"] = _ratio(
        counters["assessed"], counters["generated"]
    )
    values["maintenance.updates_per_flush"] = _ratio(
        tracer.counts["maintenance.updates"],
        table.get("maintenance.simulator.maintain_batch", {}).get("calls", 0),
    )
    values["serving.read.pin_s"] = table.get("serving.read.pin", {}).get("s", 0.0)
    values["serving.read.scan_s"] = table.get("serving.read.scan", {}).get("s", 0.0)
    values["trace.wall_s"] = traced_wall_s
    values["trace.untraced_wall_s"] = untraced_wall_s
    values["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    requests = [table.get(name, {}) for name in ("bench.write", "bench.read")]
    values["trace.unattributed_share"] = _ratio(
        sum(row.get("self_s", 0.0) for row in requests),
        sum(row.get("s", 0.0) for row in requests),
    )
    values["trace.spans"] = len(tracer.names)
    return {metric: values[metric] for metric in names}
