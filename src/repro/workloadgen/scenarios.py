"""Ready-made experiment scenarios matching the paper's Sec. 7 setups.

Each builder returns everything an experiment harness needs: the populated
:class:`~repro.space.space.InformationSpace`, the view(s), and the
statistics configured to the paper's parameter tables.  All generation is
seeded and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.esql import parse_view
from repro.esql.ast import ViewDefinition
from repro.misd.statistics import RelationStatistics, SpaceStatistics
from repro.qc.cost import MaintenancePlan, SourceGroup
from repro.relational.relation import Relation
from repro.space.changes import (
    DeleteRelation,
    RenameAttribute,
    SchemaChange,
)
from repro.space.space import InformationSpace
from repro.space.updates import UpdateKind
from repro.workloadgen.generator import (
    distributions,
    make_schema,
    populate_contained_family,
    populate_relation,
)

#: Table 1 defaults (Experiment 2).
TABLE1 = {
    "n": 6,
    "cardinality": 400,
    "tuple_size": 100,
    "selectivity": 0.5,
    "join_selectivity": 0.005,
    "blocking_factor": 10,
}


# ----------------------------------------------------------------------
# Experiment 1: view survival (Sec. 7.1)
# ----------------------------------------------------------------------
@dataclass
class SurvivalScenario:
    """R(A,B) with replicas S(A,C), T(A,D) of attribute A elsewhere."""

    space: InformationSpace
    view: ViewDefinition


def build_survival_scenario(seed: int = 7) -> SurvivalScenario:
    """Sec. 7.1's setup: V0 over R, PC constraints R.A ⊆ S.A and ⊆ T.A."""
    space = InformationSpace()
    for source, schema, cardinality in [
        ("IS1", make_schema("R", ["A", "B"]), 400),
        ("IS2", make_schema("S", ["A", "C"]), 400),
        ("IS3", make_schema("T", ["A", "D"]), 400),
    ]:
        space.add_source(source)
        space.register_relation(
            source,
            populate_relation(schema, cardinality, seed=seed),
            RelationStatistics(cardinality=cardinality, tuple_size=100),
        )
    space.mkb.add_containment("R", "S", ["A"])
    space.mkb.add_containment("R", "T", ["A"])
    view = parse_view(
        """
        CREATE VIEW V0 (VE = '~') AS
        SELECT R.A (AD = true, AR = true), R.B (AD = true)
        FROM R (RR = true)
        """
    )
    return SurvivalScenario(space, view)


# ----------------------------------------------------------------------
# Experiments 2/3/5: relations spread over m sites (Secs. 7.2/7.3/7.5)
# ----------------------------------------------------------------------
@dataclass
class SiteScenario:
    """One relation distribution of Table 2, ready for cost analysis."""

    distribution: tuple[int, ...]
    plan: MaintenancePlan
    statistics: SpaceStatistics


def site_scenarios(
    sites: int,
    total_relations: int = 6,
    cardinality: int = TABLE1["cardinality"],
    tuple_size: int = TABLE1["tuple_size"],
    selectivity: float = TABLE1["selectivity"],
    join_selectivity: float = TABLE1["join_selectivity"],
    blocking_factor: int = TABLE1["blocking_factor"],
    updated_index: int = 0,
) -> list[SiteScenario]:
    """All Table 2 distributions for ``sites`` sites, as maintenance plans.

    ``updated_index`` selects which relation (global index) receives the
    update; the paper's Experiment 2 initiates updates at the first IS.
    """
    statistics = SpaceStatistics(
        join_selectivity=join_selectivity, blocking_factor=blocking_factor
    )
    names = [f"R{i}" for i in range(total_relations)]
    for name in names:
        statistics.register_simple(name, cardinality, tuple_size, selectivity)

    scenarios = []
    for distribution in distributions(total_relations, sites):
        groups = []
        cursor = 0
        for site, count in enumerate(distribution):
            groups.append(
                SourceGroup(f"IS{site + 1}", tuple(names[cursor : cursor + count]))
            )
            cursor += count
        plan = _rooted_plan(tuple(groups), names[updated_index])
        scenarios.append(SiteScenario(distribution, plan, statistics))
    return scenarios


def _rooted_plan(
    groups: tuple[SourceGroup, ...], updated_relation: str
) -> MaintenancePlan:
    """Rotate ``groups`` so the updating source leads, relation first."""
    index = next(
        i for i, g in enumerate(groups) if updated_relation in g.relations
    )
    reordered = [groups[index], *groups[:index], *groups[index + 1 :]]
    first = reordered[0]
    relations = list(first.relations)
    relations.remove(updated_relation)
    relations.insert(0, updated_relation)
    reordered[0] = SourceGroup(first.source, tuple(relations))
    return MaintenancePlan(tuple(reordered), updated_relation)


# ----------------------------------------------------------------------
# Experiment 4: substituted-relation cardinality (Sec. 7.4)
# ----------------------------------------------------------------------
@dataclass
class CardinalityScenario:
    """Table 3's setup: R2 deleted, S1 ⊆ S2 ⊆ S3 = R2 ⊆ S4 ⊆ S5."""

    space: InformationSpace
    view: ViewDefinition
    original_relations: dict[str, Relation]

    @property
    def substitute_names(self) -> tuple[str, ...]:
        return ("S1", "S2", "S3", "S4", "S5")


#: Cardinalities of Table 3.
TABLE3_CARDINALITIES = {
    "R2": 4000,
    "S1": 2000,
    "S2": 3000,
    "S3": 4000,
    "S4": 5000,
    "S5": 6000,
}


def build_cardinality_scenario(
    seed: int = 11, populate: bool = False
) -> CardinalityScenario:
    """Experiment 4's information space (Table 3 + its PC chain).

    ``populate`` materializes real extents honouring the containment chain
    (needed only by the exact-quality validation path; the analytic path
    runs on statistics alone and is much faster).
    """
    space = InformationSpace()
    space.mkb.statistics.join_selectivity = 0.005
    space.mkb.statistics.blocking_factor = 1  # Table 4 prices I/O per tuple

    attributes = ["A", "B", "C"]
    chain_names = ["S1", "S2", "S3", "S4", "S5"]
    chain_schemas = [make_schema(name, attributes) for name in chain_names]
    chain_cards = [TABLE3_CARDINALITIES[name] for name in chain_names]

    if populate:
        # S3 = R2 exactly; build the chain so S1 ⊆ S2 ⊆ S3 ⊆ S4 ⊆ S5 holds.
        chain = populate_contained_family(
            chain_schemas, chain_cards, seed=seed
        )
        r2 = Relation(make_schema("R2", attributes), chain[2].rows)
        r1 = populate_relation(make_schema("R1", ["A", "K"]), 400, seed=seed)
    else:
        chain = [Relation(schema) for schema in chain_schemas]
        r2 = Relation(make_schema("R2", attributes))
        r1 = Relation(make_schema("R1", ["A", "K"]))

    space.add_source("IS0")
    space.register_relation(
        "IS0", r1, RelationStatistics(cardinality=400, tuple_size=100)
    )
    space.add_source("IS1")
    space.register_relation(
        "IS1",
        r2,
        RelationStatistics(
            cardinality=TABLE3_CARDINALITIES["R2"], tuple_size=100
        ),
    )
    for index, (name, relation) in enumerate(zip(chain_names, chain)):
        source = f"IS{index + 2}"
        space.add_source(source)
        space.register_relation(
            source,
            relation,
            RelationStatistics(
                cardinality=TABLE3_CARDINALITIES[name], tuple_size=100
            ),
        )

    # The containment chain of Sec. 7.4, expressed towards R2 so the
    # synchronizer can substitute directly: S1 ⊆ S2 ⊆ S3 = R2 ⊆ S4 ⊆ S5.
    space.mkb.add_containment("S1", "R2", attributes)
    space.mkb.add_containment("S2", "R2", attributes)
    space.mkb.add_equivalence("S3", "R2", attributes)
    space.mkb.add_containment("R2", "S4", attributes)
    space.mkb.add_containment("R2", "S5", attributes)
    # And between chain members, for MKB completeness.
    space.mkb.add_containment("S1", "S2", attributes)
    space.mkb.add_containment("S2", "S3", attributes)
    space.mkb.add_containment("S4", "S5", attributes)

    view = parse_view(
        """
        CREATE VIEW V (VE = '~') AS
        SELECT R1.K,
               R2.A (AR = true), R2.B (AR = true), R2.C (AR = true)
        FROM R1, R2 (RR = true)
        WHERE (R1.A = R2.A) (CR = true)
        """
    )
    original = {"R1": r1.copy(), "R2": r2.copy()}
    return CardinalityScenario(space, view, original)


# ----------------------------------------------------------------------
# Evolution storm: thousands of views under a batched change stream
# ----------------------------------------------------------------------
@dataclass
class EvolutionStormScenario:
    """A large view population plus a composed capability-change batch.

    The change stream mirrors what a real warehouse's control plane
    sees: most changes land on relations no view references (``spare``
    churn — the case indexed dispatch makes free), a minority rename
    attributes that live views actually use (cheap rename
    synchronizations), and a few delete relations that are mirrored
    elsewhere (full replacement searches).  Everything is seeded and
    deterministic, so two builds with the same arguments produce
    byte-identical spaces — the property the eager-vs-batched dispatch
    benchmark relies on.
    """

    space: InformationSpace
    views: list[ViewDefinition]
    changes: list[SchemaChange]
    view_relations: tuple[str, ...]
    spare_relations: tuple[str, ...]
    mirrored_relations: tuple[str, ...]


def build_evolution_storm_scenario(
    views: int = 1000,
    view_relations: int = 200,
    spare_relations: int = 100,
    changes: int = 120,
    sources: int = 8,
    hot_renames: int = 12,
    replacement_deletes: int = 4,
    seed: int = 23,
) -> EvolutionStormScenario:
    """The 1k-view evolution-storm setup (ROADMAP scaling scenario).

    ``views`` single-relation views are spread round-robin over
    ``view_relations`` relations; ``spare_relations`` further relations
    carry no views at all.  The batch holds ``changes`` events:
    ``replacement_deletes`` deletes of mirrored view relations,
    ``hot_renames`` attribute renames on viewed attributes, and spare
    churn for the rest.  Chained renames are emitted in replay-safe
    order (each rename targets the name the previous one produced).
    """
    if views < 1 or view_relations < 1 or sources < 1:
        raise ValueError("storm needs at least one view, relation, source")
    view_relations = min(view_relations, max(views, 1))
    replacement_deletes = min(replacement_deletes, view_relations - 1)
    spare_churn = changes - hot_renames - replacement_deletes
    if spare_churn < 0:
        raise ValueError("changes must cover hot renames and deletes")
    if spare_relations < 1 and spare_churn > 0:
        raise ValueError("spare churn needs spare relations")

    rng = random.Random(seed)
    space = InformationSpace()
    source_names = [f"IS{i}" for i in range(sources)]
    for name in source_names:
        space.add_source(name)

    def register(name: str, slot: int) -> None:
        schema = make_schema(name, ["A0", "A1", "A2"])
        space.register_relation(
            source_names[slot % sources],
            Relation(schema),
            RelationStatistics(cardinality=400, tuple_size=100),
        )

    view_rel_names = [f"Rel{i}" for i in range(view_relations)]
    spare_names = [f"Spare{i}" for i in range(spare_relations)]
    for slot, name in enumerate(view_rel_names):
        register(name, slot)
    for slot, name in enumerate(spare_names):
        register(name, slot + view_relations)

    # The first ``replacement_deletes`` view relations get an equivalent
    # mirror so their views survive the delete via CVS replacement.
    mirrored = tuple(view_rel_names[:replacement_deletes])
    for slot, name in enumerate(mirrored):
        mirror = f"Mirror{slot}"
        register(mirror, slot + view_relations + spare_relations)
        space.mkb.add_equivalence(name, mirror, ["A0", "A1", "A2"])

    view_definitions = []
    for index in range(views):
        relation = view_rel_names[index % view_relations]
        view_definitions.append(
            parse_view(
                f"CREATE VIEW V{index} (VE = '~') AS "
                f"SELECT {relation}.A0 (AR = true), "
                f"{relation}.A1 (AD = true, AR = true) "
                f"FROM {relation} (RR = true)"
            )
        )

    # Change stream: draw change kinds in a deterministic shuffle while
    # tracking per-relation attribute chains so replays stay valid.
    kinds = (
        ["spare"] * spare_churn
        + ["hot"] * hot_renames
        + ["delete"] * replacement_deletes
    )
    rng.shuffle(kinds)
    spare_cycle = list(spare_names)
    rng.shuffle(spare_cycle)
    hot_pool = view_rel_names[replacement_deletes:] or view_rel_names
    delete_queue = list(mirrored)
    current_attr: dict[str, str] = {}
    batch: list[SchemaChange] = []
    for step, kind in enumerate(kinds):
        if kind == "delete" and delete_queue:
            relation = delete_queue.pop(0)
            batch.append(
                DeleteRelation(space.owner_of(relation).name, relation)
            )
            continue
        if kind == "hot":
            relation = hot_pool[step % len(hot_pool)]
            attribute = current_attr.get(relation, "A0")
            new_name = f"B{step}"
        else:
            relation = spare_cycle[step % len(spare_cycle)]
            attribute = current_attr.get(relation, "A2")
            new_name = f"Z{step}"
        batch.append(
            RenameAttribute(
                space.owner_of(relation).name, relation, attribute, new_name
            )
        )
        current_attr[relation] = new_name
    return EvolutionStormScenario(
        space,
        view_definitions,
        batch,
        tuple(view_rel_names),
        tuple(spare_names),
        mirrored,
    )


# ----------------------------------------------------------------------
# Maintenance storm: a batched update stream against a multi-site view
# ----------------------------------------------------------------------
@dataclass
class MaintenanceStormScenario:
    """A multi-site join view plus a long single-relation update stream.

    The stream is the workload shape the delta plane exists for: every
    update targets one relation (``updated_relation``) of a view that
    joins relations on two further sources, so Algorithm 1 runs the
    full multi-hop sweep per update and a batched stream can share one
    resolution, plan, and compiled pipeline end to end.  Updates are
    ``(relation, kind, row)`` intents, *not yet applied* — replay them
    through ``space.insert``/``space.delete`` (or hand the stream to
    :meth:`~repro.core.eve.EVESystem.apply_updates`).  Generation is
    arithmetic and fully deterministic: equal arguments yield
    byte-identical spaces and streams.
    """

    space: InformationSpace
    view: ViewDefinition
    updates: list[tuple[str, UpdateKind, tuple]]
    updated_relation: str
    rows: int


def build_maintenance_storm_scenario(
    updates: int = 10_000,
    rows: int = 4_000,
    delete_every: int = 7,
    prune_every: int = 11,
    tuple_size: int = 8,
) -> MaintenanceStormScenario:
    """The 10k-update maintenance storm (ROADMAP scaling scenario).

    ``R(A, B)`` at IS1 receives every update; ``S(A, C)`` at IS2 and
    ``T(A, D)`` at IS3 are keyed uniquely on ``A`` in ``[0, rows)``, so
    each surviving delta tuple joins exactly one row per hop.  Every
    ``delete_every``-th event deletes the oldest still-live row instead
    of inserting; every ``prune_every``-th insert carries a negative
    ``B`` that the view's local selection prunes at the seed (the
    seed-filter path stays hot).  ``R`` starts empty, so replaying the
    stream in order is always valid (deletes only target live rows).
    """
    if updates < 1 or rows < 1:
        raise ValueError("storm needs at least one update and one key row")
    space = InformationSpace()
    for source, schema, relation_rows in [
        ("IS1", make_schema("R", ["A", "B"]), []),
        ("IS2", make_schema("S", ["A", "C"]), [(a, 2 * a) for a in range(rows)]),
        ("IS3", make_schema("T", ["A", "D"]), [(a, 3 * a) for a in range(rows)]),
    ]:
        space.add_source(source)
        space.register_relation(
            source,
            Relation(schema, relation_rows),
            RelationStatistics(
                cardinality=max(len(relation_rows), 1), tuple_size=tuple_size
            ),
        )
    view = parse_view(
        "CREATE VIEW VStorm AS SELECT R.B, S.C, T.D FROM R, S, T "
        "WHERE R.A = S.A AND S.A = T.A AND R.B >= 0"
    )
    stream: list[tuple[str, UpdateKind, tuple]] = []
    live: list[tuple] = []
    next_live = 0
    for step in range(updates):
        if step % delete_every == delete_every - 1 and next_live < len(live):
            stream.append(("R", UpdateKind.DELETE, live[next_live]))
            next_live += 1
            continue
        payload = -1 if step % prune_every == 0 else step
        row = (step % rows, payload)
        stream.append(("R", UpdateKind.INSERT, row))
        live.append(row)
    return MaintenanceStormScenario(space, view, stream, "R", rows)


# ----------------------------------------------------------------------
# Scheduler stress: a salvage storm of replacement-heavy worklists
# ----------------------------------------------------------------------
@dataclass
class SchedulerStressScenario:
    """A large view population whose batch makes every view searchable.

    Unlike the evolution storm (where most changes are spare churn and
    synchronizations are cheap renames), every change here deletes a
    view relation that has several containment donors — so every
    affected view runs a full replacement search over the donor
    spectrum.  That is the workload the batch scheduler exists for: the
    per-view searches are expensive, independent, and (views sharing a
    relation) structurally identical, exercising cost ordering,
    coalescing, and deadline degradation all at once.  Generation is
    deterministic: two builds with equal arguments yield byte-identical
    spaces.
    """

    space: InformationSpace
    views: list[ViewDefinition]
    changes: list[SchemaChange]
    view_relations: tuple[str, ...]
    donors_per_relation: int


def build_scheduler_stress_scenario(
    views: int = 1000,
    view_relations: int = 100,
    donors_per_relation: int = 6,
    view_attributes: int = 3,
    sources: int = 8,
    base_cardinality: int = 4000,
    donor_cardinality: int = 2000,
    donor_cardinality_step: int = 700,
) -> SchedulerStressScenario:
    """The 1k-view scheduler-stress storm (ROADMAP scaling scenario).

    ``views`` multi-attribute views (all attributes dispensable and
    replaceable) are spread round-robin over ``view_relations``
    relations; each relation owns ``donors_per_relation`` containment
    donors of staggered cardinality, and the batch deletes *every* view
    relation.  Every view therefore needs a replacement search whose
    candidate spectrum grows with the donor count — sized so per-view
    work dominates dispatch overhead.
    """
    if views < 1 or view_relations < 1 or sources < 1:
        raise ValueError("stress storm needs views, relations, sources")
    if donors_per_relation < 1:
        raise ValueError("every deleted relation needs at least one donor")
    view_relations = min(view_relations, views)

    space = InformationSpace()
    source_names = [f"IS{i}" for i in range(sources)]
    for name in source_names:
        space.add_source(name)

    attribute_names = [f"A{i}" for i in range(view_attributes + 1)]
    relation_names = [f"Rel{i}" for i in range(view_relations)]
    changes: list[SchemaChange] = []
    for index, relation in enumerate(relation_names):
        source = source_names[index % sources]
        space.register_relation(
            source,
            Relation(make_schema(relation, attribute_names)),
            RelationStatistics(
                cardinality=base_cardinality, tuple_size=100
            ),
        )
        for donor_index in range(donors_per_relation):
            donor = f"Donor{index}_{donor_index}"
            space.register_relation(
                source_names[(index + donor_index + 1) % sources],
                Relation(make_schema(donor, attribute_names)),
                RelationStatistics(
                    cardinality=donor_cardinality
                    + donor_cardinality_step * donor_index,
                    tuple_size=100,
                ),
            )
            space.mkb.add_containment(relation, donor, attribute_names)
        changes.append(DeleteRelation(source, relation))

    view_definitions = []
    for index in range(views):
        relation = relation_names[index % view_relations]
        select = ", ".join(
            f"{relation}.A{i} (AD = true, AR = true)"
            for i in range(view_attributes)
        )
        view_definitions.append(
            parse_view(
                f"CREATE VIEW V{index} (VE = '~') AS "
                f"SELECT {select} FROM {relation} (RR = true)"
            )
        )
    return SchedulerStressScenario(
        space,
        view_definitions,
        changes,
        tuple(relation_names),
        donors_per_relation,
    )


# ----------------------------------------------------------------------
# Batched storm: a 100k-view salvage storm as a sequential batch stream
# ----------------------------------------------------------------------
@dataclass
class ShardedStormScenario:
    """A scheduler-stress storm replayed as sequential change batches.

    The same replacement-heavy salvage storm as
    :class:`SchedulerStressScenario`, but with the change stream split
    into ``len(change_batches)`` sequential ``apply_changes`` calls.
    The first batch pays the cold start (first searches, empty
    per-definition caches); every later batch runs warm, so the
    amortized per-batch cost is measurable separately from the first.
    Generation is deterministic: equal arguments yield byte-identical
    spaces and batch streams.
    """

    space: InformationSpace
    views: list[ViewDefinition]
    change_batches: list[list[SchemaChange]]
    view_relations: tuple[str, ...]
    donors_per_relation: int

    @property
    def changes(self) -> list[SchemaChange]:
        """The flattened stream (serial replay applies the same order)."""
        return [
            change for batch in self.change_batches for change in batch
        ]


def build_sharded_storm_scenario(
    views: int = 100_000,
    view_relations: int = 200,
    donors_per_relation: int = 3,
    view_attributes: int = 2,
    sources: int = 8,
    batches: int = 4,
    tail_changes: int = 0,
    **stress_overrides,
) -> ShardedStormScenario:
    """The 100k-view batched salvage storm (ROADMAP scaling scenario).

    Delegates space/view/change generation to
    :func:`build_scheduler_stress_scenario` (every view relation is
    deleted and salvaged through its containment donors), then splits
    the change stream into ``batches`` near-equal contiguous batches.
    Each batch touches a disjoint relation slice, so batch outcomes are
    independent and a chunked serial replay commits byte-identical
    winners to the one-shot replay.

    ``tail_changes`` carves the final batch down to exactly that many
    changes (the preceding batches absorb the rest).  A small tail
    batch measures warm small-batch dispatch latency and keeps the
    per-view report of the last batch bounded regardless of storm
    scale.
    """
    if batches < 1:
        raise ValueError("the storm needs at least one batch")
    if tail_changes < 0:
        raise ValueError("tail_changes must be non-negative")
    scenario = build_scheduler_stress_scenario(
        views=views,
        view_relations=view_relations,
        donors_per_relation=donors_per_relation,
        view_attributes=view_attributes,
        sources=sources,
        **stress_overrides,
    )
    changes = scenario.changes
    batches = min(batches, len(changes))
    tail = 0
    if tail_changes and batches > 1:
        tail = min(tail_changes, len(changes) - (batches - 1))
    head_changes = changes[: len(changes) - tail]
    head_batches = batches - 1 if tail else batches
    size, remainder = divmod(len(head_changes), head_batches)
    change_batches = []
    cursor = 0
    for index in range(head_batches):
        width = size + (1 if index < remainder else 0)
        change_batches.append(head_changes[cursor : cursor + width])
        cursor += width
    if tail:
        change_batches.append(changes[len(changes) - tail :])
    return ShardedStormScenario(
        scenario.space,
        scenario.views,
        change_batches,
        scenario.view_relations,
        scenario.donors_per_relation,
    )
