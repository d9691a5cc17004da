"""Unit tests for the cost-aware synchronization scheduler."""


import pickle

import pytest

from repro.config import ScheduleConfig, SystemConfig
from repro.core.eve import EVESystem
from repro.errors import (
    ConfigurationError,
    EvaluationError,
    SynchronizationError,
)
from repro.esql.ast import ViewDefinition
from repro.esql.parser import parse_view
from repro.misd.statistics import RelationStatistics
from repro.qc.model import Evaluation, QCModel
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.changes import (
    DeleteAttribute,
    DeleteRelation,
    RenameAttribute,
    RenameRelation,
)
from repro.space.space import InformationSpace
from repro.sync.pipeline import (
    RewritingSearchPipeline,
    SearchPolicy,
    StageCounters,
)
from repro.sync.rewriting import Rewriting
from repro.sync.scheduler import (
    BatchWorkPlan,
    SynchronizationScheduler,
    ViewWorkItem,
    build_work_plan,
    rebind_results,
)
from repro.workloadgen.scenarios import build_scheduler_stress_scenario


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
def build_system(materialize=False):
    """Three relations with donors; V0/V1 share R0, V2 uses R1."""
    eve = EVESystem()
    eve.add_source("IS0")
    eve.add_source("IS1")
    for name in ("R0", "R1"):
        eve.register_relation(
            "IS0",
            Relation(Schema(name, ["A", "B"]), [(1, 10), (2, 20)]),
            RelationStatistics(cardinality=400, tuple_size=100),
        )
        eve.register_relation(
            "IS1",
            Relation(Schema(f"{name}M", ["A", "B"]), [(1, 10), (2, 20)]),
            RelationStatistics(cardinality=400, tuple_size=100),
        )
        eve.mkb.add_equivalence(name, f"{name}M", ["A", "B"])
    for index, relation in enumerate(["R0", "R0", "R1"]):
        eve.define_view(
            f"CREATE VIEW V{index} (VE = '~') AS "
            f"SELECT {relation}.A (AR = true), "
            f"{relation}.B (AD = true, AR = true) "
            f"FROM {relation} (RR = true)",
            materialize=materialize,
        )
    return eve


def fingerprint(eve):
    return [
        (record.name, record.alive, record.generations, record.current)
        for record in eve.vkb
    ]


class RecordingRuntime:
    """A fake SchedulerRuntime that records dispatch, returns nothing."""

    def __init__(self, fail_for=()):
        self.replayed = []
        self.finalized = []
        self.adopted = []
        self.fail_for = set(fail_for)

    def replay_item(self, item, plan, policy=None):
        if item.view_name in self.fail_for:
            raise ValueError(f"injected failure for {item.view_name}")
        self.replayed.append((item.view_name, policy))
        return []

    def adopt_results(self, results):
        self.adopted.extend(results)

    def finalize_view(self, view_name, like=None):
        self.finalized.append(view_name)


def plain_scheduler():
    """A scheduler that searches every view itself (the reference's)."""
    return SynchronizationScheduler(ScheduleConfig(coalesce=False))


def make_plan(rows, changes):
    """rows: (view_name, worklist_positions, cost_bound, definition_key)."""
    staged = [
        (
            name,
            order,
            tuple((position, changes[position]) for position in positions),
            bound,
            key,
        )
        for order, (name, positions, bound, key) in enumerate(rows)
    ]
    return build_work_plan(staged, changes)


CHANGES = [
    DeleteRelation("IS0", "R0"),
    DeleteRelation("IS0", "R1"),
    DeleteRelation("IS0", "R2"),
]


# ----------------------------------------------------------------------
# Plan construction
# ----------------------------------------------------------------------
class TestWorkPlan:
    def test_chain_groups_connect_shared_relations(self):
        plan = make_plan(
            [
                ("V0", (0,), 5.0, "k0"),
                ("V1", (0, 1), 1.0, "k1"),  # bridges R0 and R1
                ("V2", (1,), 3.0, "k2"),
                ("V3", (2,), 2.0, "k3"),
            ],
            CHANGES,
        )
        groups = plan.groups()
        by_view = {
            item.view_name: group.key
            for group in groups
            for item in group.items
        }
        assert by_view["V0"] == by_view["V1"] == by_view["V2"]
        assert by_view["V3"] != by_view["V0"]
        chained = next(g for g in groups if g.key == by_view["V0"])
        assert chained.cost_bound == 1.0
        assert [item.view_name for item in chained.items] == ["V0", "V1", "V2"]

    def test_items_keep_plan_order_and_positions(self):
        plan = make_plan(
            [("V1", (1,), 2.0, "a"), ("V0", (0,), 1.0, "b")], CHANGES
        )
        assert [item.view_name for item in plan.items] == ["V1", "V0"]
        assert plan.items[0].positions == (1,)
        assert plan.changes_on("R0") == ((0, CHANGES[0]),)

    def test_coalesce_key_pairs_definition_and_worklist(self):
        plan = make_plan(
            [
                ("V0", (0,), 1.0, "same"),
                ("V1", (0,), 1.0, "same"),
                ("V2", (0, 1), 1.0, "same"),
            ],
            CHANGES,
        )
        keys = {item.view_name: item.coalesce_key for item in plan.items}
        assert keys["V0"] == keys["V1"]
        assert keys["V2"] != keys["V0"]  # same definition, other worklist


# ----------------------------------------------------------------------
# Scheduler dispatch (probed through a fake runtime)
# ----------------------------------------------------------------------
class TestDispatch:
    def test_empty_plan_reports_empty(self):
        report = SynchronizationScheduler().execute(
            make_plan([], CHANGES), RecordingRuntime()
        )
        assert report.results == ()
        assert report.deferred == ()
        assert report.coalesced == 0

    def test_cost_order_dispatches_cheapest_first(self):
        runtime = RecordingRuntime()
        plan = make_plan(
            [
                ("V0", (0,), 9.0, "a"),
                ("V1", (1,), 1.0, "b"),
                ("V2", (2,), 4.0, "c"),
            ],
            CHANGES,
        )
        SynchronizationScheduler(ScheduleConfig(order="cost")).execute(plan, runtime)
        assert [name for name, _ in runtime.replayed] == ["V1", "V2", "V0"]
        SynchronizationScheduler(ScheduleConfig(order="plan")).execute(
            plan, runtime := RecordingRuntime()
        )
        assert [name for name, _ in runtime.replayed] == ["V0", "V1", "V2"]

    def test_zero_budget_defers_everything(self):
        runtime = RecordingRuntime()
        plan = make_plan(
            [("V0", (0,), 1.0, "a"), ("V1", (1,), 2.0, "b")], CHANGES
        )
        report = SynchronizationScheduler(
            ScheduleConfig(budget=0.0, degrade="defer")
        ).execute(plan, runtime)
        assert runtime.replayed == []
        assert [d.view_name for d in report.deferred] == ["V0", "V1"]
        assert runtime.finalized == []  # deferred views keep stale extents
        assert report.counters.deferred == 2

    def test_zero_budget_degrades_to_first_legal(self):
        runtime = RecordingRuntime()
        plan = make_plan(
            [("V0", (0,), 1.0, "a"), ("V1", (1,), 2.0, "b")], CHANGES
        )
        report = SynchronizationScheduler(
            ScheduleConfig(budget=0.0, degrade="first_legal")
        ).execute(plan, runtime)
        assert [policy for _, policy in runtime.replayed] == [
            "first_legal",
            "first_legal",
        ]
        assert report.degraded_views == ("V0", "V1")
        assert report.deferred == ()

    @pytest.mark.parametrize("executor", ["serial"])
    def test_replay_exceptions_surface(self, executor):
        plan = make_plan(
            [("V0", (0,), 1.0, "a"), ("V1", (1,), 2.0, "b")], CHANGES
        )
        runtime = RecordingRuntime(fail_for={"V1"})
        scheduler = SynchronizationScheduler(ScheduleConfig(executor=executor))
        with pytest.raises(ValueError, match="injected failure"):
            scheduler.execute(plan, runtime)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            ScheduleConfig(executor="rayon")
        with pytest.raises(ConfigurationError):
            ScheduleConfig(degrade="drop")
        with pytest.raises(ConfigurationError):
            ScheduleConfig(order="random")
        with pytest.raises(ConfigurationError):
            ScheduleConfig(budget=-1.0)
        with pytest.raises(ConfigurationError):
            ScheduleConfig(executor="threads")


# ----------------------------------------------------------------------
# End-to-end through EVESystem
# ----------------------------------------------------------------------
class TestSystemIntegration:
    def test_empty_batch_is_a_noop(self):
        eve = build_system()
        assert eve.apply_changes([]) == []
        assert len(eve.last_schedule) == 1
        assert eve.last_schedule[0].results == ()

    def test_default_scheduler_matches_pre_scheduler_reference(self):
        batch = [
            DeleteRelation("IS0", "R0"),
            RenameAttribute("IS0", "R1", "A", "Alpha"),
        ]
        sequential = build_system(materialize=True)
        for change in batch:
            sequential.space.apply_change(change)
        scheduled = build_system(materialize=True)
        results = scheduled.apply_changes(batch)
        assert fingerprint(sequential) == fingerprint(scheduled)
        assert [r.view_name for r in results] == ["V0", "V1", "V2"]
        assert list(scheduled.synchronization_log) == results

    def test_per_view_timing_lands_in_counters(self):
        # Without coalescing every view runs its own timed search.
        eve = build_system()
        results = eve.apply_changes(
            [DeleteRelation("IS0", "R0")], scheduler=plain_scheduler()
        )
        assert results and all(
            r.counters is not None and r.counters.seconds > 0.0
            for r in results
        )
        report = eve.last_schedule[0]
        assert set(report.per_view_seconds) == {"V0", "V1"}
        assert report.wall_seconds > 0.0

    def test_coalesced_timing_still_lists_every_view(self):
        eve = build_system()
        leader, follower = eve.apply_changes([DeleteRelation("IS0", "R0")])
        report = eve.last_schedule[0]
        assert report.coalesced == 1
        assert set(report.per_view_seconds) == {"V0", "V1"}
        assert leader.counters.seconds > 0.0
        # No search ran for the follower: its counters are fresh.
        assert follower.counters.seconds == 0.0

    def test_coalescing_rebinds_identical_views_exactly(self):
        plain = build_system(materialize=True)
        plain.apply_changes([DeleteRelation("IS0", "R0")])
        coalesced = build_system(materialize=True)
        results = coalesced.apply_changes(
            [DeleteRelation("IS0", "R0")],
            scheduler=SynchronizationScheduler(ScheduleConfig(coalesce=True)),
        )
        assert coalesced.last_schedule[0].coalesced == 1
        assert fingerprint(plain) == fingerprint(coalesced)
        assert [(r.view_name, r.chosen.qc) for r in results] == [
            (r.view_name, r.chosen.qc)
            for r in plain.synchronization_log
        ]
        for view in ("V0", "V1"):
            assert sorted(coalesced.extent(view).rows) == sorted(
                plain.extent(view).rows
            )
            assert coalesced.vkb.current(view).name == view
        # The follower's evaluations equal its own search's.
        searched = build_system(materialize=True).apply_changes(
            [DeleteRelation("IS0", "R0")],
            scheduler=SynchronizationScheduler(ScheduleConfig(coalesce=False)),
        )
        follower = results[1]
        assert follower.view_name == searched[1].view_name == "V1"
        assert follower.evaluations == searched[1].evaluations

    def test_where_order_variants_never_coalesce(self):
        # fingerprint_view (the assessment cache's) sorts WHERE
        # conjuncts; the coalesce key must NOT, or a follower would be
        # committed with the leader's clause order.
        def build_pair():
            eve = EVESystem()
            eve.add_source("IS0")
            eve.register_relation(
                "IS0",
                Relation(Schema("R", ["A", "B"]), [(1, 2), (1, 3)]),
                RelationStatistics(cardinality=400, tuple_size=100),
            )
            for name, where in (
                ("W1", "(R.A = 1) AND (R.B = 2)"),
                ("W2", "(R.B = 2) AND (R.A = 1)"),
            ):
                eve.define_view(
                    f"CREATE VIEW {name} (VE = '~') AS "
                    f"SELECT R.A (AR = true), R.B (AD = true, AR = true) "
                    f"FROM R (RR = true) WHERE {where}"
                )
            return eve

        change = [RenameAttribute("IS0", "R", "A", "A9")]
        reference = build_pair()
        reference.apply_changes(change)
        coalesced = build_pair()
        coalesced.apply_changes(
            change, scheduler=SynchronizationScheduler(ScheduleConfig(coalesce=True))
        )
        assert coalesced.last_schedule[0].coalesced == 0
        assert fingerprint(coalesced) == fingerprint(reference)
        # Each view keeps its own WHERE order, order-sensitively.
        assert coalesced.vkb.current("W1") != coalesced.vkb.current(
            "W2"
        ).renamed("W1")

    def test_degraded_batch_commits_first_legal_winners(self):
        eve = build_system()
        results = eve.apply_changes(
            [DeleteRelation("IS0", "R0")],
            scheduler=SynchronizationScheduler(ScheduleConfig(budget=0.0, degrade="first_legal")),
        )
        assert results
        for result in results:
            assert result.policy == SearchPolicy.first_legal()
            assert result.counters.degraded == 1
        assert eve.last_schedule[0].degraded_views == ("V0", "V1")

    def test_mid_batch_failure_keeps_sync_log_consistent_with_vkb(self):
        eve = build_system()
        original_search = eve.pipeline.search

        def failing_search(view, change, **kwargs):
            if view.name == "V1":
                raise SynchronizationError("injected search failure")
            return original_search(view, change, **kwargs)

        eve.pipeline.search = failing_search
        with pytest.raises(SynchronizationError, match="injected"):
            eve.apply_changes([DeleteRelation("IS0", "R0")], scheduler=plain_scheduler())
        # V0 committed before the failure: the VKB evolved, and the
        # journal made sure the synchronization log saw it too.
        assert eve.generations("V0") == 1
        assert [r.view_name for r in eve.synchronization_log] == ["V0"]

    @pytest.mark.parametrize(
        "failing, logged", [("V0", []), ("V2", ["V0", "V1"])]
    )
    def test_coalesced_leader_failure_keeps_sync_log_consistent_with_vkb(
        self, failing, logged
    ):
        # V0 leads V1's coalesce class; V2 leads its own.  A failing
        # leader takes its followers down with it, and every commit
        # made before it (rebound followers included) is logged.
        eve = build_system()
        original_search = eve.pipeline.search

        def failing_search(view, change, **kwargs):
            if view.name == failing:
                raise SynchronizationError("injected search failure")
            return original_search(view, change, **kwargs)

        eve.pipeline.search = failing_search
        with pytest.raises(SynchronizationError, match="injected"):
            eve.apply_changes(
                [DeleteRelation("IS0", "R0"), DeleteRelation("IS0", "R1")],
                scheduler=SynchronizationScheduler(ScheduleConfig(order="plan")),
            )
        assert [r.view_name for r in eve.synchronization_log] == logged
        for view in ("V0", "V1", "V2"):
            assert eve.generations(view) == logged.count(view)

    def test_completed_subbatch_reports_survive_later_failure(self):
        eve = build_system()
        original_search = eve.pipeline.search

        def failing_search(view, change, **kwargs):
            if isinstance(change, DeleteRelation) and view.name == "V1":
                raise SynchronizationError("injected delete failure")
            return original_search(view, change, **kwargs)

        eve.pipeline.search = failing_search
        # Rename-then-delete of the renamed relation is an identity
        # chain: apply_changes splits it into two scheduler executions.
        batch = [
            RenameRelation("IS0", "R0", "RX"),
            DeleteRelation("IS0", "RX"),
        ]
        with pytest.raises(SynchronizationError, match="injected"):
            eve.apply_changes(batch, scheduler=plain_scheduler())
        # The first sub-batch's report (and any deferral records it
        # might carry) survives the second sub-batch's failure...
        assert len(eve.last_schedule) == 1
        assert [r.view_name for r in eve.last_schedule[0].results] == [
            "V0",
            "V1",
        ]
        # ...and every VKB commit made before the failure is logged.
        logged = [r.view_name for r in eve.synchronization_log]
        assert logged == ["V0", "V1", "V0"]

    def test_completed_subbatch_survives_later_coalesced_leader_failure(self):
        eve = build_system()
        original_search = eve.pipeline.search

        def failing_search(view, change, **kwargs):
            if isinstance(change, DeleteRelation) and view.name == "V0":
                raise SynchronizationError("injected delete failure")
            return original_search(view, change, **kwargs)

        eve.pipeline.search = failing_search
        with pytest.raises(SynchronizationError, match="injected"):
            eve.apply_changes(
                [
                    RenameRelation("IS0", "R0", "RX"),
                    DeleteRelation("IS0", "RX"),
                ]
            )
        # The rename sub-batch coalesced V1 onto V0 and completed; the
        # delete sub-batch's leader failed before anything committed.
        assert len(eve.last_schedule) == 1
        assert eve.last_schedule[0].coalesced == 1
        assert [r.view_name for r in eve.synchronization_log] == ["V0", "V1"]
        assert [eve.generations(view) for view in ("V0", "V1")] == [1, 1]

    def test_resume_deferred_consumes_its_records(self):
        eve = build_system()
        eve.apply_changes(
            [DeleteRelation("IS0", "R0")],
            scheduler=SynchronizationScheduler(ScheduleConfig(budget=0.0, degrade="defer")),
        )
        assert len(eve.resume_deferred()) == 2
        assert eve.resume_deferred() == []  # consumed, not re-replayed
        assert all(report.deferred == () for report in eve.last_schedule)

    def test_defer_and_resume_reaches_serial_outcome(self):
        eve = build_system(materialize=True)
        batch = [DeleteRelation("IS0", "R0")]
        results = eve.apply_changes(
            batch,
            scheduler=SynchronizationScheduler(ScheduleConfig(budget=0.0, degrade="defer")),
        )
        assert results == []
        assert eve.generations("V0") == 0  # untouched, stale definition
        resumed = eve.resume_deferred()
        reference = build_system(materialize=True)
        reference.apply_changes(batch)
        assert fingerprint(eve) == fingerprint(reference)
        assert [r.view_name for r in resumed] == ["V0", "V1"]
        assert sorted(eve.extent("V0").rows) == sorted(
            reference.extent("V0").rows
        )

    def test_resume_coalesces_like_dispatch(self, monkeypatch):
        """Resuming a zero-budget deferral of the 1k-view stress storm
        runs one search per coalesce class (100), not one per view, and
        ends where a one-search-per-view reference replay ends."""
        def build(config):
            scenario = build_scheduler_stress_scenario()
            eve = EVESystem(space=scenario.space, config=config)
            for view in scenario.views:
                eve.define_view(view)
            return eve, scenario.changes

        def outcome(eve, results):
            return (
                [
                    (
                        result.view_name,
                        result.chosen.rewriting.view
                        if result.chosen is not None
                        else None,
                        result.chosen.qc if result.chosen is not None else None,
                    )
                    for result in results
                ],
                fingerprint(eve),
                {
                    record.name: sorted(eve.extent(record.name).rows)
                    for record in eve.vkb
                    if record.alive
                },
            )

        eve, changes = build(SystemConfig())
        searches = []
        search = RewritingSearchPipeline.search

        def counted(pipeline, *args, **kwargs):
            searches.append(1)
            return search(pipeline, *args, **kwargs)

        monkeypatch.setattr(RewritingSearchPipeline, "search", counted)
        assert eve.apply_changes(
            changes,
            scheduler=SynchronizationScheduler(
                ScheduleConfig(budget=0.0, degrade="defer")
            ),
        ) == []
        assert searches == []
        resumed = eve.resume_deferred()
        assert len(resumed) == 1000
        assert len(searches) == 100
        monkeypatch.undo()
        # A search's candidates rewrite one definition; a follower's
        # rebound candidates share one renamed copy of it, too.
        for result in resumed:
            assert len(result.evaluations) > 1
            assert len(
                {id(e.rewriting.original) for e in result.evaluations}
            ) == 1

        reference, _ = build(SystemConfig.reference())
        replayed = reference.apply_changes(changes)
        assert outcome(eve, resumed) == outcome(reference, replayed)
        assert outcome(eve, eve.synchronization_log) == outcome(
            reference, reference.synchronization_log
        )

    def test_work_plan_is_immutable(self):
        eve = build_system()
        eve.apply_changes([DeleteRelation("IS0", "R0")])
        plan = BatchWorkPlan(
            items=(
                ViewWorkItem("V", 0, ((0, CHANGES[0]),), 1.0, "k", ("d", (0,))),
            ),
            changes=(CHANGES[0],),
            by_relation={},
        )
        with pytest.raises(AttributeError):
            plan.items[0].cost_bound = 2.0  # frozen dataclass


# ----------------------------------------------------------------------
# Coalesced followers: results built on read
# ----------------------------------------------------------------------
def eager_rebind(results, view_name):
    """The eager rebinding that renamed every evaluation up front: the
    oracle a follower's on-read list must equal."""
    rebound = []
    originals = {}

    def rename(evaluation):
        rewriting = evaluation.rewriting
        original = originals.get(id(rewriting.original))
        if original is None:
            original = originals[id(rewriting.original)] = (
                rewriting.original.renamed(view_name)
            )
        return Evaluation(
            Rewriting(
                original,
                rewriting.view.renamed(view_name),
                rewriting.moves,
                rewriting.extent_relationship,
            ),
            evaluation.quality,
            evaluation.cost,
            evaluation.normalized_cost,
            evaluation.qc,
            evaluation.rank,
        )

    for result in results:
        evaluations = [rename(e) for e in result.evaluations]
        chosen = None
        if result.chosen is not None:
            for source, target in zip(result.evaluations, evaluations):
                if source is result.chosen:
                    chosen = target
                    break
            if chosen is None:
                chosen = rename(result.chosen)
        counters = (
            StageCounters(degraded=result.counters.degraded)
            if result.counters is not None
            else None
        )
        rebound.append(
            type(result)(
                view_name, result.change, evaluations, chosen, counters,
                result.policy,
            )
        )
    return tuple(rebound)


class TestFollowerResults:
    @pytest.fixture
    def leader(self):
        """A searched salvage result with several evaluations."""
        scenario = build_scheduler_stress_scenario(
            views=2, view_relations=1, donors_per_relation=3
        )
        eve = EVESystem(space=scenario.space)
        for view in scenario.views:
            eve.define_view(view, materialize=False)
        results = eve.apply_changes(
            scenario.changes, scheduler=plain_scheduler()
        )
        assert len(results[0].evaluations) > 1
        return results[0]

    def test_unread_follower_renames_only_the_chosen(
        self, leader, monkeypatch
    ):
        renames = []
        renamed = ViewDefinition.renamed

        def counted(view, name):
            renames.append(name)
            return renamed(view, name)

        monkeypatch.setattr(ViewDefinition, "renamed", counted)
        (follower,) = rebind_results((leader,), "V1")
        # The chosen rewriting's original and view: nothing else.
        assert renames == ["V1", "V1"]
        assert follower.chosen.name == "V1"
        # The first read renames each other evaluation's view; they all
        # share the chosen's renamed original.
        follower.evaluations
        assert len(renames) == len(leader.evaluations) + 1

    def test_repeated_reads_return_the_same_list(self, leader):
        (follower,) = rebind_results((leader,), "V1")
        assert follower.evaluations is follower.evaluations
        assert follower.ranking() == ["V1"] * len(leader.evaluations)

    def test_chosen_is_the_list_element_at_the_leaders_position(self, leader):
        position = next(
            index
            for index, evaluation in enumerate(leader.evaluations)
            if evaluation is leader.chosen
        )
        (follower,) = rebind_results((leader,), "V1")
        assert follower.chosen is follower.evaluations[position]
        assert len(
            {id(e.rewriting.original) for e in follower.evaluations}
        ) == 1

    def test_follower_equals_the_eager_rebinding(self, leader):
        (oracle,) = eager_rebind((leader,), "V1")
        (follower,) = rebind_results((leader,), "V1")
        assert follower == oracle
        assert repr(follower) == repr(oracle)
        (follower,) = rebind_results((leader,), "V1")
        assert oracle == follower

    def test_unread_follower_pickles_to_the_eager_rebinding(self, leader):
        (oracle,) = eager_rebind((leader,), "V1")
        (follower,) = rebind_results((leader,), "V1")
        copy = pickle.loads(pickle.dumps(follower))
        assert copy == oracle
        assert copy.chosen is copy.evaluations[
            oracle.evaluations.index(oracle.chosen)
        ]
        assert pickle.loads(pickle.dumps(copy)) == oracle

    def test_unsurvived_leader_rebinds_to_an_empty_list(self, leader):
        dead = type(leader)(
            "V0", leader.change, [], None, leader.counters, leader.policy
        )
        (follower,) = rebind_results((dead,), "V1")
        assert follower.chosen is None
        assert follower == eager_rebind((dead,), "V1")[0]


# ----------------------------------------------------------------------
# Salvage bound + counters plumbing
# ----------------------------------------------------------------------
class TestSalvageBound:
    def test_staged_bounds_equal_per_view_pricing(self):
        """Twins share one priced bound per (class, change position),
        and every staged bound equals the view's own pricing."""
        def build():
            eve = EVESystem()
            eve.add_source("IS0")
            eve.register_relation(
                "IS0",
                Relation(Schema("R", ["A", "B", "C"])),
                RelationStatistics(cardinality=400, tuple_size=100),
            )
            eve.register_relation(
                "IS0",
                Relation(Schema("S", ["A"])),
                RelationStatistics(cardinality=50, tuple_size=10),
            )
            for name, body in (
                ("X0", "SELECT R.A, R.B FROM R"),
                ("X1", "SELECT R.A, R.B FROM R"),
                ("Y0", "SELECT R.A, R.C FROM R, S WHERE R.A = S.A"),
                ("Y1", "SELECT R.A, R.C FROM R, S WHERE R.A = S.A"),
                ("Z", "SELECT R.A, R.C FROM R"),
            ):
                eve.define_view(
                    f"CREATE VIEW {name} AS {body}", materialize=False
                )
            return eve

        # Attribute changes to one relation stay in one chain-free plan.
        batch = [
            RenameAttribute("IS0", "R", "B", "B9"),
            DeleteAttribute("IS0", "R", "C"),
        ]

        eve = build()
        eve.apply_changes(
            batch,
            scheduler=SynchronizationScheduler(
                ScheduleConfig(budget=0.0, degrade="defer")
            ),
        )
        bounds = {
            record.view_name: (
                record.item.worklist[0][0], record.item.cost_bound
            )
            for report in eve.last_schedule
            for record in report.deferred
        }
        assert {name: position for name, (position, _) in bounds.items()} == {
            "X0": 0, "X1": 0, "Y0": 1, "Y1": 1, "Z": 1,
        }
        # Each view priced by itself, once the changes before its
        # position have landed.
        for name, (position, bound) in bounds.items():
            alone = build()
            alone.auto_synchronize = False
            for change in batch[:position]:
                alone.space.apply_change(change)
            assert bound == alone.qc_model.salvage_lower_bound(
                alone.vkb.current(name), "R"
            ), name
        # Classes touched by one change still price apart.
        assert bounds["Y0"][1] != bounds["Z"][1]
        assert bounds["X0"][1] != bounds["Y0"][1]

    def test_multi_relation_views_cost_more_to_salvage(self):
        space = InformationSpace()
        space.add_source("IS0")
        for name in ("R", "S"):
            space.register_relation(
                "IS0",
                Relation(Schema(name, ["A", "B"])),
                RelationStatistics(cardinality=400, tuple_size=100),
            )
        model = QCModel(space.mkb)
        single = parse_view("CREATE VIEW V1 AS SELECT R.A FROM R")
        joined = parse_view(
            "CREATE VIEW V2 AS SELECT R.A FROM R, S WHERE R.A = S.A"
        )
        cheap = model.salvage_lower_bound(single, "R")
        rich = model.salvage_lower_bound(joined, "R")
        assert 0.0 < cheap < rich

    def test_unreferenced_update_relation_rejected(self):
        space = InformationSpace()
        space.add_source("IS0")
        space.register_relation(
            "IS0",
            Relation(Schema("R", ["A"])),
            RelationStatistics(cardinality=400, tuple_size=100),
        )
        model = QCModel(space.mkb)
        view = parse_view("CREATE VIEW V AS SELECT R.A FROM R")
        with pytest.raises(EvaluationError):
            model.salvage_lower_bound(view, "ELSEWHERE")

    def test_counters_merge_scheduler_fields(self):
        merged = StageCounters(seconds=0.25, degraded=1).merged(
            StageCounters(seconds=0.5, deferred=2)
        )
        assert merged.seconds == 0.75
        assert merged.degraded == 1
        assert merged.deferred == 2
        assert "degraded=1" in str(merged)


# ----------------------------------------------------------------------
# Modeled-cost token bucket (budget_units)
# ----------------------------------------------------------------------
class TestUnitBudget:
    """budget_units is wall-clock-free: every assertion is deterministic."""

    def plan(self):
        return make_plan(
            [
                ("V0", (0,), 1.0, "a"),
                ("V1", (1,), 2.0, "b"),
                ("V2", (2,), 4.0, "c"),
            ],
            CHANGES,
        )

    def test_negative_budget_units_rejected(self):
        with pytest.raises(ConfigurationError, match="budget_units"):
            ScheduleConfig(budget_units=-0.5)

    def test_zero_units_defers_everything(self):
        runtime = RecordingRuntime()
        report = SynchronizationScheduler(
            ScheduleConfig(budget_units=0.0, degrade="defer")
        ).execute(self.plan(), runtime)
        assert runtime.replayed == []
        assert [d.view_name for d in report.deferred] == ["V0", "V1", "V2"]
        assert "cost units" in report.deferred[0].reason
        assert report.units_spent == 0.0
        assert report.budget_units == 0.0

    def test_bucket_admits_cheapest_views_first(self):
        # Cost order dispatches V0 (debit 1.0) then V1 (debit 2.0);
        # the bucket is then exactly exhausted, so V2 degrades.
        runtime = RecordingRuntime()
        report = SynchronizationScheduler(
            ScheduleConfig(budget_units=3.0, degrade="first_legal")
        ).execute(self.plan(), runtime)
        assert [
            (name, policy) for name, policy in runtime.replayed
        ] == [("V0", None), ("V1", None), ("V2", "first_legal")]
        assert report.degraded_views == ("V2",)
        assert report.units_spent == 3.0

    def test_bucket_spans_chain_groups_not_items(self):
        # Views sharing a chain group dispatch (and debit) together.
        runtime = RecordingRuntime()
        plan = make_plan(
            [("V0", (0,), 1.0, "a"), ("V1", (0,), 2.0, "b")], CHANGES
        )
        report = SynchronizationScheduler(
            ScheduleConfig(budget_units=1.5, degrade="defer")
        ).execute(plan, runtime)
        assert [name for name, _ in runtime.replayed] == ["V0", "V1"]
        assert report.deferred == ()
        assert report.units_spent == 3.0

    def test_unpriceable_views_debit_nothing(self):
        runtime = RecordingRuntime()
        plan = make_plan(
            [("V0", (0,), float("inf"), "a"), ("V1", (1,), 1.0, "b")],
            CHANGES,
        )
        report = SynchronizationScheduler(
            ScheduleConfig(budget_units=10.0, degrade="defer")
        ).execute(plan, runtime)
        assert report.deferred == ()
        assert report.units_spent == 1.0

    def test_zero_units_defer_and_resume_reaches_serial_outcome(self):
        eve = build_system(materialize=True)
        batch = [DeleteRelation("IS0", "R0")]
        results = eve.apply_changes(
            batch,
            scheduler=SynchronizationScheduler(ScheduleConfig(budget_units=0.0, degrade="defer")),
        )
        assert results == []
        assert eve.resume_deferred() != []
        reference = build_system(materialize=True)
        reference.apply_changes(batch)
        assert fingerprint(eve) == fingerprint(reference)
        assert sorted(eve.extent("V0").rows) == sorted(
            reference.extent("V0").rows
        )

    def test_partial_bucket_through_the_system_is_deterministic(self):
        # A tiny bucket admits exactly the first (cheapest-to-salvage)
        # chain group — dispatch checks the bucket *before* debiting —
        # and parks the rest; resuming reaches the serial outcome.
        eve = build_system(materialize=True)
        batch = [DeleteRelation("IS0", "R0"), DeleteRelation("IS0", "R1")]
        eve.apply_changes(
            batch,
            scheduler=SynchronizationScheduler(ScheduleConfig(budget_units=0.5, degrade="defer")),
        )
        report = eve.last_schedule[0]
        dispatched = {result.view_name for result in report.results}
        parked = {record.view_name for record in report.deferred}
        # Exactly one chain group ran: either R1's lone view or R0's
        # pair (cost order picks the cheaper bound), never a mix.
        assert dispatched in ({"V2"}, {"V0", "V1"})
        assert parked == {"V0", "V1", "V2"} - dispatched
        assert report.units_spent > 0.5
        assert "cost units" in report.deferred[0].reason
        resumed = eve.resume_deferred()
        assert {result.view_name for result in resumed} == parked
        reference = build_system(materialize=True)
        reference.apply_changes(batch)
        assert fingerprint(eve) == fingerprint(reference)
