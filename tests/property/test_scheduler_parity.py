"""Scheduler parity: dispatch choices must never change committed outcomes.

The acceptance property of the scheduler: whatever the dispatch order,
with or without search coalescing, a scheduled batch commits the
identical winners with the identical QC-Values and materializes the
identical extents as the serial reference.  Hypothesis drives the
storm generators over seeds and shapes; every configuration is compared
against the fingerprint of the serial scheduler *without* coalescing —
the reference's, which searches every view itself (the default
coalesces).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ScheduleConfig
from repro.core.eve import EVESystem
from repro.space.changes import DeleteRelation
from repro.sync.scheduler import SynchronizationScheduler
from repro.workloadgen.scenarios import (
    build_evolution_storm_scenario,
    build_scheduler_stress_scenario,
    build_sharded_storm_scenario,
)


def storm_system(seed, views, changes):
    scenario = build_evolution_storm_scenario(
        views=views,
        view_relations=max(3, views // 3),
        spare_relations=4,
        changes=changes,
        sources=3,
        hot_renames=min(4, changes - 2),
        replacement_deletes=2,
        seed=seed,
    )
    eve = EVESystem(space=scenario.space)
    for view in scenario.views:
        eve.define_view(view, materialize=False)
    return eve, scenario.changes


def stress_system(views, relations, donors):
    scenario = build_scheduler_stress_scenario(
        views=views,
        view_relations=relations,
        donors_per_relation=donors,
        view_attributes=2,
        sources=3,
    )
    eve = EVESystem(space=scenario.space)
    for view in scenario.views:
        eve.define_view(view, materialize=False)
    return eve, scenario.changes


def evaluation_fingerprint(evaluation):
    rewriting = evaluation.rewriting
    return (
        rewriting.original,
        rewriting.view,
        rewriting.moves,
        rewriting.extent_relationship,
        evaluation.quality,
        evaluation.cost,
        evaluation.normalized_cost,
        evaluation.qc,
        evaluation.rank,
    )


def outcome_fingerprint(eve, results):
    # record.current compares structurally (ViewDefinition equality is
    # order-sensitive over SELECT/FROM/WHERE), so a committed rewriting
    # that differs anywhere — not just in the interface — breaks parity.
    # Every result's full evaluation list is compared too: a coalesced
    # follower renders its list on first read, and this is that read.
    return (
        [
            (record.name, record.alive, record.generations, record.current)
            for record in eve.vkb
        ],
        [
            (
                result.view_name,
                result.chosen.qc if result.chosen else None,
                [evaluation_fingerprint(e) for e in result.evaluations],
            )
            for result in results
        ],
    )


def follow_up_batch(eve, results):
    """Deletes of up to two relations the batch's winners moved onto, so
    a later batch rewrites leaders whose followers' lists are unread."""
    moved_onto = sorted(
        {
            name
            for result in results
            if result.chosen is not None
            for name in result.chosen.rewriting.view.relation_names
            if name not in result.chosen.rewriting.original.relation_names
            and eve.space.has_relation(name)
        }
    )
    return [
        DeleteRelation(eve.mkb.owner(name), name) for name in moved_onto[:2]
    ]


def apply_and_follow_up(eve, batch, scheduler):
    """Both batches' results; the first batch's evaluation lists are
    first read after the follow-up batch has committed."""
    results = eve.apply_changes(batch, scheduler=scheduler)
    later = follow_up_batch(eve, results)
    return results + eve.apply_changes(later, scheduler=scheduler)


def reference_fingerprint(eve, batch):
    """The batches applied by the serial, non-coalescing scheduler."""
    scheduler = SynchronizationScheduler(ScheduleConfig(coalesce=False))
    return outcome_fingerprint(
        eve, apply_and_follow_up(eve, batch, scheduler)
    )


SCHEDULERS = {
    "serial+coalesce": dict(),
    "plan-order": dict(order="plan"),
}


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    views=st.integers(min_value=6, max_value=24),
    changes=st.integers(min_value=6, max_value=18),
)
def test_executors_commit_identical_outcomes_on_storms(
    seed, views, changes
):
    reference_eve, batch = storm_system(seed, views, changes)
    reference = reference_fingerprint(reference_eve, batch)
    for label, config in SCHEDULERS.items():
        eve, batch = storm_system(seed, views, changes)
        results = apply_and_follow_up(
            eve, batch, SynchronizationScheduler(ScheduleConfig(**config))
        )
        assert outcome_fingerprint(eve, results) == reference, label


@settings(max_examples=4, deadline=None)
@given(
    views=st.integers(min_value=6, max_value=20),
    donors=st.integers(min_value=1, max_value=3),
)
def test_executors_commit_identical_outcomes_on_salvage_storms(
    views, donors
):
    relations = max(2, views // 4)
    reference_eve, batch = stress_system(views, relations, donors)
    reference = reference_fingerprint(reference_eve, batch)
    for label, config in SCHEDULERS.items():
        eve, batch = stress_system(views, relations, donors)
        results = apply_and_follow_up(
            eve, batch, SynchronizationScheduler(ScheduleConfig(**config))
        )
        assert outcome_fingerprint(eve, results) == reference, label


@pytest.mark.parametrize(
    ("views", "relations", "donors"),
    [(12, 4, 1), (12, 4, 2), (10, 5, 2), (16, 4, 3)],
)
def test_default_commits_reference_outcomes_on_pinned_salvage_storms(
    views, relations, donors
):
    """Fixed salvage shapes, so a parity break replays without a
    Hypothesis database: twin classes of one to three donors each."""
    reference_eve, batch = stress_system(views, relations, donors)
    reference = reference_fingerprint(reference_eve, batch)
    eve, batch = stress_system(views, relations, donors)
    results = apply_and_follow_up(eve, batch, SynchronizationScheduler())
    assert outcome_fingerprint(eve, results) == reference
    assert eve.last_schedule[0].coalesced > 0


@pytest.mark.parametrize("seed", [0, 5, 17])
def test_default_commits_reference_outcomes_on_pinned_mixed_storms(seed):
    """Renames, deletes and spare churn in one batch, at fixed seeds."""
    reference_eve, batch = storm_system(seed=seed, views=12, changes=10)
    reference = reference_fingerprint(reference_eve, batch)
    eve, batch = storm_system(seed=seed, views=12, changes=10)
    results = apply_and_follow_up(eve, batch, SynchronizationScheduler())
    assert outcome_fingerprint(eve, results) == reference


def replay_sharded(scheduler, batches, tail_changes=0, one_shot=False):
    """The sharded storm's batch stream (or its flattened change list,
    with ``one_shot``) on a fresh system, as ``bench_scheduler.py``'s
    ``sharded_storm`` lane replays it at scale."""
    scenario = build_sharded_storm_scenario(
        views=40,
        view_relations=10,
        donors_per_relation=2,
        batches=batches,
        tail_changes=tail_changes,
    )
    eve = EVESystem(space=scenario.space)
    for view in scenario.views:
        eve.define_view(view, materialize=False)
    stream = [scenario.changes] if one_shot else scenario.change_batches
    results = []
    for batch in stream:
        results.extend(eve.apply_changes(batch, scheduler=scheduler))
    return eve, results


@pytest.mark.parametrize(
    ("batches", "tail_changes"), [(1, 0), (2, 0), (4, 0), (4, 1)]
)
def test_sharded_storm_lanes_commit_identical_outcomes(batches, tail_changes):
    """The ``sharded_storm`` lanes' ``outcomes_equal`` gate at toy scale:
    serial + coalesce over the batch stream commits the reference's
    winners, QC-Values and evaluation lists."""
    reference_eve, reference_results = replay_sharded(
        SynchronizationScheduler(ScheduleConfig(coalesce=False)),
        batches,
        tail_changes,
    )
    eve, results = replay_sharded(
        SynchronizationScheduler(), batches, tail_changes
    )
    assert outcome_fingerprint(eve, results) == outcome_fingerprint(
        reference_eve, reference_results
    )
    assert all(result.survived for result in results)


@pytest.mark.parametrize("coalesce", [True, False], ids=["default", "reference"])
def test_sharded_storm_batches_replay_like_one_shot(coalesce):
    """Each batch touches a disjoint relation slice, so the chunked
    replay commits what one batch of every change commits."""
    config = ScheduleConfig(coalesce=coalesce)
    chunked_eve, chunked = replay_sharded(
        SynchronizationScheduler(config), batches=4
    )
    one_shot_eve, one_shot = replay_sharded(
        SynchronizationScheduler(config), batches=4, one_shot=True
    )
    assert len(chunked_eve.last_schedule) == 1
    assert outcome_fingerprint(chunked_eve, chunked) == outcome_fingerprint(
        one_shot_eve, one_shot
    )


def test_sharded_storm_searches_once_per_twin_class():
    """Coalescing is why the default lane beats the reference: per
    batch, every view beyond one per twin class rides on a leader."""
    reference_eve, _ = replay_sharded(
        SynchronizationScheduler(ScheduleConfig(coalesce=False)), batches=4
    )
    eve, _ = replay_sharded(SynchronizationScheduler(), batches=4)
    assert reference_eve.last_schedule[0].coalesced == 0
    (report,) = eve.last_schedule
    assert report.coalesced > 0
    assert report.coalesced < len(report.results)


def test_degraded_runs_still_salvage_every_view():
    """first_legal degradation trades QC for latency, never survival."""
    reference_eve, batch = stress_system(views=10, relations=5, donors=2)
    reference_results = reference_eve.apply_changes(batch)
    eve, batch = stress_system(views=10, relations=5, donors=2)
    results = eve.apply_changes(
        batch,
        scheduler=SynchronizationScheduler(
            ScheduleConfig(budget=0.0, degrade="first_legal")
        ),
    )
    assert [r.view_name for r in results] == [
        r.view_name for r in reference_results
    ]
    assert all(result.survived for result in results)
    total_reference = sum(r.chosen.qc for r in reference_results)
    total_degraded = sum(r.chosen.qc for r in results)
    assert total_degraded <= total_reference
