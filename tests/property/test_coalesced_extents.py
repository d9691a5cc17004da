"""Property tests: a coalesced follower's extent is its own, fresh.

Under the default configuration the scheduler coalesces views that
differ only in name: the class leader is searched and rematerialized,
and each follower receives the leader's committed rewriting renamed and
— when the leader was finalized alive and materialized — a renamed copy
of the leader's *fresh* extent instead of an evaluation of its own.

The property: after every batch (and after resuming a deferred one),
every materialized view's extent equals ``evaluate_view`` of its own
current definition, and its schema carries its own name — with serving
armed (a pin held across each batch) and unarmed.  The scenarios mix
the cases a copy could get wrong: materialized followers of an
unmaterialized leader, classes whose leader dies (no donor, ``chosen``
is None) and zero-budget ``degrade="defer"`` batches resumed later.
Donor relations hold different rows than the relations they replace,
so a follower that copied its leader's *pre-batch* extent would fail.

``define_view`` shares row tuples the same way: a view defined like an
earlier one (modulo name) keeps the earlier extent's tuples when the
rows are equal.  Data updates between batches check that the shared
tuples never tie two extents' bags together.
"""

from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ScheduleConfig, SystemConfig
from repro.core.eve import EVESystem
from repro.errors import SynchronizationError
from repro.esql.ast import coalesce_fingerprint
from repro.esql.evaluator import evaluate_view
from repro.misd.statistics import RelationStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.changes import DeleteRelation
from repro.space.space import InformationSpace
from repro.sync.scheduler import SynchronizationScheduler

ROWS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=6
)

#: Every view of one class: ``{relation}`` and ``{low}`` fill in the
#: relation and the class's own filter constant.
VIEW = (
    "CREATE VIEW {name} (VE = '~') AS "
    "SELECT {relation}.A (AR = true), {relation}.B (AD = true, AR = true) "
    "FROM {relation} (RR = true) WHERE ({relation}.A >= {low}) (CR = true)"
)


def build_eve(families, classes, serve):
    """One family per entry of ``families``: ``(rows, donors)`` where
    ``donors`` is a list of row lists for equivalent mirrors of R<i>.
    ``classes`` rows are ``(family, low, materialize flags)``; each flag
    defines one view of that class, in order (the first is the leader).
    """
    space = InformationSpace()
    space.add_source("IS1")
    space.add_source("IS2")
    for index, (rows, donors) in enumerate(families):
        names = [f"R{index}"] + [f"R{index}D{d}" for d in range(len(donors))]
        for name, data in zip(names, [rows] + donors):
            space.register_relation(
                "IS1" if name == names[0] else "IS2",
                Relation(Schema(name, ["A", "B"]), data),
                RelationStatistics(cardinality=len(data)),
            )
        for position, left in enumerate(names):
            for right in names[position + 1:]:
                space.mkb.add_equivalence(left, right, ["A", "B"])
    eve = EVESystem(space=space, config=SystemConfig())
    materialized = set()
    for number, (family, low, flags) in enumerate(classes):
        for copy, materialize in enumerate(flags):
            name = f"C{number}V{copy}"
            eve.define_view(
                VIEW.format(name=name, relation=f"R{family}", low=low),
                materialize=materialize,
            )
            if materialize:
                materialized.add(name)
    if serve:
        eve.snapshot().release()  # arm MVCC serving mode
    return eve, materialized


def assert_extents_fresh(eve, materialized):
    for record in eve.vkb:
        if record.name not in materialized:
            continue
        if not record.alive:
            with pytest.raises(SynchronizationError):
                eve.extent(record.name)
            continue
        extent = eve.extent(record.name)
        assert extent.name == record.name
        expected = evaluate_view(
            record.current, eve.space.relation, eve.space.mkb.statistics
        )
        assert extent == expected, record.name


def apply_batch(eve, materialized, batch, defer, serve):
    pin = eve.snapshot() if serve else None
    scheduler = (
        SynchronizationScheduler(ScheduleConfig(budget=0.0, degrade="defer"))
        if defer
        else None
    )
    eve.apply_changes(batch, scheduler=scheduler)
    deferred = [
        record.view_name
        for report in eve.last_schedule
        for record in report.deferred
    ]
    if defer:
        assert all(report.results == () for report in eve.last_schedule)
        eve.resume_deferred()
    assert_extents_fresh(eve, materialized)
    if pin is not None:
        pin.release()
    return deferred


@st.composite
def scenario(draw):
    families = [
        (draw(ROWS), [draw(ROWS) for _ in range(draw(st.integers(0, 2)))])
        for _ in range(draw(st.integers(1, 3)))
    ]
    classes = [
        (
            draw(st.integers(0, len(families) - 1)),
            draw(st.integers(0, 2)),
            draw(st.lists(st.booleans(), min_size=2, max_size=4)),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    # One batch per deletion, families interleaved; a family loses R<i>
    # first, then its donors in order.  Batches may be deferred.
    deletions = [
        family
        for family, (_, donors) in enumerate(families)
        for _ in range(draw(st.integers(0, len(donors) + 1)))
    ]
    deletions = draw(st.permutations(deletions))
    defers = [draw(st.booleans()) for _ in deletions]
    # Data updates before each batch, applied to every live relation of
    # a family so donors stay equivalent to what they replace.
    updates = [
        draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(families) - 1),
                    st.sampled_from(["insert", "delete"]),
                    st.tuples(st.integers(0, 4), st.integers(0, 4)),
                ),
                max_size=3,
            )
        )
        for _ in deletions
    ]
    return families, classes, deletions, defers, updates, draw(st.booleans())


def relation_name(family, step):
    return f"R{family}" if step == 0 else f"R{family}D{step - 1}"


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario())
def test_follower_extents_match_their_own_definition(data):
    families, classes, deletions, defers, updates, serve = data
    eve, materialized = build_eve(families, classes, serve)
    assert_extents_fresh(eve, materialized)
    steps = {family: 0 for family in range(len(families))}
    for family, defer, stream in zip(deletions, defers, updates):
        for target, kind, row in stream:
            live = range(steps[target], len(families[target][1]) + 1)
            for relation in map(partial(relation_name, target), live):
                if kind == "insert" or row in eve.space.relation(relation).rows:
                    eve.apply_updates([(relation, kind, row)])
        assert_extents_fresh(eve, materialized)
        name = relation_name(family, steps[family])
        steps[family] += 1
        source = "IS1" if name == f"R{family}" else "IS2"
        apply_batch(
            eve, materialized, [DeleteRelation(source, name)], defer, serve
        )


# ----------------------------------------------------------------------
# The named cases, each under serving armed and unarmed
# ----------------------------------------------------------------------
FAMILY = ([(0, 1), (1, 2), (2, 3)], [[(3, 4), (4, 0), (1, 1)]])


@pytest.mark.parametrize("serve", [False, True], ids=["direct", "serving"])
def test_views_defined_alike_share_row_tuples(serve):
    eve, materialized = build_eve([FAMILY], [(0, 1, [True, True])], serve)
    first, second = eve.extent("C0V0"), eve.extent("C0V1")
    assert second.name == "C0V1" and second.rows is not first.rows
    assert all(a is b for a, b in zip(first.rows, second.rows))
    # And one copy of their class key.
    key = coalesce_fingerprint(eve.vkb.current("C0V0"))
    assert coalesce_fingerprint(eve.vkb.current("C0V1")) is key
    # Each keeps its own bag: maintaining one never reaches the other.
    eve.apply_updates([("R0", "insert", (4, 4)), ("R0", "delete", (1, 2))])
    assert_extents_fresh(eve, materialized)
    # A copy defined later shares the maintained twin's tuples.
    eve.define_view(VIEW.format(name="C0V2", relation="R0", low=1))
    assert_extents_fresh(eve, materialized | {"C0V2"})
    third = eve.extent("C0V2")
    assert all(a is b for a, b in zip(eve.extent("C0V1").rows, third.rows))
    assert coalesce_fingerprint(eve.vkb.current("C0V2")) is key


@pytest.mark.parametrize("serve", [False, True], ids=["direct", "serving"])
def test_materialized_followers_of_an_unmaterialized_leader(serve):
    eve, materialized = build_eve(
        [FAMILY], [(0, 1, [False, True, True])], serve
    )
    apply_batch(eve, materialized, [DeleteRelation("IS1", "R0")], False, serve)
    assert eve.last_schedule[0].coalesced == 2
    assert eve.vkb.current("C0V1").relation_names == ("R0D0",)


@pytest.mark.parametrize("serve", [False, True], ids=["direct", "serving"])
def test_followers_copy_the_leaders_fresh_extent(serve):
    eve, materialized = build_eve([FAMILY], [(0, 1, [True, True])], serve)
    before = eve.extent("C0V1")
    apply_batch(eve, materialized, [DeleteRelation("IS1", "R0")], False, serve)
    leader, follower = eve.extent("C0V0"), eve.extent("C0V1")
    assert follower != before
    # A renamed copy: its own bag, the leader's row tuples.
    assert follower is not leader and follower.rows is not leader.rows
    assert all(a is b for a, b in zip(follower.rows, leader.rows))


@pytest.mark.parametrize("serve", [False, True], ids=["direct", "serving"])
def test_a_dying_leader_takes_its_followers_along(serve):
    eve, materialized = build_eve(
        [([(0, 1)], [])], [(0, 0, [True, True, False])], serve
    )
    apply_batch(eve, materialized, [DeleteRelation("IS1", "R0")], False, serve)
    results = eve.last_schedule[0].results
    assert [result.chosen for result in results] == [None, None, None]
    assert not any(eve.is_alive(f"C0V{copy}") for copy in range(3))


@pytest.mark.parametrize("serve", [False, True], ids=["direct", "serving"])
def test_deferred_batch_resumes_to_fresh_extents(serve):
    eve, materialized = build_eve(
        [FAMILY], [(0, 1, [True, True]), (0, 2, [False, True])], serve
    )
    deferred = apply_batch(
        eve, materialized, [DeleteRelation("IS1", "R0")], True, serve
    )
    assert deferred == ["C0V0", "C0V1", "C1V0", "C1V1"]
    assert all(eve.generations(name) == 1 for name in deferred)


@pytest.mark.parametrize("serve", [False, True], ids=["direct", "serving"])
def test_a_rewritten_twin_shares_nothing(serve):
    eve, materialized = build_eve([FAMILY], [(0, 1, [True])], serve)
    apply_batch(eve, materialized, [DeleteRelation("IS1", "R0")], False, serve)
    # A new R0 with other rows; C0V0 now reads R0D0.
    eve.register_relation(
        "IS1",
        Relation(Schema("R0", ["A", "B"]), [(2, 2), (3, 3)]),
        RelationStatistics(cardinality=2),
    )
    eve.define_view(VIEW.format(name="C0V1", relation="R0", low=1))
    assert_extents_fresh(eve, materialized | {"C0V1"})
