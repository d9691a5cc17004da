"""Property tests: a view's compiled maintenance program never goes stale.

:class:`~repro.maintenance.simulator.ViewMaintainer` compiles each view's
resolution, itinerary and seed filter once and re-checks the program on
every call against the definition object and the owners and schemas of
the view's relations.  These tests interleave data-update streams with
everything that can move those inputs — the six capability-change
kinds, the rewritings they trigger, view redefinitions and out-of-band
catalog edits — and require after every step that a system with warm
programs, the same system with a freshly built maintainer per step, and
a :meth:`~repro.config.SystemConfig.reference` replay agree on errors,
extents and CF_M/CF_T/CF_IO counters.

``V3`` is ``V2`` under another name, so the two share one compiled
program until a rewriting or redefinition sets them apart.  Out-of-band
churn in other catalogs moves the process-wide catalog epoch without
touching a view's relations, so the programs of views over untouched
names are kept without a placement check.  The same replays also check
that a report's plans — an ``apply_updates`` call's maintenance
itineraries and an ``apply_changes`` call's evaluation plans — built
only when the report is first read, equal the ones captured eagerly at
call time.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.eve import EVESystem
from repro.errors import MaintenanceError, UnknownRelationError
from repro.esql import explain
from repro.esql.ast import ViewDefinition
from repro.maintenance.simulator import ViewMaintainer
from repro.misd.statistics import RelationStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import AttributeType
from repro.space.changes import (
    AddAttribute,
    AddRelation,
    DeleteAttribute,
    DeleteRelation,
    RenameAttribute,
    RenameRelation,
)
from repro.report import PLAN_CAPTURE_LIMIT
from repro.space.space import InformationSpace, placement_maps

VALUES = st.integers(0, 4)
ROWS = st.tuples(VALUES, VALUES)

#: Each view keeps every evolution option open, so capability changes
#: rewrite it (drop, rename or replace) instead of killing it.
VIEWS = [
    "CREATE VIEW V0 (VE = '~') AS "
    "SELECT R.A (AR = true), R.B (AD = true, AR = true), "
    "S.C (AD = true, AR = true) "
    "FROM R (RR = true), S (RD = true, RR = true) "
    "WHERE (R.A = S.A) (CD = true, CR = true)",
    "CREATE VIEW V1 (VE = '~') AS "
    "SELECT S.A (AR = true), S.C (AD = true, AR = true), "
    "T.E (AD = true, AR = true) "
    "FROM S (RR = true), T (RD = true, RR = true) "
    "WHERE (S.C = T.D) (CD = true, CR = true) "
    "AND (T.E > 1) (CD = true, CR = true)",
    "CREATE VIEW V2 (VE = '~') AS "
    "SELECT R.A (AR = true), R.B (AD = true, AR = true) "
    "FROM R (RR = true) WHERE (R.B < 3) (CD = true, CR = true)",
    # V2's twin: one program serves both.
    "CREATE VIEW V3 (VE = '~') AS "
    "SELECT R.A (AR = true), R.B (AD = true, AR = true) "
    "FROM R (RR = true) WHERE (R.B < 3) (CD = true, CR = true)",
]

#: Abstract steps; concrete targets are picked when a step runs, from
#: the live state (identical in every system being compared).
STEPS = st.one_of(
    st.tuples(
        st.just("updates"),
        st.lists(
            st.tuples(st.integers(0, 9), st.sampled_from(["insert", "delete"]), ROWS),
            min_size=1,
            max_size=6,
        ),
    ),
    st.tuples(
        st.sampled_from(
            [
                "add_relation",
                "delete_relation",
                "rename_relation",
                "add_attribute",
                "delete_attribute",
                "rename_attribute",
                "redefine",
                "oob_rename_attribute",
                "oob_rehost_moved",
                "oob_rehost_retyped",
                "oob_churn",
                "oob_drop",
            ]
        ),
        st.integers(0, 9),
    ),
)


def build_eve(config: SystemConfig, tables) -> EVESystem:
    """R at IS1, S at IS2, T at IS3, plus U ≡ S at IS3 for salvage."""
    space = InformationSpace()
    for source in ("IS1", "IS2", "IS3"):
        space.add_source(source)
    for source, schema, rows in [
        ("IS1", Schema("R", ["A", "B"]), tables[0]),
        ("IS2", Schema("S", ["A", "C"]), tables[1]),
        ("IS3", Schema("T", ["D", "E"]), tables[2]),
        ("IS3", Schema("U", ["A", "C"]), tables[1]),
    ]:
        space.register_relation(
            source,
            Relation(schema, rows),
            RelationStatistics(cardinality=max(len(rows), 1)),
        )
    space.mkb.add_equivalence("S", "U", ["A", "C"])
    eve = EVESystem(space=space, config=config)
    for text in VIEWS:
        eve.define_view(text)
    return eve


def _pick(options, index):
    options = sorted(options)
    return options[index % len(options)] if options else None


def concrete(step, eve: EVESystem, counter: int):
    """Resolve an abstract step against ``eve``'s live state."""
    kind, argument = step
    space = eve.space
    relations = sorted(space.relations())
    if kind == "updates":
        stream, live = [], {n: list(space.relation(n).rows) for n in relations}
        for index, op, row in argument:
            name = _pick(relations, index)
            if name is None:
                continue
            if op == "delete":
                if row not in live[name]:
                    continue
                live[name].remove(row)
            else:
                live[name].append(row)
            stream.append((name, op, row))
        return ("updates", stream)
    if kind == "redefine":
        name = _pick([r.name for r in eve.vkb if r.alive], argument)
        return ("redefine", name) if name is not None else None
    name = _pick(relations, argument)
    if name is None:
        return None
    owner = space.owner_of(name).name
    attributes = space.relation(name).schema.attribute_names
    attribute = attributes[argument % len(attributes)]
    if kind == "add_relation":
        return ("change", kind, owner, f"N{counter}")
    if kind in ("delete_relation", "delete_attribute"):
        return ("change", kind, owner, name, attribute)
    if kind in ("rename_relation", "add_attribute", "rename_attribute"):
        return ("change", kind, owner, name, attribute, counter)
    if kind == "oob_rename_attribute":
        return ("oob_rename_attribute", owner, name, attribute, f"{attribute}o{counter}")
    if kind == "oob_rehost_moved":
        target = _pick([s for s in space.source_names if s != owner], argument)
        return ("oob_rehost", owner, name, target, False)
    if kind == "oob_churn":
        # Host and drop a relation of a fresh name in some catalog.
        return ("oob_churn", _pick(space.source_names, argument), f"Z{counter}")
    if kind == "oob_drop":
        return ("oob_drop", owner, name)
    if kind == "statistics":
        return ("statistics", name, argument)
    return ("oob_rehost", owner, name, owner, True)


def redefined(view: ViewDefinition) -> ViewDefinition:
    """Same name and relations, different condition or projection."""
    if view.where:
        return ViewDefinition(view.name, view.select, view.from_, (), view.extent_parameter)
    return ViewDefinition(
        view.name, view.select[::-1], view.from_, view.where, view.extent_parameter
    )


def change(kind, owner, name, attribute=None, counter=None):
    """A fresh capability change (an added relation is never shared)."""
    if kind == "add_relation":
        return AddRelation(owner, name, Relation(Schema(name, ["A", "C"])))
    if kind == "delete_relation":
        return DeleteRelation(owner, name)
    if kind == "rename_relation":
        return RenameRelation(owner, name, f"{name}r{counter}")
    if kind == "add_attribute":
        return AddAttribute(owner, name, Attribute(f"X{counter}"), 0)
    if kind == "delete_attribute":
        return DeleteAttribute(owner, name, attribute)
    return RenameAttribute(owner, name, attribute, f"{attribute}r{counter}")


def run_step(eve: EVESystem, step):
    """Apply one concrete step; returns what it observably did."""
    kind = step[0]
    try:
        if kind == "updates":
            charged = eve.apply_updates(step[1])
            return ("ok", charged.messages, charged.bytes_transferred, charged.io_operations)
        if kind == "change":
            results = eve.apply_changes([change(*step[1:])])
            return ("ok", [(r.view_name, r.chosen.qc if r.chosen else None) for r in results])
        if kind == "redefine":
            view = redefined(eve.vkb.current(step[1]))
            eve.vkb.drop(view.name)
            eve.define_view(view)
            return ("ok",)
        if kind == "oob_rename_attribute":
            _, owner, name, old, new = step
            eve.space.source(owner).catalog.rename_attribute(name, old, new)
            return ("ok",)
        if kind == "oob_churn":
            _, owner, name = step
            catalog = eve.space.source(owner).catalog
            catalog.add(Relation(Schema(name, ["A"])))
            catalog.remove(name)
            return ("ok",)
        if kind == "oob_drop":
            eve.space.source(step[1]).catalog.remove(step[2])
            return ("ok",)
        if kind == "statistics":
            _, name, argument = step
            eve.space.mkb.statistics.register(
                name,
                RelationStatistics(
                    cardinality=3 * argument + 1,
                    selectivity=(argument % 4) / 4,
                ),
            )
            return ("ok",)
        _, owner, name, target, retype = step
        relation = eve.space.source(owner).catalog.remove(name)
        if retype:
            schema = Schema(
                name,
                [Attribute(a.name, AttributeType.FLOAT) for a in relation.schema],
            )
            rows = [tuple(float(v) for v in row) for row in relation.rows]
            relation = Relation(schema, rows)
        eve.space.source(target).host(relation)
        return ("ok",)
    except Exception as error:  # noqa: BLE001 - the error class is the outcome
        return ("error", type(error).__name__)


def fingerprint(eve: EVESystem):
    extents = {
        record.name: eve.extent(record.name)
        for record in eve.vkb
        if record.alive and record.name in eve._extents
    }
    for name, extent in extents.items():
        # Maintained extent rows keep the typed-row contract: every value is
        # NULL or exactly its column's class.
        types = extent.schema.row_types
        for row in extent.rows:
            assert all(
                value is None or type(value) is kind
                for value, kind in zip(row, types)
            ), (name, row, types)
    return {name: sorted(extent.rows) for name, extent in extents.items()}


def fresh_maintainer(eve: EVESystem) -> None:
    eve.maintainer = ViewMaintainer(eve.space, config=eve.config.maintenance)


@st.composite
def episodes(draw):
    tables = [draw(st.lists(ROWS, max_size=6)) for _ in range(3)]
    return tables, draw(st.lists(STEPS, min_size=1, max_size=10))


def replay_and_compare(tables, steps) -> None:
    warm = build_eve(SystemConfig(), tables)
    cold = build_eve(SystemConfig(), tables)
    reference = build_eve(SystemConfig.reference(), tables)
    for counter, abstract in enumerate(steps):
        step = concrete(abstract, warm, counter)
        if step is None:
            continue
        fresh_maintainer(cold)
        outcome = run_step(warm, step)
        assert run_step(cold, step) == outcome, step
        assert run_step(reference, step) == outcome, step
        expected = fingerprint(reference)
        assert fingerprint(warm) == expected, step
        assert fingerprint(cold) == expected, step


@given(episodes())
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_program_reuse_matches_cold_and_reference(data):
    replay_and_compare(*data)


# ----------------------------------------------------------------------
# Each way a program's inputs can move, pinned deterministically.
# ----------------------------------------------------------------------
TABLES = [[(1, 2), (2, 0), (3, 1)], [(1, 2), (2, 3), (3, 1)], [(2, 4), (3, 2)]]
WARM_UP = ("updates", [(0, "insert", (2, 1)), (1, "insert", (2, 2))])


@pytest.mark.parametrize(
    "edit",
    [
        ("oob_rename_attribute", 0),  # R.A, read by V0 and V2
        ("oob_rename_attribute", 1),  # S.C, read by V0 and V1
        ("oob_rehost_moved", 1),  # S moves from IS2 to IS3
        ("oob_rehost_moved", 2),  # T moves from IS3 to IS1
        ("oob_rehost_retyped", 0),  # R comes back with FLOAT columns
        ("oob_rehost_retyped", 1),  # S comes back with FLOAT columns
        ("redefine", 0),  # V0 loses its WHERE clause
        ("redefine", 1),  # V1 loses its WHERE clauses
        ("rename_attribute", 1),  # S.C: V0 and V1 are rewritten
        ("delete_relation", 1),  # S: V0 and V1 move to U
        ("add_attribute", 0),  # R gains X
    ],
)
def test_program_moves_with_its_inputs(edit):
    replay_and_compare(TABLES, [WARM_UP, edit, WARM_UP, WARM_UP])


CHURN = [("oob_churn", 0), ("oob_churn", 1), ("oob_churn", 2)]


@pytest.mark.parametrize(
    "edit",
    [
        ("rename_relation", 0),  # R renamed by a capability change
        ("rename_relation", 1),  # S renamed: V0 and V1 are rewritten
        ("oob_rehost_moved", 0),  # R moves from IS1 to IS2
        ("oob_drop", 0),  # R leaves its catalog out of band
        ("oob_drop", 2),  # T leaves its catalog out of band
        ("delete_relation", 1),  # S dropped: V0 and V1 move to U
    ],
)
def test_program_follows_its_relation_while_other_catalogs_churn(edit):
    replay_and_compare(
        TABLES, [WARM_UP, *CHURN, WARM_UP, edit, *CHURN, WARM_UP, WARM_UP]
    )


class PlacementCounter:
    """The maintainer's view of the space, counting placement calls."""

    def __init__(self, space: InformationSpace) -> None:
        self.space = space
        self.calls: list[tuple[str, ...]] = []

    def placement(self, relations):
        self.calls.append(tuple(relations))
        return self.space.placement(relations)

    def __getattr__(self, name):
        return getattr(self.space, name)


def test_churn_elsewhere_skips_the_placement_check():
    eve = build_eve(SystemConfig(), TABLES)
    run_step(eve, concrete(WARM_UP, eve, 0))
    programs = {
        name: held.program for name, held in eve.maintainer._programs.items()
    }
    eve.maintainer._space = counter_space = PlacementCounter(eve.space)
    calls = counter_space.calls
    for counter, step in enumerate(CHURN, start=1):
        run_step(eve, concrete(step, eve, counter))
    run_step(eve, concrete(WARM_UP, eve, 4))
    assert calls == []  # the epoch moved, but no view's names did
    run_step(eve, concrete(("oob_rename_attribute", 2), eve, 5))  # T.E
    run_step(eve, ("updates", [("R", "insert", (4, 4)), ("S", "insert", (4, 4))]))
    # Only V1 reads T, so only its placement is re-derived.
    assert calls == [("S", "T")]
    assert {
        name: held.program for name, held in eve.maintainer._programs.items()
    } == {**programs, "V1": eve.maintainer._programs["V1"].program}


def test_capturing_maintenance_plans_derives_no_placement(monkeypatch):
    """The report reads each flushed view's placement from the program
    its flush just confirmed: capturing adds no placement call."""
    eve = build_eve(SystemConfig(), TABLES)
    run_step(eve, concrete(WARM_UP, eve, 0))
    calls = []
    original = InformationSpace.placement

    def counted(space, relations):
        calls.append(tuple(relations))
        return original(space, relations)

    monkeypatch.setattr(InformationSpace, "placement", counted)
    run_step(eve, concrete(WARM_UP, eve, 1))
    captured = eve.last_report.plan_sources
    assert {capture.view.name for capture in captured} == {
        "V0", "V1", "V2", "V3"
    }
    assert calls == []
    # T's schema moves: V1's flush re-derives its placement once, and
    # the capture reuses it.
    run_step(eve, concrete(("oob_rename_attribute", 2), eve, 2))
    run_step(eve, concrete(WARM_UP, eve, 3))
    assert calls == [("S", "T")]
    assert list(eve.last_report.plans) == eager_plans(eve)


def test_a_dead_view_leaves_no_program():
    eve = build_eve(SystemConfig(), TABLES)
    run_step(eve, concrete(WARM_UP, eve, 0))
    assert {"V0", "V1", "V2", "V3"} <= set(eve.maintainer._programs)
    # R has no donor and no view may drop it: V0, V2 and V3 die.
    run_step(eve, ("change", "delete_relation", "IS1", "R"))
    assert not any(eve.is_alive(name) for name in ("V0", "V2", "V3"))
    assert set(eve.maintainer._programs) == {"V1"}
    assert list(eve.maintainer._shared.values()) == [
        eve.maintainer._programs["V1"].program
    ]
    # S moves V1 to its equivalent U; U has no donor, so V1 dies too
    # and no program is left, shared or held.
    run_step(eve, ("change", "delete_relation", "IS2", "S"))
    run_step(eve, ("updates", [("U", "insert", (2, 2))]))
    assert eve.is_alive("V1")
    run_step(eve, ("change", "delete_relation", "IS3", "U"))
    assert not eve.is_alive("V1")
    assert eve.maintainer._programs == {}
    assert len(eve.maintainer._shared) == 0


def test_identical_views_share_one_program_until_rewritten():
    eve = build_eve(SystemConfig(), TABLES)
    run_step(eve, concrete(WARM_UP, eve, 0))
    held = eve.maintainer._programs
    assert held["V2"].program is held["V3"].program
    assert held["V0"].program is not held["V2"].program
    assert len(eve.maintainer._shared) == 3  # V0, V1, and V2 = V3
    # A capability change that rewrites both alike keeps them together.
    run_step(eve, ("change", "rename_attribute", "IS1", "R", "B", 0))
    run_step(eve, concrete(WARM_UP, eve, 1))
    assert held["V2"].program is held["V3"].program
    # Redefining one sets them apart; the other keeps its program.
    kept = held["V2"].program
    run_step(eve, ("redefine", "V3"))
    run_step(eve, concrete(WARM_UP, eve, 2))
    assert held["V2"].program is kept
    assert held["V3"].program is not kept
    assert len(eve.maintainer._shared) == 4


def test_inconsistency_error_names_the_flushing_view():
    eve = build_eve(SystemConfig(), TABLES)
    run_step(eve, concrete(WARM_UP, eve, 0))
    assert eve.maintainer._programs["V3"].program is (
        eve.maintainer._programs["V2"].program
    )
    # Only V3's extent loses the row, so only V3's flush finds it gone.
    assert eve._extents.mutable("V3").delete((1, 2))
    with pytest.raises(MaintenanceError, match="view 'V3' is inconsistent"):
        eve.apply_updates([("R", "delete", (1, 2))])
    assert (1, 2) not in eve.extent("V2").rows


# ----------------------------------------------------------------------
# Maintenance itineraries are built when a report is first read.
# ----------------------------------------------------------------------
def eager_plans(eve: EVESystem) -> list[dict]:
    """The itineraries of ``eve.last_report`` as an eager capture builds
    them at call time, from the live definitions and placements."""
    plans = []
    for flush in eve.last_report.flushes:
        record = eve.vkb.record(flush.view)
        if len(plans) >= PLAN_CAPTURE_LIMIT or not record.alive:
            continue
        view = record.current
        names = view.relation_names
        owners, schemas = placement_maps(names, eve.space.placement(names))
        actual = {
            "messages": flush.counters.messages,
            "bytes_transferred": flush.counters.bytes_transferred,
            "io_operations": flush.counters.io_operations,
            "updates": flush.updates,
        }
        for relation in flush.relations[: PLAN_CAPTURE_LIMIT - len(plans)]:
            plans.append(
                explain.explain_maintenance(
                    view, owners, schemas, relation,
                    config=eve.config.maintenance, actual=actual,
                ).to_dict()
            )
    return plans


def replay_reports(tables, steps) -> None:
    early = build_eve(SystemConfig(), tables)
    late = build_eve(SystemConfig(), tables)
    held = []
    for counter, abstract in enumerate(steps):
        step = concrete(abstract, early, counter)
        if step is None:
            continue
        assert run_step(late, step) == run_step(early, step), step
        if step[0] == "updates":
            payload = json.loads(early.last_report.to_json())
            assert payload["plans"]["views"] == eager_plans(early), step
            held.append((late.last_report, early.last_report.to_json()))
    # Read only now, after every later rename, move, drop and rewriting.
    for report, expected in held:
        assert report.to_json() == expected


@given(episodes())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_plans_read_late_equal_plans_captured_at_call_time(data):
    replay_reports(*data)


# ----------------------------------------------------------------------
# Evaluation plans are built when a report is first read, too.
# ----------------------------------------------------------------------
def eager_evaluation_plans(eve: EVESystem) -> list[dict]:
    """The evaluation plans of ``eve.last_report`` as an eager capture
    builds them at call time, from the live space and statistics."""
    candidates = sorted(
        {
            row.view
            for row in eve.last_report.synchronizations
            if row.survived and row.view in eve._extents
        }
    )
    plans = []
    for name in candidates[:PLAN_CAPTURE_LIMIT]:
        record = eve.vkb.record(name)
        if not record.alive:
            continue
        try:
            plan = explain.build_plan(
                record.current,
                eve.space.relation,
                eve.space.mkb.statistics,
                eve.config.engine,
            )
        except Exception:  # noqa: BLE001 - an eager capture drops it too
            continue
        plan.actual_rows = eve.extent(name).cardinality
        plans.append(plan.to_dict())
    return plans


REPORT_STEPS = st.one_of(
    STEPS, st.tuples(st.just("statistics"), st.integers(0, 9))
)


@st.composite
def change_episodes(draw):
    tables = [draw(st.lists(ROWS, max_size=6)) for _ in range(3)]
    return tables, draw(st.lists(REPORT_STEPS, min_size=1, max_size=10))


@given(change_episodes())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_evaluation_plans_read_late_equal_plans_captured_at_call_time(data):
    """``apply_changes`` reports read only after later data updates,
    deletes, renames and statistics registrations render the plans an
    eager capture built at call time (the twin system's report differs
    only in wall-clock timings, so the plans section is compared)."""
    tables, steps = data
    early = build_eve(SystemConfig(), tables)
    late = build_eve(SystemConfig(), tables)
    held = []
    for counter, abstract in enumerate(steps):
        step = concrete(abstract, early, counter)
        if step is None:
            continue
        outcome = run_step(late, step)
        assert outcome == run_step(early, step), step
        # A change that raised (say, rematerializing a view an out-of-band
        # rename left stale) leaves no report of its own to compare.
        if step[0] == "change" and outcome[0] == "ok":
            expected = json.loads(early.last_report.to_json())["plans"]
            assert expected["views"] == eager_evaluation_plans(early), step
            held.append((late.last_report, expected))
    for report, expected in held:
        assert json.loads(report.to_json())["plans"] == expected


def test_unread_reports_build_no_plans(monkeypatch):
    calls = []
    original = explain.explain_maintenance

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return original(*args, **kwargs)

    monkeypatch.setattr(explain, "explain_maintenance", counted)
    eve = build_eve(SystemConfig(), TABLES)
    for counter in range(3):
        run_step(eve, concrete(WARM_UP, eve, counter))
    report = eve.last_report
    assert calls == []
    # Reading the report builds each captured itinerary once.
    assert [(plan["view"], plan["relation"]) for plan in report.plans] == [
        ("V0", "R"), ("V2", "R"), ("V3", "R"), ("V0", "S"), ("V1", "S"),
    ]
    report.to_json()
    assert calls == ["V0", "V2", "V3", "V0", "V1"]


def test_unread_change_reports_build_no_evaluation_plans(monkeypatch):
    calls = []
    original = explain.build_plan

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return original(*args, **kwargs)

    monkeypatch.setattr(explain, "build_plan", counted)
    eve = build_eve(SystemConfig(), TABLES)
    run_step(eve, concrete(WARM_UP, eve, 0))
    # S.C renamed: V0 and V1 are rewritten and rematerialized.
    run_step(eve, ("change", "rename_attribute", "IS2", "S", "C", 1))
    run_step(eve, concrete(WARM_UP, eve, 2))
    report = eve.last_report
    run_step(eve, ("change", "rename_attribute", "IS1", "R", "B", 3))
    assert calls == []
    assert report.operation == "apply_updates"
    report = eve.last_report
    # R.B renamed: V0, V2 and V3 are rewritten; reading builds each once.
    assert [plan["view"] for plan in report.plans] == ["V0", "V2", "V3"]
    report.to_json()
    assert calls == ["V0", "V2", "V3"]


class TestOwnerOf:
    def build(self):
        space = InformationSpace()
        space.add_source("IS1")
        space.add_source("IS2")
        space.register_relation("IS1", Relation(Schema("R", ["A"]), [(1,)]))
        return space

    def test_owner_follows_a_move(self):
        space = self.build()
        assert space.owner_of("R").name == "IS1"
        relation = space.source("IS1").catalog.remove("R")
        space.source("IS2").host(relation)
        assert space.owner_of("R").name == "IS2"
        assert space.relation("R") is relation

    def test_deleted_relation_raises(self):
        space = self.build()
        assert space.owner_of("R").name == "IS1"
        space.delete_relation("R")
        with pytest.raises(UnknownRelationError):
            space.owner_of("R")

    def test_placement_is_owner_and_schema(self):
        space = self.build()
        schema = space.relation("R").schema
        assert space.placement(["R"]) == (("IS1", schema),)
