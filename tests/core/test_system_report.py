"""Tests for the serializable per-call SystemReport."""

import json
import sys
from pathlib import Path

import pytest

from repro.config import ScheduleConfig, SystemConfig
from repro.core.eve import EVESystem
from repro.misd.statistics import RelationStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.report import REPORT_SCHEMA_VERSION, SystemReport
from repro.space.changes import DeleteRelation, RenameRelation

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from validate_bench import validate_system_report  # noqa: E402


def build_system(**kwargs):
    eve = EVESystem(**kwargs)
    eve.add_source("IS1")
    eve.add_source("IS2")
    eve.register_relation(
        "IS1",
        Relation(Schema("R", ["A", "B"]), [(1, 10), (2, 20)]),
        RelationStatistics(cardinality=2),
    )
    eve.register_relation(
        "IS2",
        Relation(Schema("RM", ["A", "B"]), [(1, 10), (2, 20)]),
        RelationStatistics(cardinality=2),
    )
    eve.mkb.add_equivalence("R", "RM", ["A", "B"])
    eve.define_view(
        "CREATE VIEW V (VE = '~') AS "
        "SELECT R.A (AR = true), R.B (AD = true, AR = true) "
        "FROM R (RR = true)"
    )
    return eve


class TestApplyChangesReport:
    def test_report_aggregates_results_and_schedule(self):
        eve = build_system()
        results = eve.apply_changes([DeleteRelation("IS1", "R")])
        report = eve.last_report
        assert report.operation == "apply_changes"
        assert [r.view for r in report.synchronizations] == ["V"]
        (record,) = report.synchronizations
        assert record.survived
        assert record.qc == results[0].chosen.qc
        assert record.policy == "pruned"
        assert report.schedules == eve.last_schedule
        assert report.counters.legal >= 1

    def test_degradation_and_deferral_surface(self):
        eve = build_system(
            config=SystemConfig(
                schedule=ScheduleConfig(budget=0.0, degrade="defer")
            )
        )
        eve.apply_changes([DeleteRelation("IS1", "R")])
        report = eve.last_report
        assert report.deferred_views == ("V",)
        assert report.synchronizations == ()
        payload = report.to_dict()
        assert payload["schedule"]["deferred"] == ["V"]
        assert payload["schedule"]["batches"][0]["budget"] == 0.0

    def test_to_dict_schema_shape(self):
        eve = build_system()
        eve.apply_changes([DeleteRelation("IS1", "R")])
        payload = eve.last_report.to_dict()
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        assert set(payload) == {
            "schema_version",
            "operation",
            "synchronization",
            "schedule",
            "maintenance",
            "plans",
            "serving",
        }
        sync = payload["synchronization"]
        assert sync["survived"] == 1 and sync["undefined"] == 0
        (view_row,) = sync["views"]
        assert set(view_row) == {
            "view", "change", "survived", "qc", "policy", "counters",
        }
        assert "DeleteRelation" in view_row["change"]
        (batch,) = payload["schedule"]["batches"]
        assert batch["views"] == 1
        # v4 keeps the dispatch keys as constants: one in-process path.
        assert batch["executor"] == "serial"
        assert batch["workers"] == 1
        assert batch["shards"] == []
        assert batch["executor_fallback"] is None
        assert payload["schedule"]["shards"] == []
        # The empty half is present, not absent.
        assert payload["maintenance"]["flushes"] == []
        assert payload["maintenance"]["updates"] == 0
        # Serving is always present (schema v4); disabled by default.
        assert payload["serving"] == {
            "enabled": False,
            "version": 0,
            "published": 0,
            "staged": 0,
            "copied": 0,
            "pins": 0,
        }

    @pytest.mark.parametrize(
        ("config", "changes", "expected"),
        [
            pytest.param(
                SystemConfig(),
                [DeleteRelation("IS1", "R")],
                [{"views": 2, "coalesced": 1}],
                id="coalesced",
            ),
            pytest.param(
                SystemConfig.reference(),
                [DeleteRelation("IS1", "R")],
                [{"views": 2, "coalesced": 0}],
                id="reference",
            ),
            pytest.param(
                SystemConfig.bounded(budget=0.0, degrade="defer"),
                [DeleteRelation("IS1", "R")],
                [{"views": 2, "deferred": ["V", "W"]}],
                id="deferred",
            ),
            pytest.param(
                SystemConfig.bounded(budget=0.0),
                [DeleteRelation("IS1", "R")],
                [{"views": 2, "degraded": ["V", "W"]}],
                id="degraded",
            ),
            pytest.param(
                SystemConfig(),
                # An identity chain: two scheduler executions, one call.
                [
                    RenameRelation("IS1", "R", "RX"),
                    DeleteRelation("IS1", "RX"),
                ],
                [{"views": 2}, {"views": 2}],
                id="two-executions",
            ),
        ],
    )
    def test_every_batch_writes_the_v4_dispatch_constants(
        self, config, changes, expected
    ):
        eve = build_system(config=config)
        eve.define_view(  # V's twin, so the default coalesces the pair
            "CREATE VIEW W (VE = '~') AS "
            "SELECT R.A (AR = true), R.B (AD = true, AR = true) "
            "FROM R (RR = true)"
        )
        eve.apply_changes(changes)
        schedule = eve.last_report.to_dict()["schedule"]
        assert len(schedule["batches"]) == len(expected)
        for batch, facts in zip(schedule["batches"], expected):
            assert {key: batch[key] for key in facts} == facts
            assert batch["executor"] == "serial"
            assert batch["workers"] == 1
            assert batch["shards"] == []
            assert batch["executor_fallback"] is None
        assert schedule["shards"] == []
        json.loads(eve.last_report.to_json())

    def test_serving_section_reflects_snapshot_activity(self):
        eve = build_system()
        eve.snapshot().release()  # arm the serving plane
        eve.apply_changes([DeleteRelation("IS1", "R")])
        serving = eve.last_report.to_dict()["serving"]
        assert serving["enabled"] is True
        assert serving["published"] == 1  # one atomic publish per batch
        assert serving["version"] == eve._extents.version
        assert serving["pins"] == 0
        # apply_changes rematerializes fresh extents: zero COW copies.
        assert serving["copied"] == 0

    def test_to_json_is_stable_and_parseable(self):
        eve = build_system()
        eve.apply_changes([DeleteRelation("IS1", "R")])
        wire = eve.last_report.to_json(indent=2)
        parsed = json.loads(wire)
        assert parsed == json.loads(eve.last_report.to_json())
        # sort_keys: serialization order is deterministic
        assert wire.index('"maintenance"') < wire.index('"operation"')


class TestApplyUpdatesReport:
    def test_report_records_flushes_and_counters(self):
        eve = build_system()
        charged = eve.apply_updates(
            [
                ("R", "insert", (3, 30)),
                ("R", "insert", (4, 40)),
                ("R", "delete", (1, 10)),
            ]
        )
        report = eve.last_report
        assert report.operation == "apply_updates"
        (flush,) = report.flushes
        assert flush.view == "V"
        assert flush.updates == 3
        assert flush.relations == ("R",)
        assert report.maintenance_counters == charged
        payload = report.to_dict()
        assert payload["maintenance"]["updates"] == 3
        assert (
            payload["maintenance"]["counters"]["messages"]
            == charged.messages
        )
        assert payload["synchronization"]["views"] == []
        json.loads(report.to_json())

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(SystemConfig(), id="default"),
            pytest.param(SystemConfig.reference(), id="reference"),
            pytest.param(
                SystemConfig.bounded(budget_units=1e12), id="bounded"
            ),
        ],
    )
    def test_column_kernel_keys_are_v4_constants(self, config):
        # The columnar plane is gone; v4 keeps its keys as zeros until
        # the next schema bump, on every preset and both operations.
        zero = {"rows_scanned": 0, "rows_selected": 0}
        eve = build_system(config=config)
        eve.apply_updates([("R", "insert", (3, 30))])
        updates = eve.last_report.to_dict()
        eve.apply_changes([DeleteRelation("IS1", "R")])
        changes = eve.last_report.to_dict()
        for payload in (updates, changes):
            validate_system_report(payload)
            assert payload["maintenance"]["kernels"] == zero
            sync = payload["synchronization"]
            rows = [sync["counters"]] + [
                view["counters"]
                for view in sync["views"]
                if view["counters"] is not None
            ]
            for row in rows:
                assert {key: row[key] for key in zero} == zero
        assert len(changes["synchronization"]["views"]) == 1

    def test_each_call_replaces_the_report(self):
        eve = build_system()
        eve.apply_updates([("R", "insert", (3, 30))])
        first = eve.last_report
        eve.apply_changes([DeleteRelation("IS1", "R")])
        assert eve.last_report is not first
        assert eve.last_report.operation == "apply_changes"


class TestPlansSection:
    def test_apply_changes_captures_evaluation_plans(self):
        eve = build_system()
        eve.apply_changes([DeleteRelation("IS1", "R")])
        payload = eve.last_report.to_dict()
        assert payload["plans"]["total"] == 1
        (plan,) = payload["plans"]["views"]
        assert plan["kind"] == "evaluation"
        assert plan["view"] == "V"
        assert plan["actual_rows"] == 2
        assert all(
            step["access"] in ("index_probe", "scan")
            for step in plan["steps"]
        )

    def test_apply_updates_captures_maintenance_plans(self):
        eve = build_system()
        eve.apply_updates([("R", "insert", (3, 30))])
        payload = eve.last_report.to_dict()
        assert payload["plans"]["total"] == 1
        (plan,) = payload["plans"]["views"]
        assert plan["kind"] == "maintenance"
        assert plan["view"] == "V"
        assert plan["relation"] == "R"
        assert plan["actual"]["updates"] == 1
        assert plan["actual"]["messages"] >= 0

    def test_capture_is_capped_but_total_is_not(self):
        from repro.report import PLAN_CAPTURE_LIMIT

        eve = EVESystem()
        eve.add_source("IS1")
        eve.register_relation(
            "IS1",
            Relation(Schema("R", ["A", "B"]), [(1, 10)]),
            RelationStatistics(cardinality=1),
        )
        n = PLAN_CAPTURE_LIMIT + 4
        for i in range(n):
            eve.define_view(
                f"CREATE VIEW V{i:03d} AS SELECT R.A FROM R WHERE R.B > 0"
            )
        eve.apply_updates([("R", "insert", (2, 20))])
        payload = eve.last_report.to_dict()
        assert payload["plans"]["total"] == n
        assert len(payload["plans"]["views"]) == PLAN_CAPTURE_LIMIT
        # Deterministic choice: sorted view names.
        captured = [plan["view"] for plan in payload["plans"]["views"]]
        assert captured == sorted(captured)


class TestReportObject:
    def test_empty_report_serializes(self):
        report = SystemReport(operation="apply_changes")
        payload = report.to_dict()
        assert payload["synchronization"]["views"] == []
        assert payload["maintenance"]["counters"]["messages"] == 0
        assert payload["plans"] == {"views": [], "total": 0}
        json.loads(report.to_json())
