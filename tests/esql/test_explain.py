"""EXPLAIN plans: golden renderings, estimate/actual reconciliation.

The EXPLAIN subsystem's contract (ISSUE 8): ``to_text()`` and
``to_dict()`` are *stable* — tooling and the schema-v3 SystemReport
``plans`` section depend on their exact shape — and an ``analyze`` run
reconciles the cost model's estimates against the binding counts the
evaluator actually saw, on every representation.
"""

import pytest

from repro.config import EngineConfig, MaintenanceConfig
from repro.esql.explain import (
    build_plan,
    clause_selectivity,
    explain_maintenance,
    explain_view,
)
from repro.esql.parser import parse_view
from repro.misd.statistics import (
    DEFAULT_JOIN_SELECTIVITY,
    DEFAULT_SELECTIVITY,
    RelationStatistics,
    SpaceStatistics,
)
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.types import AttributeType


def string_schema(name, attrs):
    return Schema(
        name, [Attribute(a, AttributeType.STRING) for a in attrs]
    )


@pytest.fixture
def relations():
    return {
        "Customer": Relation(
            string_schema("Customer", ["Name", "City"]),
            [("ann", "nyc"), ("bob", "sfo"), ("cy", "nyc")],
        ),
        "Booking": Relation(
            string_schema("Booking", ["PName", "Dest"]),
            [("ann", "asia"), ("bob", "asia"), ("ann", "europe")],
        ),
    }


@pytest.fixture
def view():
    return parse_view(
        "CREATE VIEW V AS SELECT Customer.Name, Dest "
        "FROM Customer, Booking "
        "WHERE Customer.Name = Booking.PName AND City = 'nyc'"
    )


class TestGoldenRenderings:
    def test_tuple_plan_text_is_stable(self, view, relations):
        plan = explain_view(
            view, relations, config=EngineConfig(), analyze=True
        )
        assert plan.to_text() == (
            "EXPLAIN Ext(V) [engine=indexed representation=tuple "
            "index=on]\n"
            "  join order: Customer -> Booking\n"
            "  1. Customer: filtered scan [Customer.City = 'nyc'], "
            "rows~1.5, actual=2\n"
            "  2. Booking: index probe on Booking.PName = Customer.Name, "
            "rows~0.0, actual=2\n"
            "  select: Name, Dest\n"
            "  estimated: rows~0.0, cost~6.0 row-ops\n"
            "  actual: 2 rows"
        )

    def test_dict_shape_is_stable(self, view, relations):
        plan = explain_view(view, relations, config=EngineConfig())
        payload = plan.to_dict()
        assert sorted(payload) == [
            "actual_rows", "engine", "estimated_cost", "estimated_rows",
            "join_order", "kernels", "kind", "output", "representation",
            "steps", "use_index", "view",
        ]
        assert payload["kind"] == "evaluation"
        assert payload["join_order"] == ["Customer", "Booking"]
        for step in payload["steps"]:
            assert sorted(step) == [
                "access", "actual_rows", "columns", "cross",
                "estimated_cost", "estimated_rows", "local", "position",
                "probe", "relation", "relation_rows",
            ]
        assert [s["access"] for s in payload["steps"]] == [
            "scan", "index_probe",
        ]

    def test_maintenance_plan_text_is_stable(self, view, relations):
        schemas = {n: r.schema for n, r in relations.items()}
        explain = explain_maintenance(
            view,
            {"Customer": "A", "Booking": "B"},
            schemas,
            updated_relation="Booking",
        )
        assert explain.to_text() == (
            "EXPLAIN maintain V on update(Booking) "
            "[representation=tuple index=on]\n"
            "  sources: B -> A\n"
            "  1. Customer @ A: index probe on "
            "Customer.Name = Booking.PName\n"
            "  estimated: 2 messages"
        )
        payload = explain.to_dict()
        assert payload["kind"] == "maintenance"
        assert payload["steps"][0]["access"] == "index_probe"

    def test_maintenance_scan_without_index(self, view, relations):
        schemas = {n: r.schema for n, r in relations.items()}
        explain = explain_maintenance(
            view,
            {"Customer": "A", "Booking": "B"},
            schemas,
            updated_relation="Booking",
            config=MaintenanceConfig(use_index=False),
        )
        assert explain.steps[0].access == "scan"
        assert "1. Customer @ A: scan" in explain.to_text()


class TestRepresentations:
    @pytest.mark.parametrize(
        "config, representation",
        [
            (EngineConfig(), "tuple"),
            (EngineConfig(representation="columnar"), "columnar"),
            (EngineConfig(engine="naive"), "dict"),
        ],
    )
    def test_every_representation_reports_estimates_and_actuals(
        self, view, relations, config, representation
    ):
        plan = explain_view(view, relations, config=config, analyze=True)
        assert plan.representation == representation
        assert plan.actual_rows == 2
        assert plan.estimated_rows > 0
        for step in plan.steps:
            assert step.actual_rows is not None
            assert step.estimated_rows >= 0

    def test_columnar_analyze_reports_kernels(self, view, relations):
        plan = explain_view(
            view,
            relations,
            config=EngineConfig(representation="columnar"),
            analyze=True,
        )
        assert plan.kernels is not None
        assert plan.kernels["rows_scanned"] >= plan.kernels["rows_selected"]
        assert "kernels: scanned=" in plan.to_text()

    def test_naive_plan_keeps_literal_from_order(self, relations):
        view = parse_view(
            "CREATE VIEW V AS SELECT Customer.Name, Dest "
            "FROM Booking, Customer "
            "WHERE Customer.Name = Booking.PName AND City = 'nyc'"
        )
        naive = build_plan(
            view, relations, config=EngineConfig(engine="naive")
        )
        indexed = build_plan(view, relations, config=EngineConfig())
        assert naive.join_order == ("Booking", "Customer")
        # The indexed engine reorders greedily: the filtered Customer
        # scan (est. 1.5 rows) beats the unfiltered Booking scan.
        assert indexed.join_order == ("Customer", "Booking")


class TestReconciliation:
    def test_steps_after_exhaustion_report_zero(self, relations):
        view = parse_view(
            "CREATE VIEW V AS SELECT Customer.Name, Dest "
            "FROM Customer, Booking "
            "WHERE Customer.Name = Booking.PName AND City = 'zz'"
        )
        plan = explain_view(
            view, relations, config=EngineConfig(), analyze=True
        )
        assert plan.actual_rows == 0
        assert [step.actual_rows for step in plan.steps] == [0, 0]

    def test_build_plan_never_executes(self, view, relations):
        before = {name: r.rows for name, r in relations.items()}
        plan = build_plan(view, relations)
        assert plan.actual_rows is None
        assert all(s.actual_rows is None for s in plan.steps)
        assert {n: r.rows for n, r in relations.items()} == before


class TestClauseSelectivity:
    def test_equijoin_takes_join_selectivity(self):
        from repro.esql.parser import parse_condition_clause

        assert clause_selectivity(
            parse_condition_clause("R.A = S.B"), None
        ) == DEFAULT_JOIN_SELECTIVITY

    def test_local_clause_defaults_to_sigma(self):
        from repro.esql.parser import parse_condition_clause

        assert clause_selectivity(
            parse_condition_clause("R.A = 'x'"), None
        ) == DEFAULT_SELECTIVITY

    def test_single_relation_takes_recorded_sigma(self):
        from repro.esql.parser import parse_condition_clause

        statistics = SpaceStatistics(
            relations={
                "R": RelationStatistics(cardinality=10, selectivity=0.25)
            }
        )
        assert clause_selectivity(
            parse_condition_clause("R.A = 'x'"), statistics
        ) == 0.25
