"""The benchmark-JSON contract (benchmarks/validate_bench.py) as a unit."""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import validate_bench  # noqa: E402
from validate_bench import (  # noqa: E402
    BenchValidationError,
    GATED_SPEEDUPS,
    bench_name,
    check_regression,
    is_smoke,
    validate_payload,
    validate_system_report,
)


def committed(name):
    path = REPO_ROOT / f"BENCH_{name}.json"
    if not path.exists():
        pytest.skip(f"{path.name} not generated yet")
    with open(path) as handle:
        return json.load(handle)


class TestStructuralValidation:
    @pytest.mark.parametrize(
        "name", ["engine", "sync", "scheduler", "maintenance", "serving"]
    )
    def test_committed_payloads_validate(self, name):
        validate_payload(name, committed(name))

    def test_missing_section_rejected(self):
        with pytest.raises(BenchValidationError, match="missing section"):
            validate_payload("engine", {})

    def test_violated_invariant_rejected(self):
        payload = committed("scheduler")
        payload["parallel_storm"]["outcomes_equal"] = False
        with pytest.raises(BenchValidationError, match="diverged"):
            validate_payload("scheduler", payload)

    def test_maintenance_counters_invariant_enforced(self):
        payload = committed("maintenance")
        payload["update_storm"]["counters_equal"] = False
        with pytest.raises(BenchValidationError, match="counters diverged"):
            validate_payload("maintenance", payload)

    def test_delete_churn_survivors_enforced(self):
        payload = committed("maintenance")
        payload["delete_churn"]["survivors_equal"] = False
        with pytest.raises(BenchValidationError, match="survivors diverged"):
            validate_payload("maintenance", payload)

    def test_delete_churn_floor_applies_to_full_runs_only(self):
        payload = committed("maintenance")
        payload["delete_churn"]["speedup"] = (
            validate_bench.DELETE_CHURN_SPEEDUP_FLOOR - 0.5
        )
        with pytest.raises(BenchValidationError, match="below the"):
            validate_payload("maintenance", payload)
        payload["config"] = {"smoke": True}
        validate_payload("maintenance", payload)

    def test_delete_churn_floor_rejects_5_9x_on_a_full_run(self):
        payload = committed("maintenance")
        payload["config"] = {"smoke": False}
        payload["delete_churn"]["speedup"] = 5.9
        with pytest.raises(BenchValidationError, match="5.9x below the 6.0x"):
            validate_payload("maintenance", payload)

    def test_unknown_bench_rejected(self):
        with pytest.raises(BenchValidationError, match="no validator"):
            validate_payload("warp-drive", {})

    def test_bench_name_parses_only_bench_files(self):
        assert bench_name(Path("BENCH_scheduler.json")) == "scheduler"
        with pytest.raises(BenchValidationError):
            bench_name(Path("results.json"))

    def test_every_gated_bench_has_a_validator(self):
        assert set(GATED_SPEEDUPS) <= set(validate_bench.VALIDATORS)

    @pytest.mark.parametrize(
        ("section", "field", "message"),
        [
            ("view_evaluation", "extents_equal", "extents diverged"),
            ("maintenance_propagation", "counters_equal", "counters diverged"),
            ("synchronize_and_rank", "rankings_identical", "ranking diverged"),
        ],
    )
    def test_engine_parity_invariants_enforced(self, section, field, message):
        payload = committed("engine")
        payload[section][field] = False
        with pytest.raises(BenchValidationError, match=message):
            validate_payload("engine", payload)

    def test_sharded_parity_invariant_enforced(self):
        payload = committed("scheduler")
        payload["sharded_storm"]["outcomes_equal"] = False
        with pytest.raises(BenchValidationError, match="diverged"):
            validate_payload("scheduler", payload)

    def test_serial_coalesce_floor_gates_full_runs_only(self):
        payload = committed("scheduler")
        payload["config"]["smoke"] = False
        payload["sharded_storm"]["serial_coalesce_speedup"] = (
            validate_bench.SERIAL_COALESCE_SPEEDUP_FLOOR - 0.1
        )
        with pytest.raises(BenchValidationError, match="2.9x below the 3.0x"):
            validate_payload("scheduler", payload)
        payload["sharded_storm"]["serial_coalesce_speedup"] = (
            validate_bench.SERIAL_COALESCE_SPEEDUP_FLOOR
        )
        validate_payload("scheduler", payload)
        # Smoke runs the lane at toy scale: parity gates, the floor is
        # waived.
        payload["config"]["smoke"] = True
        payload["sharded_storm"]["serial_coalesce_speedup"] = 1.1
        validate_payload("scheduler", payload)

    def test_serial_coalesce_lane_required_and_timed(self):
        payload = committed("scheduler")
        validate_payload("scheduler", payload)
        payload["sharded_storm"]["serial_coalesce_seconds"] = 0.0
        with pytest.raises(BenchValidationError, match="serial \\+ coalesce"):
            validate_payload("scheduler", payload)
        del payload["sharded_storm"]["serial_coalesce_seconds"]
        with pytest.raises(
            BenchValidationError, match="serial_coalesce_seconds"
        ):
            validate_payload("scheduler", payload)

    def test_torn_reads_rejected(self):
        payload = committed("serving")
        payload["storm_reads"]["torn_reads"] = 1
        with pytest.raises(BenchValidationError, match="torn"):
            validate_payload("serving", payload)

    def test_zero_copy_invariant_enforced(self):
        payload = committed("serving")
        payload["snapshot_isolation"]["copied_untouched_views"] = 3
        with pytest.raises(BenchValidationError, match="copied"):
            validate_payload("serving", payload)

    def test_serving_parity_invariant_enforced(self):
        payload = committed("serving")
        payload["executor_parity"]["outcomes_equal"] = False
        with pytest.raises(BenchValidationError, match="diverged"):
            validate_payload("serving", payload)

    def test_serving_p99_ceiling_gates_full_runs_only(self):
        payload = committed("serving")
        payload["config"]["smoke"] = False
        payload["config"]["cpus"] = 8
        payload["storm_reads"]["p99_ratio"] = 5.0
        with pytest.raises(BenchValidationError, match="ceiling"):
            validate_payload("serving", payload)
        # Smoke runs a toy storm where per-read overhead dominates:
        # the correctness invariants gate, the latency ceiling is waived.
        payload["config"]["smoke"] = True
        validate_payload("serving", payload)

    def test_serving_p99_single_core_allowance(self):
        # A single-CPU recording host gets the documented OS-fair-share
        # allowance (8x) instead of the 2x multi-core ceiling — and
        # still fails beyond it.
        payload = committed("serving")
        payload["config"]["smoke"] = False
        payload["config"]["cpus"] = 1
        payload["storm_reads"]["p99_ratio"] = 5.0
        validate_payload("serving", payload)
        payload["storm_reads"]["p99_ratio"] = 9.0
        with pytest.raises(BenchValidationError, match="ceiling"):
            validate_payload("serving", payload)

    def test_serving_p50_ceiling_every_host(self):
        # The median gate is core-count independent: a blocked reader
        # shows up at p50 long before the tail.
        payload = committed("serving")
        payload["config"]["smoke"] = False
        payload["config"]["cpus"] = 1
        payload["storm_reads"]["p50_ratio"] = 2.5
        with pytest.raises(BenchValidationError, match="p50"):
            validate_payload("serving", payload)


class TestSystemReportValidation:
    def fresh_report(self, operation="apply_changes"):
        """A real report from a real (tiny) system run."""
        from repro.config import SystemConfig
        from repro.core.eve import EVESystem
        from repro.misd.statistics import RelationStatistics
        from repro.relational.relation import Relation
        from repro.relational.schema import Schema
        from repro.space.changes import DeleteRelation

        eve = EVESystem(config=SystemConfig())
        eve.add_source("IS1")
        eve.add_source("IS2")
        eve.register_relation(
            "IS1",
            Relation(Schema("R", ["A"]), [(1,)]),
            RelationStatistics(cardinality=1),
        )
        eve.register_relation(
            "IS2",
            Relation(Schema("M", ["A"]), [(1,)]),
            RelationStatistics(cardinality=1),
        )
        eve.mkb.add_equivalence("R", "M", ["A"])
        eve.define_view(
            "CREATE VIEW V (VE = '~') AS SELECT R.A (AR = true) "
            "FROM R (RR = true)"
        )
        if operation == "apply_changes":
            eve.apply_changes([DeleteRelation("IS1", "R")])
        else:
            eve.apply_updates([("R", "insert", (2,))])
        return eve.last_report.to_dict()

    @pytest.mark.parametrize(
        "operation", ["apply_changes", "apply_updates"]
    )
    def test_real_reports_validate(self, operation):
        validate_system_report(self.fresh_report(operation))

    def test_wrong_schema_version_rejected(self):
        report = self.fresh_report()
        report["schema_version"] = 99
        with pytest.raises(BenchValidationError, match="schema_version"):
            validate_system_report(report)

    def test_unknown_operation_rejected(self):
        report = self.fresh_report()
        report["operation"] = "apply_vibes"
        with pytest.raises(BenchValidationError, match="operation"):
            validate_system_report(report)

    def test_survival_totals_enforced(self):
        report = self.fresh_report()
        report["synchronization"]["survived"] = 7
        with pytest.raises(BenchValidationError, match="survived"):
            validate_system_report(report)

    def test_qc_survival_consistency_enforced(self):
        report = self.fresh_report()
        report["synchronization"]["views"][0]["qc"] = None
        with pytest.raises(BenchValidationError, match="mismatch"):
            validate_system_report(report)

    def test_flush_totals_enforced(self):
        report = self.fresh_report("apply_updates")
        report["maintenance"]["updates"] += 1
        with pytest.raises(BenchValidationError, match="flush"):
            validate_system_report(report)

    def test_serving_section_required(self):
        report = self.fresh_report()
        report.pop("serving")
        with pytest.raises(BenchValidationError, match="serving"):
            validate_system_report(report)

    def test_serving_counters_must_be_nonnegative(self):
        report = self.fresh_report()
        report["serving"]["published"] = -1
        with pytest.raises(BenchValidationError, match="serving"):
            validate_system_report(report)

    def test_disabled_serving_plane_publishes_nothing(self):
        report = self.fresh_report()
        report["serving"] = {
            "enabled": False,
            "version": 0,
            "published": 2,
            "staged": 0,
            "copied": 0,
            "pins": 0,
        }
        with pytest.raises(BenchValidationError, match="disabled"):
            validate_system_report(report)

    def test_missing_plans_section_rejected(self):
        report = self.fresh_report()
        report.pop("plans")
        with pytest.raises(BenchValidationError, match="plans"):
            validate_system_report(report)

    def test_plans_total_must_cover_captured(self):
        report = self.fresh_report()
        assert report["plans"]["views"], "expected a captured plan"
        report["plans"]["total"] = 0
        with pytest.raises(BenchValidationError, match="total"):
            validate_system_report(report)

    def test_unknown_plan_kind_rejected(self):
        report = self.fresh_report()
        report["plans"]["views"][0]["kind"] = "apply_vibes"
        with pytest.raises(BenchValidationError, match="kind"):
            validate_system_report(report)

    def test_plan_access_vocabulary_enforced(self):
        report = self.fresh_report()
        plan = report["plans"]["views"][0]
        assert plan["steps"], "expected plan steps"
        plan["steps"][0]["access"] = "teleport"
        with pytest.raises(BenchValidationError, match="access"):
            validate_system_report(report)

    def test_missing_report_fails_the_bench_payload(self):
        payload = committed("scheduler")
        payload.pop("system_report", None)
        with pytest.raises(BenchValidationError, match="system_report"):
            validate_payload("scheduler", payload)


class TestRegressionGate:
    def baseline(self):
        return {
            "config": {"smoke": False},
            "parallel_storm": {"speedup": 6.0},
            "sharded_storm": {"serial_coalesce_speedup": 4.0},
        }

    def test_within_tolerance_passes(self):
        current = {
            "config": {"smoke": False},
            "parallel_storm": {"speedup": 4.5},
            "sharded_storm": {"serial_coalesce_speedup": 3.5},
        }
        status, messages = check_regression(
            "scheduler", current, self.baseline()
        )
        assert status == "ok"
        assert any("OK" in message for message in messages)

    def test_large_regression_fails(self):
        current = {
            "config": {"smoke": False},
            "parallel_storm": {"speedup": 2.0},
            "sharded_storm": {"serial_coalesce_speedup": 4.0},
        }
        status, messages = check_regression(
            "scheduler", current, self.baseline()
        )
        assert status == "fail"
        assert any("regressed" in message for message in messages)

    def test_smoke_vs_full_is_an_explicit_skip(self):
        current = {
            "config": {"smoke": True},
            "parallel_storm": {"speedup": 0.5},
        }
        status, messages = check_regression(
            "scheduler", current, self.baseline()
        )
        assert status == "skip"
        assert any("not comparable" in message for message in messages)

    def test_missing_gated_field_fails_loudly(self):
        status, _ = check_regression(
            "scheduler", {"config": {"smoke": False}}, self.baseline()
        )
        assert status == "fail"

    def test_payloads_without_config_count_as_full_runs(self):
        assert not is_smoke({})
        status, _ = check_regression(
            "scheduler",
            {
                "parallel_storm": {"speedup": 5.9},
                "sharded_storm": {"serial_coalesce_speedup": 4.1},
            },
            self.baseline(),
        )
        assert status == "ok"

    def test_committed_files_pass_the_gate_against_themselves(self):
        for name in GATED_SPEEDUPS:
            payload = committed(name)
            status, _ = check_regression(name, payload, payload)
            assert status == "ok"
