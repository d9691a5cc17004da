"""Validate BENCH_*.json payloads and gate speedup regressions.

This is the benchmark-JSON contract in one importable place (it used to
live as a heredoc inside ``.github/workflows/ci.yml``).  Two layers:

* **Structural validation** — every known BENCH file must carry its
  expected sections and fields, and its *correctness invariants* must
  hold (extents/outcomes/rankings identical, pruning never assessed
  more than exhaustive, deferral resume matched serial).  These are
  mode-independent: they gate smoke and full runs alike.
* **Regression gate** — headline ``speedup`` fields are compared
  against a baseline payload (the committed BENCH file) and fail on a
  >30% drop.  Timings are only comparable between runs of the same
  mode, so a smoke run checked against a committed full-run baseline is
  reported as an explicit SKIP, never a silent pass.

Timing-noise fields (e.g. ``pruned_ranking.speedup``, a sub-10ms
measurement) are deliberately not gated; their correctness invariants
are gated instead.

Usage::

    python benchmarks/validate_bench.py [FILE ...]
    python benchmarks/validate_bench.py --baseline-dir DIR [FILE ...]

With no FILE arguments, every ``BENCH_*.json`` at the repo root is
validated.  ``--baseline-dir`` additionally compares each file against
the same-named file in DIR (missing baselines are skipped).  Importable
from tests: see :func:`validate_payload` and :func:`check_regression`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Default tolerated relative drop of a gated speedup before failing.
MAX_REGRESSION = 0.30

#: name -> (section, field) pairs gated against the baseline.  Only
#: headline speedups with enough signal to survive runner jitter.
GATED_SPEEDUPS = {
    "engine": (
        ("view_evaluation", "speedup"),
        ("maintenance_propagation", "speedup"),
        ("synchronize_and_rank", "speedup"),
    ),
    "sync": (("batched_dispatch", "speedup"),),
    "scheduler": (
        ("parallel_storm", "speedup"),
        ("sharded_storm", "serial_coalesce_speedup"),
    ),
    "maintenance": (("update_storm", "speedup"),),
    # Latency is lower-is-better, so the serving lane gates the inverted
    # ratio idle_p99/storm_p99 ("headroom") — higher is better, and a
    # >30% drop means storm reads got >30% slower relative to idle.
    "serving": (("storm_reads", "latency_headroom"),),
}

#: Absolute floor of the default (serial + coalesce) scheduler's speedup
#: over the serial reference in the 100k-view sharded storm on full
#: (non-smoke) runs.  Coalescing is CPU-count-independent; full runs
#: on 2-CPU hosts read 5.3x, 5.6x and 7.7x.
SERIAL_COALESCE_SPEEDUP_FLOOR = 3.0

#: Absolute floor of the ``Relation.delete``-vs-``list.remove`` speedup
#: in the delete-churn lane on full (non-smoke) runs: random-position
#: deletes from 10k rows must find their row through the fingerprint
#: locator, not a Python comparison per row (about 15x on a 2-CPU host;
#: the floor stays under half of that).
DELETE_CHURN_SPEEDUP_FLOOR = 6.0

#: Absolute ceiling of storm-time read p99 relative to idle read p99 on
#: full (non-smoke) runs — the PR-9 serving-plane acceptance gate:
#: snapshot reads during a 1k-view evolution storm may degrade at most
#: 2x versus an idle system.
SERVING_P99_CEILING = 2.0

#: The p99 ceiling applied when the recording host had a single CPU.
#: On one core, OS fair-share alone doubles any read that overlaps
#: synchronization compute (reader and writer split the core 50/50
#: before a single lock enters the picture), and burst-stacked
#: scheduling gaps land on the p99 of a dense storm.  The MVCC claim —
#: reads never *block* on writers — is gated by the p50 ratio and the
#: torn-read/parity invariants instead, which are core-count
#: independent; multi-core hosts (CI runners included) enforce the
#: real 2x p99 ceiling above.
SERVING_P99_CEILING_SINGLE_CORE = 8.0

#: Ceiling of storm-time read p50 relative to idle read p50 on full
#: runs, every host: the median read must not degrade beyond 2x while
#: the storm commits, or readers are being blocked, not scheduled.
SERVING_P50_CEILING = 2.0


class BenchValidationError(Exception):
    """A BENCH payload violated its structural or invariant contract."""


#: The SystemReport schema version this validator understands (kept in
#: lockstep with ``repro.report.REPORT_SCHEMA_VERSION``).
SYSTEM_REPORT_SCHEMA_VERSION = 4


def validate_system_report(report: dict, context: str = "system_report") -> None:
    """Validate one embedded ``SystemReport.to_dict()`` payload.

    Every benchmark driver embeds the :class:`repro.report.SystemReport`
    of its system-level run; this checks the stable schema (version,
    sections, per-view rows) and the cross-section consistency
    invariants (survived/undefined totals, non-negative counters).
    """
    if not isinstance(report, dict):
        raise BenchValidationError(f"{context}: not a mapping")
    if report.get("schema_version") != SYSTEM_REPORT_SCHEMA_VERSION:
        raise BenchValidationError(
            f"{context}: schema_version "
            f"{report.get('schema_version')!r} != "
            f"{SYSTEM_REPORT_SCHEMA_VERSION}"
        )
    if report.get("operation") not in ("apply_changes", "apply_updates"):
        raise BenchValidationError(
            f"{context}: unknown operation {report.get('operation')!r}"
        )
    for section in (
        "synchronization", "schedule", "maintenance", "plans", "serving"
    ):
        if section not in report:
            raise BenchValidationError(
                f"{context}: missing section {section!r}"
            )
    sync = report["synchronization"]
    for field in ("views", "counters", "survived", "undefined"):
        if field not in sync:
            raise BenchValidationError(
                f"{context}: synchronization: missing {field!r}"
            )
    views = sync["views"]
    _invariant(
        sync["survived"] + sync["undefined"] == len(views),
        f"{context}: survived+undefined != len(views)",
    )
    for row in views:
        for field in ("view", "change", "survived", "qc", "policy"):
            if field not in row:
                raise BenchValidationError(
                    f"{context}: view row missing {field!r}"
                )
        _invariant(
            row["survived"] == (row["qc"] is not None),
            f"{context}: view {row['view']!r} survival/qc mismatch",
        )
    for batch in report["schedule"]["batches"]:
        for field in ("executor", "workers", "views", "coalesced",
                      "wall_seconds", "executor_fallback", "shards"):
            if field not in batch:
                raise BenchValidationError(
                    f"{context}: schedule batch missing {field!r}"
                )
        _invariant(
            batch["wall_seconds"] >= 0.0,
            f"{context}: negative wall_seconds",
        )
        for dispatch in batch["shards"]:
            for field in ("shard", "views", "groups", "bytes_shipped",
                          "bytes_received", "snapshot_bytes",
                          "worker_seconds"):
                _invariant(
                    dispatch.get(field, -1) >= 0,
                    f"{context}: shard dispatch {field!r} missing/negative",
                )
    if "shards" not in report["schedule"]:
        raise BenchValidationError(
            f"{context}: schedule: missing 'shards'"
        )
    maintenance = report["maintenance"]
    for field in ("flushes", "counters", "updates"):
        if field not in maintenance:
            raise BenchValidationError(
                f"{context}: maintenance: missing {field!r}"
            )
    counters = maintenance["counters"]
    for field in ("messages", "bytes_transferred", "io_operations"):
        _invariant(
            counters.get(field, -1) >= 0,
            f"{context}: maintenance counter {field!r} missing/negative",
        )
    _invariant(
        maintenance["updates"]
        == sum(flush.get("updates", 0) for flush in maintenance["flushes"]),
        f"{context}: flush update totals disagree",
    )
    serving = report["serving"]
    if not isinstance(serving.get("enabled"), bool):
        raise BenchValidationError(
            f"{context}: serving: 'enabled' missing or not a bool"
        )
    for field in ("version", "published", "staged", "copied", "pins"):
        _invariant(
            isinstance(serving.get(field), int)
            and serving.get(field, -1) >= 0,
            f"{context}: serving counter {field!r} missing/negative",
        )
    _invariant(
        serving["enabled"] or serving["published"] == 0,
        f"{context}: serving disabled but publishes recorded",
    )
    plans = report["plans"]
    for field in ("views", "total"):
        if field not in plans:
            raise BenchValidationError(
                f"{context}: plans: missing {field!r}"
            )
    _invariant(
        plans["total"] >= len(plans["views"]),
        f"{context}: plans total below captured count",
    )
    for plan in plans["views"]:
        _invariant(
            plan.get("kind") in ("evaluation", "maintenance"),
            f"{context}: plan kind {plan.get('kind')!r} unknown",
        )
        for field in ("view", "steps"):
            if field not in plan:
                raise BenchValidationError(
                    f"{context}: plan missing {field!r}"
                )
        for step in plan["steps"]:
            for field in ("relation", "access"):
                if field not in step:
                    raise BenchValidationError(
                        f"{context}: plan step missing {field!r}"
                    )
            _invariant(
                step["access"] in ("index_probe", "scan"),
                f"{context}: plan step access "
                f"{step['access']!r} unknown",
            )


def _require_system_report(payload: dict, name: str) -> None:
    if "system_report" not in payload:
        raise BenchValidationError(
            f"{name}: missing section 'system_report'"
        )
    validate_system_report(
        payload["system_report"], f"{name}: system_report"
    )


def _require(payload: dict, name: str, sections: dict) -> None:
    for section, fields in sections.items():
        if section not in payload:
            raise BenchValidationError(f"{name}: missing section {section!r}")
        for field in fields:
            if field not in payload[section]:
                raise BenchValidationError(
                    f"{name}: {section}: missing {field!r}"
                )


def _invariant(condition: bool, message: str) -> None:
    if not condition:
        raise BenchValidationError(message)


# ----------------------------------------------------------------------
# Per-file validators
# ----------------------------------------------------------------------
def validate_engine(payload: dict) -> None:
    _require(
        payload,
        "BENCH_engine",
        {
            "view_evaluation": ("speedup", "extents_equal"),
            "maintenance_propagation": ("speedup", "counters_equal"),
            "synchronize_and_rank": ("speedup", "rankings_identical"),
        },
    )
    _invariant(
        payload["view_evaluation"]["extents_equal"],
        "view evaluation extents diverged",
    )
    _invariant(
        payload["maintenance_propagation"]["counters_equal"],
        "maintenance counters diverged",
    )
    _invariant(
        payload["synchronize_and_rank"]["rankings_identical"],
        "cached ranking diverged",
    )
    _require_system_report(payload, "BENCH_engine")


def validate_sync(payload: dict) -> None:
    _require(
        payload,
        "BENCH_sync",
        {
            "batched_dispatch": ("speedup", "outcomes_equal"),
            "pruned_ranking": (
                "assessed_exhaustive",
                "assessed_pruned",
                "winner_identical",
                "qc_value_equal",
            ),
            "policy_sweep": (),
        },
    )
    _invariant(
        payload["batched_dispatch"]["outcomes_equal"],
        "batched dispatch outcomes diverged",
    )
    ranking = payload["pruned_ranking"]
    _invariant(
        ranking["winner_identical"] and ranking["qc_value_equal"],
        "pruned ranking winner diverged",
    )
    _invariant(
        ranking["assessed_pruned"] <= ranking["assessed_exhaustive"],
        "pruning assessed more than exhaustive",
    )
    _require_system_report(payload, "BENCH_sync")


def validate_scheduler(payload: dict) -> None:
    _require(
        payload,
        "BENCH_scheduler",
        {
            "parallel_storm": (
                "speedup",
                "outcomes_equal",
                "serial_seconds",
                "parallel_seconds",
                "coalesced_searches",
            ),
            "sharded_storm": (
                "serial_coalesce_speedup",
                "outcomes_equal",
                "serial_seconds",
                "serial_coalesce_seconds",
                "serial_coalesce_cold_seconds",
                "serial_coalesce_warm_seconds",
            ),
            "deadline_sweep": ("unbounded", "zero", "zero_defer"),
        },
    )
    _invariant(
        payload["parallel_storm"]["outcomes_equal"],
        "parallel scheduler outcomes diverged",
    )
    sharded = payload["sharded_storm"]
    _invariant(
        sharded["serial_coalesce_seconds"] > 0,
        "sharded_storm: serial + coalesce lane not timed",
    )
    _invariant(
        sharded["outcomes_equal"],
        "sharded storm serial + coalesce outcomes diverged",
    )
    # Smoke payloads run the lane at toy scale, where few views share a
    # class, so only the parity invariant applies there.
    if not is_smoke(payload):
        _invariant(
            sharded["serial_coalesce_speedup"]
            >= SERIAL_COALESCE_SPEEDUP_FLOOR,
            f"serial + coalesce speedup "
            f"{sharded['serial_coalesce_speedup']}x below the "
            f"{SERIAL_COALESCE_SPEEDUP_FLOOR}x floor",
        )
    if "system_report" in sharded:
        validate_system_report(
            sharded["system_report"],
            "BENCH_scheduler: sharded_storm.system_report",
        )
    sweep = payload["deadline_sweep"]
    _invariant(
        sweep["zero_defer"]["resume_matches_serial"],
        "deferral resume diverged from serial outcomes",
    )
    _invariant(
        sweep["unbounded"]["qc_achieved"] >= sweep["zero"]["qc_achieved"],
        "degraded run achieved more QC than unbounded",
    )
    _invariant(
        sweep["unbounded"]["degraded"] == 0,
        "unbounded run degraded views",
    )
    _require_system_report(payload, "BENCH_scheduler")


def validate_maintenance(payload: dict) -> None:
    _require(
        payload,
        "BENCH_maintenance",
        {
            "update_storm": (
                "speedup",
                "tuple_speedup",
                "counters_equal",
                "extents_equal",
                "dict_seconds",
                "tuple_seconds",
                "batch_seconds",
            ),
            "delete_churn": (
                "rows",
                "deletes",
                "list_remove_seconds",
                "relation_seconds",
                "speedup",
                "survivors_equal",
            ),
        },
    )
    storm = payload["update_storm"]
    _invariant(
        storm["counters_equal"],
        "delta-plane modeled counters diverged across representations",
    )
    _invariant(
        storm["extents_equal"],
        "delta-plane extents diverged across representations",
    )
    churn = payload["delete_churn"]
    _invariant(
        churn["survivors_equal"],
        "Relation.delete survivors diverged from the list.remove reference",
    )
    # Smoke payloads delete from 2k rows, where the scan is too short
    # for the speedup to mean anything; only survivor parity applies.
    if not is_smoke(payload):
        _invariant(
            churn["speedup"] >= DELETE_CHURN_SPEEDUP_FLOOR,
            f"delete-churn speedup {churn['speedup']}x below the "
            f"{DELETE_CHURN_SPEEDUP_FLOOR}x floor",
        )
    _require_system_report(payload, "BENCH_maintenance")


def validate_serving(payload: dict) -> None:
    _require(
        payload,
        "BENCH_serving",
        {
            "idle_reads": ("reads", "p50_ms", "p99_ms"),
            "storm_reads": (
                "reads",
                "p50_ms",
                "p99_ms",
                "p50_ratio",
                "p99_ratio",
                "latency_headroom",
                "torn_reads",
                "versions_observed",
                "storm_seconds",
            ),
            "snapshot_isolation": (
                "reads_match_published_versions",
                "monotonic_versions",
                "copied_untouched_views",
                "publishes",
            ),
            "executor_parity": ("outcomes_equal", "executors"),
        },
    )
    storm = payload["storm_reads"]
    _invariant(
        storm["torn_reads"] == 0,
        "serving reads observed a torn (half-applied) batch",
    )
    isolation = payload["snapshot_isolation"]
    _invariant(
        isolation["reads_match_published_versions"],
        "a serving read diverged from every published serial extent",
    )
    _invariant(
        isolation["monotonic_versions"],
        "snapshot versions observed out of order",
    )
    # The zero-copy invariant: publishing a batch never copies extents
    # of views the batch did not touch.
    _invariant(
        isolation["copied_untouched_views"] == 0,
        "publishing copied extents of views the batch never touched",
    )
    _invariant(
        payload["executor_parity"]["outcomes_equal"],
        "serving-plane outcomes diverged across executors",
    )
    # The PR-9 acceptance gates: median reads stay within 2x of idle on
    # every host, and read p99 stays within 2x of idle p99 on full runs
    # (single-core recording hosts get the documented fair-share
    # allowance — see SERVING_P99_CEILING_SINGLE_CORE).  Smoke payloads
    # run a toy storm where per-read overhead dominates, so only the
    # correctness invariants above apply there.
    if not is_smoke(payload):
        _invariant(
            storm["p50_ratio"] <= SERVING_P50_CEILING,
            f"storm read p50 {storm['p50_ratio']}x idle p50, above the "
            f"{SERVING_P50_CEILING}x ceiling",
        )
        cpus = payload.get("config", {}).get("cpus", 1)
        ceiling = (
            SERVING_P99_CEILING if cpus > 1
            else SERVING_P99_CEILING_SINGLE_CORE
        )
        _invariant(
            storm["p99_ratio"] <= ceiling,
            f"storm read p99 {storm['p99_ratio']}x idle p99, above the "
            f"{ceiling}x ceiling ({cpus} cpu(s))",
        )
    _require_system_report(payload, "BENCH_serving")


VALIDATORS = {
    "engine": validate_engine,
    "sync": validate_sync,
    "scheduler": validate_scheduler,
    "maintenance": validate_maintenance,
    "serving": validate_serving,
}


def bench_name(path: Path) -> str:
    """``BENCH_<name>.json`` -> ``<name>`` (raises on foreign files)."""
    stem = path.name
    if not (stem.startswith("BENCH_") and stem.endswith(".json")):
        raise BenchValidationError(f"not a BENCH file: {path}")
    return stem[len("BENCH_") : -len(".json")]


def validate_payload(name: str, payload: dict) -> None:
    """Structural + invariant validation for one named payload."""
    try:
        validator = VALIDATORS[name]
    except KeyError:
        raise BenchValidationError(
            f"no validator for BENCH_{name}.json "
            f"(known: {', '.join(sorted(VALIDATORS))})"
        ) from None
    validator(payload)


def is_smoke(payload: dict) -> bool:
    """Whether the payload came from a smoke-scale run.

    Older payloads carry no ``config`` block; those predate smoke modes
    and are full runs by construction.
    """
    return bool(payload.get("config", {}).get("smoke"))


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------
def check_regression(
    name: str,
    current: dict,
    baseline: dict,
    max_regression: float = MAX_REGRESSION,
) -> tuple[str, list[str]]:
    """Compare gated speedups of ``current`` against ``baseline``.

    Returns ``(status, messages)`` where status is ``"ok"``, ``"skip"``
    (modes differ — smoke timings are not comparable with full-run
    baselines), or ``"fail"``.
    """
    if is_smoke(current) != is_smoke(baseline):
        mode = lambda p: "smoke" if is_smoke(p) else "full"  # noqa: E731
        return "skip", [
            f"BENCH_{name}: {mode(current)} run not comparable with "
            f"{mode(baseline)} baseline — speedup gate skipped"
        ]
    messages = []
    status = "ok"
    for section, field in GATED_SPEEDUPS.get(name, ()):
        try:
            was = float(baseline[section][field])
            now = float(current[section][field])
        except (KeyError, TypeError, ValueError):
            messages.append(
                f"BENCH_{name}: {section}.{field} missing from current "
                f"or baseline — failing the gate"
            )
            status = "fail"
            continue
        floor = was * (1.0 - max_regression)
        if now < floor:
            messages.append(
                f"BENCH_{name}: {section}.{field} regressed "
                f"{was:.2f}x -> {now:.2f}x (floor {floor:.2f}x)"
            )
            status = "fail"
        else:
            messages.append(
                f"BENCH_{name}: {section}.{field} {was:.2f}x -> {now:.2f}x OK"
            )
    return status, messages


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "files",
        nargs="*",
        type=Path,
        help="BENCH_*.json files (default: all at the repo root)",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=None,
        help="directory holding baseline BENCH files to gate against",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=MAX_REGRESSION,
        help="tolerated relative speedup drop (default 0.30)",
    )
    args = parser.parse_args(argv)

    files = args.files or sorted(REPO_ROOT.glob("BENCH_*.json"))
    if not files:
        print("no BENCH_*.json files found")
        return 1

    failed = False
    for path in files:
        name = bench_name(path)
        with open(path) as handle:
            payload = json.load(handle)
        try:
            validate_payload(name, payload)
        except BenchValidationError as error:
            print(f"FAIL {path.name}: {error}")
            failed = True
            continue
        print(f"OK   {path.name}")

        if args.baseline_dir is None:
            continue
        baseline_path = args.baseline_dir / path.name
        if not baseline_path.exists():
            print(f"SKIP {path.name}: no baseline in {args.baseline_dir}")
            continue
        with open(baseline_path) as handle:
            baseline = json.load(handle)
        status, messages = check_regression(
            name, payload, baseline, args.max_regression
        )
        for message in messages:
            print(f"{status.upper():4s} {message}")
        failed = failed or status == "fail"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
