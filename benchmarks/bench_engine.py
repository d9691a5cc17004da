"""Engine benchmarks: the indexed execution engine vs the naive paths.

Three timed scenarios, at 10k-row scale by default:

1. **View evaluation** — a three-relation equijoin view whose literal FROM
   order forces the naive engine through a cartesian blow-up; the indexed
   engine reorders greedily by cardinality and probes hash indexes.
2. **Maintenance propagation** — 1k single-tuple updates pushed through
   Algorithm 1; the naive wrapper cross-joins every delta binding with
   every local row, the indexed wrapper probes the local relation's index
   per delta tuple.  The modeled cost counters must match exactly.
3. **Synchronize and rank** — a capability change produces a candidate
   rewriting spectrum which is re-ranked across workloads and rounds,
   with and without the memoized assessment cache.

Results are persisted as machine-readable ``BENCH_engine.json`` at the
repo root (via :func:`conftest.emit_json`).  Run directly::

    PYTHONPATH=src python benchmarks/bench_engine.py [--smoke] [--no-large]

``--smoke`` shrinks every scale so CI can assert the harness stays
healthy in seconds (the tuple-vs-columnar lane drops to 2k rows but keeps
running its parity check); ``--no-large`` skips that lane entirely.
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import emit, emit_json  # noqa: E402

from repro.config import EngineConfig, MaintenanceConfig, SystemConfig  # noqa: E402
from repro.core.eve import EVESystem  # noqa: E402
from repro.core.report import format_table  # noqa: E402
from repro.esql.evaluator import evaluate_view  # noqa: E402
from repro.esql.parser import parse_view  # noqa: E402
from repro.maintenance.simulator import ViewMaintainer  # noqa: E402
from repro.misd.statistics import RelationStatistics  # noqa: E402
from repro.qc.assessment_cache import AssessmentCache  # noqa: E402
from repro.qc.model import QCModel  # noqa: E402
from repro.qc.workload import WorkloadModel, WorkloadSpec  # noqa: E402
from repro.relational.relation import Relation  # noqa: E402
from repro.relational.schema import Schema  # noqa: E402
from repro.space.space import InformationSpace  # noqa: E402
from repro.sync.legality import check_legality  # noqa: E402
from repro.sync.synchronizer import ViewSynchronizer  # noqa: E402


# ----------------------------------------------------------------------
# Scenario 1: view evaluation
# ----------------------------------------------------------------------
def _evaluation_relations(rows: int, t_rows: int) -> dict[str, Relation]:
    return {
        "R": Relation(
            Schema("R", ["A", "B"]), [(i, 2 * i) for i in range(rows)]
        ),
        "S": Relation(
            Schema("S", ["A", "B", "C"]),
            [(i, i % t_rows, 3 * i) for i in range(rows)],
        ),
        "T": Relation(
            Schema("T", ["B", "D"]), [(b, 7 * b) for b in range(t_rows)]
        ),
    }


#: FROM order R, T, S leaves both equijoins undecidable until S, so the
#: literal-order engine crosses R with T first — the trap the greedy
#: cardinality order avoids.
_EVALUATION_VIEW = (
    "CREATE VIEW V AS SELECT R.A, S.C, T.D FROM R, T, S "
    "WHERE R.A = S.A AND S.B = T.B"
)


def bench_view_evaluation(rows: int, t_rows: int = 400) -> dict:
    relations = _evaluation_relations(rows, t_rows)
    view = parse_view(_EVALUATION_VIEW)

    start = time.perf_counter()
    naive = evaluate_view(view, relations, config=EngineConfig(engine="naive"))
    naive_seconds = time.perf_counter() - start

    start = time.perf_counter()
    indexed = evaluate_view(view, relations, config=EngineConfig(engine="indexed"))
    indexed_seconds = time.perf_counter() - start

    return {
        "rows": rows,
        "result_cardinality": indexed.cardinality,
        "naive_seconds": round(naive_seconds, 6),
        "indexed_seconds": round(indexed_seconds, 6),
        "speedup": round(naive_seconds / max(indexed_seconds, 1e-9), 2),
        "extents_equal": indexed == naive,
    }


def _timed_large_lane(
    representation: str, rows: int, t_rows: int
) -> tuple[float, int, Relation]:
    """Best-of-3 full evaluations, each on fresh relations (index builds
    and column-store construction are part of every run, as in real
    use); ``min`` is the standard noise-robust estimator for a
    deterministic workload."""
    view = parse_view(_EVALUATION_VIEW)
    config = EngineConfig(representation=representation)
    seconds = float("inf")
    for _ in range(3):
        relations = _evaluation_relations(rows, t_rows)
        start = time.perf_counter()
        extent = evaluate_view(view, relations, config=config)
        seconds = min(seconds, time.perf_counter() - start)

    # Peak-memory pass: separate untimed run so tracemalloc's bookkeeping
    # overhead never pollutes the timing above.
    relations = _evaluation_relations(rows, t_rows)
    tracemalloc.start()
    evaluate_view(view, relations, config=config)
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return seconds, peak_bytes, extent


def bench_view_evaluation_large(rows: int, t_rows: int = 400) -> dict:
    """Row plane (positional tuples) vs columnar plane at scale.

    Identical cardinalities, identical result rows; the columnar lane is
    the PR-6 tentpole and ``validate_bench.py`` gates ``speedup >= 3``
    on full (non-smoke) runs.
    """
    tuple_seconds, tuple_peak, tuple_extent = _timed_large_lane(
        "tuple", rows, t_rows
    )
    columnar_seconds, columnar_peak, columnar_extent = _timed_large_lane(
        "columnar", rows, t_rows
    )
    return {
        "rows": rows,
        "result_cardinality": columnar_extent.cardinality,
        "tuple_seconds": round(tuple_seconds, 6),
        "columnar_seconds": round(columnar_seconds, 6),
        "speedup": round(tuple_seconds / max(columnar_seconds, 1e-9), 2),
        "results_equal": columnar_extent.rows == tuple_extent.rows,
        "tuple_peak_bytes": tuple_peak,
        "columnar_peak_bytes": columnar_peak,
    }


# ----------------------------------------------------------------------
# Scenario 2: maintenance propagation
# ----------------------------------------------------------------------
def _maintenance_space(rows: int) -> InformationSpace:
    space = InformationSpace()
    space.add_source("IS1")
    space.add_source("IS2")
    space.register_relation(
        "IS1",
        Relation(Schema("R", ["A", "B"]), [(i, 2 * i) for i in range(rows)]),
        RelationStatistics(cardinality=rows, tuple_size=8),
    )
    space.register_relation(
        "IS2",
        Relation(Schema("S", ["A", "C"]), [(i, 3 * i) for i in range(rows)]),
        RelationStatistics(cardinality=rows, tuple_size=8),
    )
    return space


def _run_maintenance(rows: int, updates: int, use_index: bool):
    space = _maintenance_space(rows)
    view = parse_view(
        "CREATE VIEW V AS SELECT R.A, S.C FROM R, S WHERE R.A = S.A"
    )
    extent = evaluate_view(view, space.relations())
    maintainer = ViewMaintainer(
        space, config=MaintenanceConfig(use_index=use_index)
    )
    source = space.source("IS1")
    start = time.perf_counter()
    for k in range(updates):
        update = source.insert("R", ((k * 37) % rows, k))
        maintainer.maintain(view, extent, update)
    seconds = time.perf_counter() - start
    return seconds, extent, maintainer.counters


def bench_maintenance(rows: int, updates: int) -> dict:
    naive_seconds, naive_extent, naive_counters = _run_maintenance(
        rows, updates, use_index=False
    )
    indexed_seconds, indexed_extent, indexed_counters = _run_maintenance(
        rows, updates, use_index=True
    )
    counters_equal = (
        naive_counters.messages == indexed_counters.messages
        and naive_counters.bytes_transferred
        == indexed_counters.bytes_transferred
        and naive_counters.io_operations == indexed_counters.io_operations
    )
    return {
        "rows": rows,
        "updates": updates,
        "naive_seconds": round(naive_seconds, 6),
        "indexed_seconds": round(indexed_seconds, 6),
        "speedup": round(naive_seconds / max(indexed_seconds, 1e-9), 2),
        "extents_equal": indexed_extent == naive_extent,
        "counters_equal": counters_equal,
        "messages": indexed_counters.messages,
        "io_operations": indexed_counters.io_operations,
    }


# ----------------------------------------------------------------------
# Scenario 3: synchronize and rank
# ----------------------------------------------------------------------
def _synchronization_space(rows: int) -> InformationSpace:
    space = InformationSpace()
    space.add_source("IS1")
    space.add_source("IS2")
    space.add_source("IS3")
    space.register_relation(
        "IS1",
        Relation(Schema("R", ["A", "B", "C"])),
        RelationStatistics(cardinality=rows, tuple_size=12),
    )
    space.register_relation(
        "IS2",
        Relation(Schema("S", ["A", "D"])),
        RelationStatistics(cardinality=rows, tuple_size=8),
    )
    for index in range(1, 5):
        space.register_relation(
            "IS3",
            Relation(Schema(f"T{index}", ["A", "B", "C"])),
            RelationStatistics(
                cardinality=rows // index, tuple_size=12
            ),
        )
    mkb = space.mkb
    mkb.add_equivalence("R", "T1", ["A", "B", "C"])
    mkb.add_containment("R", "T2", ["A", "B", "C"])
    mkb.add_containment("T3", "R", ["A", "B", "C"])
    mkb.add_equivalence("R", "T4", ["A", "B"])
    return space


_SYNC_VIEW = (
    "CREATE VIEW W AS SELECT R.A (AR = true), "
    "R.B (AR = true, AD = true), R.C (AR = true, AD = true), S.D "
    "FROM R (RR = true, RD = true), S "
    "WHERE R.A = S.A (CR = true, CD = true)"
)


def _rank_rounds(model, rewritings, workloads, rounds):
    start = time.perf_counter()
    rankings = []
    for _ in range(rounds):
        for workload in workloads:
            evaluations = model.evaluate(rewritings, workload)
            rankings.append(tuple(e.name for e in evaluations))
    return time.perf_counter() - start, rankings


def bench_synchronize_and_rank(rows: int, rounds: int = 10) -> dict:
    space = _synchronization_space(rows)
    view = parse_view(_SYNC_VIEW)
    synchronizer = ViewSynchronizer(space.mkb)

    start = time.perf_counter()
    change = space.delete_relation("R")
    rewritings = [
        r
        for r in synchronizer.synchronize(view, change, include_dominated=True)
        if check_legality(r).legal
    ]
    synchronize_seconds = time.perf_counter() - start

    workloads = [
        None,
        WorkloadSpec(WorkloadModel.M1_PROPORTIONAL, 0.01),
        WorkloadSpec(WorkloadModel.M2_PER_RELATION, 5),
        WorkloadSpec(WorkloadModel.M3_PER_SOURCE, 5),
        WorkloadSpec(WorkloadModel.M4_PER_REWRITING, 5),
    ]
    uncached_model = QCModel(space.mkb)
    cache = AssessmentCache()
    cached_model = QCModel(space.mkb, cache=cache)

    uncached_seconds, uncached_rankings = _rank_rounds(
        uncached_model, rewritings, workloads, rounds
    )
    cached_seconds, cached_rankings = _rank_rounds(
        cached_model, rewritings, workloads, rounds
    )
    return {
        "candidates": len(rewritings),
        "rounds": rounds,
        "workloads": len(workloads),
        "synchronize_seconds": round(synchronize_seconds, 6),
        "uncached_seconds": round(uncached_seconds, 6),
        "cached_seconds": round(cached_seconds, 6),
        "speedup": round(uncached_seconds / max(cached_seconds, 1e-9), 2),
        "cache_hit_rate": round(cache.hit_rate, 4),
        "rankings_identical": uncached_rankings == cached_rankings,
    }


# ----------------------------------------------------------------------
# System surface: the same salvage, end to end through EVESystem
# ----------------------------------------------------------------------
def bench_system_surface(rows: int) -> tuple[dict, dict]:
    """Drive the Scenario-3 salvage through ``EVESystem.apply_changes``
    and return the summary plus the run's serializable SystemReport —
    the payload every BENCH file now embeds for ``validate_bench.py``."""
    from repro.space.changes import DeleteRelation

    space = _synchronization_space(rows)
    eve = EVESystem(space=space, config=SystemConfig())
    eve.define_view(parse_view(_SYNC_VIEW))
    start = time.perf_counter()
    results = eve.apply_changes([DeleteRelation("IS1", "R")])
    seconds = time.perf_counter() - start
    report = eve.last_report
    summary = {
        "synchronizations": len(results),
        "survived": sum(1 for r in results if r.survived),
        "seconds": round(seconds, 6),
        "winner_qc": (
            round(results[0].chosen.qc, 6)
            if results and results[0].chosen
            else None
        ),
    }
    return summary, report.to_dict()


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run(
    rows: int = 10_000,
    updates: int = 1_000,
    t_rows: int = 400,
    rounds: int = 10,
    large_rows: int | None = 100_000,
) -> dict:
    payload: dict = {
        "benchmark": "engine",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": sys.version.split()[0],
    }
    payload["view_evaluation"] = bench_view_evaluation(rows, t_rows)
    payload["maintenance_propagation"] = bench_maintenance(rows, updates)
    payload["synchronize_and_rank"] = bench_synchronize_and_rank(rows, rounds)
    payload["system_surface"], payload["system_report"] = (
        bench_system_surface(rows)
    )
    if large_rows:
        payload["view_evaluation_large"] = bench_view_evaluation_large(
            large_rows, t_rows
        )
    return payload


def report(payload: dict) -> None:
    ve = payload["view_evaluation"]
    mp = payload["maintenance_propagation"]
    sr = payload["synchronize_and_rank"]
    rows = [
        (
            "view evaluation",
            f"{ve['rows']} rows",
            f"{ve['naive_seconds']:.3f}s",
            f"{ve['indexed_seconds']:.3f}s",
            f"{ve['speedup']:.1f}x",
        ),
        (
            "maintenance propagation",
            f"{mp['updates']} updates @ {mp['rows']} rows",
            f"{mp['naive_seconds']:.3f}s",
            f"{mp['indexed_seconds']:.3f}s",
            f"{mp['speedup']:.1f}x",
        ),
        (
            "synchronize and rank",
            f"{sr['candidates']} candidates x {sr['rounds']} rounds",
            f"{sr['uncached_seconds']:.3f}s",
            f"{sr['cached_seconds']:.3f}s",
            f"{sr['speedup']:.1f}x",
        ),
    ]
    vl = payload.get("view_evaluation_large")
    if vl:
        rows.append(
            (
                "view evaluation (columnar)",
                f"{vl['rows']} rows",
                f"{vl['tuple_seconds']:.3f}s",
                f"{vl['columnar_seconds']:.3f}s",
                f"{vl['speedup']:.1f}x",
            )
        )
    emit(
        format_table(
            ["Scenario", "Scale", "Baseline", "Optimized", "Speedup"],
            rows,
            title="Indexed execution engine vs naive paths",
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=10_000)
    parser.add_argument("--updates", type=int, default=1_000)
    parser.add_argument("--t-rows", type=int, default=400)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny scales for CI health checks",
    )
    parser.add_argument(
        "--no-large",
        action="store_true",
        help="skip the 100k-row tuple-vs-columnar timing",
    )
    parser.add_argument(
        "--large-rows",
        type=int,
        default=100_000,
        help="scale of the tuple-vs-columnar lane",
    )
    parser.add_argument(
        "--no-json", action="store_true", help="print only, do not persist"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.rows, args.updates, args.t_rows, args.rounds = 600, 50, 40, 3
        # Keep the tuple-vs-columnar lane alive at toy scale: the parity
        # check still runs, only the speedup gate is waived (validate_bench
        # SKIPs gated speedups on smoke payloads).
        args.large_rows = 2_000

    payload = run(
        rows=args.rows,
        updates=args.updates,
        t_rows=args.t_rows,
        rounds=args.rounds,
        large_rows=None if args.no_large else args.large_rows,
    )
    report(payload)
    checks = [
        payload["view_evaluation"]["extents_equal"],
        payload["maintenance_propagation"]["extents_equal"],
        payload["maintenance_propagation"]["counters_equal"],
        payload["synchronize_and_rank"]["rankings_identical"],
    ]
    if "view_evaluation_large" in payload:
        checks.append(payload["view_evaluation_large"]["results_equal"])
    if not all(checks):
        print("EQUIVALENCE FAILURE", checks)
        return 1
    # Mode marker for the CI regression gate: smoke-scale timings are
    # not comparable with committed full-run baselines.
    payload["config"] = {"smoke": args.smoke}
    if not args.no_json:
        path = emit_json("engine", payload)
        print(f"wrote {path}")
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
