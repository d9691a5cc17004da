"""Maintenance benchmarks: the tuple delta plane vs the binding plane.

One timed scenario, the 10k-update maintenance storm
(:func:`~repro.workloadgen.scenarios.build_maintenance_storm_scenario`):
a three-source join view whose updated relation receives a long
insert/delete stream.  The lanes all run the identical stream:

1. **dict per-update** — the binding-plane reference: every update is
   propagated on its own, deltas travel as per-row dicts, WHERE clauses
   interpret per candidate, and the view is re-resolved per update.
2. **tuple per-update** — the compiled positional-tuple plane, still one
   :meth:`ViewMaintainer.maintain` call per update.
3. **tuple batch** — the whole stream through
   :meth:`ViewMaintainer.maintain_batch`: one resolution, one plan, one
   compiled pipeline, per-update accounting recovered from provenance.
4. **columnar batch** — the same batched stream on the columnar plane:
   deltas travel as per-attribute columns, joins run as vectorized hash
   probes with selection vectors.

The modeled CF_M/CF_T/CF_IO counters and the final extents must be
identical across every lane — that is the equivalence contract of the
delta plane, and ``validate_bench.py`` gates it on every run.

Every lane is timed as the minimum of :data:`REPEATS` repetitions, and
the lanes interleave within a repetition, so a speedup does not follow
the host's speed mode from one lane to the next.  The outcome and
counter gates hold on every repetition, not only the fastest.

A second lane, **delete churn**, deletes rows at random positions from
a 10k-row relation (the storm deletes the oldest live row, which
``list.remove`` finds at once, so it cannot show a delete scan).  ``Relation.delete``, which locates rows through its
packed key column, runs beside the ``list.remove`` reference on the
same targets; the survivors must be identical on every run, and the
speedup has a floor on full runs.

Results are persisted as machine-readable ``BENCH_maintenance.json`` at
the repo root (via :func:`conftest.emit_json`).  Run directly::

    PYTHONPATH=src python benchmarks/bench_maintenance.py [--smoke]

``--smoke`` shrinks the storm so CI can assert the harness stays healthy
in seconds.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import emit, emit_json  # noqa: E402

from repro.config import MaintenanceConfig, SystemConfig  # noqa: E402
from repro.core.eve import EVESystem  # noqa: E402
from repro.core.report import format_table  # noqa: E402
from repro.esql.evaluator import evaluate_view  # noqa: E402
from repro.maintenance.simulator import ViewMaintainer  # noqa: E402
from repro.relational.relation import Relation  # noqa: E402
from repro.space.updates import UpdateKind  # noqa: E402
from repro.workloadgen.generator import make_schema  # noqa: E402
from repro.workloadgen.scenarios import (  # noqa: E402
    build_maintenance_storm_scenario,
)


#: Repetitions per timed lane; each lane reports its fastest.
REPEATS = 3


def _replay(space, stream):
    """Apply one intent stream to the sources, yielding DataUpdates."""
    for relation, kind, row in stream:
        if kind is UpdateKind.INSERT:
            yield space.insert(relation, row)
        else:
            yield space.delete(relation, row)


def _run_lane(
    updates: int, rows: int, representation: str, batched: bool
):
    scenario = build_maintenance_storm_scenario(updates=updates, rows=rows)
    space, view = scenario.space, scenario.view
    extent = evaluate_view(view, space.relations())
    maintainer = ViewMaintainer(
        space, config=MaintenanceConfig(representation=representation)
    )
    start = time.perf_counter()
    if batched:
        applied = list(_replay(space, scenario.updates))
        maintainer.maintain_batch(view, extent, applied)
    else:
        for update in _replay(space, scenario.updates):
            maintainer.maintain(view, extent, update)
    seconds = time.perf_counter() - start
    return seconds, extent, maintainer.counters, None


def _run_system_lane(updates: int, rows: int):
    """The whole stream through EVESystem.apply_updates (tuple plane,
    join-graph flush batching) — the surface operators actually call.
    Returns the wall clock, the final extent, the per-call counters,
    and the run's serializable SystemReport."""
    scenario = build_maintenance_storm_scenario(updates=updates, rows=rows)
    eve = EVESystem(space=scenario.space, config=SystemConfig())
    eve.define_view(scenario.view)
    start = time.perf_counter()
    counters = eve.apply_updates(scenario.updates)
    seconds = time.perf_counter() - start
    return seconds, eve.extent(scenario.view.name), counters, eve.last_report


def bench_update_storm(updates: int, rows: int) -> tuple[dict, dict]:
    lanes = {
        "dict": lambda: _run_lane(updates, rows, "dict", batched=False),
        "tuple": lambda: _run_lane(updates, rows, "tuple", batched=False),
        "batch": lambda: _run_lane(updates, rows, "tuple", batched=True),
        "columnar": lambda: _run_lane(
            updates, rows, "columnar", batched=True
        ),
        "system": lambda: _run_system_lane(updates, rows),
    }

    def factors(counters):
        return (
            counters.messages,
            counters.bytes_transferred,
            counters.io_operations,
        )

    best: dict[str, float] = {}
    reference = None
    counters_equal = extents_equal = True
    for _ in range(REPEATS):
        for label, lane in lanes.items():
            seconds, extent, counters, report = lane()
            best[label] = min(best.get(label, seconds), seconds)
            if reference is None:
                # The first dict run is what every other run must match.
                reference = (extent, factors(counters))
            else:
                counters_equal &= factors(counters) == reference[1]
                extents_equal &= extent == reference[0]
            if report is not None:
                system_report = report
    final_extent, (messages, bytes_transferred, io_operations) = reference
    dict_seconds = best["dict"]

    def speedup(label):
        return round(dict_seconds / max(best[label], 1e-9), 2)

    storm = {
        "updates": updates,
        "rows": rows,
        "repeats": REPEATS,
        "dict_seconds": round(dict_seconds, 6),
        "tuple_seconds": round(best["tuple"], 6),
        "batch_seconds": round(best["batch"], 6),
        # Headline: the tuple+batch path against the dict per-update
        # reference (the acceptance floor is 3x on full runs).
        "speedup": speedup("batch"),
        "tuple_speedup": speedup("tuple"),
        "columnar_seconds": round(best["columnar"], 6),
        "columnar_speedup": speedup("columnar"),
        "system_seconds": round(best["system"], 6),
        "system_speedup": speedup("system"),
        "system_flushes": len(system_report.flushes),
        "counters_equal": counters_equal,
        "extents_equal": extents_equal,
        "final_extent": final_extent.cardinality,
        "messages": messages,
        "bytes_transferred": bytes_transferred,
        "io_operations": io_operations,
    }
    return storm, system_report.to_dict()


def bench_delete_churn(rows: int, deletes: int, seed: int = 17) -> dict:
    """Delete ``deletes`` rows picked at random positions from ``rows``
    rows of ``R(A, B)`` (about four rows per ``A`` key), once with
    ``list.remove`` on a plain list and once with ``Relation.delete``
    (which builds its locator on the first delete, inside the timing).
    Each side reports its fastest of :data:`REPEATS` fresh runs."""
    rng = random.Random(seed)
    data = [
        (rng.randrange(max(rows // 4, 1)), rng.randrange(1_000_000))
        for _ in range(rows)
    ]
    targets = rng.sample(data, deletes)

    list_seconds = relation_seconds = float("inf")
    survivors_equal = True
    for _ in range(REPEATS):
        reference = list(data)
        start = time.perf_counter()
        for row in targets:
            reference.remove(row)
        list_seconds = min(list_seconds, time.perf_counter() - start)

        relation = Relation(make_schema("R", ["A", "B"]), data)
        start = time.perf_counter()
        for row in targets:
            relation.delete(row)
        relation_seconds = min(
            relation_seconds, time.perf_counter() - start
        )
        survivors_equal &= relation.rows == reference
    return {
        "rows": rows,
        "deletes": deletes,
        "list_remove_seconds": round(list_seconds, 6),
        "relation_seconds": round(relation_seconds, 6),
        "speedup": round(list_seconds / max(relation_seconds, 1e-9), 2),
        "survivors_equal": survivors_equal,
    }


def run(
    updates: int = 10_000,
    rows: int = 4_000,
    churn_rows: int = 10_000,
    churn_deletes: int = 5_000,
) -> dict:
    storm, system_report = bench_update_storm(updates, rows)
    return {
        "benchmark": "maintenance",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": sys.version.split()[0],
        "update_storm": storm,
        "delete_churn": bench_delete_churn(churn_rows, churn_deletes),
        "system_report": system_report,
    }


def report(payload: dict) -> None:
    storm = payload["update_storm"]
    rows = [
        (
            "dict per-update (reference)",
            f"{storm['updates']} updates @ {storm['rows']} key rows",
            f"{storm['dict_seconds']:.3f}s",
            "1.0x",
        ),
        (
            "tuple per-update",
            "same stream",
            f"{storm['tuple_seconds']:.3f}s",
            f"{storm['tuple_speedup']:.1f}x",
        ),
        (
            "tuple maintain_batch",
            "same stream",
            f"{storm['batch_seconds']:.3f}s",
            f"{storm['speedup']:.1f}x",
        ),
        (
            "columnar maintain_batch",
            "same stream",
            f"{storm['columnar_seconds']:.3f}s",
            f"{storm['columnar_speedup']:.1f}x",
        ),
        (
            "EVESystem.apply_updates",
            f"same stream, {storm['system_flushes']} flush(es)",
            f"{storm['system_seconds']:.3f}s",
            f"{storm['system_speedup']:.1f}x",
        ),
    ]
    emit(
        format_table(
            ["Lane", "Scale", "Wall clock", "Speedup"],
            rows,
            title="Maintenance storm: delta plane representations",
        )
    )
    churn = payload["delete_churn"]
    emit(
        format_table(
            ["Lane", "Scale", "Wall clock", "Speedup"],
            [
                (
                    "list.remove (reference)",
                    f"{churn['deletes']} deletes @ {churn['rows']} rows",
                    f"{churn['list_remove_seconds']:.3f}s",
                    "1.0x",
                ),
                (
                    "Relation.delete (locator)",
                    "same targets",
                    f"{churn['relation_seconds']:.3f}s",
                    f"{churn['speedup']:.1f}x",
                ),
            ],
            title="Delete churn: random-position deletes",
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--updates", type=int, default=10_000)
    parser.add_argument("--rows", type=int, default=4_000)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny scales for CI health checks",
    )
    parser.add_argument(
        "--no-json", action="store_true", help="print only, do not persist"
    )
    args = parser.parse_args(argv)

    churn_rows, churn_deletes = 10_000, 5_000
    if args.smoke:
        args.updates, args.rows = 400, 300
        churn_rows, churn_deletes = 2_000, 500

    payload = run(
        updates=args.updates,
        rows=args.rows,
        churn_rows=churn_rows,
        churn_deletes=churn_deletes,
    )
    report(payload)
    storm = payload["update_storm"]
    churn = payload["delete_churn"]
    if not (
        storm["counters_equal"]
        and storm["extents_equal"]
        and churn["survivors_equal"]
    ):
        print(
            "EQUIVALENCE FAILURE",
            [
                storm["counters_equal"],
                storm["extents_equal"],
                churn["survivors_equal"],
            ],
        )
        return 1
    # Mode marker for the CI regression gate: smoke-scale timings are
    # not comparable with committed full-run baselines.
    payload["config"] = {"smoke": args.smoke, "cpus": os.cpu_count() or 1}
    if not args.no_json:
        path = emit_json("maintenance", payload)
        print(f"wrote {path}")
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
