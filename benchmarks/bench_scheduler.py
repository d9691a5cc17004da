"""Scheduler benchmarks: the serial reference vs the default scheduler.

Three timed scenarios over replacement-heavy salvage storms (every view
needs a replacement search over a donor spectrum — the workload the
cross-view scheduler exists for):

1. **Parallel storm** (the lane keeps its historical name) — the serial
   reference scheduler (coalescing off, like
   ``SystemConfig.reference()``) replays every affected view one after
   the other; the default scheduler (serial, coalescing) runs one search
   per definition-modulo-name + worklist class and rebinds the results
   to every follower.  Committed winners, QC-Values, and extents must be
   identical.  The ``parallel_seconds``/``speedup`` keys time the
   default scheduler: the win is coalescing, which is
   CPU-count-independent, and is never credited to parallelism.
2. **Sharded storm** (the lane keeps its historical name) — the
   100k-view storm replayed as a sequential batch stream through the
   serial reference (coalescing off) and the default serial + coalesce
   scheduler.  The default lane separates the cold first batch from
   the warm remainder; both lanes must commit byte-identical outcomes.
3. **Deadline sweep** — the same storm on the default serial scheduler
   under shrinking wall-clock
   budgets with ``degrade="first_legal"``: views scheduled past the
   budget fall back to the old-EVE first-legal policy
   (cheapest-to-salvage views, scheduled first, keep full QC ranking).
   Reported per budget: degraded view count and total QC achieved —
   the quality/cost trade-off curve the budget buys.  A zero-budget
   ``degrade="defer"`` run plus :meth:`EVESystem.resume_deferred`
   round-trips the deferral path.

Results are persisted as machine-readable ``BENCH_scheduler.json`` at
the repo root (via :func:`conftest.emit_json`).  Run directly::

    PYTHONPATH=src python benchmarks/bench_scheduler.py [--smoke]

``--smoke`` shrinks every scale so CI can assert the harness stays
healthy in seconds.  Full runs enforce >=2x speedup of the default
scheduler over the serial reference on the 1k-view storm and >=3x on
the 100k-view sharded storm, with identical outcomes.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import emit, emit_json  # noqa: E402

from repro.config import ScheduleConfig  # noqa: E402
from repro.core.eve import EVESystem  # noqa: E402
from repro.core.report import format_table  # noqa: E402
from repro.sync.scheduler import SynchronizationScheduler  # noqa: E402
from repro.workloadgen.scenarios import (  # noqa: E402
    build_scheduler_stress_scenario,
    build_sharded_storm_scenario,
)


def _stress_system(**stress_args) -> tuple[EVESystem, list]:
    scenario = build_scheduler_stress_scenario(**stress_args)
    eve = EVESystem(space=scenario.space)
    for view in scenario.views:
        eve.define_view(view, materialize=False)
    return eve, scenario.changes


def _fingerprint(eve: EVESystem) -> list[tuple]:
    # Structural ViewDefinition equality (order-sensitive), not repr:
    # outcomes_equal must catch any divergence, not just the interface.
    return [
        (record.name, record.alive, record.generations, record.current)
        for record in eve.vkb
    ]


def _serial_reference() -> SynchronizationScheduler:
    """The serial scheduler that searches every view itself."""
    return SynchronizationScheduler(ScheduleConfig(coalesce=False))


def _run(scheduler: SynchronizationScheduler, **stress_args):
    eve, changes = _stress_system(**stress_args)
    start = perf_counter()
    results = eve.apply_changes(changes, scheduler=scheduler)
    seconds = perf_counter() - start
    return eve, results, seconds


def _qc(results) -> list[tuple]:
    return [(r.view_name, r.chosen.qc if r.chosen else None) for r in results]


# ----------------------------------------------------------------------
# Scenario 1: serial reference vs the default (coalescing) scheduler
# ----------------------------------------------------------------------
def bench_parallel_storm(**stress_args) -> tuple[dict, dict]:
    serial_eve, serial_results, serial_seconds = _run(
        _serial_reference(), **stress_args
    )
    parallel_eve, parallel_results, parallel_seconds = _run(
        SynchronizationScheduler(ScheduleConfig()), **stress_args
    )

    serial_fingerprint = _fingerprint(serial_eve)
    outcomes_equal = serial_fingerprint == _fingerprint(parallel_eve)
    qc_equal = _qc(serial_results) == _qc(parallel_results)
    # The scheduling facts come from the run's SystemReport — the
    # serializable surface the system now exposes for exactly this.
    system_report = parallel_eve.last_report.to_dict()
    (batch,) = system_report["schedule"]["batches"]
    storm = {
        "views": stress_args.get("views", 1000),
        "changes": stress_args.get("view_relations", 100),
        "synchronizations": len(
            system_report["synchronization"]["views"]
        ),
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": (
            serial_seconds / parallel_seconds if parallel_seconds else 0.0
        ),
        "outcomes_equal": outcomes_equal and qc_equal,
        "coalesced_searches": batch["coalesced"],
        "cpu_count": os.cpu_count() or 1,
    }
    return storm, system_report


# ----------------------------------------------------------------------
# Scenario 2: the 100k-view storm as a batch stream
# ----------------------------------------------------------------------
def _replay_sharded(scheduler, **storm_args):
    """Replay the sharded storm's batch stream on a fresh system.

    Returns the per-batch wall clocks, the committed (view, QC) pairs,
    the last batch's :class:`~repro.report.SystemReport` payload, and
    the final VKB fingerprint — everything the lane comparison needs,
    with the system itself released so the lanes never coexist in
    memory.
    """
    scenario = build_sharded_storm_scenario(**storm_args)
    eve = EVESystem(space=scenario.space)
    for view in scenario.views:
        eve.define_view(view, materialize=False)
    qc = []
    seconds = []
    for batch in scenario.change_batches:
        start = perf_counter()
        results = eve.apply_changes(batch, scheduler=scheduler)
        seconds.append(perf_counter() - start)
        qc.extend(
            (r.view_name, r.chosen.qc if r.chosen else None)
            for r in results
        )
    return seconds, qc, eve.last_report.to_dict(), _fingerprint(eve)


def bench_sharded_storm(**storm_args) -> tuple[dict, dict]:
    """Serial reference vs serial + coalesce over one batch stream.

    Both lanes replay the identical batch stream; committed winners,
    QC-Values, and VKB fingerprints must be byte-identical.  The
    default lane's first batch (cold: first searches, empty
    per-definition caches) is reported apart from the warm remainder.
    """
    serial_seconds, serial_qc, _, serial_fp = _replay_sharded(
        _serial_reference(), **storm_args
    )
    coalesce_seconds, coalesce_qc, coalesce_report, coalesce_fp = (
        _replay_sharded(
            SynchronizationScheduler(ScheduleConfig()), **storm_args
        )
    )
    serial_total = sum(serial_seconds)
    coalesce_total = sum(coalesce_seconds)
    storm = {
        "views": storm_args.get("views", 100_000),
        "relations": storm_args.get("view_relations", 200),
        "batches": len(serial_seconds),
        "serial_seconds": serial_total,
        "serial_coalesce_seconds": coalesce_total,
        "serial_coalesce_cold_seconds": coalesce_seconds[0],
        "serial_coalesce_warm_seconds": sum(coalesce_seconds[1:]),
        "serial_coalesce_speedup": (
            serial_total / coalesce_total if coalesce_total else 0.0
        ),
        "outcomes_equal": (
            coalesce_fp == serial_fp and coalesce_qc == serial_qc
        ),
        "cpu_count": os.cpu_count() or 1,
    }
    return storm, coalesce_report


# ----------------------------------------------------------------------
# Scenario 3: QC achieved vs wall-clock budget
# ----------------------------------------------------------------------
def bench_deadline_sweep(serial_seconds: float, **stress_args) -> dict:
    """Run the storm under shrinking budgets; report QC vs budget."""
    sweep = {}
    fractions = {"unbounded": None, "half": 0.5, "tenth": 0.1, "zero": 0.0}
    for label, fraction in fractions.items():
        budget = None if fraction is None else serial_seconds * fraction
        scheduler = SynchronizationScheduler(
            ScheduleConfig(budget=budget, degrade="first_legal")
        )
        eve, results, seconds = _run(scheduler, **stress_args)
        report = eve.last_report
        sweep[label] = {
            "budget_seconds": budget,
            "wall_seconds": seconds,
            "synchronized": len(results),
            "degraded": len(report.degraded_views),
            "deferred": len(report.deferred_views),
            "qc_achieved": sum(
                result.chosen.qc for result in results if result.chosen
            ),
        }

    # The defer path: a zero budget parks everything explicitly, and
    # resume_deferred replays it to the exact unbounded outcome.
    deferring = SynchronizationScheduler(
        ScheduleConfig(budget=0.0, degrade="defer", coalesce=True)
    )
    eve, results, _ = _run(deferring, **stress_args)
    deferred_count = len(eve.last_report.deferred_views)
    resumed = eve.resume_deferred()
    reference_eve, _, _ = _run(_serial_reference(), **stress_args)
    sweep["zero_defer"] = {
        "budget_seconds": 0.0,
        "synchronized_at_deadline": len(results),
        "deferred": deferred_count,
        "resumed": len(resumed),
        "resume_matches_serial": (
            _fingerprint(eve) == _fingerprint(reference_eve)
        ),
    }
    return sweep


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny scales: assert harness health, not performance",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        stress_args = dict(
            views=80, view_relations=16, donors_per_relation=3,
            view_attributes=2,
        )
        storm_args = dict(
            views=2000, view_relations=40, donors_per_relation=3,
            view_attributes=2, batches=2, tail_changes=1,
        )
    else:
        stress_args = dict(
            views=1000, view_relations=100, donors_per_relation=6,
            view_attributes=3,
        )
        storm_args = dict(
            views=100_000, view_relations=200, donors_per_relation=3,
            view_attributes=2, batches=4, tail_changes=1,
        )

    storm, system_report = bench_parallel_storm(**stress_args)
    emit(
        format_table(
            ["metric", "value"],
            [
                ["views", storm["views"]],
                ["synchronizations", storm["synchronizations"]],
                ["serial reference (s)", f"{storm['serial_seconds']:.4f}"],
                ["serial + coalesce (s)", f"{storm['parallel_seconds']:.4f}"],
                ["speedup", f"{storm['speedup']:.1f}x"],
                ["coalesced searches", storm["coalesced_searches"]],
                ["cpus", storm["cpu_count"]],
                ["outcomes identical", storm["outcomes_equal"]],
            ],
            title="Default scheduler (1k-view salvage storm)",
        )
    )

    sharded, sharded_report = bench_sharded_storm(**storm_args)
    emit(
        format_table(
            ["metric", "value"],
            [
                ["views / relations", f"{sharded['views']} / {sharded['relations']}"],
                ["batches", sharded["batches"]],
                ["serial reference (s)", f"{sharded['serial_seconds']:.4f}"],
                [
                    "serial + coalesce (s)",
                    f"{sharded['serial_coalesce_seconds']:.4f} "
                    f"({sharded['serial_coalesce_speedup']:.1f}x)",
                ],
                [
                    "serial + coalesce cold batch (s)",
                    f"{sharded['serial_coalesce_cold_seconds']:.4f}",
                ],
                [
                    "serial + coalesce warm batches (s)",
                    f"{sharded['serial_coalesce_warm_seconds']:.4f}",
                ],
                ["cpus", sharded["cpu_count"]],
                ["outcomes identical", sharded["outcomes_equal"]],
            ],
            title=f"Sharded storm ({sharded['views']}-view batch stream)",
        )
    )

    sweep = bench_deadline_sweep(storm["serial_seconds"], **stress_args)
    emit(
        format_table(
            ["budget", "seconds", "synced", "degraded", "QC achieved"],
            [
                [
                    label,
                    (
                        "-"
                        if row["budget_seconds"] is None
                        else f"{row['budget_seconds']:.3f}"
                    ),
                    row["synchronized"],
                    row["degraded"],
                    f"{row['qc_achieved']:.2f}",
                ]
                for label, row in sweep.items()
                if "qc_achieved" in row
            ],
            title="Deadline sweep (degrade to first_legal past budget)",
        )
    )
    defer_row = sweep["zero_defer"]
    emit(
        format_table(
            ["metric", "value"],
            [
                ["synchronized at deadline", defer_row["synchronized_at_deadline"]],
                ["deferred", defer_row["deferred"]],
                ["resumed", defer_row["resumed"]],
                ["resume matches serial", defer_row["resume_matches_serial"]],
            ],
            title="Zero-budget deferral + resume",
        )
    )

    if not storm["outcomes_equal"]:
        raise SystemExit("default scheduler diverged from serial outcomes")
    if not sharded["outcomes_equal"]:
        raise SystemExit(
            "sharded storm lanes diverged from serial outcomes"
        )
    if not defer_row["resume_matches_serial"]:
        raise SystemExit("deferral resume diverged from serial outcomes")
    if not args.smoke:
        if storm["speedup"] < 2.0:
            raise SystemExit(
                f"default scheduler speedup {storm['speedup']:.1f}x < 2x"
            )
        if sharded["serial_coalesce_speedup"] < 3.0:
            raise SystemExit(
                f"sharded storm serial + coalesce speedup "
                f"{sharded['serial_coalesce_speedup']:.1f}x < 3x"
            )
        unbounded = sweep["unbounded"]["qc_achieved"]
        zero = sweep["zero"]["qc_achieved"]
        if sweep["zero"]["degraded"] == 0:
            raise SystemExit("zero budget degraded nothing")
        if unbounded < zero:
            raise SystemExit("degraded run achieved more QC than unbounded")

    path = emit_json(
        "scheduler",
        {
            "parallel_storm": storm,
            "sharded_storm": {**sharded, "system_report": sharded_report},
            "deadline_sweep": sweep,
            "system_report": system_report,
            "config": {
                "smoke": args.smoke,
                **stress_args,
                "sharded": storm_args,
            },
        },
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
