"""Serving-plane benchmark: snapshot reads during an evolution storm.

The PR-9 acceptance scenario: an online serving plane answers
multi-view snapshot reads *while* the 1k-view evolution storm commits
on the same system, and the mixed read/write latency profile shows the
MVCC read path never blocking on writers.

Three measured lanes over one populated evolution-storm space:

1. **Idle reads** — paced reader threads perform multi-view snapshot
   scans (pin a version, scan a batch of view extents row by row,
   release, think) against a quiescent system: the latency baseline.
2. **Storm reads** — the identical paced read loop runs concurrently
   with the full capability-change storm, which the writer replays as
   a sequential batch stream (one atomic version publish per batch) on
   the default system.  Readers are paced with ~Poisson think time
   rather than busy-looped: a saturating closed loop on a small host
   measures CPU fair-share scheduling, not serving latency — pacing is
   how YCSB-style latency benchmarks isolate per-request cost.
   Reported: p50/p99 during the storm, the p99 ratio against idle, the
   versions each reader observed, and the torn-read count — every read
   is checked against the serial per-version extent digest, so a read
   that mixed two batches cannot hide.
3. **Executor parity** (the lane keeps its historical name) — the same
   storm plus a tail update stream replayed on the default
   (coalescing) system and on ``SystemConfig.reference()``: committed
   winners, QC-Values, extent digests, and modeled CF_M/CF_T/CF_IO
   counters must be byte-identical in every lane.

Correctness gates (all modes): zero torn reads, monotone versions per
reader, zero copy-on-write copies (the storm rematerializes extents —
views a batch does not touch must share their Relation object across
versions), default-vs-reference parity.  Full runs additionally gate
the headline latency target: storm-time read p99 within 2x of idle
p99.

Results are persisted as machine-readable ``BENCH_serving.json`` at
the repo root (via :func:`conftest.emit_json`).  Run directly::

    PYTHONPATH=src python benchmarks/bench_serving.py [--smoke]

``--smoke`` shrinks every scale so CI can assert the harness stays
healthy in seconds.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import emit, emit_json  # noqa: E402

from repro.config import SystemConfig  # noqa: E402
from repro.core.eve import EVESystem  # noqa: E402
from repro.core.report import format_table  # noqa: E402
from repro.workloadgen.scenarios import (  # noqa: E402
    build_evolution_storm_scenario,
)


def _populate(space, rows_per_relation: int, seed: int) -> None:
    """Give every (empty) storm relation real rows so reads scan data."""
    rng = random.Random(seed)
    for name, relation in space.relations().items():
        width = len(relation.schema.attributes)
        relation.insert_many(
            tuple(rng.randrange(10_000) for _ in range(width))
            for _ in range(rows_per_relation)
        )


def _build_system(storm_args, config=None):
    scenario = build_evolution_storm_scenario(**storm_args["scenario"])
    _populate(scenario.space, storm_args["rows"], storm_args["seed"])
    eve = EVESystem(space=scenario.space, config=config)
    for view in scenario.views:
        eve.define_view(view)  # materialized: the serving working set
    batches = _split(scenario.changes, storm_args["batches"])
    return eve, batches


def _split(changes, count):
    """Contiguous near-equal batches, preserving replay-safe order."""
    count = max(1, min(count, len(changes)))
    size, remainder = divmod(len(changes), count)
    batches, cursor = [], 0
    for index in range(count):
        width = size + (1 if index < remainder else 0)
        batches.append(changes[cursor : cursor + width])
        cursor += width
    return batches


def _digest(relation) -> int:
    """Order-insensitive row digest (multiset fingerprint)."""
    total = 0
    for row in relation.rows:
        total ^= hash(row)
    return hash((len(relation.rows), total))


def _extent_digests(eve) -> dict[str, int]:
    with eve.snapshot() as snapshot:
        return {
            name: _digest(snapshot.extent(name))
            for name in snapshot.names()
        }


def _fingerprint(eve):
    return [
        (record.name, record.alive, record.generations, record.current)
        for record in eve.vkb
    ]


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[index]


def _latency_stats(samples_ms):
    ordered = sorted(samples_ms)
    return {
        "reads": len(ordered),
        "p50_ms": round(_percentile(ordered, 0.50), 6),
        "p99_ms": round(_percentile(ordered, 0.99), 6),
        "mean_ms": round(
            sum(ordered) / len(ordered) if ordered else 0.0, 6
        ),
    }


def _read_once(eve, rng, views_per_read):
    """One serving read: pin, scan several views, digest, release."""
    t0 = perf_counter()
    with eve.snapshot() as snapshot:
        names = snapshot.names()
        picks = [
            names[rng.randrange(len(names))] for _ in range(views_per_read)
        ]
        reads = [
            (snapshot.version, name, _digest(snapshot.extent(name)))
            for name in picks
        ]
    return (perf_counter() - t0) * 1000.0, reads


# ----------------------------------------------------------------------
# Lane 1+2: idle baseline, then reads during the storm
# ----------------------------------------------------------------------
def bench_reads(readers, views_per_read, idle_reads, think_s, storm_args):
    eve, batches = _build_system(storm_args, SystemConfig())
    eve.snapshot().release()  # arm serving before any concurrent writer

    # Serial per-version extent digests: replay the identical batch
    # stream on a reference system, recording the digest map after
    # every publish — the oracle every concurrent read is checked
    # against.
    reference, ref_batches = _build_system(storm_args)
    reference.snapshot().release()
    oracle = {0: _extent_digests(reference)}
    for batch in ref_batches:
        reference.apply_changes(batch)
        oracle[reference._extents.version] = _extent_digests(reference)
    reference_fp = _fingerprint(reference)
    del reference

    # The first batch is a warm-up, not measured: it pays the cold
    # start (first searches), which bench_scheduler.py times.
    warmup, *batches = batches
    eve.apply_changes(warmup)

    # Idle baseline: the same paced read loop, quiescent system.
    rng = random.Random(97)
    idle_samples = []
    for _ in range(idle_reads):
        ms, _reads = _read_once(eve, rng, views_per_read)
        idle_samples.append(ms)
        time.sleep(rng.expovariate(1.0 / think_s) if think_s else 0)

    # Storm: paced reader threads vs the sequential batch stream.
    stop = threading.Event()
    samples = [[] for _ in range(readers)]
    observations = [[] for _ in range(readers)]
    errors = []

    def reader(slot):
        thread_rng = random.Random(1000 + slot)
        try:
            while not stop.is_set():
                ms, reads = _read_once(eve, thread_rng, views_per_read)
                samples[slot].append(ms)
                observations[slot].append(reads)
                if think_s:
                    stop.wait(thread_rng.expovariate(1.0 / think_s))
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [
        threading.Thread(target=reader, args=(slot,), daemon=True)
        for slot in range(readers)
    ]
    storm_start = perf_counter()
    for thread in threads:
        thread.start()
    try:
        for batch in batches:
            eve.apply_changes(batch)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
    storm_seconds = perf_counter() - storm_start
    if errors:
        raise SystemExit(f"reader thread failed: {errors[0]!r}")

    # Verify every concurrent read against the serial oracle.
    torn = 0
    monotonic = True
    versions_observed = set()
    for slot in range(readers):
        last_version = -1
        for reads in observations[slot]:
            for version, name, digest in reads:
                versions_observed.add(version)
                if version < last_version:
                    monotonic = False
                last_version = max(last_version, version)
                expected = oracle.get(version, {}).get(name)
                if expected != digest:
                    torn += 1

    storm_samples = [ms for slot in samples for ms in slot]
    idle = _latency_stats(idle_samples)
    storm = _latency_stats(storm_samples)
    p50_ratio = (
        storm["p50_ms"] / idle["p50_ms"] if idle["p50_ms"] else 0.0
    )
    p99_ratio = (
        storm["p99_ms"] / idle["p99_ms"] if idle["p99_ms"] else 0.0
    )
    storm.update(
        {
            "readers": readers,
            "views_per_read": views_per_read,
            "storm_seconds": round(storm_seconds, 6),
            "batches": len(batches),
            "p50_ratio": round(p50_ratio, 4),
            "p99_ratio": round(p99_ratio, 4),
            "latency_headroom": round(
                idle["p99_ms"] / storm["p99_ms"] if storm["p99_ms"] else 0.0,
                6,
            ),
            "torn_reads": torn,
            "versions_observed": len(versions_observed),
            "monotonic_versions": monotonic,
        }
    )
    isolation = {
        "reads_match_published_versions": torn == 0,
        "monotonic_versions": monotonic,
        # The storm rematerializes touched extents as fresh Relations;
        # any copy-on-write copy would mean an untouched view paid for
        # a batch it never appeared in.
        "copied_untouched_views": eve._extents.copies,
        "publishes": eve._extents.publishes,
        "pins_leaked": eve._extents.active_pins,
        "matches_serial_reference": _fingerprint(eve) == reference_fp,
    }
    return idle, storm, isolation, eve.last_report.to_dict()


# ----------------------------------------------------------------------
# Lane 3: executor parity (winners/QC/extents/CF counters)
# ----------------------------------------------------------------------
def bench_executor_parity(updates_per_relation, storm_args):
    """Replay storm + tail updates on the default and the reference
    systems; compare all."""
    # Parity is about outcomes, not latency: small extents keep the
    # full-system replays affordable without weakening the check.
    storm_args = {**storm_args, "rows": min(storm_args["rows"], 80)}
    lanes = {
        "default": SystemConfig(),
        "reference": SystemConfig.reference(),
    }
    outcomes = {}
    for label, config in lanes.items():
        eve, batches = _build_system(storm_args, config)
        eve.snapshot().release()
        qc = []
        for batch in batches:
            results = eve.apply_changes(batch)
            qc.extend(
                (r.view_name, r.chosen.qc if r.chosen else None)
                for r in results
            )
        # Tail update stream: CF_M/CF_T/CF_IO parity across lanes.
        survivors = [
            name
            for name in eve.space.relations()
            if name.startswith("Rel") and eve.space.has_relation(name)
        ]
        stream = [
            (name, "insert", (7_000 + step, step, step))
            for name in sorted(survivors)[:4]
            for step in range(updates_per_relation)
        ]
        counters = eve.apply_updates(stream)
        outcomes[label] = {
            "fingerprint": _fingerprint(eve),
            "qc": qc,
            "extents": _extent_digests(eve),
            "cf": (
                counters.messages,
                counters.bytes_transferred,
                counters.io_operations,
            ),
        }
        del eve
    reference = outcomes["reference"]
    rows = {}
    equal = True
    for label, lane in outcomes.items():
        same = all(
            lane[key] == reference[key]
            for key in ("fingerprint", "qc", "extents", "cf")
        )
        equal = equal and same
        rows[label] = same
    return {
        "outcomes_equal": equal,
        "executors": sorted(lanes),
        "per_executor_equal": rows,
        "cf_counters": {
            "messages": reference["cf"][0],
            "bytes_transferred": reference["cf"][1],
            "io_operations": reference["cf"][2],
        },
    }


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

    # Serving-process tuning, same as any latency-sensitive CPython
    # service: the default 5 ms GIL switch interval lets a CPU-bound
    # writer stretch read tails by whole multiples of a millisecond-
    # scale read.  1 ms bounds the scheduling artifact so the p99
    # ratio measures blocking (the thing MVCC removes), not the
    # interpreter's quantum.
    sys.setswitchinterval(0.001)

    if args.smoke:
        storm_args = dict(
            scenario=dict(
                views=60,
                view_relations=12,
                spare_relations=6,
                changes=12,
                hot_renames=4,
                replacement_deletes=2,
            ),
            rows=40,
            seed=11,
            batches=3,  # 1 warm-up + 2 measured
        )
        readers = 2
        views_per_read = 4
        idle_reads = 200
        think_s = 0.002
        updates_per_relation = 3
    else:
        storm_args = dict(
            scenario=dict(views=1000),  # the full 1k-view storm defaults
            rows=1000,
            seed=11,
            batches=6,  # 1 warm-up + 5 measured
        )
        readers = 2
        views_per_read = 16
        idle_reads = 300
        think_s = 0.020
        updates_per_relation = 10

    idle, storm, isolation, system_report = bench_reads(
        readers, views_per_read, idle_reads, think_s, storm_args
    )
    emit(
        format_table(
            ["metric", "idle", "during storm"],
            [
                ["reads", idle["reads"], storm["reads"]],
                ["p50 (ms)", f"{idle['p50_ms']:.4f}", f"{storm['p50_ms']:.4f}"],
                ["p99 (ms)", f"{idle['p99_ms']:.4f}", f"{storm['p99_ms']:.4f}"],
                ["mean (ms)", f"{idle['mean_ms']:.4f}", f"{storm['mean_ms']:.4f}"],
                ["p50 ratio", "-", f"{storm['p50_ratio']:.2f}x"],
                ["p99 ratio", "-", f"{storm['p99_ratio']:.2f}x"],
                ["storm wall (s)", "-", f"{storm['storm_seconds']:.3f}"],
                ["versions observed", "-", storm["versions_observed"]],
                ["torn reads", "-", storm["torn_reads"]],
            ],
            title=(
                f"Snapshot reads ({readers} readers x "
                f"{views_per_read} views/read, "
                f"{storm['batches']}-batch storm)"
            ),
        )
    )
    emit(
        format_table(
            ["invariant", "value"],
            [
                [
                    "reads match published versions",
                    isolation["reads_match_published_versions"],
                ],
                ["monotone versions", isolation["monotonic_versions"]],
                ["COW copies (untouched)", isolation["copied_untouched_views"]],
                ["versions published", isolation["publishes"]],
                ["pins leaked", isolation["pins_leaked"]],
                [
                    "storm matches serial reference",
                    isolation["matches_serial_reference"],
                ],
            ],
            title="Snapshot isolation",
        )
    )

    parity = bench_executor_parity(updates_per_relation, storm_args)
    emit(
        format_table(
            ["executor", "outcomes identical"],
            [
                [label, parity["per_executor_equal"][label]]
                for label in parity["executors"]
            ],
            title="Executor parity (winners + QC + extents + CF counters)",
        )
    )

    if storm["torn_reads"]:
        raise SystemExit(f"{storm['torn_reads']} torn reads observed")
    if not isolation["monotonic_versions"]:
        raise SystemExit("a reader observed versions out of order")
    if isolation["copied_untouched_views"]:
        raise SystemExit(
            f"{isolation['copied_untouched_views']} copy-on-write copies "
            f"during a rematerializing storm (expected 0)"
        )
    if isolation["pins_leaked"]:
        raise SystemExit(f"{isolation['pins_leaked']} snapshot pins leaked")
    if not isolation["matches_serial_reference"]:
        raise SystemExit("storm outcomes diverged from serial reference")
    if not parity["outcomes_equal"]:
        raise SystemExit("executor lanes diverged")
    if not args.smoke:
        # Mirrors validate_bench.py: the median gate holds on every
        # host; the p99 ceiling is 2x on multi-core hosts, with a
        # documented OS-fair-share allowance when the recording host
        # has a single core (reader and writer split the one core
        # 50/50 before any lock enters the picture).
        cpus = os.cpu_count() or 1
        p99_ceiling = 2.0 if cpus > 1 else 8.0
        if storm["p50_ratio"] > 2.0:
            raise SystemExit(
                f"storm read p50 {storm['p50_ratio']:.2f}x idle p50 "
                f"(target 2x)"
            )
        if storm["p99_ratio"] > p99_ceiling:
            raise SystemExit(
                f"storm read p99 {storm['p99_ratio']:.2f}x idle p99 "
                f"(ceiling {p99_ceiling}x on {cpus} cpu(s))"
            )

    path = emit_json(
        "serving",
        {
            "idle_reads": idle,
            "storm_reads": storm,
            "snapshot_isolation": isolation,
            "executor_parity": parity,
            "system_report": system_report,
            "config": {
                "smoke": args.smoke,
                "readers": readers,
                "views_per_read": views_per_read,
                "think_ms": think_s * 1000,
                "cpus": os.cpu_count() or 1,
                **storm_args,
            },
        },
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
