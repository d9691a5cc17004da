"""Repository benchmark: the default EVE system under three closed-loop
workloads (see ``perfbench/README.md``).

    python3 perfbench/run.py --workload salvage_storm --seed 1 \\
        --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` then runs
one more episode with span wrappers installed and prints the per-layer
metrics of that episode instead.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A copy of the result (and,
traced, every span) is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
#: Names the workloads and the metrics, with their units and bounds.
SPEC = ROOT / "BENCHMARK.json"

#: Before each untraced episode, set up this many times.  ``setup_s``
#: is the median of a run's set-ups; spreading them over the whole run,
#: not one stretch of it, keeps it from reading whichever speed the host
#: happened to run at during that stretch (see README, "Host noise").
SETUPS_PER_EPISODE = 2


def percentile(values: list[float], fraction: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


@dataclass
class Pass:
    """One pass of episodes: its log, timings and (traced) counters."""

    log: object
    episodes: int = 0
    setup_s: list[float] = field(default_factory=list)
    #: Each episode's time plus that of the set-up it ran on.
    wall_s: list[float] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))


def _set_up(workload, result: Pass, times: int):
    """Set the workload up ``times`` times, timing each set-up.  Returns
    the last system built and its set-up time."""
    for _ in range(times):
        system = None
        gc.collect()
        started = perf_counter()
        system = workload.setup()
        took = perf_counter() - started
        result.setup_s.append(took)
    return system, took


def run_pass(workload, seconds: float, episodes: int | None = None, tracer=None):
    """Repeat set-ups + episode until ``seconds`` have passed, set-ups
    included, and the percentile sample floors are met (or run exactly
    ``episodes`` episodes, each after a single set-up)."""
    from layers import system_counters
    from workloads import Log

    result = Pass(Log())
    began = perf_counter()
    min_writes, min_reads = workload.min_samples
    while True:
        system, setup_s = _set_up(
            workload, result, 1 if episodes is not None else SETUPS_PER_EPISODE
        )
        started = perf_counter()
        workload.episode(system, result.log, tracer)
        result.wall_s.append(setup_s + perf_counter() - started)
        result.episodes += 1
        if tracer is not None:
            for name, value in system_counters(system.eve).items():
                result.counters[name] += value
        del system
        if episodes is not None:
            if result.episodes >= episodes:
                return result
        elif (
            perf_counter() - began >= seconds
            and len(result.log.write_s) >= min_writes
            and len(result.log.read_s) >= min_reads
        ):
            return result


def end_to_end(log, peak_rss_mb: float, setups: list[float]):
    """Every end-to-end figure of one untraced pass, and the sample
    counts.  BENCHMARK.json picks the gated ones; the rest are printed
    as not gated (their spread across runs on a noisy host is too wide
    for a bound; see README)."""
    samples = {"setup_s": len(setups), "write": len(log.write_s),
               "read": len(log.read_s), "write_units": log.units}
    figures = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "write_units_per_s": log.units / (sum(log.write_s) + sum(log.read_s)),
    }
    for kind, times, scale, unit in (
        ("write", log.write_s, 1e3, "ms"),
        ("read", log.read_s, 1e6, "us"),
    ):
        for fraction in (0.50, 0.90, 0.99):
            value, beyond = percentile(times, fraction)
            name = f"{kind}_p{round(fraction * 100)}_{unit}"
            figures[name] = value * scale
            samples[f"{name}_beyond"] = beyond
    return figures, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny episodes (self-tests)"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from layers import TARGETS, per_layer_metrics
    from spans import Instrumentation, Tracer, layer_table
    from workloads import WORKLOADS, count_failed

    spec = json.loads(SPEC.read_text())
    whys = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    if args.workload not in whys:
        parser.error(f"--workload must be one of {sorted(whys)}")
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)

    untraced = run_pass(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced = tracer = None
    if args.trace:
        tracer = Tracer()
        with Instrumentation(tracer, TARGETS):
            traced = run_pass(workload, 0, episodes=1, tracer=tracer)

    # Correctness, outside every timed region: each request against the
    # reference replay, and a traced pass against the untraced one.
    logs = [untraced.log] + ([traced.log] if traced else [])
    read_keys = {
        (step, views) for log in logs for step, views, _ in log.read_checks
    }
    expected = workload.expected(read_keys)
    failed = sum(count_failed(log, expected) for log in logs)
    attempted = sum(log.attempted for log in logs)
    if traced is not None:
        # The traced episode replays the untraced pass's first episode.
        failed += sum(
            a != b
            for a, b in zip(untraced.log.write_checks, traced.log.write_checks)
        ) + sum(
            a != b
            for a, b in zip(untraced.log.read_checks, traced.log.read_checks)
        )

    host = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "workload": workload.name,
        "why": whys[workload.name],
        "seed": args.seed,
        "seconds": args.seconds,
        "episodes": untraced.episodes,
    }
    for key, value in host.items():
        print(f"# {key}: {value}")
    print(f"# failed_op_ratio: {failed / attempted:.6g} ({failed}/{attempted})")
    report: dict[str, object] = {"host": host}
    if tracer is None:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, samples = end_to_end(untraced.log, peak_rss_mb, untraced.setup_s)
        report["samples"] = samples
        report["ungated"] = {k: v for k, v in values.items() if k not in units}
        for key, value in samples.items():
            print(f"# samples {key}: {value}")
        for key, value in report["ungated"].items():
            print(f"# not gated {key}: {value:.6g}")
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer_metrics(
            tracer,
            traced.counters,
            traced.wall_s[0],
            statistics.median(untraced.wall_s),
            list(units),
        )
        table = layer_table(tracer)
        report["layers"] = table
        print(f"# {'span':<44} {'calls':>10} {'s':>10} {'self_s':>10}")
        for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
            print(
                f"# {name:<44} {row['calls']:>10} "
                f"{row['s']:>10.4f} {row['self_s']:>10.4f}"
            )
    metrics = {
        name: {"value": values[name], "unit": units[name]} for name in units
    }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report["result"] = result
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
