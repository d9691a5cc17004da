"""Self-tests of the repository benchmark at smoke size.

    python3 -m pytest perfbench -q

They check that every metric BENCHMARK.json names is printed with its
unit, that a corrupted output is counted as failed, that the traced
and untraced passes commit identical outputs, and that the benchmark
refuses to run without the library beside it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import TARGETS  # noqa: E402
from spans import Instrumentation, Tracer, layer_table  # noqa: E402
from workloads import WORKLOADS, Log, count_failed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_every_workload_in_the_spec_exists():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", trace, "--smoke",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in spec]
    for metric in spec:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float | int)
        assert any(
            line.startswith(f"{metric['name']} = ")
            and line.endswith(f" {metric['unit']}")
            for line in lines
        )


def _pass(workload, tracer=None):
    return run.run_pass(workload, 0, episodes=1, tracer=tracer)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_corrupted_output_is_counted_as_failed(workload):
    bench = WORKLOADS[workload](5, smoke=True)
    log = _pass(bench).log
    expected = bench.expected({(s, v) for s, v, _ in log.read_checks})
    assert count_failed(log, expected) == 0
    position, payload = log.write_checks[0]
    log.write_checks[0] = (position, ("corrupted", payload))
    step, views, digests = log.read_checks[-1]
    (rows, fingerprint), *rest = digests
    log.read_checks[-1] = (step, views, ((rows, fingerprint ^ 1), *rest))
    assert count_failed(log, expected) == 2


def test_a_corrupted_extent_fails_its_reads():
    bench = WORKLOADS["update_storm"](5, smoke=True)
    system = bench.setup()
    system.eve.extent(system.view).rows.append((-5, -5, -5))
    log = Log()
    bench.episode(system, log)
    expected = bench.expected({(s, v) for s, v, _ in log.read_checks})
    # Every read sees the stray row, and the final recomputation differs.
    assert count_failed(log, expected) == len(log.read_checks) + 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_passes_commit_identical_outputs(workload):
    bench = WORKLOADS[workload](7, smoke=True)
    untraced = _pass(bench).log
    tracer = Tracer()
    with Instrumentation(tracer, TARGETS):
        traced = _pass(bench, tracer).log
    assert traced.write_checks == untraced.write_checks
    assert traced.read_checks == untraced.read_checks
    assert "eve.apply_changes" in layer_table(tracer) or (
        "eve.apply_updates" in layer_table(tracer)
    )
    # Removing the instrumentation restores every wrapped entry point.
    from repro.core import eve
    from repro.esql import evaluator

    assert eve.evaluate_view is evaluator.evaluate_view
    assert not hasattr(evaluator.evaluate_view, "__wrapped__")
    assert not hasattr(eve.EVESystem.apply_changes, "__wrapped__")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_come_from_the_seed(workload):
    def inputs(seed):
        bench = WORKLOADS[workload](seed, smoke=True)
        return {
            key: value
            for key, value in vars(bench).items()
            if key not in ("seed", "sizes", "min_samples")
        }

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = _bench(
        "--workload", "salvage_storm", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
